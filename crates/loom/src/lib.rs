//! A workspace-local, loom-compatible concurrency model checker.
//!
//! This crate provides drop-in shims for the `std::sync` / `std::cell` /
//! `std::thread` primitives used by Ruru's hot path, plus [`model`], which
//! runs a closure under every thread interleaving (bounded by a CHESS-style
//! preemption budget) and fails with a reproducible schedule on the first
//! assertion failure, data race, or deadlock. The library is named `loom`
//! and mirrors the upstream crate's API surface that the workspace needs,
//! so shimmed crates can write `use loom::...` under `cfg(loom)` exactly as
//! they would against the real crate (the build environment is offline, so
//! the checker lives in-tree).
//!
//! Two modes:
//!
//! - **Inside [`model`]**: every primitive routes through the serializing
//!   scheduler in [`rt`]. Atomics carry release/acquire vector clocks,
//!   [`cell::UnsafeCell`] accesses are checked for happens-before races,
//!   mutexes, condvars and `thread::park` block threads at the scheduler
//!   level, and every visible operation is a scheduling point.
//! - **Outside [`model`]** (e.g. ordinary unit tests or doctests compiled
//!   with `--cfg loom`): every primitive transparently falls back to plain
//!   `std` behavior, so a `--cfg loom` build of the whole workspace still
//!   runs its regular test suite.
//!
//! Knobs (environment variables): `LOOM_MAX_PREEMPTIONS` (default 2),
//! `LOOM_MAX_BRANCHES` (per-execution operation cap, default 50 000),
//! `LOOM_MAX_EXECUTIONS` (default 500 000).

#![warn(missing_docs)]

mod rt;

use rt::{vc_join, vc_leq, Blocker, Point, VClock};
use std::sync::Mutex as StdMutex;

/// Run `f` under every explored thread interleaving.
///
/// Panics (re-raising the model's own panic) if any execution fails an
/// assertion, races on an [`cell::UnsafeCell`], or deadlocks; the failing
/// schedule is printed to stderr first.
pub fn model<F>(f: F)
where
    F: Fn() + Send + Sync + 'static,
{
    rt::model(f);
}

/// Lock a meta mutex, tolerating poison (an abandoned execution may have
/// unwound while holding it; the data is still consistent because model
/// threads are serialized).
fn plock<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// cell
// ---------------------------------------------------------------------------

/// Checked interior mutability.
pub mod cell {
    use super::*;

    #[derive(Default)]
    struct CellMeta {
        /// Clock of the last write.
        writes: VClock,
        /// Join of the clocks of all reads since the last write.
        reads: VClock,
    }

    /// An `UnsafeCell` that, inside [`crate::model`], checks every access
    /// against the happens-before relation and fails the execution on a
    /// data race. Outside a model it is a plain `std` `UnsafeCell`.
    ///
    /// Access is through closures (`with` / `with_mut`) rather than `get`,
    /// so each access is a single checkable event.
    #[derive(Default)]
    pub struct UnsafeCell<T> {
        data: std::cell::UnsafeCell<T>,
        meta: StdMutex<CellMeta>,
    }

    impl<T> UnsafeCell<T> {
        /// Wrap `value`.
        pub const fn new(value: T) -> UnsafeCell<T> {
            UnsafeCell {
                data: std::cell::UnsafeCell::new(value),
                meta: StdMutex::new(CellMeta {
                    writes: Vec::new(),
                    reads: Vec::new(),
                }),
            }
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> T {
            self.data.into_inner()
        }

        /// Immutable (shared) access: the pointer must only be read.
        ///
        /// In a model, fails the execution if a write to this cell has not
        /// happened-before the calling thread.
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            if rt::in_model() {
                rt::sync_point(Point::Op);
                let race = {
                    let mut meta = plock(&self.meta);
                    rt::with_my_clock(|mine| {
                        if vc_leq(&meta.writes, mine) {
                            let mine = mine.clone();
                            vc_join(&mut meta.reads, &mine);
                            false
                        } else {
                            true
                        }
                    })
                };
                if race {
                    rt::fail("data race: unsynchronized read of UnsafeCell concurrent with a write".into());
                }
            }
            f(self.data.get())
        }

        /// Mutable (exclusive) access: the pointer may be written.
        ///
        /// In a model, fails the execution if any prior read or write of
        /// this cell has not happened-before the calling thread.
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            if rt::in_model() {
                rt::sync_point(Point::Op);
                let race = {
                    let mut meta = plock(&self.meta);
                    rt::with_my_clock(|mine| {
                        if vc_leq(&meta.writes, mine) && vc_leq(&meta.reads, mine) {
                            meta.writes = mine.clone();
                            meta.reads.clear();
                            false
                        } else {
                            true
                        }
                    })
                };
                if race {
                    rt::fail("data race: unsynchronized write of UnsafeCell concurrent with another access".into());
                }
            }
            f(self.data.get())
        }
    }

    // SAFETY: sending the cell moves the contained `T` between threads,
    // which is exactly `T: Send`; the tracking metadata is `Send` already.
    unsafe impl<T: Send> Send for UnsafeCell<T> {}
}

// ---------------------------------------------------------------------------
// hint
// ---------------------------------------------------------------------------

/// Spin-loop hint that doubles as a scheduling point in models.
pub mod hint {
    use super::*;

    /// In a model, a voluntary yield point (so spin loops cannot starve
    /// the thread they are waiting on); otherwise `std::hint::spin_loop`.
    pub fn spin_loop() {
        if rt::in_model() {
            rt::sync_point(Point::Yield);
        } else {
            std::hint::spin_loop();
        }
    }
}

// ---------------------------------------------------------------------------
// sync
// ---------------------------------------------------------------------------

/// Synchronization primitives: atomics, `Mutex`, `Condvar`, `RwLock`.
pub mod sync {
    use super::*;
    use std::ops::{Deref, DerefMut};
    use std::time::Duration;

    pub use std::sync::{Arc, LockResult, PoisonError, TryLockError, Weak};

    /// Model-aware atomic types.
    pub mod atomic {
        use super::super::*;

        pub use std::sync::atomic::Ordering;

        /// Acquire-side happens-before: join the atomic's published clock
        /// into the loading thread's clock.
        fn hb_load(meta: &StdMutex<VClock>, order: Ordering) {
            if matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
                let meta = plock(meta);
                rt::with_my_clock(|mine| vc_join(mine, &meta));
            }
        }

        /// Release-side happens-before for a plain store: a release store
        /// publishes the writer's clock; a relaxed store publishes nothing
        /// (and ends any release sequence headed at this atomic).
        fn hb_store(meta: &StdMutex<VClock>, order: Ordering) {
            let mut meta = plock(meta);
            if matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
                rt::with_my_clock(|mine| *meta = mine.clone());
            } else {
                meta.clear();
            }
        }

        /// Read-modify-write happens-before: may acquire the published
        /// clock, may join its own clock into it; a relaxed RMW leaves the
        /// published clock intact (it continues the release sequence).
        fn hb_rmw(meta: &StdMutex<VClock>, order: Ordering) {
            let mut meta = plock(meta);
            rt::with_my_clock(|mine| {
                if matches!(order, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
                    vc_join(mine, &meta);
                }
                if matches!(order, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
                    let snapshot = mine.clone();
                    vc_join(&mut meta, &snapshot);
                }
            });
        }

        macro_rules! atomic_int {
            ($(#[$attr:meta])* $name:ident, $std:ident, $prim:ty) => {
                $(#[$attr])*
                #[derive(Default)]
                pub struct $name {
                    v: std::sync::atomic::$std,
                    meta: StdMutex<VClock>,
                }

                impl $name {
                    /// A new atomic holding `v`.
                    pub const fn new(v: $prim) -> $name {
                        $name {
                            v: std::sync::atomic::$std::new(v),
                            meta: StdMutex::new(Vec::new()),
                        }
                    }

                    /// Unwrap the value.
                    pub fn into_inner(self) -> $prim {
                        self.v.into_inner()
                    }

                    /// Atomic load.
                    pub fn load(&self, order: Ordering) -> $prim {
                        if rt::in_model() {
                            rt::sync_point(Point::Op);
                            let v = self.v.load(Ordering::Relaxed);
                            hb_load(&self.meta, order);
                            v
                        } else {
                            self.v.load(order)
                        }
                    }

                    /// Atomic store.
                    pub fn store(&self, val: $prim, order: Ordering) {
                        if rt::in_model() {
                            rt::sync_point(Point::Op);
                            self.v.store(val, Ordering::Relaxed);
                            hb_store(&self.meta, order);
                        } else {
                            self.v.store(val, order);
                        }
                    }

                    /// Atomic swap.
                    pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                        self.rmw(order, |_| val)
                    }

                    /// Atomic add, returning the previous value.
                    pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur.wrapping_add(val))
                        } else {
                            self.v.fetch_add(val, order)
                        }
                    }

                    /// Atomic subtract, returning the previous value.
                    pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur.wrapping_sub(val))
                        } else {
                            self.v.fetch_sub(val, order)
                        }
                    }

                    /// Atomic bitwise OR, returning the previous value.
                    pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur | val)
                        } else {
                            self.v.fetch_or(val, order)
                        }
                    }

                    /// Atomic bitwise AND, returning the previous value.
                    pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur & val)
                        } else {
                            self.v.fetch_and(val, order)
                        }
                    }

                    /// Atomic maximum, returning the previous value.
                    pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur.max(val))
                        } else {
                            self.v.fetch_max(val, order)
                        }
                    }

                    /// Atomic minimum, returning the previous value.
                    pub fn fetch_min(&self, val: $prim, order: Ordering) -> $prim {
                        if rt::in_model() {
                            self.rmw(order, |cur| cur.min(val))
                        } else {
                            self.v.fetch_min(val, order)
                        }
                    }

                    /// Atomic compare-and-exchange.
                    pub fn compare_exchange(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        if rt::in_model() {
                            rt::sync_point(Point::Op);
                            let v = self.v.load(Ordering::Relaxed);
                            if v == current {
                                self.v.store(new, Ordering::Relaxed);
                                hb_rmw(&self.meta, success);
                                Ok(v)
                            } else {
                                hb_load(&self.meta, failure);
                                Err(v)
                            }
                        } else {
                            self.v.compare_exchange(current, new, success, failure)
                        }
                    }

                    /// Like [`Self::compare_exchange`]; the model never
                    /// fails spuriously.
                    pub fn compare_exchange_weak(
                        &self,
                        current: $prim,
                        new: $prim,
                        success: Ordering,
                        failure: Ordering,
                    ) -> Result<$prim, $prim> {
                        if rt::in_model() {
                            self.compare_exchange(current, new, success, failure)
                        } else {
                            self.v.compare_exchange_weak(current, new, success, failure)
                        }
                    }

                    /// Serialized read-modify-write (model mode only).
                    fn rmw(&self, order: Ordering, f: impl FnOnce($prim) -> $prim) -> $prim {
                        if rt::in_model() {
                            rt::sync_point(Point::Op);
                            let v = self.v.load(Ordering::Relaxed);
                            self.v.store(f(v), Ordering::Relaxed);
                            hb_rmw(&self.meta, order);
                            v
                        } else {
                            // Only `swap` reaches here outside a model.
                            self.v.swap(f(self.v.load(Ordering::Relaxed)), order)
                        }
                    }
                }
            };
        }

        atomic_int!(
            /// Model-aware `AtomicUsize`.
            AtomicUsize,
            AtomicUsize,
            usize
        );
        atomic_int!(
            /// Model-aware `AtomicU64`.
            AtomicU64,
            AtomicU64,
            u64
        );
        atomic_int!(
            /// Model-aware `AtomicU32`.
            AtomicU32,
            AtomicU32,
            u32
        );

        /// Model-aware `AtomicBool`.
        #[derive(Default)]
        pub struct AtomicBool {
            v: std::sync::atomic::AtomicBool,
            meta: StdMutex<VClock>,
        }

        impl AtomicBool {
            /// A new atomic holding `v`.
            pub const fn new(v: bool) -> AtomicBool {
                AtomicBool {
                    v: std::sync::atomic::AtomicBool::new(v),
                    meta: StdMutex::new(Vec::new()),
                }
            }

            /// Unwrap the value.
            pub fn into_inner(self) -> bool {
                self.v.into_inner()
            }

            /// Atomic load.
            pub fn load(&self, order: Ordering) -> bool {
                if rt::in_model() {
                    rt::sync_point(Point::Op);
                    let v = self.v.load(Ordering::Relaxed);
                    hb_load(&self.meta, order);
                    v
                } else {
                    self.v.load(order)
                }
            }

            /// Atomic store.
            pub fn store(&self, val: bool, order: Ordering) {
                if rt::in_model() {
                    rt::sync_point(Point::Op);
                    self.v.store(val, Ordering::Relaxed);
                    hb_store(&self.meta, order);
                } else {
                    self.v.store(val, order);
                }
            }

            /// Atomic swap.
            pub fn swap(&self, val: bool, order: Ordering) -> bool {
                if rt::in_model() {
                    rt::sync_point(Point::Op);
                    let v = self.v.load(Ordering::Relaxed);
                    self.v.store(val, Ordering::Relaxed);
                    hb_rmw(&self.meta, order);
                    v
                } else {
                    self.v.swap(val, order)
                }
            }

            /// Atomic compare-and-exchange.
            pub fn compare_exchange(
                &self,
                current: bool,
                new: bool,
                success: Ordering,
                failure: Ordering,
            ) -> Result<bool, bool> {
                if rt::in_model() {
                    rt::sync_point(Point::Op);
                    let v = self.v.load(Ordering::Relaxed);
                    if v == current {
                        self.v.store(new, Ordering::Relaxed);
                        hb_rmw(&self.meta, success);
                        Ok(v)
                    } else {
                        hb_load(&self.meta, failure);
                        Err(v)
                    }
                } else {
                    self.v.compare_exchange(current, new, success, failure)
                }
            }
        }
    }

    struct MutexMeta {
        /// Lazily assigned per-execution scheduler object id (0 = none).
        id: usize,
        locked: bool,
        /// Release clock: joined from each unlocker, acquired by lockers.
        clock: VClock,
    }

    /// A model-aware mutual-exclusion lock with the `std::sync::Mutex` API
    /// (`lock()` returns a `LockResult`; poisoning never actually occurs).
    ///
    /// The protected value lives in an `UnsafeCell` rather than an inner
    /// `std` mutex so that a model thread blocked in [`Condvar::wait`] (or
    /// suspended by the scheduler) never holds an OS lock that another
    /// model thread would then really block on.
    pub struct Mutex<T> {
        cell: std::cell::UnsafeCell<T>,
        meta: StdMutex<MutexMeta>,
        /// Fallback mode blocks on this (paired with `meta`).
        cv: std::sync::Condvar,
    }

    // SAFETY: the `locked` flag in `meta` (enforced by the scheduler in
    // model mode, and by `cv`-based blocking in fallback mode) guarantees
    // at most one thread holds a guard, so access to the cell is exclusive;
    // moving/sharing the mutex therefore only requires `T: Send`.
    unsafe impl<T: Send> Send for Mutex<T> {}
    // SAFETY: as above — guard exclusivity makes `&Mutex<T>` safe to share.
    unsafe impl<T: Send> Sync for Mutex<T> {}

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex holding `value`.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                cell: std::cell::UnsafeCell::new(value),
                meta: StdMutex::new(MutexMeta {
                    id: 0,
                    locked: false,
                    clock: Vec::new(),
                }),
                cv: std::sync::Condvar::new(),
            }
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> LockResult<T> {
            Ok(self.cell.into_inner())
        }

        /// Exclusive access without locking.
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            Ok(self.cell.get_mut())
        }

        fn object_id(&self) -> usize {
            let mut meta = plock(&self.meta);
            if meta.id == 0 {
                meta.id = rt::new_object_id();
            }
            meta.id
        }

        /// Acquire (blocking). Never actually returns `Err`.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if rt::in_model() {
                rt::sync_point(Point::Op);
                self.model_acquire();
            } else {
                let mut meta = plock(&self.meta);
                while meta.locked {
                    meta = self.cv.wait(meta).unwrap_or_else(|e| e.into_inner());
                }
                meta.locked = true;
            }
            Ok(MutexGuard {
                mx: self,
                _not_send: std::marker::PhantomData,
            })
        }

        /// Model-mode acquire loop: take the lock or block at the
        /// scheduler until an unlock wakes us. Callers provide the
        /// scheduling point.
        fn model_acquire(&self) {
            let id = self.object_id();
            loop {
                {
                    let mut meta = plock(&self.meta);
                    if !meta.locked {
                        meta.locked = true;
                        let clock = meta.clock.clone();
                        drop(meta);
                        rt::with_my_clock(|mine| vc_join(mine, &clock));
                        return;
                    }
                }
                rt::block_on(Blocker::Mutex(id));
            }
        }

        /// Release. In model mode this is deliberately *not* a scheduling
        /// point (the next visible operation of the unlocking thread is),
        /// which keeps unlock safe to run from guard `Drop` during panic
        /// unwinding.
        fn unlock(&self) {
            if rt::in_model() {
                let id;
                {
                    let mut meta = plock(&self.meta);
                    meta.locked = false;
                    id = meta.id;
                    rt::with_my_clock(|mine| {
                        let snapshot = mine.clone();
                        vc_join(&mut meta.clock, &snapshot);
                    });
                }
                rt::unblock_where(|b| b == Blocker::Mutex(id));
            } else {
                plock(&self.meta).locked = false;
                self.cv.notify_one();
            }
        }
    }

    /// RAII guard for [`Mutex`].
    pub struct MutexGuard<'a, T> {
        mx: &'a Mutex<T>,
        _not_send: std::marker::PhantomData<*mut T>,
    }

    impl<T> Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            // SAFETY: the guard proves exclusive ownership of the lock
            // (see the `Sync` impl on `Mutex`), so the cell cannot be
            // accessed concurrently.
            unsafe { &*self.mx.cell.get() }
        }
    }

    impl<T> DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            // SAFETY: as in `deref` — the held lock makes this exclusive.
            unsafe { &mut *self.mx.cell.get() }
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            self.mx.unlock();
        }
    }

    /// Result of [`Condvar::wait_timeout`].
    pub struct WaitTimeoutResult {
        timed_out: bool,
    }

    impl WaitTimeoutResult {
        /// True if the wait ended because the timeout elapsed.
        pub fn timed_out(&self) -> bool {
            self.timed_out
        }
    }

    /// A model-aware condition variable with the `std::sync::Condvar` API.
    ///
    /// In model mode, `wait_timeout` is a nondeterministic choice: the
    /// explorer covers both "a notify arrives" and "the timeout fires
    /// first" (and force-fires timeouts when every thread is blocked, so
    /// models with timed waits always terminate).
    pub struct Condvar {
        std: std::sync::Condvar,
        id: std::sync::atomic::AtomicUsize,
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Condvar {
            Condvar {
                std: std::sync::Condvar::new(),
                id: std::sync::atomic::AtomicUsize::new(0),
            }
        }

        fn object_id(&self) -> usize {
            use std::sync::atomic::Ordering as O;
            let id = self.id.load(O::Relaxed);
            if id != 0 {
                return id;
            }
            let id = rt::new_object_id();
            self.id.store(id, O::Relaxed);
            id
        }

        /// Block until notified, releasing `guard` while waiting.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            let mx = guard.mx;
            std::mem::forget(guard);
            if rt::in_model() {
                let id = self.object_id();
                rt::sync_point(Point::Op);
                mx.unlock();
                rt::block_on(Blocker::Condvar(id));
                mx.model_acquire();
            } else {
                let mut meta = plock(&mx.meta);
                meta.locked = false;
                mx.cv.notify_one();
                meta = self.std.wait(meta).unwrap_or_else(|e| e.into_inner());
                while meta.locked {
                    meta = mx.cv.wait(meta).unwrap_or_else(|e| e.into_inner());
                }
                meta.locked = true;
            }
            Ok(MutexGuard {
                mx,
                _not_send: std::marker::PhantomData,
            })
        }

        /// Block until notified or `dur` elapses.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            let mx = guard.mx;
            std::mem::forget(guard);
            let timed_out;
            if rt::in_model() {
                let id = self.object_id();
                rt::sync_point(Point::Op);
                mx.unlock();
                timed_out = if rt::decide_bool() {
                    // Explore the branch where the timeout beats any notify.
                    true
                } else {
                    rt::block_on(Blocker::CondvarTimeout(id))
                };
                mx.model_acquire();
            } else {
                let mut meta = plock(&mx.meta);
                meta.locked = false;
                mx.cv.notify_one();
                let (mut m, res) = self
                    .std
                    .wait_timeout(meta, dur)
                    .unwrap_or_else(|e| e.into_inner());
                timed_out = res.timed_out();
                while m.locked {
                    m = mx.cv.wait(m).unwrap_or_else(|e| e.into_inner());
                }
                m.locked = true;
            }
            Ok((
                MutexGuard {
                    mx,
                    _not_send: std::marker::PhantomData,
                },
                WaitTimeoutResult { timed_out },
            ))
        }

        /// Wake one waiter.
        pub fn notify_one(&self) {
            if rt::in_model() {
                let id = self.object_id();
                rt::sync_point(Point::Op);
                rt::unblock_one(|b| {
                    b == Blocker::Condvar(id) || b == Blocker::CondvarTimeout(id)
                });
            } else {
                self.std.notify_one();
            }
        }

        /// Wake all waiters.
        pub fn notify_all(&self) {
            if rt::in_model() {
                let id = self.object_id();
                rt::sync_point(Point::Op);
                rt::unblock_where(|b| {
                    b == Blocker::Condvar(id) || b == Blocker::CondvarTimeout(id)
                });
            } else {
                self.std.notify_all();
            }
        }
    }

    /// A reader-writer lock with the `std::sync::RwLock` API.
    ///
    /// In this checker, readers are serialized (it is a [`Mutex`] inside):
    /// strictly stronger mutual exclusion, so every schedule it admits is a
    /// schedule the real `RwLock` admits too — race freedom verified here
    /// carries over, at the cost of not exploring reader-reader overlap
    /// (which is invisible to race detection anyway: readers don't write).
    pub struct RwLock<T> {
        inner: Mutex<T>,
    }

    impl<T: Default> Default for RwLock<T> {
        fn default() -> Self {
            RwLock::new(T::default())
        }
    }

    impl<T> RwLock<T> {
        /// A new unlocked lock holding `value`.
        pub const fn new(value: T) -> RwLock<T> {
            RwLock {
                inner: Mutex::new(value),
            }
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }

        /// Shared access (serialized in the model).
        pub fn read(&self) -> LockResult<RwLockReadGuard<'_, T>> {
            Ok(RwLockReadGuard {
                g: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            })
        }

        /// Exclusive access.
        pub fn write(&self) -> LockResult<RwLockWriteGuard<'_, T>> {
            Ok(RwLockWriteGuard {
                g: self.inner.lock().unwrap_or_else(|e| e.into_inner()),
            })
        }
    }

    /// RAII shared guard for [`RwLock`].
    pub struct RwLockReadGuard<'a, T> {
        g: MutexGuard<'a, T>,
    }

    impl<T> Deref for RwLockReadGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.g
        }
    }

    /// RAII exclusive guard for [`RwLock`].
    pub struct RwLockWriteGuard<'a, T> {
        g: MutexGuard<'a, T>,
    }

    impl<T> Deref for RwLockWriteGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            &self.g
        }
    }

    impl<T> DerefMut for RwLockWriteGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            &mut self.g
        }
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Model-aware threads.
pub mod thread {
    use super::*;
    use std::sync::Arc;

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            tid: usize,
            slot: Arc<StdMutex<Option<T>>>,
        },
    }

    /// Handle to a spawned thread (model or real).
    pub struct JoinHandle<T> {
        inner: Inner<T>,
        thread: Thread,
    }

    impl<T> JoinHandle<T> {
        fn std(handle: std::thread::JoinHandle<T>) -> JoinHandle<T> {
            JoinHandle {
                thread: Thread::Std(handle.thread().clone()),
                inner: Inner::Std(handle),
            }
        }

        /// The spawned thread, e.g. to `unpark` it.
        pub fn thread(&self) -> &Thread {
            &self.thread
        }

        /// Wait for the thread and take its return value.
        pub fn join(self) -> std::thread::Result<T> {
            match self.inner {
                Inner::Std(h) => h.join(),
                Inner::Model { tid, slot } => {
                    rt::join_thread(tid);
                    // A model-thread panic aborts the whole execution
                    // before join can observe it, so the slot is filled.
                    Ok(plock(&slot)
                        .take()
                        .expect("joined model thread left no result"))
                }
            }
        }
    }

    /// A handle to a thread (model or real), used to `unpark` it.
    #[derive(Clone, Debug)]
    pub enum Thread {
        /// A real thread (outside a model).
        Std(std::thread::Thread),
        /// Model thread `tid` of the running execution.
        Model(usize),
    }

    impl Thread {
        /// Set the thread's park token, waking it if it is parked. In a
        /// model this is a visible operation, and the woken `park`
        /// happens-after it.
        pub fn unpark(&self) {
            match self {
                Thread::Std(t) => t.unpark(),
                Thread::Model(tid) => {
                    if rt::in_model() {
                        rt::unpark(*tid);
                    }
                }
            }
        }
    }

    /// The calling thread.
    pub fn current() -> Thread {
        if rt::in_model() {
            Thread::Model(rt::current_tid())
        } else {
            Thread::Std(std::thread::current())
        }
    }

    /// Block until the calling thread's park token is set, then consume
    /// it (token semantics: an `unpark` before the `park` makes it return
    /// at once). In a model the wait blocks at the scheduler, and it never
    /// ends spuriously, so a lost wakeup surfaces as a deadlock.
    pub fn park() {
        if rt::in_model() {
            rt::park();
        } else {
            std::thread::park();
        }
    }

    /// Like [`park`], but returns after at most `dur` without a token. In
    /// a model the wait may end at any point without an `unpark`: the
    /// explorer covers the timeout firing before any `unpark` and fires it
    /// when every thread is blocked, so `dur` itself plays no part.
    pub fn park_timeout(dur: std::time::Duration) {
        if rt::in_model() {
            rt::park_timeout();
        } else {
            std::thread::park_timeout(dur);
        }
    }

    /// Spawn a thread running `f`. In a model, the thread is scheduled by
    /// the explorer (and counts against its small thread budget).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        if rt::in_model() {
            let slot = Arc::new(StdMutex::new(None));
            let slot2 = Arc::clone(&slot);
            let tid = rt::spawn_thread(Box::new(move || {
                let out = f();
                *plock(&slot2) = Some(out);
            }));
            JoinHandle {
                inner: Inner::Model { tid, slot },
                thread: Thread::Model(tid),
            }
        } else {
            JoinHandle::std(std::thread::spawn(f))
        }
    }

    /// Named-thread builder mirroring `std::thread::Builder` (the name is
    /// only applied to real threads; model threads are `loom-<tid>`).
    #[derive(Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        /// A new builder.
        pub fn new() -> Builder {
            Builder::default()
        }

        /// Set the thread name.
        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        /// Spawn like [`spawn`]; errors only on real-thread spawn failure.
        pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if rt::in_model() {
                Ok(spawn(f))
            } else {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                Ok(JoinHandle::std(b.spawn(f)?))
            }
        }
    }

    /// Voluntarily cede the processor (a free scheduling switch in models,
    /// so spin-with-yield loops always let their peer make progress).
    pub fn yield_now() {
        if rt::in_model() {
            rt::sync_point(Point::Yield);
        } else {
            std::thread::yield_now();
        }
    }
}

// ---------------------------------------------------------------------------
// Self-tests: the checker checking itself.
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::cell::UnsafeCell;
    use super::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use super::sync::{Arc, Condvar, Mutex};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn fails(f: impl Fn() + Send + Sync + 'static) -> bool {
        catch_unwind(AssertUnwindSafe(move || super::model(f))).is_err()
    }

    #[test]
    fn explores_multiple_executions() {
        let count = Arc::new(std::sync::Mutex::new(0usize));
        let count2 = Arc::clone(&count);
        super::model(move || {
            *count2.lock().unwrap() += 1;
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = Arc::clone(&a);
            let t = super::thread::spawn(move || {
                a2.store(1, Ordering::Release);
            });
            let _ = a.load(Ordering::Acquire);
            t.join().unwrap();
        });
        assert!(*count.lock().unwrap() > 1, "expected >1 interleaving");
    }

    #[test]
    fn atomic_fetch_add_sums() {
        super::model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = Arc::clone(&a);
            let t = super::thread::spawn(move || {
                a2.fetch_add(1, Ordering::AcqRel);
            });
            a.fetch_add(1, Ordering::AcqRel);
            t.join().unwrap();
            assert_eq!(a.load(Ordering::Acquire), 2);
        });
    }

    #[test]
    // Sharing an unsynchronized UnsafeCell across threads is the bug shape
    // these models exist to detect; the Sync impls below are deliberate.
    #[allow(clippy::arc_with_non_send_sync)]
    fn detects_unsafecell_lost_update() {
        assert!(fails(|| {
            let c = Arc::new(UnsafeCell::new(0u32));
            let c2 = Arc::clone(&c);
            // SAFETY-free wrapper: UnsafeCell is Send; sharing it between
            // threads without synchronization is exactly the bug under test.
            struct Share<T>(Arc<UnsafeCell<T>>);
            // SAFETY: test-only — we are deliberately creating the race
            // the checker must detect.
            unsafe impl<T: Send> Sync for Share<T> {}
            // SAFETY: as above.
            unsafe impl<T: Send> Send for Share<T> {}
            let s = Share(c2);
            let t = super::thread::spawn(move || {
                let s = s; // capture the whole wrapper, not the Arc field
                s.0.with_mut(|p| {
                    // SAFETY: pointer from with_mut is valid for the closure.
                    unsafe { *p += 1 }
                });
            });
            c.with_mut(|p| {
                // SAFETY: pointer from with_mut is valid for the closure.
                unsafe { *p += 1 }
            });
            t.join().unwrap();
        }));
    }

    #[test]
    // As above: the wrapper's Sync impl makes the cross-thread sharing sound
    // for the model; the bare Arc<UnsafeCell<_>> is intermediate scaffolding.
    #[allow(clippy::arc_with_non_send_sync)]
    fn release_acquire_publishes() {
        struct Share<T>(Arc<UnsafeCell<T>>);
        // SAFETY: test-only sharing; accesses are ordered by the
        // release/acquire flag below, which is what the test verifies.
        unsafe impl<T: Send> Sync for Share<T> {}
        // SAFETY: as above.
        unsafe impl<T: Send> Send for Share<T> {}
        super::model(|| {
            let cell = Share(Arc::new(UnsafeCell::new(0u32)));
            let flag = Arc::new(AtomicBool::new(false));
            let (f2, c2) = (Arc::clone(&flag), Share(Arc::clone(&cell.0)));
            let t = super::thread::spawn(move || {
                let c2 = c2; // capture the whole wrapper, not the Arc field
                c2.0.with_mut(|p| {
                    // SAFETY: happens-before the Release store below.
                    unsafe { *p = 42 }
                });
                f2.store(true, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) {
                let v = cell.0.with(|p| {
                    // SAFETY: Acquire load observed the flag, so the write
                    // above happens-before this read.
                    unsafe { *p }
                });
                assert_eq!(v, 42);
            }
            t.join().unwrap();
        });
    }

    #[test]
    // As above: deliberately racy sharing, wrapped for the checker to flag.
    #[allow(clippy::arc_with_non_send_sync)]
    fn detects_relaxed_publication_race() {
        struct Share<T>(Arc<UnsafeCell<T>>);
        // SAFETY: test-only — the Relaxed flag provides no ordering, which
        // is the race the checker must detect.
        unsafe impl<T: Send> Sync for Share<T> {}
        // SAFETY: as above.
        unsafe impl<T: Send> Send for Share<T> {}
        assert!(fails(|| {
            let cell = Share(Arc::new(UnsafeCell::new(0u32)));
            let flag = Arc::new(AtomicBool::new(false));
            let (f2, c2) = (Arc::clone(&flag), Share(Arc::clone(&cell.0)));
            let t = super::thread::spawn(move || {
                let c2 = c2; // capture the whole wrapper, not the Arc field
                c2.0.with_mut(|p| {
                    // SAFETY: valid pointer; the *ordering* is what's broken.
                    unsafe { *p = 42 }
                });
                f2.store(true, Ordering::Relaxed);
            });
            if flag.load(Ordering::Relaxed) {
                cell.0.with(|p| {
                    // SAFETY: valid pointer; racy by construction.
                    let _ = unsafe { *p };
                });
            }
            t.join().unwrap();
        }));
    }

    #[test]
    fn mutex_serializes_increments() {
        super::model(|| {
            let m = Arc::new(Mutex::new(0u32));
            let m2 = Arc::clone(&m);
            let t = super::thread::spawn(move || {
                *m2.lock().unwrap() += 1;
            });
            *m.lock().unwrap() += 1;
            t.join().unwrap();
            assert_eq!(*m.lock().unwrap(), 2);
        });
    }

    #[test]
    fn detects_lock_order_deadlock() {
        assert!(fails(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = super::thread::spawn(move || {
                let _ga = a2.lock().unwrap();
                let _gb = b2.lock().unwrap();
            });
            let _gb = b.lock().unwrap();
            let _ga = a.lock().unwrap();
            drop((_ga, _gb));
            t.join().unwrap();
        }));
    }

    #[test]
    fn condvar_handoff() {
        super::model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = Arc::clone(&pair);
            let t = super::thread::spawn(move || {
                let (m, cv) = &*pair2;
                *m.lock().unwrap() = true;
                cv.notify_one();
            });
            let (m, cv) = &*pair;
            let mut ready = m.lock().unwrap();
            while !*ready {
                ready = cv.wait(ready).unwrap();
            }
            drop(ready);
            t.join().unwrap();
        });
    }

    #[test]
    fn condvar_wait_timeout_terminates_without_notify() {
        super::model(|| {
            let m = Mutex::new(());
            let cv = Condvar::new();
            let g = m.lock().unwrap();
            let (g, res) = cv.wait_timeout(g, Duration::from_millis(1)).unwrap();
            assert!(res.timed_out());
            drop(g);
        });
    }

    #[test]
    fn unpark_before_park_returns_at_once() {
        super::model(|| {
            // Token semantics: the token set first makes the park return.
            super::thread::current().unpark();
            super::thread::park();
        });
    }

    #[test]
    fn park_returns_after_a_racing_unpark() {
        super::model(|| {
            let main = super::thread::current();
            let t = super::thread::spawn(move || main.unpark());
            super::thread::park();
            t.join().unwrap();
        });
    }

    #[test]
    fn join_handle_thread_unparks_the_spawned_thread() {
        super::model(|| {
            let t = super::thread::spawn(super::thread::park);
            t.thread().unpark();
            t.join().unwrap();
        });
    }

    #[test]
    fn park_timeout_ends_without_an_unpark() {
        super::model(|| super::thread::park_timeout(Duration::from_millis(1)));
    }

    #[test]
    fn park_timeout_returns_after_a_racing_unpark_or_its_timeout() {
        // Both endings of the first park are explored. One that timed out
        // leaves the token for the second; the second may time out too.
        super::model(|| {
            let main = super::thread::current();
            let t = super::thread::spawn(move || main.unpark());
            super::thread::park_timeout(Duration::from_millis(1));
            t.join().unwrap();
            super::thread::park_timeout(Duration::from_millis(1));
        });
    }

    #[test]
    fn detects_lost_wakeup() {
        // A park nobody unparks is a deadlock, not a timeout.
        assert!(fails(|| {
            let t = super::thread::spawn(super::thread::park);
            t.join().unwrap();
        }));
    }

    #[test]
    // As in `release_acquire_publishes`: the wrapper's Sync impl is sound
    // because the unpark -> park edge orders the two accesses.
    #[allow(clippy::arc_with_non_send_sync)]
    fn unpark_happens_before_the_woken_park() {
        struct Share<T>(Arc<UnsafeCell<T>>);
        // SAFETY: test-only sharing; the write happens-before the read via
        // unpark -> park, which is what the test verifies.
        unsafe impl<T: Send> Sync for Share<T> {}
        // SAFETY: as above.
        unsafe impl<T: Send> Send for Share<T> {}
        super::model(|| {
            let cell = Share(Arc::new(UnsafeCell::new(0u32)));
            let c2 = Share(Arc::clone(&cell.0));
            let main = super::thread::current();
            let t = super::thread::spawn(move || {
                let c2 = c2; // capture the whole wrapper, not the Arc field
                c2.0.with_mut(|p| {
                    // SAFETY: happens-before the unpark below.
                    unsafe { *p = 42 }
                });
                main.unpark();
            });
            super::thread::park();
            let v = cell.0.with(|p| {
                // SAFETY: the park returned on the token set by the
                // unpark, so the write above happens-before this read.
                unsafe { *p }
            });
            assert_eq!(v, 42);
            t.join().unwrap();
        });
    }

    #[test]
    fn yield_spin_loop_makes_progress() {
        super::model(|| {
            let flag = Arc::new(AtomicBool::new(false));
            let f2 = Arc::clone(&flag);
            let t = super::thread::spawn(move || {
                f2.store(true, Ordering::Release);
            });
            while !flag.load(Ordering::Acquire) {
                super::thread::yield_now();
            }
            t.join().unwrap();
        });
    }

    #[test]
    fn join_returns_value() {
        super::model(|| {
            let t = super::thread::spawn(|| 7u32);
            assert_eq!(t.join().unwrap(), 7);
        });
    }

    #[test]
    fn fallback_outside_model_behaves_like_std() {
        // No model() wrapper: everything takes the std fallback path.
        let a = Arc::new(AtomicUsize::new(0));
        let m = Arc::new(Mutex::new(0u32));
        let (a2, m2) = (Arc::clone(&a), Arc::clone(&m));
        let t = super::thread::spawn(move || {
            a2.fetch_add(1, Ordering::AcqRel);
            *m2.lock().unwrap() += 1;
        });
        a.fetch_add(1, Ordering::AcqRel);
        *m.lock().unwrap() += 1;
        t.join().unwrap();
        assert_eq!(a.load(Ordering::Acquire), 2);
        assert_eq!(*m.lock().unwrap(), 2);
        let c = UnsafeCell::new(5u32);
        // SAFETY: single-threaded access in the fallback path.
        assert_eq!(c.with(|p| unsafe { *p }), 5);
    }
}
