//! Concurrency shim: `std` primitives normally, `loom` under `cfg(loom)`.
//!
//! Every module in the hot path imports its synchronization primitives from
//! here instead of `std::sync` / `std::cell` / `std::thread` directly (the
//! `cargo xtask lint` pass enforces this). A normal build compiles to plain
//! `std` types with zero overhead; a `RUSTFLAGS="--cfg loom"` build swaps
//! in the model checker's instrumented types, so the loom tests in
//! `tests/loom_nic.rs` (and `ruru-mq`'s `tests/loom_mq.rs`) can exhaustively
//! explore interleavings of the real production code, not a copy of it.
//!
//! Layout mirrors `std`: `sync::{Arc, Mutex, Condvar, RwLock, atomic}` at
//! the top level plus `sync::cell`, `sync::hint`, and `sync::thread`
//! submodules. The one deliberate difference from `std` is
//! [`cell::UnsafeCell`]: access goes through `with` / `with_mut` closures
//! (loom's API) so that each access is a single event the checker can test
//! against the happens-before relation.
//!
//! One addition has no `std` counterpart: `CachePadded`, which gives a
//! value written by one side of a lock-free structure a cache block of its
//! own.

#[cfg(loom)]
pub use loom::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, WaitTimeoutResult, Weak,
};

#[cfg(loom)]
pub use loom::sync::atomic;

#[cfg(loom)]
pub use loom::{cell, hint, thread};

#[cfg(not(loom))]
pub use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard, WaitTimeoutResult, Weak,
};

#[cfg(not(loom))]
pub use std::sync::atomic;

#[cfg(not(loom))]
pub use std::{hint, thread};

/// Closure-based interior mutability (loom's `UnsafeCell` API) backed by a
/// plain `std::cell::UnsafeCell` in normal builds.
#[cfg(not(loom))]
pub mod cell {
    /// A zero-overhead `std::cell::UnsafeCell` exposing loom's closure API.
    ///
    /// The `with` / `with_mut` methods are safe to call — the obligation to
    /// uphold aliasing rules sits on the caller's use of the raw pointer,
    /// exactly as with `std::cell::UnsafeCell::get`.
    #[derive(Default)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    impl<T> UnsafeCell<T> {
        /// Wrap `value`.
        pub const fn new(value: T) -> UnsafeCell<T> {
            UnsafeCell(std::cell::UnsafeCell::new(value))
        }

        /// Unwrap the value.
        pub fn into_inner(self) -> T {
            self.0.into_inner()
        }

        /// Shared access: the pointer passed to `f` must only be read.
        #[inline(always)]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access: the pointer passed to `f` may be written; the
        /// caller must guarantee no concurrent access of either kind.
        #[inline(always)]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}

/// A value aligned, and so padded, to its own 128-byte block, so that no
/// other field shares its cache line: the SPSC ring's `head`, `tail` and
/// two waiters, and the free list's two positions, are each written by a
/// different thread, and on one line every write would steal the line from
/// the other side. 128 bytes, not 64, because x86-64 prefetches lines in
/// adjacent pairs (crossbeam's `CachePadded` does the same).
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

impl<T> core::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}
