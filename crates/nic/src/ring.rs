//! A bounded lock-free single-producer single-consumer ring — the
//! `rte_ring` (SP/SC mode) analogue.
//!
//! Each RX queue of a [`crate::port::Port`] is one of these: the simulated
//! NIC is the single producer, the worker lcore polling the queue is the
//! single consumer. Like `rte_ring`, capacity is a power of two and burst
//! enqueue/dequeue operations amortize the atomic traffic.
//!
//! # Memory ordering (verified by loom — see `tests/loom_nic.rs`)
//!
//! `head` and `tail` are monotonically increasing counters (wrapping at
//! `usize::MAX`, masked for slot indexing). The producer publishes a slot
//! write with a Release store of `head`; the consumer's Acquire load of
//! `head` is what licenses it to read the slot. Symmetrically, the consumer
//! retires a slot with a Release store of `tail`, and the producer's
//! Acquire load of `tail` licenses reuse. Each side may load *its own*
//! counter Relaxed (it is the only writer of it) — those loads are
//! annotated `lint: relaxed-ok` for the `cargo xtask lint` ordering rule.
//!
//! `len()` loads the counterpart's counter **first** (Acquire), then its
//! own: because its own counter cannot move underneath it and the
//! counterpart only advances, the subtraction can never underflow, and the
//! result is clamped to `capacity` for the transient case where the
//! counterpart advanced between the two loads. (A plain `saturating_sub`
//! would be wrong here: the counters wrap at `usize::MAX`, where a
//! perfectly valid occupied range straddles the wrap point — only
//! `wrapping_sub` gives the right distance. See DESIGN.md §9.)
//!
//! # Waking a parked consumer
//!
//! A consumer that finds the ring empty may park in one of two ways, the
//! RX-interrupt mode of DPDK's `l3fwd-power` with a NIC's interrupt
//! moderation in front of it:
//!
//! - [`Consumer::park_moderated`] sleeps for at most one coalescing
//!   period. The next push does not end it: packets gather in the ring and
//!   the consumer takes them in one go. Only a push that leaves the ring at
//!   least half full ends it early, so a burst never overflows a sleeping
//!   consumer's ring.
//! - [`Consumer::park_while_empty`] sleeps until the next push, however
//!   long that takes: an idle consumer costs nothing, and a lone item
//!   after idleness is taken at once.
//!
//! The consumer's `Waiter` holds one word with three states: awake, idle
//! (parked until the next push) and moderated (parked until the half-ring
//! mark or the period's end). Read-modify-writes on that word close the
//! lost-wakeup window without `SeqCst`:
//!
//! - the consumer announces with an `AcqRel` swap of the word to the park's
//!   state, then re-checks `head` and parks only if the ring is still empty
//!   (idle) or still under half full (moderated);
//! - the producer, after its Release store of `head`, does one `AcqRel`
//!   `fetch_and` that clears the idle state and leaves the others as they
//!   are. It unparks the consumer if the word was idle. If the word was
//!   moderated and the ring is now at least half full, it swaps the word
//!   to awake and unparks the consumer unless it was awake already.
//!
//! So a push costs one read-modify-write on the word, as a flag did, and
//! only the push that wakes a moderated consumer costs a second. All of
//! them hit one location, so they are totally ordered. If the producer's
//! `fetch_and` comes first, the consumer's swap reads from it, and the
//! `head` store happens-before the re-check, which sees the item. If the
//! consumer's swap comes first, the producer reads its state and unparks
//! it when it should; a park token set before the consumer parks makes
//! that park return at once. A moderated park that ends on its own leaves
//! the consumer at most one period late, never stuck.
//!
//! # Waking a parked producer
//!
//! A producer that must not drop (the port's lossless inject) may
//! [`Producer::park_while_full`] instead of spinning on a full ring. The
//! idle park runs with the roles swapped, on a second word: the producer
//! announces, re-checks `tail` and parks only while the ring is still more
//! than half full; [`Consumer::pop_burst`], after its Release stores of
//! `tail`, swaps that word to awake at most once per burst, only for a
//! burst that took something and left the ring at most half full, and
//! unparks the producer if it was parked. Each direction is one `Waiter`,
//! so the protocol is written once.
//!
//! The half-full mark is the hysteresis both ways: a parked producer
//! sleeps while the consumer drains half a ring, then refills it in one
//! go, so a full ring costs one park and one unpark per half ring instead
//! of a wake per burst; and a moderated consumer sleeps while the producer
//! fills half a ring.

use crate::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::thread::{self, Thread};
use crate::sync::{Arc, CachePadded};
use std::mem::MaybeUninit;
use std::time::Duration;

/// The ring's shared state. The fields each side writes per item sit on
/// cache lines of their own (`CachePadded`): the producer's `head`, the
/// consumer's `tail`, and the two waiters, each announced on by one side
/// and woken by the other. The slot array, the mask and the rarely written
/// drop count share the rest.
struct RingInner<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Next slot the producer writes (monotonic wrapping counter).
    head: CachePadded<AtomicUsize>,
    /// Next slot the consumer reads (monotonic wrapping counter).
    tail: CachePadded<AtomicUsize>,
    /// Items rejected because the ring was full.
    drops: AtomicU64,
    /// The consumer's wait for an item on an empty ring.
    consumer: CachePadded<Waiter>,
    /// The producer's wait for room on a full ring.
    producer: CachePadded<Waiter>,
}

// SAFETY: the producer only writes slots in [head, tail+capacity) and the
// consumer only reads slots in [tail, head); the head/tail Acquire/Release
// pairs order those accesses (model-checked by the loom tests). Each
// `Waiter`'s thread is written once by the side that parks on it, before
// it first announces a park on the waiter's word, and read by the other
// side only after an Acquire read-modify-write saw that announcement. T
// must be Send for values to cross the thread boundary.
unsafe impl<T: Send> Send for RingInner<T> {}
// SAFETY: as above — the head/tail protocol gives each slot a single owner
// at any point in the happens-before order, so `&RingInner` may be shared.
unsafe impl<T: Send> Sync for RingInner<T> {}

/// The waiter word's states (see the module docs): not parked.
const AWAKE: u32 = 0;
/// Parked until the other side's next push or freeing pop.
const IDLE: u32 = 1;
/// Parked for at most one period, unless a push leaves the ring at least
/// half full. A separate bit from [`IDLE`], so the producer's `fetch_and`
/// clears one and keeps the other.
const MODERATED: u32 = 2;

/// How a side parks: until woken, or for at most one coalescing period.
enum Park {
    Idle,
    Moderated(Duration),
}

/// One side's half of the wake protocol (see the module docs): the word
/// it announces a park on, the thread the other side unparks, and the
/// counts of unparks issued and moderated parks taken.
struct Waiter {
    /// [`AWAKE`], or the kind of park the waiting side has announced.
    state: AtomicU32,
    /// The thread to unpark: the waiting side's, written once before its
    /// first announcement and only read after that.
    thread: UnsafeCell<Option<Thread>>,
    /// Unparks the other side has issued.
    wakeups: AtomicU64,
    /// Moderated parks the waiting side has taken.
    sleeps: AtomicU64,
}

impl Waiter {
    fn new() -> Waiter {
        Waiter {
            state: AtomicU32::new(AWAKE),
            thread: UnsafeCell::new(None),
            wakeups: AtomicU64::new(0),
            sleeps: AtomicU64::new(0),
        }
    }

    /// Announce a park, re-check with `ready`, and park the calling thread
    /// unless it is ready. `registered` says an earlier call already
    /// stored the caller's thread: the first thread to park is the one
    /// the other side unparks, so a side parks from one thread only. The
    /// park may also end spuriously, so callers re-check either way.
    fn park_unless(&self, registered: bool, park: Park, ready: impl FnOnce() -> bool) {
        if !registered {
            let me = thread::current();
            self.thread.with_mut(|slot| {
                // SAFETY: `unpark` reads `thread` only after acquiring a
                // park this side announces below, so nothing reads it
                // yet; this is its only write.
                unsafe { *slot = Some(me) }
            });
        }
        let state = match park {
            Park::Idle => IDLE,
            Park::Moderated(_) => MODERATED,
        };
        self.state.swap(state, Ordering::AcqRel);
        if !ready() {
            match park {
                Park::Idle => thread::park(),
                Park::Moderated(period) => {
                    self.sleeps.fetch_add(1, Ordering::Relaxed);
                    thread::park_timeout(period);
                }
            }
        }
        // Awake again, so the other side need not unpark us. A racing
        // wake at worst leaves a token that ends the next park early, so
        // the clear needs no ordering.
        self.state.store(AWAKE, Ordering::Relaxed);
    }

    /// Unpark the waiting side if it has announced a park of either kind.
    /// Called after the Release store that may have made it ready.
    fn wake(&self) {
        if self.state.swap(AWAKE, Ordering::AcqRel) != AWAKE {
            self.unpark();
        }
    }

    /// The producer's half after a push, one read-modify-write: end an
    /// idle park, and end a moderated park only if `half_full()`.
    fn wake_after_push(&self, half_full: impl FnOnce() -> bool) {
        match self.state.fetch_and(!IDLE, Ordering::AcqRel) {
            IDLE => self.unpark(),
            MODERATED if half_full() => self.wake(),
            _ => {}
        }
    }

    /// Unpark the waiting side, whose announced park an Acquire
    /// read-modify-write of `state` just read. The wake is counted before
    /// the unpark, so a woken side that reads the count sees it.
    fn unpark(&self) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.thread.with(|slot| {
            // SAFETY: the waiting side wrote `thread` before the swap that
            // announced its park, which the caller's read-modify-write
            // acquired, and never writes it again.
            if let Some(waiter) = unsafe { &*slot } {
                waiter.unpark();
            }
        });
    }
}

impl<T> Drop for RingInner<T> {
    fn drop(&mut self) {
        // Drain any items still in the ring so their destructors run. The
        // counters wrap, so walk `tail` forward until it meets `head`
        // rather than iterating a `tail..head` range.
        let head = self.head.load(Ordering::Acquire);
        let mut tail = self.tail.load(Ordering::Acquire);
        while tail != head {
            // panic-ok: masked index; slots.len() is mask + 1 by construction
            self.slots[tail & self.mask].with_mut(|slot| {
                // SAFETY: slots in [tail, head) hold initialized values and
                // we have exclusive access in Drop.
                unsafe {
                    (*slot).assume_init_drop();
                }
            });
            tail = tail.wrapping_add(1);
        }
    }
}

/// The producer half of an SPSC ring.
pub struct Producer<T> {
    inner: Arc<RingInner<T>>,
    /// Producer-local cache of the consumer's tail, refreshed on apparent
    /// fullness to avoid cacheline ping-pong on every enqueue.
    cached_tail: usize,
    /// The producer's waiter holds this producer's thread.
    parker_set: bool,
}

/// The consumer half of an SPSC ring.
pub struct Consumer<T> {
    inner: Arc<RingInner<T>>,
    /// Consumer-local cache of the producer's head.
    cached_head: usize,
    /// The consumer's waiter holds this consumer's thread.
    parker_set: bool,
}

/// Create an SPSC ring with capacity `capacity` (rounded up to a power of
/// two, minimum 2).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    ring_with_counters(capacity, 0)
}

/// Like [`ring`], but with `head`/`tail` starting at `initial` instead of 0.
///
/// Test-only: lets wraparound tests start the counters near `usize::MAX`
/// so the wrap happens within a few operations instead of after 2^64.
#[doc(hidden)]
pub fn ring_with_counters<T>(capacity: usize, initial: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let slots = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(RingInner {
        slots,
        mask: cap - 1,
        head: CachePadded(AtomicUsize::new(initial)),
        tail: CachePadded(AtomicUsize::new(initial)),
        drops: AtomicU64::new(0),
        consumer: CachePadded(Waiter::new()),
        producer: CachePadded(Waiter::new()),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            cached_tail: initial,
            parker_set: false,
        },
        Consumer {
            inner,
            cached_head: initial,
            parker_set: false,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Try to enqueue one item; on a full ring the item is returned and the
    /// drop counter is *not* incremented (the caller decides). A consumer
    /// parked on the empty ring is woken.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        // Own counter: only this producer writes `head`. lint: relaxed-ok
        let head = self.inner.head.load(Ordering::Relaxed);
        if head.wrapping_sub(self.cached_tail) == self.capacity() {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if head.wrapping_sub(self.cached_tail) == self.capacity() {
                // account-ok: backpressure, not loss — `Err(value)` returns
                // ownership; push_burst counts the drop when it gives up.
                return Err(value);
            }
        }
        // panic-ok: masked index; slots.len() is mask + 1 by construction
        self.inner.slots[head & self.inner.mask].with_mut(|slot| {
            // SAFETY: slot `head` is unoccupied (head - tail < capacity,
            // established by the Acquire load of `tail` above) and only
            // this producer writes it.
            unsafe {
                (*slot).write(value);
            }
        });
        let head = head.wrapping_add(1);
        self.inner.head.store(head, Ordering::Release);
        // The producer's half of the wake protocol (see the module docs).
        let half = self.capacity() / 2;
        let (inner, cached_tail) = (&*self.inner, &mut self.cached_tail);
        inner.consumer.wake_after_push(|| {
            // The cached tail only lags, so it can only overstate the
            // fill: read the consumer's tail only when it seems half full.
            head.wrapping_sub(*cached_tail) >= half && {
                *cached_tail = inner.tail.load(Ordering::Acquire);
                head.wrapping_sub(*cached_tail) >= half
            }
        });
        Ok(())
    }

    /// Enqueue as many items from `iter` as fit; returns how many were
    /// accepted. Rejected items are counted as drops.
    pub fn push_burst(&mut self, iter: impl IntoIterator<Item = T>) -> usize {
        let mut accepted = 0;
        for item in iter {
            match self.push(item) {
                Ok(()) => accepted += 1,
                Err(_dropped) => {
                    self.inner.drops.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        accepted
    }

    /// Items dropped by `push_burst` because the ring was full.
    pub fn drops(&self) -> u64 {
        self.inner.drops.load(Ordering::Relaxed)
    }

    /// Times a push unparked the consumer, from a park of either kind.
    pub fn wakeups(&self) -> u64 {
        self.inner.consumer.wakeups.load(Ordering::Relaxed)
    }

    /// Moderated parks the consumer has taken.
    pub(crate) fn sleeps(&self) -> u64 {
        self.inner.consumer.sleeps.load(Ordering::Relaxed)
    }

    /// True while the consumer has announced a park of either kind.
    #[cfg(test)]
    pub(crate) fn consumer_sleeping(&self) -> bool {
        self.inner.consumer.state.load(Ordering::Acquire) != AWAKE
    }

    /// True while the consumer has announced a moderated park.
    #[cfg(test)]
    pub(crate) fn consumer_moderated(&self) -> bool {
        self.inner.consumer.state.load(Ordering::Acquire) == MODERATED
    }

    /// Park the calling thread while the ring is more than half full,
    /// until a [`Consumer::pop_burst`] leaves it at most half full (see
    /// the module docs). It may also return spuriously, so callers retry
    /// their push either way.
    ///
    /// The first thread to park a producer is the one the consumer wakes,
    /// so a producer parks from one thread only.
    pub fn park_while_full(&mut self) {
        let registered = std::mem::replace(&mut self.parker_set, true);
        self.inner
            .producer
            .park_unless(registered, Park::Idle, || self.len() <= self.capacity() / 2);
    }

    /// Times a burst unparked this producer from a park on a full ring.
    pub fn parks(&self) -> u64 {
        self.inner.producer.wakeups.load(Ordering::Relaxed)
    }

    /// Number of items currently queued (approximate under concurrency,
    /// but always in `0..=capacity`).
    pub fn len(&self) -> usize {
        // Counterpart first: `tail` can only advance afterwards, so the
        // subtraction cannot underflow (see the module docs).
        let tail = self.inner.tail.load(Ordering::Acquire);
        // Own counter: only this producer writes `head`. lint: relaxed-ok
        let head = self.inner.head.load(Ordering::Relaxed);
        head.wrapping_sub(tail).min(self.capacity())
    }

    /// True when no items are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Dequeue one item, if available.
    pub fn pop(&mut self) -> Option<T> {
        // Own counter: only this consumer writes `tail`. lint: relaxed-ok
        let tail = self.inner.tail.load(Ordering::Relaxed);
        if tail == self.cached_head {
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if tail == self.cached_head {
                // account-ok: empty-ring poll; no record exists to drop.
                return None;
            }
        }
        // panic-ok: masked index; slots.len() is mask + 1 by construction
        let value = self.inner.slots[tail & self.inner.mask].with(|slot| {
            // SAFETY: slot `tail` was initialized by the producer (tail !=
            // head, established by the Acquire load of `head` above) and
            // only this consumer reads it.
            unsafe { (*slot).assume_init_read() }
        });
        self.inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        Some(value)
    }

    /// Dequeue up to `max` items into `out`; returns how many were taken.
    /// This is the `rx_burst` primitive. A burst that leaves the ring at
    /// most half full wakes a producer parked on it.
    pub fn pop_burst(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let mut taken = 0;
        while taken < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    taken += 1;
                }
                // account-ok: burst drain stops at an empty ring; every
                // record popped so far is in `out`.
                None => break,
            }
        }
        // The consumer's half of the producer's wake protocol (see the
        // module docs), once per burst that freed space.
        if taken > 0 && self.len() <= self.capacity() / 2 {
            self.inner.producer.wake();
        }
        taken
    }

    /// Items dropped on the producer side.
    pub fn drops(&self) -> u64 {
        self.inner.drops.load(Ordering::Relaxed)
    }

    /// Times the producer unparked this consumer.
    pub fn wakeups(&self) -> u64 {
        self.inner.consumer.wakeups.load(Ordering::Relaxed)
    }

    /// True while the producer has announced that it is parking.
    #[cfg(test)]
    pub(crate) fn producer_waiting(&self) -> bool {
        self.inner.producer.state.load(Ordering::Acquire) != AWAKE
    }

    /// Park the calling thread until the producer's next push, unless the
    /// ring holds an item or `stop()` is true once the park is announced
    /// (see the module docs). It may also return spuriously, so callers
    /// poll again either way. Another thread that wants the consumer to
    /// return calls `unpark` on it after making `stop()` true.
    ///
    /// The first thread to park a consumer is the one the producer wakes,
    /// so a consumer parks from one thread only.
    pub fn park_while_empty(&mut self, stop: impl FnOnce() -> bool) {
        let registered = std::mem::replace(&mut self.parker_set, true);
        self.inner
            .consumer
            .park_unless(registered, Park::Idle, || !self.is_empty() || stop());
    }

    /// Park the calling thread for at most `period`, unless the ring is at
    /// least half full or `stop()` is true once the park is announced. The
    /// producer's pushes do not end the park until one leaves the ring at
    /// least half full (see the module docs). Like
    /// [`Consumer::park_while_empty`], it may return spuriously, an
    /// `unpark` after making `stop()` true ends it, and a consumer parks
    /// from one thread only.
    pub fn park_moderated(&mut self, period: Duration, stop: impl FnOnce() -> bool) {
        let registered = std::mem::replace(&mut self.parker_set, true);
        self.inner.consumer.park_unless(registered, Park::Moderated(period), || {
            self.len() >= self.capacity() / 2 || stop()
        });
    }

    /// Number of items currently queued (approximate under concurrency,
    /// but always in `0..=capacity`).
    pub fn len(&self) -> usize {
        // Own counter first: `head` only advances afterwards, and the
        // producer never moves it past `tail + capacity`, so the clamped
        // wrapping distance is exact-or-under, never garbage.
        // lint: relaxed-ok (own counter)
        let tail = self.inner.tail.load(Ordering::Relaxed);
        let head = self.inner.head.load(Ordering::Acquire);
        head.wrapping_sub(tail).min(self.capacity())
    }

    /// True when no items are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (mut p, mut c) = ring::<u32>(8);
        for i in 0..5 {
            p.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let (p, _c) = ring::<u8>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = ring::<u8>(0);
        assert_eq!(p.capacity(), 2);
    }

    #[test]
    fn full_ring_rejects() {
        let (mut p, mut c) = ring::<u8>(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        assert_eq!(p.push(3), Err(3));
        assert_eq!(c.pop(), Some(1));
        p.push(3).unwrap();
        assert_eq!(c.pop(), Some(2));
        assert_eq!(c.pop(), Some(3));
    }

    #[test]
    fn burst_counts_drops() {
        let (mut p, c) = ring::<u8>(2);
        let accepted = p.push_burst(0..5);
        assert_eq!(accepted, 2);
        assert_eq!(p.drops(), 3);
        assert_eq!(c.drops(), 3);
    }

    #[test]
    fn pop_burst_respects_max() {
        let (mut p, mut c) = ring::<u32>(16);
        p.push_burst(0..10);
        let mut out = Vec::new();
        assert_eq!(c.pop_burst(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(c.pop_burst(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn len_tracks_occupancy() {
        let (mut p, mut c) = ring::<u8>(4);
        assert!(p.is_empty() && c.is_empty());
        p.push(9).unwrap();
        p.push(9).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(c.len(), 2);
        c.pop();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (mut p, mut c) = ring::<D>(8);
            p.push(D).unwrap();
            p.push(D).unwrap();
            p.push(D).unwrap();
            drop(c.pop()); // one explicit
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spin-heavy stress; covered by loom instead
    fn spsc_stress_preserves_sequence() {
        let (mut p, mut c) = ring::<u64>(64);
        const N: u64 = 200_000;
        let producer = std::thread::spawn(move || {
            let mut i = 0u64;
            while i < N {
                if p.push(i).is_ok() {
                    i += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.pop() {
                assert_eq!(v, expected);
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }

    /// The producer's park has hysteresis: a producer parked on a full
    /// ring stays parked while bursts leave the ring more than half full,
    /// and the burst that leaves it at most half full wakes it.
    #[test]
    #[cfg_attr(miri, ignore)] // parks a real thread
    #[allow(clippy::disallowed_methods)] // the sleep gives a wrong wake time to show
    fn parked_producer_wakes_once_the_ring_is_half_full() {
        let (mut p, mut c) = ring::<u32>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..4 {
                p.push(i).unwrap();
            }
            // A half-full ring does not park: this returns at once.
            p.park_while_full();
            let mut next = 4;
            while next < 10 {
                match p.push(next) {
                    Ok(()) => next += 1,
                    Err(_) => p.park_while_full(),
                }
            }
            p.parks()
        });
        while !(c.len() == 8 && c.producer_waiting()) {
            std::thread::yield_now();
        }
        let mut got = Vec::new();
        assert_eq!(c.pop_burst(&mut got, 3), 3);
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(c.len(), 5, "five of eight left: the producer sleeps on");
        assert_eq!(c.pop_burst(&mut got, 1), 1);
        while got.len() < 10 {
            c.pop_burst(&mut got, 8);
            std::thread::yield_now();
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(producer.join().unwrap() >= 1, "the producer parked");
    }

    #[test]
    fn wraparound_many_times() {
        let (mut p, mut c) = ring::<usize>(4);
        for round in 0..1000 {
            for i in 0..3 {
                p.push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(c.pop(), Some(round * 3 + i));
            }
        }
    }

    /// Regression (ISSUE 2 satellite): the occupied range may straddle the
    /// counter wrap at `usize::MAX`; every operation and `len()` must keep
    /// working across the boundary.
    #[test]
    fn wraparound_at_usize_max_boundary() {
        let (mut p, mut c) = ring_with_counters::<u32>(4, usize::MAX - 2);
        // Fill while head wraps past usize::MAX.
        for i in 0..4 {
            p.push(i).unwrap();
            assert_eq!(p.len(), i as usize + 1);
        }
        assert_eq!(p.push(99), Err(99), "full across the wrap");
        assert_eq!(c.len(), 4);
        // Drain while tail wraps.
        for i in 0..4 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
        assert!(p.is_empty() && c.is_empty());
        // Keep cycling well past the boundary.
        for round in 0..16u32 {
            p.push(round).unwrap();
            assert_eq!(c.pop(), Some(round));
        }
    }

    /// Regression (ISSUE 2 satellite): `len()` used to subtract two
    /// independent Relaxed loads, which could observe `tail > head` and
    /// wrap to a huge value. The fixed load order plus clamping must keep
    /// every observation within `0..=capacity` under real concurrency.
    #[test]
    #[cfg_attr(miri, ignore)] // timing-dependent stress; bound proven by loom
    fn len_is_always_bounded_under_concurrency() {
        let (mut p, mut c) = ring::<u64>(8);
        let cap = p.capacity();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut max_seen = 0usize;
            while !stop2.load(std::sync::atomic::Ordering::Acquire) {
                let l = c.len();
                assert!(l <= cap, "consumer len {l} exceeds capacity {cap}");
                max_seen = max_seen.max(l);
                if let Some(_v) = c.pop() {}
            }
            max_seen
        });
        for i in 0..100_000u64 {
            let l = p.len();
            assert!(l <= cap, "producer len {l} exceeds capacity {cap}");
            let _ = p.push(i);
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        sampler.join().unwrap();
    }
}
