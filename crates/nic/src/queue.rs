//! A bounded lock-free multi-producer multi-consumer queue (Vyukov's
//! array-based MPMC design), used as the mbuf pool's free list.
//!
//! Replaces the `crossbeam` `ArrayQueue` the pool used before the
//! workspace's hot path moved onto the [`crate::sync`] shim: the free list
//! is touched by every worker core returning an mbuf, so it must be
//! loom-checkable like the rest of the path.
//!
//! # How it works (and the memory ordering)
//!
//! Each slot carries a sequence number. A slot whose `seq` equals the
//! current `enqueue_pos` is free; a producer claims it by CAS-advancing
//! `enqueue_pos`, writes the value, then publishes with a Release store of
//! `seq = pos + 1`. A consumer sees that `seq` with an Acquire load (that
//! pair is what transfers ownership of the value), claims the slot by
//! CAS-advancing `dequeue_pos`, reads the value, and recycles the slot for
//! the next lap with a Release store of `seq = pos + capacity`. The
//! position counters themselves are only claim tickets — all value
//! publication rides on `seq` — so their CAS loop runs Relaxed.
//!
//! A slot that is a lap behind does not by itself mean the queue is full:
//! a consumer may have claimed it and not yet stored the recycled `seq`.
//! Likewise an unpublished slot does not mean empty while a producer is
//! mid-write. So, as in crossbeam's `ArrayQueue`, `push` reports full only
//! when the positions say so (`enqueue_pos == dequeue_pos + capacity`) and
//! `pop` reports empty only when `enqueue_pos == dequeue_pos`; otherwise
//! it waits for the other side to finish its few-instruction critical
//! step and retries, spinning first and then yielding.
//!
//! Positions are monotonic wrapping counters masked to a power-of-two
//! capacity, like [`crate::ring`].

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::cell::UnsafeCell;
use crate::sync::{hint, thread, CachePadded};
use std::mem::MaybeUninit;

struct Slot<T> {
    /// Lap-tagged state of this slot (see module docs).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded MPMC queue with power-of-two capacity (rounded up, minimum 2).
/// The two claim positions sit on cache lines of their own
/// (`CachePadded`): as the mbuf free list, the feeder advances
/// `dequeue_pos` and the lcore `enqueue_pos` for every packet.
pub struct MpmcQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next claim ticket for producers (monotonic wrapping counter).
    enqueue_pos: CachePadded<AtomicUsize>,
    /// Next claim ticket for consumers.
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: a slot's value is written by exactly one producer (the CAS winner
// for that ticket) and read by exactly one consumer, ordered by the
// Release/Acquire pair on the slot's `seq`; values therefore cross threads
// at most once, requiring `T: Send`.
unsafe impl<T: Send> Send for MpmcQueue<T> {}
// SAFETY: as above — per-slot ownership hand-off makes shared `&MpmcQueue`
// access sound.
unsafe impl<T: Send> Sync for MpmcQueue<T> {}

impl<T> MpmcQueue<T> {
    /// An empty queue holding at most `capacity` items (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> MpmcQueue<T> {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|seq| Slot {
                seq: AtomicUsize::new(seq),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MpmcQueue {
            slots,
            mask: cap - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Capacity of the queue.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Enqueue `value`, or hand it back if the queue is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        let mut waits = 0;
        loop {
            // panic-ok: masked index; slots.len() is mask + 1 by construction
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos) as isize;
            if dif == 0 {
                // Slot is free this lap: claim the ticket. The CAS is only
                // a claim (publication happens on `seq`), hence Relaxed.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        slot.value.with_mut(|p| {
                            // SAFETY: winning the CAS makes this thread the
                            // slot's sole producer for this lap; the
                            // consumer cannot touch it until the Release
                            // store of `seq` below.
                            unsafe {
                                (*p).write(value);
                            }
                        });
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // Slot still holds last lap's value. Full only if a whole
                // lap of items is unclaimed; otherwise a consumer has
                // claimed the slot and is about to recycle it.
                let deq = self.dequeue_pos.load(Ordering::Relaxed);
                if deq.wrapping_add(self.capacity()) == pos {
                    // account-ok: backpressure, not loss — `Err(value)`
                    // returns ownership; push_burst's caller counts the
                    // ring-full drop.
                    return Err(value);
                }
                snooze(&mut waits);
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            } else {
                // Another producer claimed this ticket; reload and retry.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeue one item, if available.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        let mut waits = 0;
        loop {
            // panic-ok: masked index; slots.len() is mask + 1 by construction
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq.wrapping_sub(pos.wrapping_add(1)) as isize;
            if dif == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let value = slot.value.with(|p| {
                            // SAFETY: the Acquire load of `seq` saw the
                            // producer's publication, and winning the CAS
                            // makes this thread the slot's sole consumer
                            // for this lap.
                            unsafe { (*p).assume_init_read() }
                        });
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // Slot not yet published this lap. Empty only if no
                // producer holds a ticket; otherwise one is mid-write.
                let enq = self.enqueue_pos.load(Ordering::Relaxed);
                if enq == pos {
                    // account-ok: empty-queue poll; no record exists to drop.
                    return None;
                }
                snooze(&mut waits);
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of items currently queued (approximate under concurrency,
    /// but always in `0..=capacity`).
    pub fn len(&self) -> usize {
        // Consumer side first, as in `ring::len`: `dequeue_pos` only
        // advances afterwards, so the distance cannot underflow.
        let deq = self.dequeue_pos.load(Ordering::Acquire);
        let enq = self.enqueue_pos.load(Ordering::Acquire);
        enq.wrapping_sub(deq).min(self.capacity())
    }

    /// True when no items are queued (approximate under concurrency).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Spins this many rounds waiting for another thread's in-flight slot
/// step before yielding instead.
const SPIN_WAITS: u32 = 64;

/// Wait out another thread's claimed-but-unfinished slot step. The step is
/// a few instructions, so spin first; yield once the wait outlasts it, in
/// case that thread was descheduled mid-step on an oversubscribed host.
fn snooze(waits: &mut u32) {
    if *waits < SPIN_WAITS {
        *waits += 1;
        hint::spin_loop();
    } else {
        thread::yield_now();
    }
}

impl<T> Drop for MpmcQueue<T> {
    fn drop(&mut self) {
        // Pop everything so queued items run their destructors. `pop` is
        // already safe against every queue state, and `&mut self` means no
        // concurrent access remains.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_threaded() {
        let q = MpmcQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn full_queue_rejects() {
        let q = MpmcQueue::new(2);
        q.push(1u8).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(3));
        assert_eq!(q.pop(), Some(1));
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(MpmcQueue::<u8>::new(3).capacity(), 4);
        assert_eq!(MpmcQueue::<u8>::new(0).capacity(), 2);
    }

    #[test]
    fn len_tracks_occupancy() {
        let q = MpmcQueue::new(4);
        assert!(q.is_empty());
        q.push(1u8).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drop_runs_destructors_of_queued_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = MpmcQueue::new(8);
            q.push(D).unwrap();
            q.push(D).unwrap();
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spin-heavy stress; covered by loom instead
    fn mpmc_stress_loses_nothing() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        const PER_THREAD: u64 = 20_000;
        const THREADS: u64 = 4;
        let q = Arc::new(MpmcQueue::new(64));
        let sum = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let v = t * PER_THREAD + i;
                    let mut item = v;
                    loop {
                        match q.push(item) {
                            Ok(()) => break,
                            Err(back) => {
                                item = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            }));
        }
        for _ in 0..THREADS {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || {
                while popped.load(Ordering::Acquire) < THREADS * PER_THREAD {
                    if let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                        popped.fetch_add(1, Ordering::AcqRel);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = THREADS * PER_THREAD;
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
