//! Loom model checks for the dataplane's lock-free structures.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`, which
//! swaps `ruru_nic::sync` onto the in-tree model checker: every test here
//! exhaustively explores thread interleavings of the *production* ring /
//! queue / lcore wake code, including weak-memory behaviours (a `Relaxed`
//! store is invisible to other threads until a release/acquire edge
//! publishes it) and a preemption-bounded schedule space.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ruru-nic --test loom_nic --release
//! ```
//!
//! `LOOM_MAX_PREEMPTIONS` (default 2) bounds context switches per
//! execution; CI runs with 3 for deeper coverage.
#![cfg(loom)]

// Tests are exempt from the panic-freedom policy (DESIGN.md §10):
// unwrap/expect on known-good fixtures is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use loom::sync::atomic::{AtomicBool, Ordering};
use loom::sync::Arc;
use loom::{hint, thread};
use ruru_nic::lcore::{WorkerGroup, RX_COALESCE};
use ruru_nic::port::{Port, PortConfig};
use ruru_nic::queue::MpmcQueue;
use ruru_nic::ring::{ring, ring_with_counters};
use ruru_nic::{Clock, Mbuf};

/// SPSC ring: two single-item pushes transfer losslessly and in order.
#[test]
fn loom_spsc_single_transfer() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(2);
        let t = thread::spawn(move || {
            p.push(10).unwrap();
            p.push(20).unwrap();
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            match c.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
        assert_eq!(got, [10, 20]);
        assert!(c.pop().is_none());
    });
}

/// SPSC ring: a full burst enqueue against a bursting consumer.
#[test]
fn loom_spsc_burst_transfer() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(4);
        let t = thread::spawn(move || {
            assert_eq!(p.push_burst([0, 1, 2]), 3, "capacity 4 fits the burst");
        });
        let mut got = Vec::new();
        while got.len() < 3 {
            if c.pop_burst(&mut got, 4) == 0 {
                thread::yield_now();
            }
        }
        t.join().unwrap();
        assert_eq!(got, [0, 1, 2]);
    });
}

/// Regression for the `len()` underflow: a producer-side or consumer-side
/// `len()` racing the opposite end must stay within `0..=capacity` in every
/// interleaving (the old load order could observe `tail > head` and return
/// a number near `usize::MAX`).
#[test]
fn loom_len_is_bounded_in_every_interleaving() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u8>(2);
        let t = thread::spawn(move || {
            p.push(1).unwrap();
            let len = p.len();
            assert!(len <= 2, "producer len out of bounds: {len}");
            p.push(2).unwrap();
        });
        let len = c.len();
        assert!(len <= 2, "consumer len out of bounds: {len}");
        let mut popped = 0;
        while popped < 2 {
            match c.pop() {
                Some(_) => popped += 1,
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
    });
}

/// Dropping the ring drains un-popped values exactly once, in every
/// interleaving of a mid-stream shutdown.
#[test]
fn loom_ring_drop_drains_pending_values() {
    loom::model(|| {
        // The counter is test instrumentation, not modeled state: a plain
        // std atomic keeps it out of the schedule space.
        let drops = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        #[derive(Debug)]
        struct D(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Drop for D {
            fn drop(&mut self) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        {
            let (mut p, mut c) = ring::<D>(4);
            for _ in 0..3 {
                p.push(D(std::sync::Arc::clone(&drops))).unwrap();
            }
            let t = thread::spawn(move || {
                // Consume at most one, then hang up with items pending.
                let first = c.pop();
                drop(first);
                drop(c);
            });
            t.join().unwrap();
            drop(p);
        }
        assert_eq!(
            drops.load(std::sync::atomic::Ordering::Relaxed),
            3,
            "every value dropped exactly once"
        );
    });
}

/// The monotonic counters wrap across `usize::MAX` mid-model: FIFO order,
/// `len` bounds, and value transfer must all survive the wrap.
#[test]
fn loom_ring_wraparound_at_usize_max() {
    loom::model(|| {
        let (mut p, mut c) = ring_with_counters::<u32>(2, usize::MAX - 1);
        let t = thread::spawn(move || {
            p.push(7).unwrap(); // occupies slot at counter usize::MAX - 1
            p.push(8).unwrap(); // counter wraps past usize::MAX here
            assert!(p.len() <= 2);
        });
        let mut got = Vec::new();
        while got.len() < 2 {
            assert!(c.len() <= 2);
            match c.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        t.join().unwrap();
        assert_eq!(got, [7, 8]);
    });
}

/// The Vyukov MPMC free-list queue: two racing producers, one consumer,
/// nothing lost or duplicated.
#[test]
fn loom_mpmc_queue_conserves_items() {
    loom::model(|| {
        let q = Arc::new(MpmcQueue::<u32>::new(2));
        let q1 = Arc::clone(&q);
        let q2 = Arc::clone(&q);
        let t1 = thread::spawn(move || q1.push(1).unwrap());
        let t2 = thread::spawn(move || q2.push(2).unwrap());
        let mut got = Vec::new();
        while got.len() < 2 {
            match q.pop() {
                Some(v) => got.push(v),
                None => thread::yield_now(),
            }
        }
        t1.join().unwrap();
        t2.join().unwrap();
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert!(q.pop().is_none());
    });
}

/// The mbuf pool's usage pattern on a full free list: two threads each pop
/// a buffer and push it back. A slot one lap behind (claimed, not yet
/// recycled) or unpublished (claimed, not yet written) is contention, not
/// "full" or "empty": every pop is `Some`, every push `Ok`, nothing lost.
#[test]
fn loom_mpmc_full_queue_pop_push_back_never_fails() {
    loom::model(|| {
        let q = Arc::new(MpmcQueue::<u32>::new(2));
        q.push(1).unwrap();
        q.push(2).unwrap();
        let spawn = |q: Arc<MpmcQueue<u32>>| {
            thread::spawn(move || {
                let v = q.pop().expect("a buffer is free for each thread");
                assert!(q.push(v).is_ok(), "push back must never see full");
            })
        };
        let t1 = spawn(Arc::clone(&q));
        let t2 = spawn(Arc::clone(&q));
        t1.join().unwrap();
        t2.join().unwrap();
        let mut got = vec![q.pop().unwrap(), q.pop().unwrap()];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
        assert!(q.pop().is_none());
    });
}

/// The wake protocol: a producer's push races the consumer's spin →
/// announce → re-check → park. Either the producer's swap sees the
/// `sleeping` flag and unparks, or the consumer's re-check sees the item,
/// so the item is always received. A lost wakeup leaves the consumer
/// parked with nobody to wake it, which the checker reports as a deadlock.
#[test]
fn loom_parked_consumer_always_receives_a_racing_push() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(2);
        let t = thread::spawn(move || {
            let mut spun = false;
            loop {
                if let Some(v) = c.pop() {
                    return (v, c.wakeups());
                }
                if spun {
                    c.park_while_empty(|| false);
                } else {
                    hint::spin_loop();
                }
                spun = true;
            }
        });
        // Let the consumer start polling without spending a preemption,
        // so the bound goes on the race between the push and the park.
        thread::yield_now();
        p.push(42).unwrap();
        let (v, wakeups) = t.join().unwrap();
        assert_eq!(v, 42);
        assert!(wakeups <= 1, "one push wakes at most once");
    });
}

/// The producer's wake protocol: a consumer's `pop_burst` races the
/// producer's spin → announce → re-check → park on a full ring. Either the
/// consumer's swap sees the producer's `waiting` flag and unparks, or the
/// producer's re-check sees the freed slots, so the blocked push always
/// lands. A lost wakeup leaves the producer parked on a ring the consumer
/// has emptied, and the consumer parked waiting for the push, which the
/// checker reports as a deadlock.
#[test]
fn loom_parked_producer_always_sees_a_racing_pop() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(2);
        p.push(1).unwrap();
        p.push(2).unwrap();
        let t = thread::spawn(move || {
            let mut v = 3;
            let mut spun = false;
            while let Err(back) = p.push(v) {
                v = back;
                if spun {
                    p.park_while_full();
                } else {
                    hint::spin_loop();
                }
                spun = true;
            }
            p.parks()
        });
        // Let the producer start retrying without spending a preemption,
        // so the bound goes on the race between the pop and the park.
        thread::yield_now();
        let mut got = Vec::new();
        while got.len() < 3 {
            if c.pop_burst(&mut got, 2) == 0 {
                c.park_while_empty(|| false);
            }
        }
        let parks = t.join().unwrap();
        assert_eq!(got, [1, 2, 3]);
        assert!(parks <= 1, "one freeing burst wakes at most once");
    });
}

/// An idle park that follows a moderated park never loses the first
/// packet's wake. The consumer polls as the lcore does: a moderated park
/// on its first empty poll, an idle park on every later one. One push
/// stays under the half-ring mark, so it never ends the moderated park:
/// that park runs out (the checker fires its timeout once every thread
/// is blocked, or earlier), and the idle park after it must be woken by
/// the push or see the item on its re-check. A lost wakeup leaves the
/// consumer parked with the producer joined on it: a deadlock.
#[test]
fn loom_idle_park_after_a_moderated_park_receives_a_racing_push() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(4);
        let t = thread::spawn(move || {
            let mut slept = false;
            loop {
                if let Some(v) = c.pop() {
                    return v;
                }
                if slept {
                    c.park_while_empty(|| false);
                } else {
                    slept = true;
                    c.park_moderated(RX_COALESCE, || false);
                }
            }
        });
        thread::yield_now();
        p.push(42).unwrap();
        assert_eq!(t.join().unwrap(), 42);
        assert!(p.wakeups() <= 1, "one push wakes at most once");
    });
}

/// A push that reaches the half-ring mark either ends a moderated park or
/// is seen by the park's re-check. The producer does not block while the
/// consumer sleeps, so the checker never fires the park's timeout on its
/// own: the park ends by an unpark, or by a timeout the checker chose to
/// explore. A push that neither wakes the park nor shows in its re-check
/// leaves the consumer asleep and the producer spinning on it forever,
/// which fails the model.
#[test]
fn loom_half_ring_push_ends_a_moderated_park() {
    loom::model(|| {
        let (mut p, mut c) = ring::<u32>(4);
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let t = thread::spawn(move || {
            c.park_moderated(RX_COALESCE, || false);
            let mut got = Vec::new();
            while got.len() < 2 {
                match c.pop() {
                    Some(v) => got.push(v),
                    None => thread::yield_now(),
                }
            }
            done2.store(true, Ordering::Release);
            (got, c.wakeups())
        });
        p.push(1).unwrap();
        p.push(2).unwrap();
        while !done.load(Ordering::Acquire) {
            thread::yield_now();
        }
        let (got, wakeups) = t.join().unwrap();
        assert_eq!(got, [1, 2]);
        assert!(wakeups <= 1, "the half-ring push wakes at most once");
    });
}

/// Shutdown ends either park: the stopping side raises the flag and
/// unparks the consumer, as `WorkerGroup::shutdown` does, then waits
/// without blocking, so only the unpark or the stop re-check can end a
/// moderated park. The consumer polls as the lcore does (stop read before
/// each poll, moderated park first, idle park after), and returns in every
/// interleaving.
#[test]
fn loom_stop_and_unpark_end_either_park() {
    loom::model(|| {
        let (_p, mut c) = ring::<u32>(4);
        let stop = Arc::new(AtomicBool::new(false));
        let done = Arc::new(AtomicBool::new(false));
        let (stop2, done2) = (Arc::clone(&stop), Arc::clone(&done));
        let t = thread::spawn(move || {
            let mut slept = false;
            while !stop2.load(Ordering::Acquire) {
                let stopped = || stop2.load(Ordering::Acquire);
                if slept {
                    c.park_while_empty(stopped);
                } else {
                    slept = true;
                    c.park_moderated(RX_COALESCE, stopped);
                }
            }
            done2.store(true, Ordering::Release);
        });
        thread::yield_now();
        stop.store(true, Ordering::Release);
        t.thread().unpark();
        while !done.load(Ordering::Acquire) {
            thread::yield_now();
        }
        t.join().unwrap();
    });
}

/// Shutdown races the park: `WorkerGroup::shutdown` raises the stop flag
/// and unparks every worker, so a worker anywhere between its last empty
/// poll and its sleep or park still exits, after draining a packet
/// delivered just before the shutdown.
#[test]
fn loom_shutdown_wakes_a_parking_worker() {
    loom::model(|| {
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                queue_depth: 2,
                pool_size: 2,
                buf_size: 64,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        );
        let group = WorkerGroup::spawn_bursts(
            port.take_all_rx_queues(),
            |_| 0usize,
            |seen: &mut usize, burst: &mut Vec<Mbuf>| {
                *seen += burst.len();
                burst.clear();
            },
            |_| {},
        );
        port.inject(&[0u8; 60]).unwrap();
        assert_eq!(group.shutdown(), [1], "the worker drained its queue");
    });
}
