//! Worker-core harness — the DPDK lcore analogue.
//!
//! Ruru allocates one processing thread per RX queue, each polling its
//! ring. [`WorkerGroup`] spawns those threads, hands each a queue, a
//! burst callback and an idle callback, and coordinates cooperative
//! shutdown. Workers poll in bursts. The first empty poll after work calls
//! the idle callback, once, so a worker hands on whatever its bursts left
//! buffered before it sleeps, as DPDK's `l3fwd` drains its TX buffers when
//! a poll comes back empty. The next empty poll sleeps for at most
//! [`RX_COALESCE`], the coalescing period of a NIC's interrupt moderation:
//! packets that arrive meanwhile wait in the ring and are taken in one
//! go, and only a delivery that leaves the ring half full ends the sleep
//! early. If the sleep ends on an empty ring, the worker parks until the
//! port delivers to its queue, as DPDK's RX-interrupt mode (the
//! `l3fwd-power` example) lets a poll-mode lcore sleep. So a busy worker
//! is woken about once per period, not once per small burst, and an idle
//! one costs nothing. At shutdown each
//! worker drains its queue and hands its state back to the caller, so
//! whatever it owned — tracker tables, bus endpoints — is read and dropped
//! on the joining thread.

use crate::mbuf::Mbuf;
use crate::port::RxQueue;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::thread::JoinHandle;
use crate::sync::{thread, Arc};
use std::time::Duration;

/// Burst size workers use when draining their queue (DPDK's conventional 32).
pub const BURST_SIZE: usize = 32;

/// The longest a worker that drained its queue sleeps before it polls
/// again. A packet's timestamp is taken when the port delivers it, so
/// this delays only when its record leaves the worker, by at most one
/// period.
pub const RX_COALESCE: Duration = Duration::from_millis(1);

/// What a worker does at its next empty poll.
enum Idle {
    /// Run the idle callback: a burst ran since the last one.
    Flush,
    /// Sleep for at most [`RX_COALESCE`].
    Sleep,
    /// Park until the port delivers: a sleep found nothing to do.
    Park,
}

/// A running group of worker threads, one per RX queue.
///
/// Per-worker state `S` is created by the `init` closure on the worker
/// thread, so the burst callback needs no locking; [`WorkerGroup::shutdown`]
/// returns it.
pub struct WorkerGroup<S> {
    handles: Vec<JoinHandle<S>>,
    stop: Arc<AtomicBool>,
}

impl<S: Send + 'static> WorkerGroup<S> {
    /// Spawn one worker per queue.
    ///
    /// `init(queue_id)` runs on the worker thread to build its state `S`.
    /// `on_burst` receives each non-empty RX burst as a `&mut Vec<Mbuf>`
    /// (up to [`BURST_SIZE`] packets) and is expected to drain it, so
    /// stages that pipeline across a burst — prefetch-staged table lookups,
    /// bulk classification, one vectored bus send — see every packet of a
    /// poll at once. `on_idle` runs on the first empty poll after a burst,
    /// and never twice without a burst between: the place to flush what
    /// the bursts buffered. Neither callback sees an empty burst.
    // Thread spawn/creation failure is a startup-time OS error, not a
    // dataplane condition; failing loudly is the right behaviour.
    #[allow(clippy::expect_used)]
    pub fn spawn_bursts<I, F, G>(
        queues: Vec<RxQueue>,
        init: I,
        on_burst: F,
        on_idle: G,
    ) -> WorkerGroup<S>
    where
        I: Fn(u16) -> S + Send + Sync + 'static,
        F: Fn(&mut S, &mut Vec<Mbuf>) + Send + Sync + 'static,
        G: Fn(&mut S) + Send + Sync + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let init = Arc::new(init);
        let on_burst = Arc::new(on_burst);
        let on_idle = Arc::new(on_idle);
        let mut handles = Vec::with_capacity(queues.len());
        for mut queue in queues {
            let stop = Arc::clone(&stop);
            let init = Arc::clone(&init);
            let on_burst = Arc::clone(&on_burst);
            let on_idle = Arc::clone(&on_idle);
            handles.push(
                thread::Builder::new()
                    .name(format!("lcore-rx{}", queue.queue_id))
                    .spawn(move || {
                        let mut state = init(queue.queue_id);
                        let mut burst: Vec<Mbuf> = Vec::with_capacity(BURST_SIZE);
                        // A new worker has nothing to flush or wait for.
                        let mut idle = Idle::Park;
                        loop {
                            // Read `stop` before polling: a stop seen here
                            // was raised after every packet delivered
                            // before it, so this poll sees them all.
                            let stopping = stop.load(Ordering::Acquire);
                            if queue.rx_burst(&mut burst, BURST_SIZE) > 0 {
                                idle = Idle::Flush;
                                on_burst(&mut state, &mut burst);
                                // A callback that chose not to drain
                                // everything must not see stale packets
                                // next poll.
                                burst.clear();
                                continue;
                            }
                            if stopping {
                                break;
                            }
                            let stopped = || stop.load(Ordering::Acquire);
                            match idle {
                                Idle::Flush => {
                                    idle = Idle::Sleep;
                                    on_idle(&mut state);
                                }
                                Idle::Sleep => {
                                    idle = Idle::Park;
                                    queue.park_moderated(RX_COALESCE, stopped);
                                }
                                Idle::Park => queue.park_while_empty(stopped),
                            }
                        }
                        state
                    })
                    .expect("spawn lcore thread"),
            );
        }
        WorkerGroup { handles, stop }
    }

    /// Signal stop, wake any parked or sleeping worker, and join all
    /// workers. Each drains its queue first; the workers' states come back
    /// in the order their queues were given.
    // Propagating a worker panic at join is shutdown-time, by design.
    #[allow(clippy::expect_used)]
    pub fn shutdown(self) -> Vec<S> {
        self.stop.store(true, Ordering::Release);
        // A worker that read `stop` as false before the store parks or
        // sleeps; the unpark token ends that park, or the one it is about
        // to enter, of either kind.
        for handle in &self.handles {
            handle.thread().unpark();
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("lcore thread panicked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::port::{Port, PortConfig};
    use crate::sync::atomic::AtomicU64;

    fn frame_with_marker(marker: u8) -> Vec<u8> {
        // Not a valid TCP packet: lands on queue_for(0). Fine for harness tests.
        vec![marker; 64]
    }

    fn port(queues: u16) -> Port {
        Port::new(
            PortConfig {
                num_queues: queues,
                queue_depth: 1024,
                pool_size: 4096,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        )
    }

    /// A worker group whose callback drains every burst, adding the
    /// packet count to its state and to the returned shared counter.
    fn counting_group(queues: Vec<RxQueue>) -> (WorkerGroup<(u16, u64)>, Arc<AtomicU64>) {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let group = WorkerGroup::spawn_bursts(
            queues,
            |q| (q, 0u64),
            move |(_, count): &mut (u16, u64), burst: &mut Vec<Mbuf>| {
                for mbuf in burst.drain(..) {
                    assert_eq!(mbuf.len(), 64);
                    *count += 1;
                    seen2.fetch_add(1, Ordering::Relaxed);
                }
            },
            |_| {},
        );
        (group, seen)
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    fn workers_process_all_packets() {
        let mut port = port(2);
        let (group, seen) = counting_group(port.take_all_rx_queues());
        for i in 0..500u32 {
            while port.inject(&frame_with_marker(i as u8)).is_none() {
                std::thread::yield_now();
            }
        }
        // Wait for drain, then stop.
        while seen.load(Ordering::Relaxed) < 500 {
            std::thread::yield_now();
        }
        group.shutdown();
        assert_eq!(seen.load(Ordering::Relaxed), 500);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    fn shutdown_drains_pending_packets() {
        let mut port = port(1);
        let queues = port.take_all_rx_queues();
        // Inject BEFORE spawning so packets sit in the ring.
        for _ in 0..100 {
            port.inject(&frame_with_marker(1)).unwrap();
        }
        let (group, seen) = counting_group(queues);
        group.shutdown(); // must drain the 100 queued packets first
        assert_eq!(seen.load(Ordering::Relaxed), 100);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    fn shutdown_returns_each_workers_state_in_queue_order() {
        let mut port = port(4);
        let (group, seen) = counting_group(port.take_all_rx_queues());
        for _ in 0..10 {
            port.inject(&frame_with_marker(0)).unwrap();
        }
        while seen.load(Ordering::Relaxed) < 10 {
            std::thread::yield_now();
        }
        let states = group.shutdown();
        let queues: Vec<u16> = states.iter().map(|&(q, _)| q).collect();
        assert_eq!(queues, [0, 1, 2, 3]);
        let total: u64 = states.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10, "each state holds its own worker's count");
    }

    /// Lost-wakeup stress on the real idle path: 1 500 bursts with
    /// irregular gaps, so the worker keeps crossing flush → sleep → park
    /// and the wakes out of both. Most bursts are a few packets; one in
    /// sixteen fills the ring past half, which ends a sleep early. Most
    /// gaps are under 20 µs, within a sleep; one in eight is longer than
    /// [`RX_COALESCE`], so the sleep runs dry and the worker parks until
    /// the next packet. Before each long gap, and one gap in four besides,
    /// the feeder waits for the worker to catch up under a deadline: a
    /// lost wakeup leaves a packet unseen with nothing left to wake the
    /// worker, and fails the test instead of hanging it.
    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    #[allow(clippy::disallowed_methods)] // wall-clock gaps and deadline
    fn every_packet_is_seen_across_park_and_wake() {
        use std::time::{Duration, Instant};
        const BURSTS: u32 = 1_500;
        const DEADLINE: Duration = Duration::from_secs(10);
        let mut port = port(1);
        let half = port.config().queue_depth as u64 / 2;
        let (group, seen) = counting_group(port.take_all_rx_queues());
        let caught_up = |sent: u64| {
            let start = Instant::now();
            while seen.load(Ordering::Relaxed) < sent {
                assert!(
                    start.elapsed() < DEADLINE,
                    "worker saw {} of {sent} packets: a lost wakeup",
                    seen.load(Ordering::Relaxed)
                );
                std::thread::yield_now();
            }
        };
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            // xorshift64
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut sent = 0u64;
        for _ in 0..BURSTS {
            let r = next();
            let len = if r % 16 == 0 { half + r % half } else { 1 + r % 32 };
            for _ in 0..len {
                while port.inject(&frame_with_marker(0)).is_none() {
                    std::thread::yield_now();
                }
            }
            sent += len;
            let r = next();
            match r % 8 {
                0..=4 => {
                    let gap = Duration::from_nanos(r % 20_000);
                    let start = Instant::now();
                    while start.elapsed() < gap {
                        std::hint::spin_loop();
                    }
                }
                5 | 6 => caught_up(sent),
                _ => {
                    caught_up(sent);
                    let over = RX_COALESCE.as_nanos() as u64;
                    std::thread::sleep(RX_COALESCE + Duration::from_nanos(r % over));
                }
            }
        }
        caught_up(sent);
        let states = group.shutdown();
        assert_eq!(states[0].1, sent);
        let stats = port.stats();
        assert!(stats.rx_sleeps > 0, "the worker never slept");
        assert!(stats.rx_wakeups > 0, "the port never woke the worker");
    }

    /// The idle callback runs after the burst that ends a stretch of work
    /// and before the worker sleeps, and never twice without a burst in
    /// between: each call sees more packets than the one before, and the
    /// last sees them all.
    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    fn idle_callback_runs_once_after_each_stretch_of_work() {
        // Packets seen, and packets seen as of each idle call.
        type Log = (u64, Vec<u64>);
        let mut port = port(1);
        let idle_at = Arc::new(AtomicU64::new(0));
        let idle_at2 = Arc::clone(&idle_at);
        let group = WorkerGroup::spawn_bursts(
            port.take_all_rx_queues(),
            |_q| -> Log { (0, Vec::new()) },
            |(seen, _): &mut Log, burst: &mut Vec<Mbuf>| *seen += burst.drain(..).count() as u64,
            move |(seen, calls): &mut Log| {
                calls.push(*seen);
                idle_at2.store(*seen, Ordering::Release);
            },
        );
        for round in 1..=3u64 {
            for _ in 0..5 {
                port.inject(&frame_with_marker(3)).unwrap();
            }
            // Only an idle call after the round's last burst says 5 * round.
            while idle_at.load(Ordering::Acquire) < 5 * round {
                std::thread::yield_now();
            }
        }
        let (seen, calls) = group.shutdown().remove(0);
        assert_eq!(seen, 15);
        assert!(calls.len() >= 3, "an idle call per stretch: {calls:?}");
        assert!(calls.windows(2).all(|w| w[0] < w[1]), "a burst between calls: {calls:?}");
        assert_eq!(calls.last(), Some(&15));
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns real worker threads; modeled by loom instead
    fn burst_workers_see_whole_bursts() {
        let mut port = port(1);
        let queues = port.take_all_rx_queues();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let group = WorkerGroup::spawn_bursts(
            queues,
            |_q| (),
            move |_s, burst: &mut Vec<Mbuf>| {
                assert!((1..=BURST_SIZE).contains(&burst.len()));
                for mbuf in burst.drain(..) {
                    assert_eq!(mbuf.len(), 64);
                    seen2.fetch_add(1, Ordering::Relaxed);
                }
            },
            |_| {},
        );
        for _ in 0..100 {
            while port.inject(&frame_with_marker(2)).is_none() {
                std::thread::yield_now();
            }
        }
        while seen.load(Ordering::Relaxed) < 100 {
            std::thread::yield_now();
        }
        group.shutdown();
        assert_eq!(seen.load(Ordering::Relaxed), 100);
    }
}
