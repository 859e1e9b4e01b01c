//! A multi-queue port: the simulated NIC.
//!
//! Packets enter on the wire side via [`Port::inject`] (in deployment this
//! is the optical tap; here, the traffic generator). The port stamps the
//! arrival timestamp, computes the RSS hash from the TCP/IP 4-tuple,
//! allocates an mbuf from the pool and delivers it to the per-queue SPSC
//! ring selected by the redirection table. Worker cores drain queues with
//! [`RxQueue::rx_burst`], exactly like `rte_eth_rx_burst`. A worker that
//! finds its queue empty may [`RxQueue::park_while_empty`]; the next
//! packet delivered to that queue wakes it, as DPDK's RX interrupts do. Or
//! it may sleep one coalescing period with [`RxQueue::park_moderated`], as
//! a NIC moderates its RX interrupts: the port then wakes it early only
//! when a delivery leaves its queue at least half full, so a burst does
//! not overflow the ring of a sleeping worker.
//!
//! Drop accounting mirrors hardware: pool exhaustion and ring overflow are
//! both RX drops (`imissed`), visible in [`PortStats`].
//! [`Port::inject_lossless_at`] waits instead of dropping, and counts the
//! packets that had to wait apart from the drops. On a full ring it parks
//! until the queue's worker has drained half of it.

use crate::clock::{Clock, Timestamp};
use crate::mbuf::{Mbuf, MbufPool};
use crate::ring::{self, Consumer, Producer};
use crate::rss::RssHasher;
use crate::sync::thread;
use ruru_wire::{ethernet, ipv4, ipv6, tcp, IpAddress};
use std::time::Duration;

/// Configuration of a simulated port.
#[derive(Debug, Clone)]
pub struct PortConfig {
    /// Number of RX queues (one worker core each).
    pub num_queues: u16,
    /// Depth of each RX ring (rounded up to a power of two).
    pub queue_depth: usize,
    /// Number of mbufs in the pool.
    pub pool_size: usize,
    /// Data room of each mbuf.
    pub buf_size: usize,
    /// Use the symmetric RSS key (Ruru's configuration). When false, the
    /// standard Microsoft key is used — the ablation case.
    pub symmetric_rss: bool,
}

impl Default for PortConfig {
    fn default() -> Self {
        PortConfig {
            num_queues: 4,
            queue_depth: 4096,
            pool_size: 16384,
            buf_size: crate::mbuf::DEFAULT_BUF_SIZE,
            symmetric_rss: true,
        }
    }
}

/// Tag a freshly allocated mbuf with its queue and arrival time.
fn stamp(mut mbuf: Mbuf, queue: u16, timestamp: Timestamp) -> Mbuf {
    mbuf.queue_id = queue;
    mbuf.timestamp = timestamp;
    mbuf
}

/// Aggregate statistics of a port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortStats {
    /// Packets delivered to queues.
    pub rx_packets: u64,
    /// Bytes delivered to queues.
    pub rx_bytes: u64,
    /// Packets dropped: pool exhausted.
    pub no_mbuf_drops: u64,
    /// Packets dropped: destination ring full.
    pub ring_full_drops: u64,
    /// Packets that were not IPv4/IPv6 TCP (delivered with hash 0).
    pub non_ip_packets: u64,
    /// Lossless injects that waited for a free mbuf or ring space. These
    /// packets were delivered late, not dropped.
    pub inject_waits: u64,
    /// Times a delivery woke a parked or sleeping queue consumer, summed
    /// over queues.
    pub rx_wakeups: u64,
    /// Moderated parks (coalescing sleeps) the queue consumers took,
    /// summed over queues.
    pub rx_sleeps: u64,
    /// Times a queue's worker woke a lossless inject parked on its full
    /// ring, summed over queues.
    pub inject_parks: u64,
}

/// The receive handle of one queue, owned by one worker core.
pub struct RxQueue {
    /// Queue index on the port.
    pub queue_id: u16,
    consumer: Consumer<Mbuf>,
}

impl RxQueue {
    /// Drain up to `max` packets into `out`; returns how many were received.
    pub fn rx_burst(&mut self, out: &mut Vec<Mbuf>, max: usize) -> usize {
        self.consumer.pop_burst(out, max)
    }

    /// Park the calling thread until the port delivers to this queue,
    /// unless the queue holds packets or `stop()` is true once the park is
    /// announced. It may return spuriously. See
    /// [`crate::ring::Consumer::park_while_empty`].
    pub fn park_while_empty(&mut self, stop: impl FnOnce() -> bool) {
        self.consumer.park_while_empty(stop);
    }

    /// Sleep the calling thread for at most `period`, unless the queue is
    /// at least half full or `stop()` is true once the sleep is announced.
    /// Deliveries do not end the sleep until one leaves the queue at least
    /// half full. It may return spuriously. See
    /// [`crate::ring::Consumer::park_moderated`].
    pub fn park_moderated(&mut self, period: Duration, stop: impl FnOnce() -> bool) {
        self.consumer.park_moderated(period, stop);
    }

    /// Packets currently waiting in this queue.
    pub fn backlog(&self) -> usize {
        self.consumer.len()
    }
}

/// The injection (wire) side of the port; single-threaded like a DPDK PMD's
/// RX descriptor ring fill path.
pub struct Port {
    config: PortConfig,
    pool: MbufPool,
    hasher: RssHasher,
    clock: Clock,
    producers: Vec<Producer<Mbuf>>,
    rx_queues: Vec<Option<RxQueue>>,
    /// The wire side's counters. Only the injecting thread touches them
    /// (through `&mut self`), so they are plain integers; [`Port::stats`]
    /// sums them with the rings' wake counts.
    counts: PortStats,
}

impl Port {
    /// Create a port with the given configuration and timestamp source.
    pub fn new(config: PortConfig, clock: Clock) -> Port {
        assert!(config.num_queues > 0, "need at least one queue");
        let pool = MbufPool::new(config.pool_size, config.buf_size);
        let hasher = if config.symmetric_rss {
            RssHasher::symmetric(config.num_queues)
        } else {
            RssHasher::microsoft(config.num_queues)
        };
        let mut producers = Vec::with_capacity(config.num_queues as usize);
        let mut rx_queues = Vec::with_capacity(config.num_queues as usize);
        for q in 0..config.num_queues {
            let (p, c) = ring::ring(config.queue_depth);
            producers.push(p);
            rx_queues.push(Some(RxQueue {
                queue_id: q,
                consumer: c,
            }));
        }
        Port {
            config,
            pool,
            hasher,
            clock,
            producers,
            rx_queues,
            counts: PortStats::default(),
        }
    }

    /// Take all remaining receive handles.
    pub fn take_all_rx_queues(&mut self) -> Vec<RxQueue> {
        self.rx_queues.iter_mut().filter_map(|q| q.take()).collect()
    }

    /// The port's mbuf pool (shared; useful for monitoring).
    pub fn pool(&self) -> &MbufPool {
        &self.pool
    }

    /// The RSS hasher (useful for predicting queue placement in tests).
    pub fn hasher(&self) -> &RssHasher {
        &self.hasher
    }

    /// The port configuration.
    pub fn config(&self) -> &PortConfig {
        &self.config
    }

    /// Extract the TCP/IP 4-tuple a NIC would feed to RSS.
    ///
    /// Returns `None` for non-IP, non-TCP, fragmented or truncated packets —
    /// those get hash 0 (what hardware does when the configured hash fields
    /// are absent).
    pub fn parse_rss_tuple(frame: &[u8]) -> Option<(IpAddress, IpAddress, u16, u16)> {
        let eth = ethernet::Frame::new_checked(frame).ok()?;
        match eth.ethertype() {
            ethernet::EtherType::Ipv4 => {
                let ip = ipv4::Packet::new_checked(eth.payload()).ok()?;
                if ip.protocol() != ipv4::Protocol::Tcp || ip.is_non_initial_fragment() {
                    return None;
                }
                let seg = tcp::Packet::new_checked(ip.payload()).ok()?;
                Some((
                    IpAddress::V4(ip.src()),
                    IpAddress::V4(ip.dst()),
                    seg.src_port(),
                    seg.dst_port(),
                ))
            }
            ethernet::EtherType::Ipv6 => {
                let ip = ipv6::Packet::new_checked(eth.payload()).ok()?;
                let (proto, payload) = ip.upper_layer().ok()?;
                if proto != ipv4::Protocol::Tcp {
                    return None;
                }
                let seg = tcp::Packet::new_checked(payload).ok()?;
                Some((
                    IpAddress::V6(ip.src()),
                    IpAddress::V6(ip.dst()),
                    seg.src_port(),
                    seg.dst_port(),
                ))
            }
            _ => None,
        }
    }

    /// Deliver one frame from the wire at the current clock time.
    ///
    /// Returns the queue it was delivered to, or `None` if it was dropped
    /// (pool exhausted or ring full).
    pub fn inject(&mut self, frame: &[u8]) -> Option<u16> {
        self.inject_at(frame, self.clock.now())
    }

    /// Deliver one frame with an explicit arrival timestamp (used when the
    /// generator batches simulated time).
    pub fn inject_at(&mut self, frame: &[u8], timestamp: Timestamp) -> Option<u16> {
        let queue = self.rss_queue(frame);
        let Some(mbuf) = self.pool.alloc(frame) else {
            self.counts.no_mbuf_drops += 1;
            return None;
        };
        let producer = self.producers.get_mut(usize::from(queue))?;
        match producer.push(stamp(mbuf, queue, timestamp)) {
            Ok(()) => {
                self.delivered(frame.len());
                Some(queue)
            }
            Err(_mbuf) => {
                // The mbuf drops here, returning its buffer to the pool.
                self.counts.ring_full_drops += 1;
                None
            }
        }
    }

    /// Deliver one frame without loss: wait for a free mbuf, yielding to
    /// the workers that free them, then for space in its queue's ring. On
    /// a full ring the caller parks, instead of spinning, until the
    /// queue's [`RxQueue::rx_burst`] has drained the ring to half (see
    /// [`crate::ring::Producer::park_while_full`]); each wake from such a
    /// park counts in [`PortStats::inject_parks`]. The frame is parsed and
    /// copied once however long it waits, and a packet that waited counts
    /// in [`PortStats::inject_waits`], never as a drop. Returns the queue
    /// it was delivered to.
    pub fn inject_lossless_at(&mut self, frame: &[u8], timestamp: Timestamp) -> Option<u16> {
        let queue = self.rss_queue(frame);
        let mut waited = false;
        let mut mbuf = loop {
            if let Some(mbuf) = self.pool.alloc(frame) {
                break stamp(mbuf, queue, timestamp);
            }
            waited = true;
            thread::yield_now();
        };
        let producer = self.producers.get_mut(usize::from(queue))?;
        while let Err(back) = producer.push(mbuf) {
            mbuf = back;
            waited = true;
            producer.park_while_full();
        }
        self.delivered(frame.len());
        if waited {
            self.counts.inject_waits += 1;
        }
        Some(queue)
    }

    /// The RX queue RSS steers `frame` to; frames without a TCP/IP tuple
    /// hash to 0 and count as non-IP. `queue_for()` maps into
    /// `0..num_queues`, and there are `num_queues` producers, so the
    /// callers' producer lookup cannot miss; dropping the frame is still
    /// better than aborting if that invariant ever broke.
    fn rss_queue(&mut self, frame: &[u8]) -> u16 {
        let hash = match Self::parse_rss_tuple(frame) {
            Some((src, dst, sp, dp)) => self.hasher.hash_tuple(src, dst, sp, dp),
            None => {
                self.counts.non_ip_packets += 1;
                0
            }
        };
        self.hasher.queue_for(hash)
    }

    fn delivered(&mut self, len: usize) {
        self.counts.rx_packets += 1;
        self.counts.rx_bytes += len as u64;
    }

    /// Aggregate statistics across queues.
    pub fn stats(&self) -> PortStats {
        let mut s = self.counts;
        s.rx_wakeups = self.producers.iter().map(Producer::wakeups).sum();
        s.rx_sleeps = self.producers.iter().map(Producer::sleeps).sum();
        s.inject_parks = self.producers.iter().map(Producer::parks).sum();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_wire::checksum::PseudoHeader;

    /// Build a minimal Ethernet+IPv4+TCP frame.
    fn tcp_frame(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        flags: tcp::Flags,
    ) -> Vec<u8> {
        let tcp_repr = tcp::Repr {
            src_port: sport,
            dst_port: dport,
            seq: 1,
            ack: 0,
            flags,
            window: 65535,
            options: tcp::OptionList::default(),
        };
        let ip_repr = ipv4::Repr {
            src: ipv4::Address(src),
            dst: ipv4::Address(dst),
            protocol: ipv4::Protocol::Tcp,
            ttl: 64,
            payload_len: tcp_repr.header_len(),
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_repr.total_len()];
        ethernet::Repr {
            src: ethernet::Address([2, 0, 0, 0, 0, 1]),
            dst: ethernet::Address([2, 0, 0, 0, 0, 2]),
            ethertype: ethernet::EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        let mut ip = ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
        ip_repr.emit(&mut ip);
        let ph: PseudoHeader = ip_repr.pseudo_header();
        let mut seg = tcp::Packet::new_unchecked(ip.payload_mut());
        tcp_repr.emit(&mut seg, &ph);
        buf
    }

    fn small_port(queues: u16) -> Port {
        Port::new(
            PortConfig {
                num_queues: queues,
                queue_depth: 64,
                pool_size: 128,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        )
    }

    #[test]
    fn inject_delivers_to_rss_queue() {
        let mut port = small_port(4);
        let frame = tcp_frame([10, 0, 0, 1], [10, 0, 0, 2], 40000, 443, tcp::Flags::SYN);
        let q = port.inject(&frame).unwrap();
        let mut rx = port.take_all_rx_queues().swap_remove(usize::from(q));
        let mut out = Vec::new();
        assert_eq!(rx.rx_burst(&mut out, 32), 1);
        assert_eq!(out[0].data(), &frame[..]);
        assert_eq!(out[0].queue_id, q);
    }

    #[test]
    fn both_directions_land_on_same_queue() {
        let mut port = small_port(8);
        let syn = tcp_frame([130, 216, 1, 2], [128, 9, 160, 1], 51000, 443, tcp::Flags::SYN);
        let synack = tcp_frame(
            [128, 9, 160, 1],
            [130, 216, 1, 2],
            443,
            51000,
            tcp::Flags::SYN | tcp::Flags::ACK,
        );
        let q1 = port.inject(&syn).unwrap();
        let q2 = port.inject(&synack).unwrap();
        assert_eq!(q1, q2, "symmetric RSS: both handshake directions colocate");
    }

    #[test]
    fn asymmetric_rss_can_split_directions() {
        let mut port = Port::new(
            PortConfig {
                num_queues: 8,
                symmetric_rss: false,
                ..PortConfig::default()
            },
            Clock::virtual_clock(),
        );
        // Find some flow whose directions split (most do under the MS key).
        let mut split = false;
        for i in 0..32u16 {
            let syn = tcp_frame([10, 0, 0, 1], [10, 0, 0, 2], 40000 + i, 443, tcp::Flags::SYN);
            let synack = tcp_frame(
                [10, 0, 0, 2],
                [10, 0, 0, 1],
                443,
                40000 + i,
                tcp::Flags::SYN | tcp::Flags::ACK,
            );
            if port.inject(&syn) != port.inject(&synack) {
                split = true;
                break;
            }
        }
        assert!(split, "Microsoft key should split some flows");
    }

    #[test]
    fn timestamp_comes_from_clock() {
        let clock = Clock::virtual_clock();
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                ..PortConfig::default()
            },
            clock.clone(),
        );
        clock.advance(12_345);
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        port.inject(&frame).unwrap();
        let mut rx = port.take_all_rx_queues().swap_remove(0);
        let mut out = Vec::new();
        rx.rx_burst(&mut out, 1);
        assert_eq!(out[0].timestamp.as_nanos(), 12_345);
    }

    #[test]
    fn non_tcp_packet_lands_on_the_hash_zero_queue() {
        let mut port = small_port(2);
        let garbage = vec![0xffu8; 60];
        port.inject(&garbage).unwrap();
        assert_eq!(port.stats().non_ip_packets, 1);
        let q0_expected = port.hasher().queue_for(0);
        let mut rx = port.take_all_rx_queues().swap_remove(usize::from(q0_expected));
        let mut out = Vec::new();
        assert_eq!(rx.rx_burst(&mut out, 8), 1);
        assert_eq!(out[0].queue_id, q0_expected);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                queue_depth: 4,
                pool_size: 64,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        );
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        for _ in 0..10 {
            port.inject(&frame);
        }
        let s = port.stats();
        assert_eq!(s.rx_packets, 4);
        assert_eq!(s.ring_full_drops, 6);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns a real consumer thread
    fn lossless_inject_waits_without_dropping() {
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                queue_depth: 4,
                pool_size: 8,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        );
        let mut rx = port.take_all_rx_queues().swap_remove(0);
        const N: usize = 2000;
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            let mut got = 0;
            while got < N {
                got += rx.rx_burst(&mut out, 32);
                out.clear();
                std::thread::yield_now();
            }
        });
        // Not TCP, so each frame also counts once as non-IP: a retry that
        // re-parsed the frame would count it again.
        let frame = vec![0xffu8; 60];
        for _ in 0..N {
            assert_eq!(port.inject_lossless_at(&frame, Timestamp::ZERO), Some(0));
        }
        consumer.join().unwrap();
        let s = port.stats();
        assert_eq!(s.rx_packets, N as u64);
        assert_eq!(s.non_ip_packets, N as u64);
        assert_eq!((s.ring_full_drops, s.no_mbuf_drops), (0, 0));
        assert!(s.inject_waits <= N as u64);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // spawns a real consumer thread
    fn a_delivery_wakes_a_parked_queue_once() {
        let mut port = small_port(1);
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        // A polling consumer is never woken.
        let mut rx = port.take_all_rx_queues().swap_remove(0);
        let mut out = Vec::new();
        for _ in 0..3 {
            port.inject(&frame).unwrap();
            assert_eq!(rx.rx_burst(&mut out, 8), 1);
        }
        assert_eq!(port.stats().rx_wakeups, 0);
        let consumer = std::thread::spawn(move || {
            while rx.rx_burst(&mut out, 8) == 0 {
                rx.park_while_empty(|| false);
            }
            rx
        });
        while !port.producers[0].consumer_sleeping() {
            std::thread::yield_now();
        }
        port.inject(&frame).unwrap();
        consumer.join().unwrap();
        assert_eq!(port.stats().rx_wakeups, 1);
    }

    /// A worker sleeping one coalescing period does not turn a burst into
    /// drops: the delivery that leaves its queue half full wakes it early,
    /// and a lossy burst of three quarters of a ring arrives whole.
    #[test]
    #[cfg_attr(miri, ignore)] // spawns a real worker thread
    #[allow(clippy::disallowed_methods)] // wall-clock window of the sleep
    fn a_burst_wakes_a_sleeping_worker_and_drops_nothing() {
        use crate::lcore::{WorkerGroup, RX_COALESCE};
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        use std::time::{Duration, Instant};
        let mut port = small_port(1);
        let burst = port.config().queue_depth * 3 / 4;
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let group = WorkerGroup::spawn_bursts(
            port.take_all_rx_queues(),
            |_| (),
            move |_, burst: &mut Vec<Mbuf>| {
                // Release: a count read with Acquire shows the worker awake
                // again, so a sleep seen after it is a new one.
                seen2.fetch_add(burst.drain(..).count() as u64, Ordering::Release);
            },
            |_| {},
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut sent = 0u64;
        let mut woken_early = 0;
        // A busy host may delay this thread past the worker's sleep; only
        // an attempt whose burst ends well inside the sleep counts.
        for _attempt in 0..10 {
            // One packet, then the worker takes it, flushes and sleeps.
            port.inject(&frame).unwrap();
            sent += 1;
            // A time before the worker took the packet, so before it slept.
            let mut unseen_at = Instant::now();
            loop {
                assert!(Instant::now() < deadline, "the worker never slept");
                let now = Instant::now();
                if seen.load(Ordering::Acquire) < sent {
                    unseen_at = now;
                } else if port.producers[0].consumer_moderated() {
                    break;
                }
                std::thread::yield_now();
            }
            let before = port.stats();
            for _ in 0..burst {
                assert!(port.inject_at(&frame, Timestamp::ZERO).is_some());
            }
            sent += burst as u64;
            let in_time = unseen_at.elapsed() < RX_COALESCE / 2;
            let after = port.stats();
            assert_eq!(after.ring_full_drops, 0);
            while seen.load(Ordering::Relaxed) < sent {
                assert!(Instant::now() < deadline, "the worker never took the burst");
                std::thread::yield_now();
            }
            if in_time {
                assert!(
                    after.rx_wakeups > before.rx_wakeups,
                    "the half-full queue did not wake the sleeping worker"
                );
                woken_early += 1;
                break;
            }
        }
        group.shutdown();
        assert_eq!(woken_early, 1, "no burst landed inside a sleep");
        assert_eq!(port.stats().rx_packets, sent);
    }

    #[test]
    fn pool_exhaustion_counts_drops() {
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                queue_depth: 1024,
                pool_size: 3,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        );
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        for _ in 0..5 {
            port.inject(&frame);
        }
        let s = port.stats();
        assert_eq!(s.rx_packets, 3);
        assert_eq!(s.no_mbuf_drops, 2);
    }

    #[test]
    fn freeing_mbufs_releases_pool_buffers() {
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                queue_depth: 8,
                pool_size: 2,
                buf_size: 2048,
                symmetric_rss: true,
            },
            Clock::virtual_clock(),
        );
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        let mut rx = port.take_all_rx_queues().swap_remove(0);
        let mut out = Vec::new();
        for _ in 0..10 {
            assert!(port.inject(&frame).is_some());
            rx.rx_burst(&mut out, 8);
            out.clear(); // drop mbufs -> return to pool
        }
        assert_eq!(port.stats().rx_packets, 10);
    }

    #[test]
    fn stats_track_bytes() {
        let mut port = small_port(1);
        let frame = tcp_frame([1, 1, 1, 1], [2, 2, 2, 2], 1, 2, tcp::Flags::SYN);
        port.inject(&frame).unwrap();
        port.inject(&frame).unwrap();
        assert_eq!(port.stats().rx_bytes, 2 * frame.len() as u64);
    }

    #[test]
    fn take_all_returns_each_queue_once() {
        let mut port = small_port(4);
        let ids: Vec<u16> = port.take_all_rx_queues().iter().map(|q| q.queue_id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert!(port.take_all_rx_queues().is_empty());
    }
}
