//! Length-prefixed TCP transport for cross-process modules.
//!
//! The deployed Ruru runs the DPDK app, the analytics and the frontend feed
//! as separate processes connected by ZeroMQ over TCP. This module provides
//! the same: a [`TcpPublisher`] binds and fans out to connected
//! [`TcpSubscriber`]s, each with a topic prefix sent at connect time.
//!
//! Frame format (little-endian):
//!
//! ```text
//! u32 topic_len | topic bytes | u32 payload_len | payload bytes
//! ```
//!
//! The subscription handshake is a single frame from subscriber to
//! publisher whose *topic* is the requested prefix and whose payload is
//! empty.
//!
//! # Slow subscribers never stall the publisher
//!
//! Peer sockets are **nonblocking** with a bounded per-peer byte buffer
//! ([`PEER_BUFFER_CAP`]). `publish` only ever memcpys into that buffer and
//! attempts nonblocking flushes — it performs no blocking syscalls, so its
//! latency is bounded independent of the slowest peer. When a peer's
//! backlog is full, **whole frames** are dropped for that peer (the TCP
//! analogue of PUB's drop-on-full HWM) — never partial frames, so the
//! byte stream always stays frame-aligned. Peers are disconnected only on
//! hard socket errors (reset, broken pipe), never for being slow; the
//! accept thread keeps draining buffered tails between publishes.

use crate::message::Message;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Arc, Mutex, MutexGuard, PoisonError};
use bytes::Bytes;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Poison-tolerant lock for the peer list: a panic in one publisher thread
/// must not wedge every other publisher clone.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maximum accepted frame component size (defensive bound).
pub const MAX_PART: usize = 64 * 1024 * 1024;

/// Per-peer backlog bound: once a slow subscriber has this many bytes
/// queued, further frames are dropped *for that peer* until it drains.
/// An empty backlog always accepts one frame (so any frame ≤ [`MAX_PART`]
/// can be delivered), which bounds per-peer memory at
/// `PEER_BUFFER_CAP + MAX_PART`.
pub const PEER_BUFFER_CAP: usize = 4 * 1024 * 1024;

/// Flushed-bytes threshold past which a peer's buffer is compacted.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// Encode a message into its wire frame.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + msg.len());
    out.extend_from_slice(&(msg.topic.len() as u32).to_le_bytes());
    out.extend_from_slice(&msg.topic);
    out.extend_from_slice(&(msg.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&msg.payload);
    out
}

/// Read one frame from a stream; `None` on clean EOF.
pub fn read_frame(stream: &mut impl Read) -> std::io::Result<Option<Message>> {
    let mut len_buf = [0u8; 4];
    match stream.read_exact(&mut len_buf) {
        Ok(()) => {}
        // account-ok: clean EOF between frames — no partial frame is held.
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        // account-ok: io error on the external TCP subscriber boundary;
        // the caller owns the stream and surfaces the error.
        Err(e) => return Err(e),
    }
    let topic_len = u32::from_le_bytes(len_buf) as usize;
    if topic_len > MAX_PART {
        // account-ok: malformed frame on the external boundary — the error
        // reaches the subscriber's caller; nothing internal is dropped.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "topic too large",
        ));
    }
    // alloc-ok: subscriber-side frame decode on the cross-process TCP
    // boundary; one buffer per received frame, off the capture path.
    let mut topic = vec![0u8; topic_len];
    // account-ok: io error on the external boundary, surfaced to the caller.
    stream.read_exact(&mut topic)?;
    // account-ok: io error on the external boundary, surfaced to the caller.
    stream.read_exact(&mut len_buf)?;
    let payload_len = u32::from_le_bytes(len_buf) as usize;
    if payload_len > MAX_PART {
        // account-ok: malformed frame on the external boundary, as above.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "payload too large",
        ));
    }
    // alloc-ok: subscriber-side frame decode, as above.
    let mut payload = vec![0u8; payload_len];
    // account-ok: io error on the external boundary, surfaced to the caller.
    stream.read_exact(&mut payload)?;
    Ok(Some(Message {
        topic: Bytes::from(topic),
        payload: Bytes::from(payload),
    }))
}

/// One connected subscriber: its nonblocking socket plus the bounded
/// backlog of frame bytes accepted but not yet handed to the OS.
struct Peer {
    stream: TcpStream,
    prefix: Vec<u8>,
    /// Queued frame bytes; `cursor..` is the unflushed region.
    pending: Vec<u8>,
    /// Bytes of `pending` already written to the socket.
    cursor: usize,
    /// Remaining unflushed byte length of each queued frame, oldest first
    /// (lets the flusher count *fully sent* frames exactly).
    frame_lens: VecDeque<usize>,
    /// Whole frames dropped for this peer because its backlog was full.
    drops: u64,
}

impl Peer {
    fn backlog(&self) -> usize {
        self.pending.len().saturating_sub(self.cursor)
    }

    /// Nonblocking drain of the backlog. Returns the number of frames
    /// whose final byte reached the OS, or a hard error (transient
    /// `WouldBlock` just stops the drain; `Interrupted` retries).
    fn try_flush(&mut self) -> std::io::Result<u64> {
        let mut sent_frames = 0u64;
        while self.cursor < self.pending.len() {
            let unsent = self.pending.get(self.cursor..).unwrap_or(&[]);
            match self.stream.write(unsent) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer socket accepted no bytes",
                    ));
                }
                Ok(n) => {
                    self.cursor = self.cursor.saturating_add(n);
                    let mut credit = n;
                    while let Some(front) = self.frame_lens.front_mut() {
                        if credit >= *front {
                            credit = credit.saturating_sub(*front);
                            self.frame_lens.pop_front();
                            sent_frames = sent_frames.saturating_add(1);
                        } else {
                            *front = front.saturating_sub(credit);
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.cursor >= self.pending.len() {
            self.pending.clear();
            self.cursor = 0;
        } else if self.cursor > COMPACT_THRESHOLD {
            self.pending.drain(..self.cursor);
            self.cursor = 0;
        }
        Ok(sent_frames)
    }

    /// Queue `frame` if the backlog allows it (an empty backlog always
    /// accepts). Returns `false` — a per-peer whole-frame drop — when full.
    fn enqueue(&mut self, frame: &[u8]) -> bool {
        let backlog = self.backlog();
        if backlog > 0 && backlog.saturating_add(frame.len()) > PEER_BUFFER_CAP {
            self.drops = self.drops.saturating_add(1);
            return false;
        }
        self.pending.extend_from_slice(frame);
        self.frame_lens.push_back(frame.len());
        true
    }
}

/// Cumulative [`TcpPublisher`] counters, shared with the accept/flush
/// thread.
#[derive(Default)]
struct PubCounters {
    published: AtomicU64,
    sent_frames: AtomicU64,
    dropped_frames: AtomicU64,
    disconnects: AtomicU64,
}

/// A consistent read of the publisher's counters.
///
/// Conservation: every frame passed to `publish` is, per matching peer,
/// either eventually counted in `sent_frames`, counted in
/// `dropped_frames`, or lost with its peer's `disconnects` increment —
/// never double-counted, never silently vanished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpPubStats {
    /// Frames passed to [`TcpPublisher::publish`] (independent of peers).
    pub published: u64,
    /// Frames whose final byte was handed to the OS, summed over peers.
    pub sent_frames: u64,
    /// Whole frames dropped because a peer's backlog was full.
    pub dropped_frames: u64,
    /// Peers disconnected on hard socket errors (never for slowness).
    pub disconnects: u64,
}

/// A TCP publisher: binds a listener and fans frames out to subscribers.
pub struct TcpPublisher {
    peers: Arc<Mutex<Vec<Peer>>>,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
    counters: Arc<PubCounters>,
}

/// Flush every peer, retaining only those without hard errors; feeds the
/// shared counters. Runs under the peers lock but performs only
/// nonblocking writes.
fn flush_peers(peers: &mut Vec<Peer>, counters: &PubCounters) {
    peers.retain_mut(|peer| match peer.try_flush() {
        Ok(sent) => {
            counters.sent_frames.fetch_add(sent, Ordering::Relaxed);
            true
        }
        Err(_) => {
            counters.disconnects.fetch_add(1, Ordering::Relaxed);
            false
        }
    });
}

impl TcpPublisher {
    /// Bind to `addr` (use port 0 for an ephemeral port) and start
    /// accepting subscribers in a background thread. The same thread
    /// doubles as the periodic flusher, draining buffered tails so a
    /// quiet publisher still delivers everything it queued.
    // Accept-thread spawn failure is a startup-time OS error; the accept
    // loop sleeps on WouldBlock because it is an IO thread, not a poller.
    #[allow(clippy::expect_used, clippy::disallowed_methods)]
    pub fn bind(addr: &str) -> std::io::Result<TcpPublisher> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let peers: Arc<Mutex<Vec<Peer>>> = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(PubCounters::default());
        let peers2 = Arc::clone(&peers);
        let stop2 = Arc::clone(&stop);
        let counters2 = Arc::clone(&counters);
        let accept_thread = thread::Builder::new()
            .name("mq-accept".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            // Subscription handshake: one frame carrying the
                            // prefix. Bound the wait so a dead peer can't
                            // wedge the accept loop.
                            stream.set_nonblocking(false).ok();
                            stream
                                .set_read_timeout(Some(Duration::from_secs(5)))
                                .ok();
                            if let Ok(Some(hello)) = read_frame(&mut stream) {
                                stream.set_nodelay(true).ok();
                                // All publisher writes are nonblocking; a
                                // backlogged peer buffers, never stalls us.
                                stream.set_nonblocking(true).ok();
                                plock(&peers2).push(Peer {
                                    stream,
                                    prefix: hello.topic.to_vec(),
                                    pending: Vec::new(),
                                    cursor: 0,
                                    frame_lens: VecDeque::new(),
                                    drops: 0,
                                });
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            flush_peers(&mut plock(&peers2), &counters2);
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => break,
                    }
                }
            })
            .expect("spawn accept thread");
        Ok(TcpPublisher {
            peers,
            local_addr,
            stop,
            accept_thread: Some(accept_thread),
            counters,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connected subscriber count.
    pub fn peer_count(&self) -> usize {
        plock(&self.peers).len()
    }

    /// Publish to all matching subscribers. Never blocks: each matching
    /// peer either gets the whole frame queued (flushed opportunistically
    /// with nonblocking writes) or drops the whole frame if its backlog
    /// is full. Peers are disconnected only on hard socket errors.
    /// Returns the number of peers the frame was queued for.
    pub fn publish(&self, msg: &Message) -> usize {
        let frame = encode_frame(msg);
        self.counters.published.fetch_add(1, Ordering::Relaxed);
        let mut peers = plock(&self.peers);
        let mut queued = 0usize;
        peers.retain_mut(|peer| {
            let matches = msg.matches(&peer.prefix);
            // lock-ok: enqueue's backlog is bounded by PEER_BUFFER_CAP
            // (whole frames dropped past it) and the peer lock is only
            // shared with the nonblocking accept/flush side.
            if matches && peer.enqueue(&frame) {
                queued = queued.saturating_add(1);
            } else if matches {
                self.counters.dropped_frames.fetch_add(1, Ordering::Relaxed);
            }
            match peer.try_flush() {
                Ok(sent) => {
                    self.counters.sent_frames.fetch_add(sent, Ordering::Relaxed);
                    true
                }
                Err(_) => {
                    self.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
        queued
    }

    /// Cumulative publisher counters.
    pub fn stats(&self) -> TcpPubStats {
        TcpPubStats {
            published: self.counters.published.load(Ordering::Relaxed),
            sent_frames: self.counters.sent_frames.load(Ordering::Relaxed),
            dropped_frames: self.counters.dropped_frames.load(Ordering::Relaxed),
            disconnects: self.counters.disconnects.load(Ordering::Relaxed),
        }
    }
}

impl Drop for TcpPublisher {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Best-effort final drain so frames queued just before drop still
        // reach peers whose sockets have room.
        flush_peers(&mut plock(&self.peers), &self.counters);
    }
}

/// A TCP subscriber: connects, sends its prefix, then reads frames.
pub struct TcpSubscriber {
    stream: TcpStream,
}

impl TcpSubscriber {
    /// Connect to a publisher and subscribe to `prefix`.
    pub fn connect(addr: SocketAddr, prefix: impl AsRef<[u8]>) -> std::io::Result<TcpSubscriber> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let hello = Message::new(prefix.as_ref().to_vec(), Bytes::new());
        stream.write_all(&encode_frame(&hello))?;
        Ok(TcpSubscriber { stream })
    }

    /// Blocking receive of the next frame; `None` when the publisher closed.
    pub fn recv(&mut self) -> std::io::Result<Option<Message>> {
        read_frame(&mut self.stream)
    }
}

#[cfg(test)]
mod tests {
    // Tests coordinate real threads with fixed sleeps; fine off the dataplane.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn wait_for_peers(publisher: &TcpPublisher, n: usize) {
        for _ in 0..500 {
            if publisher.peer_count() >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("peers never connected");
    }

    #[test]
    fn frame_roundtrip() {
        let msg = Message::new("topic", vec![1u8, 2, 3, 4]);
        let frame = encode_frame(&msg);
        let mut cursor = &frame[..];
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, msg);
        // Clean EOF afterwards.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut bad = Vec::new();
        bad.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &bad[..]).is_err());
    }

    #[test]
    fn truncated_frame_is_error() {
        let msg = Message::new("t", "payload");
        let frame = encode_frame(&msg);
        let cut = &frame[..frame.len() - 2];
        assert!(read_frame(&mut &cut[..]).is_err());
    }

    #[test]
    fn publish_subscribe_over_tcp() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let mut sub = TcpSubscriber::connect(publisher.local_addr(), "latency").unwrap();
        wait_for_peers(&publisher, 1);

        publisher.publish(&Message::new("latency.v4", "m1"));
        publisher.publish(&Message::new("alerts", "ignored"));
        publisher.publish(&Message::new("latency.v6", "m2"));

        let m1 = sub.recv().unwrap().unwrap();
        assert_eq!(m1.topic, &b"latency.v4"[..]);
        assert_eq!(m1.payload, &b"m1"[..]);
        let m2 = sub.recv().unwrap().unwrap();
        assert_eq!(m2.payload, &b"m2"[..]);
    }

    #[test]
    fn multiple_subscribers_with_different_prefixes() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let mut all = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        let mut only_a = TcpSubscriber::connect(publisher.local_addr(), "a").unwrap();
        wait_for_peers(&publisher, 2);

        let n = publisher.publish(&Message::new("a.x", "1"));
        assert_eq!(n, 2);
        let n = publisher.publish(&Message::new("b.y", "2"));
        assert_eq!(n, 1);

        assert_eq!(all.recv().unwrap().unwrap().payload, &b"1"[..]);
        assert_eq!(all.recv().unwrap().unwrap().payload, &b"2"[..]);
        assert_eq!(only_a.recv().unwrap().unwrap().payload, &b"1"[..]);
    }

    #[test]
    fn subscriber_sees_eof_on_publisher_drop() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let mut sub = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        wait_for_peers(&publisher, 1);
        publisher.publish(&Message::new("t", "bye"));
        drop(publisher);
        assert_eq!(sub.recv().unwrap().unwrap().payload, &b"bye"[..]);
        assert!(sub.recv().unwrap().is_none());
    }

    #[test]
    fn dead_subscriber_is_dropped_on_publish() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let sub = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        wait_for_peers(&publisher, 1);
        drop(sub);
        // Publishing into a closed socket errors (possibly after a few
        // buffered successes); the peer must eventually be pruned.
        for _ in 0..10_000 {
            publisher.publish(&Message::new("t", vec![0u8; 4096]));
            if publisher.peer_count() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        assert_eq!(publisher.peer_count(), 0);
        assert_eq!(publisher.stats().disconnects, 1);
    }

    #[test]
    fn many_frames_preserve_order_and_content() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let mut sub = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        wait_for_peers(&publisher, 1);
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            for _ in 0..1000 {
                let m = sub.recv().unwrap().unwrap();
                got.push(u32::from_le_bytes(m.payload[..4].try_into().unwrap()));
            }
            got
        });
        for i in 0..1000u32 {
            publisher.publish(&Message::new("t", i.to_le_bytes().to_vec()));
        }
        let got = reader.join().unwrap();
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        // Nothing was dropped or disconnected, and every frame the
        // publisher queued was eventually fully written.
        let stats = publisher.stats();
        assert_eq!(stats.published, 1000);
        assert_eq!(stats.sent_frames, 1000);
        assert_eq!(stats.dropped_frames, 0);
        assert_eq!(stats.disconnects, 0);
    }

    /// The ISSUE 5 regression: a subscriber that never reads must not
    /// add even a millisecond of blocking to `publish` (the old code
    /// held the peers lock across a blocking `write_all` with a 1 s
    /// timeout), must not be disconnected for mere slowness, and must
    /// shed whole frames once its backlog hits the cap.
    #[test]
    fn slow_subscriber_never_blocks_publish() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        // Connected but never reads: the OS buffers fill, then our
        // per-peer backlog fills, then frames drop.
        let _lazy = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        wait_for_peers(&publisher, 1);

        let payload = vec![0u8; 256 * 1024];
        let mut slowest = Duration::ZERO;
        for _ in 0..100 {
            let t0 = std::time::Instant::now();
            publisher.publish(&Message::new("t", payload.clone()));
            slowest = slowest.max(t0.elapsed());
        }

        // 100 × 256 KiB ≫ PEER_BUFFER_CAP + any OS socket buffer.
        let stats = publisher.stats();
        assert!(
            stats.dropped_frames > 0,
            "a saturated backlog must shed whole frames, got {stats:?}"
        );
        assert_eq!(
            publisher.peer_count(),
            1,
            "slowness alone must never disconnect a peer"
        );
        assert_eq!(stats.disconnects, 0);
        // The old implementation blocked up to 1 s per publish; the new
        // one only memcpys + nonblocking-writes. Allow generous CI slack.
        assert!(
            slowest < Duration::from_millis(500),
            "publish took {slowest:?} with a stalled subscriber"
        );
        // Whatever wasn't dropped was queued or sent — conservation.
        assert_eq!(
            stats.sent_frames as usize
                + stats.dropped_frames as usize
                + plock(&publisher.peers)
                    .first()
                    .map(|p| p.frame_lens.len())
                    .unwrap_or(0),
            stats.published as usize
        );
    }

    /// After a stall clears, buffered frames drain (via the accept
    /// thread's periodic flush) and the stream stays frame-aligned.
    #[test]
    fn stalled_backlog_drains_frame_aligned_once_reader_resumes() {
        let publisher = TcpPublisher::bind("127.0.0.1:0").unwrap();
        let mut sub = TcpSubscriber::connect(publisher.local_addr(), "").unwrap();
        wait_for_peers(&publisher, 1);

        // Stall long enough to force a partial nonblocking write mid-frame.
        let payload = vec![0xabu8; 512 * 1024];
        for _ in 0..8 {
            publisher.publish(&Message::new("big", payload.clone()));
        }
        // Resume reading: every frame that arrives must be intact and
        // correctly framed (no torn length prefixes).
        sub.stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut received = 0;
        while let Ok(Some(m)) = sub.recv() {
            assert_eq!(m.topic, &b"big"[..]);
            assert_eq!(m.payload.len(), payload.len());
            assert!(m.payload.iter().all(|&b| b == 0xab));
            received += 1;
            let stats = publisher.stats();
            if received as u64 + stats.dropped_frames >= stats.published {
                break;
            }
        }
        assert!(received > 0, "drained frames must reach the subscriber");
    }
}
