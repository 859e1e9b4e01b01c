//! PUB/SUB: topic-filtered fan-out with drop-on-full semantics.
//!
//! The publisher never blocks: if a subscriber's queue is at its high-water
//! mark, the message is dropped *for that subscriber* and counted — exactly
//! ZeroMQ's PUB behaviour, chosen so a slow analytics module can never stall
//! the DPDK dataplane.
//!
//! A burst is handed to each subscriber under one lock of its queue, and a
//! subscriber waiting on an empty queue is woken once per publish call:
//! PUB has no flush, so every publish ends its burst.

use crate::chan::{bounded, Disconnected, Receiver, Sender, TryRecvError, WAKE_BURST};
use crate::message::Message;
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{Arc, RwLock};
use std::time::Duration;

struct SubEntry {
    prefix: Vec<u8>,
    sender: Sender<Message>,
    drops: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

struct PubInner {
    subs: RwLock<Vec<SubEntry>>,
    published: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

/// The publishing end. Cloneable; clones share the subscriber list.
#[derive(Clone)]
pub struct Publisher {
    inner: Arc<PubInner>,
}

impl Publisher {
    /// A publisher with no subscribers yet.
    pub fn new() -> Publisher {
        Publisher {
            inner: Arc::new(PubInner {
                subs: RwLock::new(Vec::new()),
                published: AtomicU64::new(0),
                delivered: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Create a subscription for topics starting with `prefix`, with a
    /// queue bounded at `hwm` messages.
    pub fn subscribe(&self, prefix: impl AsRef<[u8]>, hwm: usize) -> Subscriber {
        assert!(hwm > 0, "high-water mark must be positive");
        let (tx, rx) = bounded(hwm);
        let drops = Arc::new(AtomicU64::new(0));
        let alive = Arc::new(AtomicBool::new(true));
        self.inner
            .subs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push(SubEntry {
            prefix: prefix.as_ref().to_vec(),
            sender: tx,
            drops: Arc::clone(&drops),
            alive: Arc::clone(&alive),
        });
        Subscriber { rx, drops, alive }
    }

    /// Deliver a staged burst to every matching subscriber under an
    /// already-held subscriber list, one queue lock per subscriber. Returns
    /// the delivery count and sets `gone` when a dead subscription was seen.
    fn deliver(&self, subs: &[SubEntry], burst: &[Option<Message>], gone: &mut bool) -> u64 {
        let mut delivered = 0;
        for sub in subs.iter() {
            if !sub.alive.load(Ordering::Acquire) {
                *gone = true;
                // account-ok: dead subscription skip — nobody is owed this
                // copy; live subscribers still receive the message.
                continue;
            }
            // Only the messages the subscriber's prefix asked for, cloned:
            // a `Message` holds `Bytes`, so a clone is two refcount bumps,
            // no payload copy.
            let matching = burst.iter().flatten().filter(|m| m.matches(&sub.prefix));
            match sub.sender.try_send_batch(matching.cloned()) {
                Ok((sent, dropped)) => {
                    delivered += sent;
                    if dropped > 0 {
                        sub.drops.fetch_add(dropped, Ordering::Relaxed);
                        self.inner.dropped.fetch_add(dropped, Ordering::Relaxed);
                    }
                }
                Err(Disconnected) => *gone = true,
            }
        }
        delivered
    }

    /// Prune subscriptions whose receiving end is gone.
    fn prune(&self) {
        // Recover rather than propagate a poisoned lock: the subscriber
        // list is valid after any panic elsewhere (retain/push only).
        self.inner
            .subs
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .retain(|s| s.alive.load(Ordering::Acquire));
    }

    /// Publish a message to every matching subscriber. Never blocks;
    /// returns the number of subscribers that received it. A one-message
    /// [`Publisher::publish_batch`].
    pub fn publish(&self, msg: Message) -> usize {
        self.publish_batch(Some(msg))
    }

    /// Publish a burst of messages under a single subscriber-list lock
    /// acquisition. The burst is staged [`WAKE_BURST`] messages at a time,
    /// and each stage goes to each subscriber under one lock of its queue.
    /// Per-message semantics are those of a loop of publishes: never
    /// blocks, a subscriber at its high-water mark drops exactly the
    /// messages that did not fit (counted per subscriber), and delivery
    /// order within the batch is preserved. Returns the total number of
    /// (message, subscriber) deliveries.
    pub fn publish_batch<I>(&self, msgs: I) -> usize
    where
        I: IntoIterator<Item = Message>,
    {
        let mut msgs = msgs.into_iter();
        let mut gone = false;
        let mut published = 0u64;
        let mut delivered = 0u64;
        {
            let subs = self.inner.subs.read().unwrap_or_else(|e| e.into_inner());
            let mut stage: [Option<Message>; WAKE_BURST] = Default::default();
            // A full stage may have more behind it; a part stage ends it.
            let mut more = true;
            while more {
                let mut n = 0;
                for (slot, msg) in stage.iter_mut().zip(msgs.by_ref()) {
                    *slot = Some(msg);
                    n += 1;
                }
                more = n == WAKE_BURST;
                if n > 0 {
                    published += n as u64;
                    let burst = stage.get(..n).unwrap_or(&[]);
                    delivered += self.deliver(&subs, burst, &mut gone);
                    stage.iter_mut().take(n).for_each(|slot| *slot = None);
                }
            }
        }
        if gone {
            // Prune dead subscriptions outside the read lock.
            self.prune();
        }
        self.inner.published.fetch_add(published, Ordering::Relaxed);
        self.inner.delivered.fetch_add(delivered, Ordering::Relaxed);
        delivered as usize
    }

    /// (published, delivered, dropped) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.inner.published.load(Ordering::Relaxed),
            self.inner.delivered.load(Ordering::Relaxed),
            self.inner.dropped.load(Ordering::Relaxed),
        )
    }
}

impl Default for Publisher {
    fn default() -> Self {
        Self::new()
    }
}

/// The receiving end of a subscription. Dropping it unsubscribes.
pub struct Subscriber {
    rx: Receiver<Message>,
    drops: Arc<AtomicU64>,
    alive: Arc<AtomicBool>,
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::Release);
    }
}

impl Subscriber {
    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<Message> {
        match self.rx.try_recv() {
            Ok(m) => Some(m),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocking receive with a timeout; `None` on timeout or a gone
    /// publisher.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Message> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Messages this subscriber lost to its high-water mark.
    pub fn drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Messages currently queued.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    // Tests coordinate real threads with fixed sleeps; fine off the dataplane.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    /// Live subscriptions, pruned ones excluded.
    fn subscriber_count(p: &Publisher) -> usize {
        p.inner.subs.read().unwrap().len()
    }

    #[test]
    fn topic_filtering() {
        let p = Publisher::new();
        let all = p.subscribe("", 10);
        let lat = p.subscribe("latency", 10);
        p.publish(Message::new("latency.v4", "a"));
        p.publish(Message::new("alerts", "b"));
        assert_eq!(all.backlog(), 2);
        assert_eq!(lat.backlog(), 1);
        assert_eq!(lat.try_recv().unwrap().payload, &b"a"[..]);
        assert!(lat.try_recv().is_none());
    }

    #[test]
    fn publish_reports_delivery_count() {
        let p = Publisher::new();
        let _a = p.subscribe("x", 4);
        let _b = p.subscribe("x", 4);
        let _c = p.subscribe("y", 4);
        assert_eq!(p.publish(Message::new("x1", "m")), 2);
        assert_eq!(subscriber_count(&p), 3);
    }

    #[test]
    fn slow_subscriber_drops_not_blocks() {
        let p = Publisher::new();
        let s = p.subscribe("", 2);
        for i in 0..10u8 {
            p.publish(Message::new("t", vec![i]));
        }
        assert_eq!(s.backlog(), 2, "only HWM retained");
        assert_eq!(s.drops(), 8);
        let (published, delivered, dropped) = p.stats();
        assert_eq!(published, 10);
        assert_eq!(delivered, 2);
        assert_eq!(dropped, 8);
        // The two delivered are the OLDEST (queue filled then dropped).
        assert_eq!(s.try_recv().unwrap().payload, &[0u8][..]);
        assert_eq!(s.try_recv().unwrap().payload, &[1u8][..]);
    }

    #[test]
    fn recv_timeout_blocks_until_message() {
        let p = Publisher::new();
        let s = p.subscribe("", 4);
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p2.publish(Message::new("t", "late"));
        });
        let m = s.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(m.payload, &b"late"[..]);
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_times_out() {
        let p = Publisher::new();
        let s = p.subscribe("", 4);
        assert!(s.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn publisher_clones_share_subscribers() {
        let p = Publisher::new();
        let s = p.subscribe("", 4);
        let clone = p.clone();
        clone.publish(Message::new("t", "via-clone"));
        assert_eq!(s.try_recv().unwrap().payload, &b"via-clone"[..]);
    }

    #[test]
    fn fanout_shares_payload_allocation() {
        let p = Publisher::new();
        let a = p.subscribe("", 4);
        let b = p.subscribe("", 4);
        let payload = bytes::Bytes::from(vec![7u8; 4096]);
        p.publish(Message::new("t", payload.clone()));
        let ma = a.try_recv().unwrap();
        let mb = b.try_recv().unwrap();
        assert_eq!(ma.payload.as_ptr(), payload.as_ptr());
        assert_eq!(mb.payload.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn dropped_subscriber_is_pruned() {
        let p = Publisher::new();
        let a = p.subscribe("", 4);
        let _b = p.subscribe("", 4);
        assert_eq!(subscriber_count(&p), 2);
        drop(a);
        // First publish after the drop notices and prunes.
        assert_eq!(p.publish(Message::new("t", "m")), 1);
        assert_eq!(subscriber_count(&p), 1);
    }

    #[test]
    fn publish_batch_matches_per_message_semantics() {
        let p = Publisher::new();
        let all = p.subscribe("", 100);
        let lat = p.subscribe("latency", 100);
        let batch: Vec<Message> = (0..10u8)
            .map(|i| {
                Message::new(
                    if i % 2 == 0 { "latency" } else { "alerts" },
                    vec![i],
                )
            })
            .collect();
        // 10 to `all` + 5 to `lat`.
        assert_eq!(p.publish_batch(batch), 15);
        assert_eq!(all.backlog(), 10);
        assert_eq!(lat.backlog(), 5);
        // Order within the batch is preserved.
        assert_eq!(all.try_recv().unwrap().payload, &[0u8][..]);
        assert_eq!(all.try_recv().unwrap().payload, &[1u8][..]);
        assert_eq!(lat.try_recv().unwrap().payload, &[0u8][..]);
        assert_eq!(lat.try_recv().unwrap().payload, &[2u8][..]);
        let (published, delivered, dropped) = p.stats();
        assert_eq!(published, 10);
        assert_eq!(delivered, 15);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn publish_batch_slow_subscriber_still_drops_not_blocks() {
        // PUB drop-on-full semantics are unchanged under batching: the
        // oldest messages are retained, the overflow is counted, and the
        // publisher never blocks.
        let p = Publisher::new();
        let s = p.subscribe("", 3);
        let batch: Vec<Message> = (0..10u8).map(|i| Message::new("t", vec![i])).collect();
        assert_eq!(p.publish_batch(batch), 3);
        assert_eq!(s.backlog(), 3, "only HWM retained");
        assert_eq!(s.drops(), 7);
        assert_eq!(s.try_recv().unwrap().payload, &[0u8][..]);
        let (published, delivered, dropped) = p.stats();
        assert_eq!(published, 10);
        assert_eq!(delivered, 3);
        assert_eq!(dropped, 7);
    }

    #[test]
    fn concurrent_publishers_and_subscribers() {
        let p = Publisher::new();
        let subs: Vec<_> = (0..4).map(|_| p.subscribe("", 100_000)).collect();
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    p.publish(Message::new("t", (t * 1000 + i).to_be_bytes().to_vec()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for s in &subs {
            assert_eq!(s.backlog(), 4000);
            assert_eq!(s.drops(), 0);
        }
    }
}
