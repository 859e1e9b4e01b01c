//! PUSH/PULL: work distribution with back-pressure.
//!
//! Ruru Analytics runs a pool of enrichment workers fed from the
//! measurement stream; PUSH distributes each message to exactly one worker
//! (fair queueing falls out of workers pulling at their own pace) and, per
//! ZeroMQ semantics, blocks at the high-water mark instead of dropping —
//! analytics must see every measurement, unlike the best-effort frontend
//! feed.
//!
//! A PUSH hands work over in bursts: it wakes a puller that sleeps on an
//! empty pipe only once the pipe holds a full burst
//! ([`WAKE_BURST`](crate::chan::WAKE_BURST)), or
//! when the producer calls [`Push::flush`], which every producer does when
//! it goes idle. A dropped [`Push`] flushes too, and [`Push::send`] is a
//! one-message burst plus a flush.

use crate::chan::{bounded, Probe, Receiver, Sender};
use crate::message::Message;
use std::time::Duration;

/// Create a PUSH/PULL pipe of `T` items with the given high-water mark.
///
/// Both ends are cloneable: multiple pushers feed the same pipe, multiple
/// pullers drain it (each item goes to exactly one puller). Items move by
/// value, so an edge between threads of one process carries its records
/// as they are; [`Message`] (the default) is the item of an edge that
/// speaks bytes.
pub fn pipe<T>(hwm: usize) -> (Push<T>, Pull<T>) {
    assert!(hwm > 0, "high-water mark must be positive");
    let (tx, rx) = bounded(hwm);
    (Push { tx }, Pull { rx })
}

/// The sending end of a PUSH/PULL pipe.
pub struct Push<T = Message> {
    tx: Sender<T>,
}

impl<T> Clone for Push<T> {
    fn clone(&self) -> Push<T> {
        Push {
            tx: Sender::clone(&self.tx),
        }
    }
}

impl<T> Push<T> {
    /// Send one item and flush, blocking while the pipe is at its
    /// high-water mark. Returns `Err` with the item if every puller is
    /// gone.
    pub fn send(&self, item: T) -> Result<(), T> {
        self.tx.send(item).map_err(|e| e.0)
    }

    /// Send a burst of items in order under one pipe lock. Items occupy
    /// the pipe individually, ordering is preserved, and the call blocks
    /// mid-burst whenever the pipe is at its high-water mark
    /// (back-pressure, never loss). A sleeping puller is woken once the
    /// pipe holds a full burst; a part burst waits for more or for
    /// [`Push::flush`]. Returns the number of items sent, or `Err` with
    /// the first unsendable item once every puller is gone (the rest of
    /// the batch is dropped — the pipe is dead either way).
    pub fn send_batch<I>(&self, items: I) -> Result<usize, T>
    where
        I: IntoIterator<Item = T>,
    {
        self.tx.send_batch(items, false).map_err(|e| e.0)
    }

    /// Wake a sleeping puller if anything is buffered. A producer calls
    /// this when it goes idle, so a part burst never waits for traffic
    /// that may not come.
    pub fn flush(&self) {
        self.tx.flush();
    }

    /// Items currently buffered in the pipe.
    pub fn backlog(&self) -> usize {
        self.tx.len()
    }
}

/// The receiving end of a PUSH/PULL pipe.
pub struct Pull<T = Message> {
    rx: Receiver<T>,
}

impl<T> Clone for Pull<T> {
    fn clone(&self) -> Pull<T> {
        Pull {
            rx: Receiver::clone(&self.rx),
        }
    }
}

impl<T> Pull<T> {
    /// Blocking receive; `None` when every pusher is gone and the pipe is
    /// drained.
    pub fn recv(&self) -> Option<T> {
        self.rx.recv().ok()
    }

    /// Receive with a timeout; `None` on timeout or closed-and-drained.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<T> {
        self.rx.try_recv().ok()
    }

    /// Receive up to `max` items into `out` under one pipe lock, blocking
    /// only while the pipe is empty. Returns how many items were
    /// appended; `0` means every pusher is gone and the pipe is drained
    /// (or `max == 0`).
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.rx.recv_batch(out, max)
    }

    /// Non-blocking batch receive: move up to `max` buffered items into
    /// `out` under one pipe lock and return how many (possibly zero).
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.rx.try_recv_batch(out, max)
    }

    /// The pipe's counters ([`Probe::wakeups`]: how often a PUSH woke a
    /// sleeping puller), through a handle that keeps no end open.
    pub fn probe(&self) -> Probe<T> {
        self.rx.probe()
    }

    /// Items currently buffered.
    pub fn backlog(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    // Tests coordinate real threads with fixed sleeps; fine off the dataplane.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn messages_flow_in_order_single_consumer() {
        let (push, pull) = pipe(16);
        for i in 0..10u8 {
            push.send(Message::new("t", vec![i])).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(pull.recv().unwrap().payload, &[i][..]);
        }
    }

    #[test]
    fn each_message_goes_to_exactly_one_worker() {
        let (push, pull) = pipe(100_000);
        let counters: Vec<Arc<AtomicU64>> = (0..4).map(|_| Arc::new(AtomicU64::new(0))).collect();
        let mut handles = Vec::new();
        for c in &counters {
            let pull = pull.clone();
            let c = Arc::clone(c);
            handles.push(std::thread::spawn(move || {
                while pull.recv().is_some() {
                    c.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for i in 0..10_000u32 {
            push.send(Message::new("t", i.to_be_bytes().to_vec())).unwrap();
        }
        drop(push);
        drop(pull);
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = counters.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn send_blocks_until_space() {
        let (push, pull) = pipe(1);
        push.send(Message::new("t", "a")).unwrap();
        let t = std::thread::spawn(move || {
            // blocks until the main thread drains
            push.send(Message::new("t", "b")).unwrap();
        });
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(pull.recv().unwrap().payload, &b"a"[..]);
        assert_eq!(pull.recv().unwrap().payload, &b"b"[..]);
        t.join().unwrap();
    }

    #[test]
    fn recv_none_after_pushers_gone() {
        let (push, pull) = pipe(4);
        push.send(Message::new("t", "last")).unwrap();
        drop(push);
        assert!(pull.recv().is_some());
        assert!(pull.recv().is_none());
    }

    #[test]
    fn send_errors_when_pullers_gone() {
        let (push, pull) = pipe(4);
        drop(pull);
        let back = push.send(Message::new("t", "x")).unwrap_err();
        assert_eq!(back.payload, &b"x"[..]);
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_push, pull) = pipe::<Message>(4);
        assert!(pull.recv_timeout(Duration::from_millis(5)).is_none());
    }

    #[test]
    fn a_pipe_carries_values_of_any_type() {
        let (push, pull) = pipe::<(u16, String)>(4);
        let items = (0..3u16).map(|i| (i, i.to_string()));
        assert_eq!(push.send_batch(items), Ok(3));
        let mut out = Vec::new();
        assert_eq!(pull.try_recv_batch(&mut out, 8), 3);
        assert_eq!(out[2], (2, "2".to_string()));
        drop(pull);
        assert_eq!(push.send((9, "x".into())), Err((9, "x".into())));
    }

    #[test]
    fn batch_send_and_recv_preserve_order() {
        let (push, pull) = pipe(256);
        let batch: Vec<Message> = (0..100u8).map(|i| Message::new("t", vec![i])).collect();
        assert_eq!(push.send_batch(batch), Ok(100));
        let mut out = Vec::new();
        let mut got = 0usize;
        while got < 100 {
            let n = pull.recv_batch(&mut out, 32);
            assert!(n > 0 && n <= 32);
            got += n;
        }
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.payload, &[i as u8][..], "order preserved at {i}");
        }
    }

    #[test]
    fn mixed_batched_and_unbatched_interop() {
        // Batched sends interleave with plain sends; a plain receiver and
        // a batch receiver both see a coherent FIFO stream.
        let (push, pull) = pipe(64);
        push.send(Message::new("t", vec![0u8])).unwrap();
        push.send_batch((1..4u8).map(|i| Message::new("t", vec![i])))
            .unwrap();
        push.send(Message::new("t", vec![4u8])).unwrap();
        assert_eq!(pull.recv().unwrap().payload, &[0u8][..]);
        let mut out = Vec::new();
        assert_eq!(pull.try_recv_batch(&mut out, 16), 4);
        for (i, m) in out.iter().enumerate() {
            assert_eq!(m.payload, &[(i + 1) as u8][..]);
        }
    }

    #[test]
    fn send_batch_blocks_at_hwm_mid_batch() {
        // A pipe of 2 cannot hold a batch of 6: the batch sender must
        // block partway through (back-pressure), then complete once the
        // consumer drains. Nothing may be dropped or reordered.
        let (push, pull) = pipe(2);
        let t = std::thread::spawn(move || {
            let batch: Vec<Message> = (0..6u8).map(|i| Message::new("t", vec![i])).collect();
            push.send_batch(batch).unwrap()
        });
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..6u8 {
            assert_eq!(pull.recv().unwrap().payload, &[i][..]);
        }
        assert_eq!(t.join().unwrap(), 6);
        assert!(pull.try_recv().is_none());
    }

    #[test]
    fn send_batch_errors_when_pullers_gone() {
        let (push, pull) = pipe(16);
        drop(pull);
        let back = push
            .send_batch(vec![Message::new("t", "a"), Message::new("t", "b")])
            .unwrap_err();
        assert_eq!(back.payload, &b"a"[..]);
    }

    #[test]
    fn recv_batch_zero_after_pushers_gone() {
        let (push, pull) = pipe(8);
        push.send(Message::new("t", "last")).unwrap();
        drop(push);
        let mut out = Vec::new();
        assert_eq!(pull.recv_batch(&mut out, 8), 1);
        assert_eq!(pull.recv_batch(&mut out, 8), 0, "closed and drained");
        assert_eq!(pull.try_recv_batch(&mut out, 8), 0);
    }
}
