//! The bounded blocking channel underneath both socket patterns.
//!
//! A multi-producer multi-consumer FIFO with a hard capacity (the
//! high-water mark), blocking `send`/`recv`, and ZeroMQ-style disconnect
//! semantics: `send` fails once every receiver is gone, `recv` drains the
//! backlog and then reports disconnection once every sender is gone.
//!
//! This replaces the `crossbeam` channel the bus used before the workspace
//! hot path moved onto the per-crate sync shims ([`crate::sync`]): the
//! channel is the piece that makes PUSH block at the HWM and PUB drop on a
//! full subscriber queue, so it must be loom-checkable — `tests/loom_mq.rs`
//! exhaustively explores its blocking handshakes (producer parked at the
//! HWM vs. consumer draining, disconnect racing a blocked peer) under
//! `RUSTFLAGS="--cfg loom"`.
//!
//! The implementation is deliberately the boring one: a `VecDeque` behind a
//! [`Mutex`] with two [`Condvar`]s (`not_empty`, `not_full`). The mutex is
//! uncontended in the common case and the semantics are trivially auditable
//! — the subtle lock-free structures live in `ruru-nic` where the per-packet
//! rates demand them; the bus moves bursts, not packets. Every transfer is
//! a burst: [`Sender::send_batch`] and [`Receiver::recv_batch`] move a whole
//! burst under one lock acquisition, and the one-value calls are one-value
//! bursts.
//!
//! A notify is a syscall even when nobody waits, so the channel counts its
//! blocked receivers and senders inside the mutex and signals a condvar
//! only when the count says a peer waits on it. A waiter increments its
//! count before it waits and decrements it after it wakes, both under the
//! lock, so a count of zero seen under the lock means nobody is waiting or
//! about to wait on that condvar.
//!
//! A wake costs the sleeper a context switch, so a send wakes a waiting
//! receiver only when there is a burst's worth of work for it: once the
//! channel holds [`WAKE_BURST`] values (or all its capacity, if that is
//! smaller), or when the sender flushes ([`Sender::flush`], a send with
//! `flush`, or a sender's drop). A producer therefore flushes whenever it
//! goes idle, as a DPDK lcore drains its TX buffer on an empty poll. A
//! receiver that has been notified and not yet run is not notified again:
//! the channel also counts notifies no woken receiver has taken up, and
//! notifies only while more receivers wait than that. The wakes are
//! counted under the lock where they are decided ([`Probe::wakeups`]).

use crate::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// A send wakes a waiting receiver once the channel holds this many values:
/// one RX burst (DPDK's 32), the most a stage hands on at once.
pub const WAKE_BURST: usize = 32;

/// The error returned by [`Sender::send`]: every [`Receiver`] is gone, and
/// the unsent value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The error returned by `Sender::try_send_batch`: every receiver is gone.
#[derive(Debug, PartialEq, Eq)]
pub struct Disconnected;

/// The error returned by [`Receiver::recv`]: every [`Sender`] is gone and
/// the channel is drained.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// The error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// Every sender is gone and the channel is drained.
    Disconnected,
}

/// The error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty (but senders remain).
    Empty,
    /// Every sender is gone and the channel is drained.
    Disconnected,
}

struct Inner<T> {
    queue: VecDeque<T>,
    cap: usize,
    senders: usize,
    receivers: usize,
    /// Receivers blocked on `not_empty`.
    recv_waiting: usize,
    /// Notifies of `not_empty` that no receiver has returned from its wait
    /// to take up yet: a receiver already being woken needs no second
    /// notify, so a send notifies only while `recv_waiting` exceeds this.
    recv_notified: usize,
    /// Senders blocked on `not_full`.
    send_waiting: usize,
    /// Notifies of `not_empty` issued while a receiver waited.
    wakeups: u64,
}

impl<T> Inner<T> {
    /// Whether a send that leaves the channel in this state wakes a
    /// waiting receiver: one waits that no outstanding notify covers, and
    /// the channel holds a full burst (or is full) or the sender flushes. A
    /// yes is counted here, under the lock; the caller notifies `not_empty`
    /// once.
    fn wake_receiver(&mut self, flush: bool) -> bool {
        let len = self.queue.len();
        let wake = self.recv_waiting > self.recv_notified
            && len > 0
            && (flush || len >= WAKE_BURST.min(self.cap));
        self.recv_notified += usize::from(wake);
        self.wakeups += u64::from(wake);
        wake
    }

    /// A receiver returned from its wait on `not_empty`. It takes up one
    /// outstanding notify, if any: one that woke another receiver, or none
    /// at all, only lowers the count, which can cost a spare notify but
    /// never a missed one.
    fn receiver_woke(&mut self) {
        self.recv_waiting -= 1;
        self.recv_notified = self.recv_notified.saturating_sub(1);
    }
}

struct Chan<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled when a send or flush leaves work for a waiting receiver
    /// (see [`Inner::wake_receiver`]), and on the last sender's disconnect.
    not_empty: Condvar,
    /// Signalled on a receive while a sender waits, and on the last
    /// receiver's disconnect.
    not_full: Condvar,
}

impl<T> Chan<T> {
    /// Move up to `max` values to `out` and unlock, then wake the waiting
    /// senders if any. An empty queue hands the lock back.
    fn pop_unlock<'a>(
        &self,
        mut inner: MutexGuard<'a, Inner<T>>,
        max: usize,
        out: &mut impl FnMut(T),
    ) -> Result<usize, MutexGuard<'a, Inner<T>>> {
        let n = inner.queue.len().min(max);
        if n == 0 {
            // Nothing to move: the caller keeps the lock to wait or to
            // report the channel empty or closed.
            Err(inner)
        } else {
            for value in inner.queue.drain(..n) {
                out(value);
            }
            let waiting = inner.send_waiting;
            drop(inner);
            // A burst freed room for more than one blocked sender.
            if waiting > 1 && n > 1 {
                self.not_full.notify_all();
            } else if waiting > 0 {
                self.not_full.notify_one();
            }
            Ok(n)
        }
    }
}

/// Poison-tolerant lock: a channel is a FIFO of plain values, so a panic in
/// some unrelated user thread that happened to hold the lock cannot leave
/// the queue in a broken state — continuing is always sound (crossbeam's
/// channels behave the same way).
fn lock<T>(chan: &Chan<T>) -> MutexGuard<'_, Inner<T>> {
    chan.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Create a bounded MPMC channel with capacity `cap` (the high-water mark).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    assert!(cap > 0, "channel capacity must be positive");
    let chan = Arc::new(Chan {
        inner: Mutex::new(Inner {
            queue: VecDeque::with_capacity(cap.min(1024)),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiting: 0,
            recv_notified: 0,
            send_waiting: 0,
            wakeups: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            chan: Arc::clone(&chan),
        },
        Receiver { chan },
    )
}

/// The sending half. Cloneable; the channel disconnects for receivers once
/// every clone is dropped.
pub struct Sender<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Sender<T> {
    /// Send one value and flush: a one-value [`Sender::send_batch`].
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.send_batch(Some(value), true).map(drop)
    }

    /// Send `values` in order under one lock acquisition, blocking while
    /// the channel is at capacity: a sender at the HWM waits mid-burst and
    /// resumes once a receiver makes room. A waiting receiver is woken once
    /// the channel holds a full burst, before this sender waits at the HWM,
    /// and at the end if `flush` is set. Fails with the unsent value once
    /// every receiver is gone (even if there is space: a value nobody can
    /// ever receive is a silent loss, not a send); the rest of the burst is
    /// dropped with the dead channel. Returns how many values went in.
    pub fn send_batch<I>(&self, values: I, flush: bool) -> Result<usize, SendError<T>>
    where
        I: IntoIterator<Item = T>,
    {
        let mut inner = lock(&self.chan);
        let mut sent = 0;
        for value in values {
            while inner.receivers > 0 && inner.queue.len() >= inner.cap {
                // A full channel holds a burst: hand it over before waiting.
                if inner.wake_receiver(false) {
                    self.chan.not_empty.notify_one();
                }
                inner.send_waiting += 1;
                inner = self
                    .chan
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                inner.send_waiting -= 1;
            }
            if inner.receivers == 0 {
                // account-ok: `SendError(value)` returns ownership — the
                // caller regains the record and accounts the failure.
                return Err(SendError(value));
            }
            // alloc-ok: the loop above waits while len >= cap — the
            // VecDeque grows to the channel bound once, then push/pop reuse
            // its ring.
            inner.queue.push_back(value);
            sent += 1;
        }
        let wake = inner.wake_receiver(flush);
        drop(inner);
        if wake {
            self.chan.not_empty.notify_one();
        }
        Ok(sent)
    }

    /// Wake a waiting receiver if anything is buffered: what a producer
    /// calls when it goes idle, so a part burst never waits for more
    /// traffic.
    pub fn flush(&self) {
        let wake = lock(&self.chan).wake_receiver(true);
        if wake {
            self.chan.not_empty.notify_one();
        }
    }

    /// Non-blocking send of `values` in order under one lock: each value
    /// that fits below the HWM goes in, and each that does not is dropped
    /// and counted (PUB's drop-on-full). A waiting receiver is woken once
    /// if anything went in. Returns `(sent, dropped)`, or [`Disconnected`]
    /// once every receiver is gone.
    pub(crate) fn try_send_batch<I>(&self, values: I) -> Result<(u64, u64), Disconnected>
    where
        I: IntoIterator<Item = T>,
    {
        let mut inner = lock(&self.chan);
        if inner.receivers == 0 {
            // account-ok: a dead subscription; `values` were copies made
            // for it, and pubsub's deliver prunes it.
            return Err(Disconnected);
        }
        let (mut sent, mut dropped) = (0, 0);
        for value in values {
            if inner.queue.len() < inner.cap {
                // alloc-ok: len < cap — the VecDeque grows to the channel
                // bound once, then push/pop reuse its ring.
                inner.queue.push_back(value);
                sent += 1;
            } else {
                // Drop-on-full is PUB's semantics: the count goes back to
                // pubsub's deliver, which adds it to the subscriber's drops.
                dropped += 1;
            }
        }
        let wake = inner.wake_receiver(true);
        drop(inner);
        if wake {
            self.chan.not_empty.notify_one();
        }
        Ok((sent, dropped))
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.chan).queue.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        lock(&self.chan).senders += 1;
        Sender {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Sender<T> {
    /// A dropped sender flushes; the last one disconnects the channel, and
    /// receivers blocked in `recv` wake to observe it.
    fn drop(&mut self) {
        let mut inner = lock(&self.chan);
        inner.senders -= 1;
        let last = inner.senders == 0;
        if last {
            inner.wakeups += u64::from(inner.recv_waiting > inner.recv_notified);
            inner.recv_notified = inner.recv_waiting;
        }
        let flush = !last && inner.wake_receiver(true);
        drop(inner);
        if last {
            self.chan.not_empty.notify_all();
        } else if flush {
            self.chan.not_empty.notify_one();
        }
    }
}

/// A read-only handle on a channel's counters. It is neither a sender nor
/// a receiver, so holding it keeps no end of the channel open.
pub struct Probe<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Probe<T> {
    /// Times a sender woke a waiting receiver (burst, flush or disconnect).
    pub fn wakeups(&self) -> u64 {
        lock(&self.chan).wakeups
    }
}

/// The receiving half. Cloneable (each message goes to exactly one
/// receiver); the channel disconnects for senders once every clone is
/// dropped.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Block until the channel holds a value, then move up to `max` (which
    /// must be at least 1) to `out` under the same lock. Fails once every sender is
    /// gone *and* the backlog is drained — buffered messages are always
    /// delivered first.
    fn recv_with(&self, max: usize, out: &mut impl FnMut(T)) -> Result<usize, RecvError> {
        let mut inner = lock(&self.chan);
        loop {
            inner = match self.chan.pop_unlock(inner, max, out) {
                Ok(n) => return Ok(n),
                Err(inner) => inner,
            };
            if inner.senders == 0 {
                // account-ok: closed-channel receive holds no record.
                return Err(RecvError);
            }
            inner.recv_waiting += 1;
            inner = self
                .chan
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.receiver_woke();
        }
    }

    /// Blocking receive of one value.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut value = None;
        self.recv_with(1, &mut |v| value = Some(v))?;
        value.ok_or(RecvError)
    }

    /// Receive up to `max` values into `out` under one lock acquisition,
    /// blocking only while the channel is empty. Returns how many were
    /// appended; `0` means every sender is gone and the channel is drained
    /// (or `max == 0`).
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        self.recv_with(max, &mut |v| out.push(v)).unwrap_or(0)
    }

    /// Blocking receive, giving up after `timeout`.
    // Timeout bookkeeping needs a wall-clock deadline; this is a blocking
    // consumer API, not a poll-mode dataplane path.
    #[allow(clippy::disallowed_methods)]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut value = None;
        let mut inner = lock(&self.chan);
        loop {
            inner = match self.chan.pop_unlock(inner, 1, &mut |v| value = Some(v)) {
                Ok(_) => return value.ok_or(RecvTimeoutError::Disconnected),
                Err(inner) => inner,
            };
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.recv_waiting += 1;
            let (guard, result) = self
                .chan
                .not_empty
                .wait_timeout(inner, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.receiver_woke();
            if result.timed_out() {
                // One final condition check, then give up. (Under loom the
                // timeout branch is a nondeterministic choice, so looping
                // back on `timed_out` would build unbounded schedules.)
                return match self.chan.pop_unlock(inner, 1, &mut |v| value = Some(v)) {
                    Ok(_) => value.ok_or(RecvTimeoutError::Disconnected),
                    Err(inner) if inner.senders == 0 => Err(RecvTimeoutError::Disconnected),
                    Err(_) => Err(RecvTimeoutError::Timeout),
                };
            }
        }
    }

    /// Move up to `max` buffered values to `out` without blocking, under
    /// one lock. Returns how many moved, or why none did.
    fn try_recv_with(&self, max: usize, out: &mut impl FnMut(T)) -> Result<usize, TryRecvError> {
        match self.chan.pop_unlock(lock(&self.chan), max, out) {
            Ok(n) => Ok(n),
            Err(inner) if inner.senders == 0 => Err(TryRecvError::Disconnected),
            // account-ok: empty-channel poll holds no record.
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut value = None;
        self.try_recv_with(1, &mut |v| value = Some(v))?;
        value.ok_or(TryRecvError::Empty)
    }

    /// Non-blocking batch receive: move up to `max` buffered values into
    /// `out` under one lock, and return how many (possibly zero).
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        self.try_recv_with(max, &mut |v| out.push(v)).unwrap_or(0)
    }

    /// A handle on this channel's counters that keeps no end open.
    pub fn probe(&self) -> Probe<T> {
        Probe {
            chan: Arc::clone(&self.chan),
        }
    }

    /// Messages currently buffered.
    pub fn len(&self) -> usize {
        lock(&self.chan).queue.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        lock(&self.chan).receivers += 1;
        Receiver {
            chan: Arc::clone(&self.chan),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.chan);
        inner.receivers -= 1;
        let last = inner.receivers == 0;
        drop(inner);
        if last {
            // Senders blocked at the HWM must wake to observe disconnect.
            self.chan.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    // Tests coordinate real threads with fixed sleeps; fine off the dataplane.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = bounded(8);
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn try_send_batch_drops_what_does_not_fit_then_disconnects() {
        let (tx, rx) = bounded(2);
        assert_eq!(tx.try_send_batch([1u8, 2, 3]), Ok((2, 1)));
        assert_eq!(tx.try_send_batch([4]), Ok((0, 1)));
        assert_eq!(rx.try_recv(), Ok(1), "the oldest are kept");
        assert_eq!(rx.try_recv(), Ok(2));
        drop(rx);
        assert_eq!(tx.try_send_batch([5]), Err(Disconnected));
    }

    #[test]
    fn batches_keep_order_under_one_lock() {
        let (tx, rx) = bounded(64);
        assert_eq!(tx.send_batch(0..40u32, false), Ok(40));
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 32), 32);
        assert_eq!(rx.try_recv_batch(&mut out, 32), 8);
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(rx.try_recv_batch(&mut out, 32), 0);
    }

    /// A waiting receiver is woken by a full burst or a flush, never by a
    /// part burst alone, and each wake is counted once.
    #[test]
    fn part_bursts_wake_only_on_flush() {
        let (tx, rx) = bounded::<u32>(1024);
        let probe = rx.probe();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            let n = rx.recv_batch(&mut out, 64);
            (n, out)
        });
        // Wait until the receiver sleeps.
        while lock(&tx.chan).recv_waiting == 0 {
            std::thread::yield_now();
        }
        tx.send_batch(0..5, false).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(tx.len(), 5, "a part burst does not wake the receiver");
        assert_eq!(probe.wakeups(), 0);
        tx.flush();
        let (n, out) = t.join().unwrap();
        assert_eq!((n, out), (5, vec![0, 1, 2, 3, 4]));
        assert_eq!(probe.wakeups(), 1);
        tx.flush();
        assert_eq!(probe.wakeups(), 1, "nobody waits: no wake");
    }

    #[test]
    fn a_full_burst_wakes_without_a_flush() {
        let (tx, rx) = bounded::<usize>(1024);
        let probe = rx.probe();
        let t = std::thread::spawn(move || {
            let mut out = Vec::new();
            rx.recv_batch(&mut out, 2 * WAKE_BURST)
        });
        while lock(&tx.chan).recv_waiting == 0 {
            std::thread::yield_now();
        }
        tx.send_batch(0..WAKE_BURST, false).unwrap();
        assert_eq!(t.join().unwrap(), WAKE_BURST);
        assert_eq!(probe.wakeups(), 1);
    }

    #[test]
    fn dropping_one_of_two_senders_flushes() {
        let (tx, rx) = bounded::<u8>(16);
        let tx2 = tx.clone();
        let t = std::thread::spawn(move || rx.recv());
        while lock(&tx.chan).recv_waiting == 0 {
            std::thread::yield_now();
        }
        tx.send_batch([7], false).unwrap();
        drop(tx);
        assert_eq!(t.join().unwrap(), Ok(7));
        drop(tx2);
    }

    #[test]
    fn backlog_delivered_before_disconnect() {
        let (tx, rx) = bounded(4);
        tx.send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_when_receivers_gone_despite_space() {
        let (tx, rx) = bounded(16);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn send_blocks_at_capacity_until_drained() {
        let (tx, rx) = bounded(1);
        tx.send(0u32).unwrap();
        let t = std::thread::spawn(move || tx.send(1).unwrap());
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx.recv(), Ok(1));
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_times_out_then_succeeds() {
        let (tx, rx) = bounded(4);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(1)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn clones_keep_channel_alive() {
        let (tx, rx) = bounded(4);
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(1u8).unwrap();
        let rx2 = rx.clone();
        drop(rx);
        assert_eq!(rx2.recv(), Ok(1));
        drop(tx2);
        assert_eq!(rx2.recv(), Err(RecvError));
    }

    #[test]
    fn mpmc_conserves_messages() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc as StdArc;
        let (tx, rx) = bounded(8);
        let got = StdArc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let rx = rx.clone();
            let got = StdArc::clone(&got);
            handles.push(std::thread::spawn(move || {
                while let Ok(v) = rx.recv() {
                    got.fetch_add(v, Ordering::Relaxed);
                }
            }));
        }
        drop(rx);
        for t in 0..2 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    tx.send(t * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        for h in handles {
            h.join().unwrap();
        }
        let n = 2000u64;
        assert_eq!(got.load(Ordering::Relaxed), n * (n - 1) / 2);
    }
}
