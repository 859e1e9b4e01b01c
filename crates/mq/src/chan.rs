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
//! rates demand them; the bus moves coalesced batches, not packets.
//!
//! A notify is a syscall even when nobody waits, so the channel counts its
//! blocked receivers and senders inside the mutex and signals a condvar
//! only when the count says a peer waits on it. A waiter increments its
//! count before it waits and decrements it after it wakes, both under the
//! lock, so a count of zero seen under the lock means nobody is waiting or
//! about to wait on that condvar.

use crate::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The error returned by [`Sender::send`]: every [`Receiver`] is gone, and
/// the unsent value is handed back.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// The error returned by `Sender::try_send`.
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at its high-water mark; the value is handed back.
    Full(T),
    /// Every receiver is gone; the value is handed back.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Recover the value that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }
}

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
    /// Senders blocked on `not_full`.
    send_waiting: usize,
}

struct Chan<T> {
    inner: Mutex<Inner<T>>,
    /// Signalled on a push while a receiver waits, and on the last
    /// sender's disconnect.
    not_empty: Condvar,
    /// Signalled on a pop while a sender waits, and on the last
    /// receiver's disconnect.
    not_full: Condvar,
}

impl<T> Chan<T> {
    /// Enqueue below the HWM and unlock, then wake a receiver if one waits.
    fn push_unlock(&self, mut inner: MutexGuard<'_, Inner<T>>, value: T) {
        // alloc-ok: callers check len < cap — the VecDeque grows to the
        // channel bound once, then push/pop reuse its ring.
        inner.queue.push_back(value);
        let wake = inner.recv_waiting > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Dequeue and unlock, then wake a sender if one waits. An empty
    /// queue hands the lock back.
    fn pop_unlock<'a>(
        &self,
        mut inner: MutexGuard<'a, Inner<T>>,
    ) -> Result<T, MutexGuard<'a, Inner<T>>> {
        if let Some(value) = inner.queue.pop_front() {
            let wake = inner.send_waiting > 0;
            drop(inner);
            if wake {
                self.not_full.notify_one();
            }
            return Ok(value);
        }
        Err(inner)
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
            send_waiting: 0,
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
    /// Send, blocking while the channel is at capacity. Fails with the
    /// value once every receiver is gone (even if there is space: a message
    /// nobody can ever receive is a silent loss, not a send).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut inner = lock(&self.chan);
        loop {
            if inner.receivers == 0 {
                // account-ok: `SendError(value)` returns ownership — the
                // caller regains the record and accounts the failure.
                return Err(SendError(value));
            }
            if inner.queue.len() < inner.cap {
                self.chan.push_unlock(inner, value);
                return Ok(());
            }
            inner.send_waiting += 1;
            inner = self
                .chan
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.send_waiting -= 1;
        }
    }

    /// Non-blocking send.
    pub(crate) fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let inner = lock(&self.chan);
        if inner.receivers == 0 {
            // account-ok: `Disconnected(value)` returns ownership — the
            // caller regains the record and accounts the failure.
            return Err(TrySendError::Disconnected(value));
        }
        if inner.queue.len() >= inner.cap {
            // account-ok: backpressure, not loss — `Full(value)` returns
            // ownership; pubsub's deliver counts the drop per subscriber.
            return Err(TrySendError::Full(value));
        }
        self.chan.push_unlock(inner, value);
        Ok(())
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
    fn drop(&mut self) {
        let mut inner = lock(&self.chan);
        inner.senders -= 1;
        let last = inner.senders == 0;
        drop(inner);
        if last {
            // Receivers blocked in `recv` must wake to observe disconnect.
            self.chan.not_empty.notify_all();
        }
    }
}

/// The receiving half. Cloneable (each message goes to exactly one
/// receiver); the channel disconnects for senders once every clone is
/// dropped.
pub struct Receiver<T> {
    chan: Arc<Chan<T>>,
}

impl<T> Receiver<T> {
    /// Blocking receive. Fails once every sender is gone *and* the backlog
    /// is drained — buffered messages are always delivered first.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = lock(&self.chan);
        loop {
            inner = match self.chan.pop_unlock(inner) {
                Ok(value) => return Ok(value),
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
            inner.recv_waiting -= 1;
        }
    }

    /// Blocking receive, giving up after `timeout`.
    // Timeout bookkeeping needs a wall-clock deadline; this is a blocking
    // consumer API, not a poll-mode dataplane path.
    #[allow(clippy::disallowed_methods)]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.chan);
        loop {
            inner = match self.chan.pop_unlock(inner) {
                Ok(value) => return Ok(value),
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
            inner.recv_waiting -= 1;
            if result.timed_out() {
                // One final condition check, then give up. (Under loom the
                // timeout branch is a nondeterministic choice, so looping
                // back on `timed_out` would build unbounded schedules.)
                return match self.chan.pop_unlock(inner) {
                    Ok(value) => Ok(value),
                    Err(inner) if inner.senders == 0 => Err(RecvTimeoutError::Disconnected),
                    Err(_) => Err(RecvTimeoutError::Timeout),
                };
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.chan.pop_unlock(lock(&self.chan)) {
            Ok(value) => Ok(value),
            Err(inner) if inner.senders == 0 => Err(TryRecvError::Disconnected),
            // account-ok: empty-channel poll holds no record.
            Err(_) => Err(TryRecvError::Empty),
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
    fn try_send_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        tx.try_send(1u8).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        drop(rx);
        assert_eq!(tx.try_send(3), Err(TrySendError::Disconnected(3)));
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
