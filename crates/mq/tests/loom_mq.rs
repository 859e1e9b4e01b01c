//! Loom model checks for the message bus's blocking semantics.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`, which
//! swaps `ruru_mq::sync` onto the in-tree model checker. These models
//! exhaustively explore the two ZeroMQ behaviours the paper's architecture
//! leans on — PUSH *blocks* at the high-water mark (analytics must see
//! every measurement), PUB *drops* at the high-water mark (a slow consumer
//! must never stall the dataplane) — plus the disconnect handshakes that
//! wake blocked peers, and the burst-or-flush rule by which a PUSH wakes a
//! sleeping puller: a part burst must reach it after a flush, and after
//! its pusher is dropped, with no more traffic.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ruru-mq --test loom_mq --release
//! ```
#![cfg(loom)]

// Tests are exempt from the panic-freedom policy (DESIGN.md §10):
// unwrap/expect on known-good fixtures is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use loom::thread;
use ruru_mq::chan::bounded;
use ruru_mq::pubsub::Publisher;
use ruru_mq::pushpull::pipe;
use ruru_mq::Message;

/// PUSH blocks mid-batch at the HWM and completes once the puller drains:
/// nothing dropped, nothing reordered, in every interleaving.
#[test]
fn loom_push_blocks_at_hwm_mid_batch() {
    loom::model(|| {
        let (push, pull) = pipe(1);
        let t = thread::spawn(move || {
            let batch: Vec<Message> = (0..3u8).map(|i| Message::new("t", vec![i])).collect();
            push.send_batch(batch).unwrap()
        });
        for i in 0..3u8 {
            let m = pull.recv().expect("pushers alive until batch done");
            assert_eq!(m.payload, &[i][..]);
        }
        assert_eq!(t.join().unwrap(), 3);
    });
}

/// Dropping the last puller wakes a pusher blocked at the HWM, handing the
/// unsent message back instead of leaving the thread parked forever.
#[test]
fn loom_disconnect_wakes_blocked_pusher() {
    loom::model(|| {
        let (push, pull) = pipe(1);
        push.send(Message::new("t", "a")).unwrap();
        let t = thread::spawn(move || push.send(Message::new("t", "b")));
        drop(pull);
        let back = t.join().unwrap().expect_err("pipe is dead");
        assert_eq!(back.payload, &b"b"[..]);
    });
}

/// Dropping the last pusher lets a blocked puller drain the backlog first,
/// then observe disconnection — buffered messages are never lost.
#[test]
fn loom_pull_drains_backlog_then_sees_disconnect() {
    loom::model(|| {
        let (push, pull) = pipe(2);
        let t = thread::spawn(move || {
            push.send(Message::new("t", "only")).unwrap();
            // `push` dropped here: the last sender disconnects the pipe.
        });
        let m = pull.recv().expect("backlog delivered before disconnect");
        assert_eq!(m.payload, &b"only"[..]);
        t.join().unwrap();
        assert!(pull.recv().is_none(), "drained and disconnected");
    });
}

/// PUB never blocks: against a concurrently draining subscriber at HWM 1,
/// every message is either delivered (received or still queued) or counted
/// as dropped — exactly once, in every interleaving.
#[test]
fn loom_pub_drops_per_subscriber_never_blocks() {
    loom::model(|| {
        let publisher = Publisher::new();
        let sub = publisher.subscribe("", 1);
        let t = thread::spawn(move || {
            publisher.publish(Message::new("t", "m1"));
            publisher.publish(Message::new("t", "m2"));
            publisher.stats()
        });
        // Drain concurrently with the publishes.
        let received = usize::from(sub.try_recv().is_some());
        let (published, delivered, dropped) = t.join().unwrap();
        assert_eq!(published, 2);
        assert_eq!(
            delivered + dropped,
            2,
            "each message accounted exactly once"
        );
        let backlog = sub.backlog() as u64;
        assert_eq!(received as u64 + backlog, delivered);
        assert_eq!(sub.drops(), dropped);
    });
}

/// One pipe, two pushers — an lcore and an enricher, as on the detector
/// feed — that each send once and then drop, in either order, while the
/// puller blocks in `recv_batch`. Every message is delivered exactly once,
/// and only then does `recv_batch` return 0: the last pusher's drop always
/// wakes the blocked puller, so no wakeup is lost and it never returns
/// early.
#[test]
fn loom_batch_puller_sees_every_message_then_close_from_two_pushers() {
    loom::model(|| {
        let (lcore, pull) = pipe(2);
        let enricher = lcore.clone();
        let a = thread::spawn(move || lcore.send(Message::new("syn", "s")).unwrap());
        let b = thread::spawn(move || enricher.send(Message::new("enriched", "e")).unwrap());
        let mut got = Vec::new();
        while pull.recv_batch(&mut got, 4) > 0 {}
        a.join().unwrap();
        b.join().unwrap();
        let mut payloads: Vec<&[u8]> = got.iter().map(|m| &m.payload[..]).collect();
        payloads.sort();
        assert_eq!(payloads, [&b"e"[..], &b"s"[..]], "each message once");
        assert_eq!(pull.recv_batch(&mut got, 4), 0, "closed stays closed");
    });
}

/// Counted wakeups: a channel signals a condvar only when its waiter count
/// says a peer is blocked on it. Here a sender blocks at the HWM (capacity
/// 1, two sends) and the receiver blocks on empty, in every order; each is
/// woken by the other side's counted notify. The sender stays alive until
/// both messages are received, so its drop's disconnect notify cannot
/// stand in for a lost one: a missed count leaves both threads blocked,
/// which the checker reports as a deadlock.
#[test]
fn loom_counted_notify_wakes_blocked_sender_and_receiver() {
    loom::model(|| {
        let (tx, rx) = bounded::<u8>(1);
        let t = thread::spawn(move || {
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            tx
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        let tx = t.join().unwrap();
        assert!(tx.is_empty());
    });
}

/// A part burst reaches a sleeping puller once the pusher flushes: the
/// send alone (two messages, far below a burst) does not wake it, the
/// flush must. The pusher stays alive until the puller has returned, so
/// no disconnect can stand in for a lost flush; a flush that skips its
/// notify leaves the puller blocked, which the checker reports as a
/// deadlock.
#[test]
fn loom_parked_puller_receives_a_part_burst_after_flush() {
    loom::model(|| {
        let (push, pull) = pipe(64);
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            pull.recv_batch(&mut got, 32);
            got
        });
        let part = vec![Message::new("t", "a"), Message::new("t", "b")];
        assert_eq!(push.send_batch(part), Ok(2));
        push.flush();
        let got = t.join().unwrap();
        let payloads: Vec<&[u8]> = got.iter().map(|m| &m.payload[..]).collect();
        assert_eq!(payloads, [&b"a"[..], &b"b"[..]], "the whole part burst, in order");
        drop(push);
    });
}

/// A part burst reaches a sleeping puller when its pusher is dropped
/// without a flush. A second pusher outlives the puller, so the drop is
/// not the pipe's disconnect: only the drop's own flush can wake it.
#[test]
fn loom_parked_puller_receives_a_part_burst_when_its_pusher_drops() {
    loom::model(|| {
        let (push, pull) = pipe(64);
        let keep = push.clone();
        let t = thread::spawn(move || {
            let mut got = Vec::new();
            pull.recv_batch(&mut got, 32);
            got
        });
        assert_eq!(push.send_batch(vec![Message::new("t", "a")]), Ok(1));
        drop(push);
        let got = t.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, &b"a"[..]);
        drop(keep);
    });
}

/// Two pullers sleep on one pipe, and each part burst is flushed to them
/// one message at a time. A receiver already being woken takes no second
/// notify, so the second flush must wake the other puller: each takes one
/// message and returns. The pusher outlives both, so no disconnect can
/// stand in for a missed notify.
#[test]
fn loom_two_sleeping_pullers_are_each_woken() {
    loom::model(|| {
        let (push, pull) = pipe(64);
        let pullers: Vec<_> = (0..2)
            .map(|_| {
                let pull = pull.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    pull.recv_batch(&mut got, 1);
                    got.len()
                })
            })
            .collect();
        push.send(Message::new("t", "a")).unwrap();
        push.send(Message::new("t", "b")).unwrap();
        let got: usize = pullers.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(got, 2, "each puller took one message");
        drop(push);
    });
}
