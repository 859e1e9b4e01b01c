//! E8 — §2: "zero-copy ZeroMQ sockets … efficient and fast interconnect
//! of modules".
//!
//! Reproduced shape: PUB fan-out cost is independent of payload size
//! (reference-counted `Bytes`), while a copying bus scales linearly with
//! payload × subscribers; PUSH/PULL moves measurement records far faster
//! than the dataplane produces them.

use bytes::{Bytes, BytesMut};
use ruru_analytics::enrich::{EndpointInfo, ENRICHED_WIRE_LEN};
use ruru_analytics::EnrichedMeasurement;
use ruru_bench::{best_of, row};
use ruru_mq::{pipe, Message, Publisher};
use ruru_nic::Timestamp;
use std::hint::black_box;
use std::time::Instant;

/// The detector-feed burst size (mirrors the pipeline's `BURST_SIZE`).
const BURST: usize = 32;

#[allow(clippy::disallowed_methods)] // sanctioned: bench setup
fn sample_enriched() -> EnrichedMeasurement {
    EnrichedMeasurement {
        src: EndpointInfo {
            country_code: *b"NZ",
            city: "Auckland".into(),
            lat: -36.85,
            lon: 174.76,
            asn: 9500,
        },
        dst: EndpointInfo {
            country_code: *b"US",
            city: "Los Angeles".into(),
            lat: 34.05,
            lon: -118.24,
            asn: 15169,
        },
        internal_ns: 1_200_000,
        external_ns: 131_000_000,
        completed_at: Timestamp::from_nanos(1_700_000_000_000_000_000),
        queue_id: 3,
    }
}

/// One record per `send`, line-protocol payload, parsed on receive — the
/// original detector-feed wire format.
fn run_line_per_message(em: &EnrichedMeasurement, n: u64) -> f64 {
    let (push, pull) = pipe::<Message>(65536);
    let consumer = std::thread::spawn(move || {
        let mut seen = 0u64;
        while let Some(msg) = pull.recv() {
            let line = core::str::from_utf8(&msg.payload).unwrap();
            black_box(EnrichedMeasurement::from_line(line).unwrap());
            seen += 1;
        }
        seen
    });
    let start = Instant::now();
    for _ in 0..n {
        push.send(Message::new("enriched", Bytes::from(em.to_line())))
            .unwrap();
    }
    drop(push);
    let seen = consumer.join().unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(seen, n);
    secs
}

/// Fixed binary records, scratch-encoded, moved `BURST` at a time with
/// `send_batch`/`recv_batch` — the detector-feed wire format before the
/// feed carried the records as values.
fn run_binary_batched(em: &EnrichedMeasurement, n: u64) -> f64 {
    let (push, pull) = pipe::<Message>(65536);
    let consumer = std::thread::spawn(move || {
        let mut seen = 0u64;
        let mut batch = Vec::with_capacity(BURST);
        loop {
            let got = pull.recv_batch(&mut batch, BURST);
            if got == 0 {
                break;
            }
            for msg in batch.drain(..) {
                black_box(EnrichedMeasurement::decode(&msg.payload).unwrap());
                seen += 1;
            }
        }
        seen
    });
    let mut scratch = BytesMut::new();
    let mut batch: Vec<Message> = Vec::with_capacity(BURST);
    let start = Instant::now();
    for i in 0..n {
        if scratch.capacity() < ENRICHED_WIRE_LEN {
            scratch.reserve(64 * 1024);
        }
        em.encode_into(&mut scratch);
        batch.push(Message::new("enriched", scratch.split().freeze()));
        if batch.len() >= BURST || i + 1 == n {
            push.send_batch(batch.drain(..)).unwrap();
        }
    }
    drop(push);
    let seen = consumer.join().unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(seen, n);
    secs
}

/// Seconds to publish `n` copies of `payload` (copied first when `copy`)
/// to `subs` subscribers; subscription setup stays outside the timed span.
fn run_fanout(payload: &Bytes, subs: usize, n: u64, copy: bool) -> f64 {
    let publisher = Publisher::new();
    let subscribers: Vec<_> = (0..subs).map(|_| publisher.subscribe("", 1 << 16)).collect();
    let start = Instant::now();
    for _ in 0..n {
        // A copying bus clones the bytes per publish (the ablation: what
        // ZeroMQ's zero-copy mode avoids).
        let payload = if copy { Bytes::from(payload.to_vec()) } else { payload.clone() };
        black_box(publisher.publish(Message::new("latency", payload)));
    }
    let secs = start.elapsed().as_secs_f64();
    drop(subscribers);
    secs
}

/// Seconds to move `n` 66-byte measurement records through a bounded
/// PUSH/PULL pipe with a live consumer thread.
fn run_pushpull(n: u64) -> f64 {
    let (push, pull) = pipe(65536);
    let consumer = std::thread::spawn(move || {
        let mut seen = 0u64;
        while pull.recv().is_some() {
            seen += 1;
        }
        seen
    });
    let payload = Bytes::from(vec![0u8; 66]);
    let start = Instant::now();
    for _ in 0..n {
        push.send(Message::new("m", payload.clone())).unwrap();
    }
    drop(push);
    let seen = consumer.join().unwrap();
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(seen, n);
    secs
}

fn main() {
    println!("== E8: message bus ==");
    // Zero-copy vs copying PUB fan-out.
    const PUBLISHES: u64 = 1000;
    for subs in [1usize, 4] {
        for size in [64usize, 4096, 65536] {
            let payload = Bytes::from(vec![0u8; size]);
            for (name, copy) in [("pub_zero_copy", false), ("pub_copying", true)] {
                let secs = best_of(|| run_fanout(&payload, subs, PUBLISHES, copy));
                row(&format!("e8_bus/{name}_{subs}subs/{size}"), PUBLISHES, secs);
            }
        }
    }

    const RECORDS: u64 = 100_000;
    row("e8_bus/pushpull_100k_records", RECORDS, best_of(|| run_pushpull(RECORDS)));

    // The detector feed: line protocol one-send-per-record vs fixed binary
    // records in vectored bursts of `BURST`.
    let em = sample_enriched();
    let line = best_of(|| run_line_per_message(&em, RECORDS));
    row("e8_bus/detector_feed_line_per_msg_100k", RECORDS, line);
    let binary = best_of(|| run_binary_batched(&em, RECORDS));
    row("e8_bus/detector_feed_binary_batched_100k", RECORDS, binary);
    println!("  detector feed speedup: {:.1}× (target ≥2×)", line / binary);
}
