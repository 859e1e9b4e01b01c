//! E2 — Figure 2 + the "10 Gbit/s link" claim: dataplane throughput and
//! RSS sharding, plus the ablations DESIGN.md calls out (asymmetric RSS,
//! global locked table).
//!
//! Methodology note: sharded-by-RSS processing is embarrassingly parallel —
//! queues share *nothing* (that is the point of the symmetric key). So the
//! honest measurement on any host is the **per-core cost of each stage**;
//! the aggregate rate on an N-core deployment is `N × per-core rate`,
//! bounded by the NIC's hardware RSS (which the software dispatcher here
//! merely simulates). When the host has >2 CPUs the bench also runs the
//! real threaded sweep; on smaller hosts that sweep only measures context
//! switching, so it is skipped.
//!
//! Each row is the best of `ruru_bench::REPS` runs and prints ns/pkt,
//! pkts/s and the Gbit/s-equivalent at the workload's real mean packet
//! size; a projection then gives the cores needed for a 10 G tap.

use ruru_bench::{best_of, workload};
use ruru_flow::classify::{classify, ChecksumMode};
use ruru_flow::{HandshakeTracker, TrackerConfig};
use ruru_nic::lcore::WorkerGroup;
use ruru_nic::port::{Port, PortConfig};
use ruru_nic::{Clock, Mbuf, RssHasher, Timestamp};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ruru_pipeline::SelfMetrics;
use ruru_telemetry::Snapshot;
use ruru_tsdb::TsDb;

/// Single-threaded: full per-packet worker stage (classify + track),
/// pre-sharded into `queues` queues; returns seconds.
fn run_sharded_inline(events: &[(Timestamp, Vec<u8>)], queues: u16, validate: bool) -> f64 {
    // Pre-shard by RSS exactly as the NIC would.
    let hasher = RssHasher::symmetric(queues);
    let mut shards: Vec<Vec<&(Timestamp, Vec<u8>)>> = vec![Vec::new(); queues as usize];
    for ev in events {
        let hash = Port::parse_rss_tuple(&ev.1)
            .map(|(s, d, sp, dp)| hasher.hash_tuple(s, d, sp, dp))
            .unwrap_or(0);
        shards[hasher.queue_for(hash) as usize].push(ev);
    }
    let mode = if validate {
        ChecksumMode::Validate
    } else {
        ChecksumMode::Trust
    };
    let start = Instant::now();
    let mut measured = 0u64;
    for (q, shard) in shards.iter().enumerate() {
        let mut tracker = HandshakeTracker::new(q as u16, TrackerConfig::default());
        for (at, frame) in shard {
            if let Ok(meta) = classify(frame, *at, mode) {
                measured += tracker.process(&meta).is_some() as u64;
            }
        }
    }
    black_box(measured);
    start.elapsed().as_secs_f64()
}

/// Single-threaded: the NIC-side dispatch stage (tuple parse + RSS hash +
/// mbuf copy + ring push/pop), isolating the simulated hardware's cost.
fn run_dispatch_only(events: &[(Timestamp, Vec<u8>)], queues: u16) -> f64 {
    let mut port = Port::new(
        PortConfig {
            num_queues: queues,
            queue_depth: 1 << 10,
            pool_size: 1 << 11,
            buf_size: 2048,
            symmetric_rss: true,
        },
        Clock::virtual_clock(),
    );
    let mut rx = port.take_all_rx_queues();
    let mut out = Vec::with_capacity(64);
    let start = Instant::now();
    for (at, frame) in events {
        port.inject_at(frame, *at);
        // Drain opportunistically so rings never fill.
        for q in rx.iter_mut() {
            q.rx_burst(&mut out, 64);
        }
        out.clear();
    }
    start.elapsed().as_secs_f64()
}

/// Ablation: one global mutex-protected tracker (single-threaded cost of
/// the lock acquire/release per packet; contention would add on top).
fn run_global_table_inline(events: &[(Timestamp, Vec<u8>)]) -> f64 {
    let global = Mutex::new(HandshakeTracker::new(0, TrackerConfig::default()));
    let start = Instant::now();
    let mut measured = 0u64;
    for (at, frame) in events {
        if let Ok(meta) = classify(frame, *at, ChecksumMode::Trust) {
            let mut tracker = global.lock().unwrap_or_else(PoisonError::into_inner);
            measured += tracker.process(&meta).is_some() as u64;
        }
    }
    black_box(measured);
    start.elapsed().as_secs_f64()
}

/// Real threaded pipeline (meaningful only with spare cores).
fn run_threaded(events: &[(Timestamp, Vec<u8>)], queues: u16) -> f64 {
    let mut port = Port::new(
        PortConfig {
            num_queues: queues,
            queue_depth: 1 << 14,
            pool_size: 1 << 16,
            buf_size: 2048,
            symmetric_rss: true,
        },
        Clock::virtual_clock(),
    );
    let rx = port.take_all_rx_queues();
    let processed = Arc::new(AtomicU64::new(0));
    let p2 = Arc::clone(&processed);
    let group = WorkerGroup::spawn_bursts(
        rx,
        |qid| HandshakeTracker::new(qid, TrackerConfig::default()),
        move |tracker: &mut HandshakeTracker, burst: &mut Vec<Mbuf>| {
            let n = burst.len() as u64;
            for mbuf in burst.drain(..) {
                if let Ok(meta) = classify(mbuf.data(), mbuf.timestamp, ChecksumMode::Trust) {
                    let _ = tracker.process(&meta);
                }
            }
            p2.fetch_add(n, Ordering::Relaxed);
        },
        |_| {},
    );
    let start = Instant::now();
    let total = events.len() as u64;
    for (at, frame) in events {
        while port.inject_at(frame, *at).is_none() {
            std::thread::yield_now();
        }
    }
    while processed.load(Ordering::Relaxed) < total {
        std::thread::yield_now();
    }
    let secs = start.elapsed().as_secs_f64();
    group.shutdown();
    secs
}

fn rate_line(label: &str, packets: usize, bytes: u64, secs: f64) -> (f64, f64) {
    let ns = secs * 1e9 / packets as f64;
    let pps = packets as f64 / secs;
    let gbps = bytes as f64 * 8.0 / secs / 1e9;
    println!("    {label:<50} {ns:>8.1} ns/pkt {pps:>10.0} pkts/s  {gbps:>6.2} Gbit/s-eq");
    (pps, gbps)
}

/// Collections timed after the warm-up.
const COLLECTIONS: u32 = 2_000;

/// One virtual second's self-telemetry collection as the pipeline makes
/// it (`Pipeline::collect_telemetry`), on a one-queue `SelfMetrics`
/// registry (4 shards) whose histograms hold realistic residencies and
/// RTTs: `snapshot_into`, `write_into` a warm store, then
/// `storage_stats`. The store is warmed past one sealed chunk per series
/// first. Prints the mean µs of each part and of the whole collection.
fn collection_costs() {
    let metrics = SelfMetrics::new(1, 1);
    let registry = metrics.registry();
    let shards = registry.shard_count();
    let names: Vec<&str> = registry.snapshot(0).hists.iter().map(|h| h.name).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for (k, name) in names.iter().enumerate() {
        let id = registry.hist_id(name).expect("declared by SelfMetrics");
        // RTTs span 1–300 ms, residencies 1 µs–2 ms, log-uniformly.
        let (lo, hi) = if name.contains("rtt") { (20.0f64, 28.2) } else { (10.0f64, 21.0) };
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let exp = lo + (hi - lo) * (x >> 11) as f64 / (1u64 << 53) as f64;
            registry.hist_record(k % shards, id, exp.exp2() as u64);
        }
    }
    let db = TsDb::new();
    let mut snap = Snapshot::default();
    let mut scratch = Vec::new();
    let mut second = 0u64;
    let mut collect = |parts: &mut [f64; 3]| {
        second += 1;
        let t0 = Instant::now();
        registry.snapshot_into(second * 1_000_000_000, &mut snap, &mut scratch);
        let t1 = Instant::now();
        black_box(snap.write_into(&db));
        let t2 = Instant::now();
        black_box(db.storage_stats());
        let t3 = Instant::now();
        for (part, (a, b)) in parts.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3)]) {
            *part += (b - a).as_secs_f64();
        }
    };
    let mut warm = [0.0; 3];
    for _ in 0..1_100 {
        collect(&mut warm);
    }
    let mut parts = [0.0; 3];
    for _ in 0..COLLECTIONS {
        collect(&mut parts);
    }
    let us = |secs: f64| secs * 1e6 / f64::from(COLLECTIONS);
    let rows = snap.to_points().len();
    println!("  self-telemetry collection ({shards} shards, {rows} rows exported):");
    let labels = ["snapshot_into", "write_into (warm store)", "storage_stats"];
    for (label, secs) in labels.iter().zip(parts) {
        println!("    {label:<50} {:>8.1} µs", us(secs));
    }
    println!("    {:<50} {:>8.1} µs", "whole collection", us(parts.iter().sum()));
}

fn main() {
    let w = workload(21, 2000.0, 2, (1, 3));
    let n = w.events.len();
    let mean_pkt = w.bytes as f64 / n as f64;
    println!("== E2: pipeline throughput (Figure 2 / 10G claim) ==");
    println!("  workload: {n} packets, {} flows, mean packet {mean_pkt:.0} B", w.flows);

    println!("  per-core stage costs (single-threaded):");
    let disp = best_of(|| run_dispatch_only(&w.events, 4));
    rate_line("NIC dispatch (parse+RSS+mbuf+ring) [hw in paper]", n, w.bytes, disp);
    let t1 = best_of(|| run_sharded_inline(&w.events, 1, false));
    let (core_pps, core_gbps) = rate_line("worker stage, trust checksums", n, w.bytes, t1);
    let tv = best_of(|| run_sharded_inline(&w.events, 1, true));
    rate_line("worker stage, validating checksums", n, w.bytes, tv);
    let tg = best_of(|| run_global_table_inline(&w.events));
    rate_line("ABLATION: global locked table (uncontended)", n, w.bytes, tg);

    println!("  sharding overhead (same core, split into N tables):");
    for q in [2u16, 4, 8] {
        let t = best_of(|| run_sharded_inline(&w.events, q, false));
        rate_line(&format!("{q} shards on one core"), n, w.bytes, t);
    }

    let cores_for_10g = (10.0 / core_gbps).ceil();
    println!(
        "  projection: one core sustains {core_pps:.0} pkts/s ≈ {core_gbps:.2} Gbit/s \
         at this mix → {cores_for_10g} RSS queues/cores for a 10 G tap \
         (shards share nothing; scaling is linear by construction)"
    );

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if cpus > 2 {
        println!("  threaded sweep ({cpus} CPUs):");
        for q in [1u16, 2, 4, 8] {
            let secs = run_threaded(&w.events, q);
            rate_line(&format!("{q} queue thread(s) + injector"), n, w.bytes, secs);
        }
    } else {
        println!("  threaded sweep skipped: host has {cpus} CPU(s); see projection above");
    }

    collection_costs();
}
