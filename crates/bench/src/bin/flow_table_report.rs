//! Machine-readable flow-table benchmark: times the E9 regimes (lookup,
//! SYN-flood insert churn) for the baseline `ExpiringTable` and the
//! slab-backed `FlowTable`, the end-to-end handshake tracker, plus
//! the E2 worker-stage guard (classify + track over raw frames) and a
//! steady-state allocation count, and writes `BENCH_flowtable.json`.
//!
//! `scripts/bench.sh` runs this and gates the result with
//! `scripts/gate.py flowtable`.

use ruru_bench::{json_entry, time, workload};
use ruru_flow::baseline::expiring::ExpiringTable;
use ruru_flow::classify::{classify, ChecksumMode};
use ruru_flow::key::FlowKey;
use ruru_flow::table::FlowTable;
use ruru_flow::{HandshakeTracker, TrackerConfig};
use ruru_nic::lcore::BURST_SIZE;
use ruru_nic::Timestamp;
use ruru_wire::{ipv4, IpAddress};
use std::hint::black_box;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

const CAPACITY: usize = 4096;
const TTL_NS: u64 = 10_000_000_000;

fn flows(n: usize) -> Vec<(u32, FlowKey)> {
    (0..n)
        .map(|i| {
            let src = IpAddress::V4(ipv4::Address([
                10,
                (i >> 16) as u8,
                (i >> 8) as u8,
                i as u8,
            ]));
            let dst = IpAddress::V4(ipv4::Address([100, 64, 0, 1]));
            let (key, _) = FlowKey::from_tuple(src, dst, 40_000 + (i % 20_000) as u16, 443);
            (key.table_hash(), key)
        })
        .collect()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_flowtable.json".into());
    let mut entries: Vec<String> = Vec::new();

    // ---- E9 lookup: warm table, 75 % hit probes -------------------------
    let universe = flows(CAPACITY + CAPACITY / 3);
    let mut table = FlowTable::new(CAPACITY, TTL_NS);
    let mut baseline = ExpiringTable::new(CAPACITY, TTL_NS);
    let now = Timestamp::from_nanos(1);
    for (i, &(h, k)) in universe.iter().take(CAPACITY).enumerate() {
        table.insert(h, k, i as u64, now);
        baseline.insert(k, i as u64, now);
    }
    let n = universe.len() as u64;

    let (ops, ns) = time(n, || {
        universe
            .iter()
            .filter(|(_, k)| baseline.get(black_box(k)).is_some())
            .count() as u64
    });
    entries.push(json_entry("lookup_baseline", ops, ns));
    let base_lookup = ns;

    let (ops, ns) = time(n, || {
        universe
            .iter()
            .filter(|&&(h, ref k)| table.get(black_box(h), black_box(k)).is_some())
            .count() as u64
    });
    entries.push(json_entry("lookup", ops, ns));
    let table_lookup = ns;

    // ---- E9 insert churn: SYN-flood through a full table ----------------
    let flood = flows(16 * CAPACITY);
    let n = flood.len() as u64;

    let (ops, ns) = time(n, || {
        let mut t = ExpiringTable::<FlowKey, u64>::new(CAPACITY, TTL_NS);
        for (i, &(_, k)) in flood.iter().enumerate() {
            t.insert(black_box(k), i as u64, now);
        }
        t.len() as u64
    });
    entries.push(json_entry("insert_churn_baseline", ops, ns));
    let base_insert = ns;

    let (ops, ns) = time(n, || {
        let mut t = FlowTable::<FlowKey, u64>::new(CAPACITY, TTL_NS);
        for (i, &(h, k)) in flood.iter().enumerate() {
            t.insert(black_box(h), black_box(k), i as u64, now);
        }
        t.len() as u64
    });
    entries.push(json_entry("insert_churn", ops, ns));
    let table_insert = ns;

    // ---- E9 tracker: the prefetch-staged burst path ---------------------
    let w = workload(91, 300.0, 2, (2, 4));
    let n = w.metas.len() as u64;

    let (ops, ns) = time(n, || {
        let mut t = HandshakeTracker::new(0, TrackerConfig::default());
        let mut m = 0u64;
        for chunk in w.metas.chunks(BURST_SIZE) {
            t.process_burst(black_box(chunk), |_| m += 1);
        }
        m
    });
    entries.push(json_entry("tracker", ops, ns));

    // ---- E2 guard: worker stage (classify + track) over raw frames ------
    let (ops, ns) = time(n, || {
        let mut t = HandshakeTracker::new(0, TrackerConfig::default());
        let mut m = 0u64;
        for (at, frame) in &w.events {
            if let Ok(meta) = classify(black_box(frame), *at, ChecksumMode::Trust) {
                m += t.process(&meta).is_some() as u64;
            }
        }
        m
    });
    entries.push(json_entry("e2_worker_stage", ops, ns));

    // ---- steady-state allocations over 1M mixed ops ---------------------
    let mut t = FlowTable::<u64, u64>::new(CAPACITY, TTL_NS);
    let mut now_ns = 1u64;
    for i in 0..(2 * CAPACITY as u64) {
        now_ns += 1;
        t.insert((i.wrapping_mul(0x9e37_79b1) >> 1) as u32, i, i, Timestamp::from_nanos(now_ns));
    }
    ruru_bench::arm();
    let mut op = 0u64;
    let mut key = 1u64 << 32;
    while op < 1_000_000 {
        now_ns += 1;
        let nts = Timestamp::from_nanos(now_ns);
        let h = (key.wrapping_mul(0x9e37_79b1) >> 1) as u32;
        match op % 3 {
            0 => {
                t.insert(h, key, op, nts);
                key += 1;
            }
            1 => {
                t.get(h, &key);
            }
            _ => {
                t.remove(h, &(key.saturating_sub(7)));
            }
        }
        op += 1;
        if op.is_multiple_of(65_536) {
            now_ns += TTL_NS / 8;
            t.expire(Timestamp::from_nanos(now_ns), |_, _| {});
        }
    }
    ruru_bench::disarm();
    let heap_hits = ruru_bench::take_hits();

    let json = format!(
        "{{\n  \"benchmarks\": {{\n{}\n  }},\n  \"steady_state_allocations\": {},\n  \"speedup\": {{\n    \"lookup_vs_baseline\": {:.2},\n    \"insert_vs_baseline\": {:.2}\n  }}\n}}\n",
        entries.join(",\n"),
        heap_hits,
        base_lookup / table_lookup,
        base_insert / table_insert,
    );
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
