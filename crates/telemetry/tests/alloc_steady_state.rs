//! Steady-state allocation audit for the metric registry: after
//! construction and one warm-up snapshot, a million hot-path operations
//! (counter adds, gauge stores, histogram records, burst brackets) plus
//! repeated `snapshot_into` collections perform **zero** heap
//! allocations. Telemetry must be free to leave enabled on the
//! 10 Gbit/s path, which means the registry can never touch the allocator
//! at exactly the moment (a packet burst) the dataplane can least afford
//! it. The export of each collection into a warm store
//! (`Snapshot::write_into`) is held to at most 0.1 allocator hits per
//! exported row: its only allocations are the sealed chunks a series
//! cuts once per 1 024 rows.

// Tests are exempt from the panic-freedom policy (DESIGN.md §10).
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Miri has its own allocator machinery and a 1M-op loop is far too slow
// under its interpreter; the property is native-allocator behaviour anyway.
#![cfg(not(miri))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ruru_telemetry::{RegistryBuilder, Snapshot};
use ruru_tsdb::TsDb;

/// Counts allocator hits while the *current thread* is armed; defers
/// everything to [`System`]. Arming and counts are thread-local, not
/// process-global: the libtest harness thread prints and does channel
/// bookkeeping concurrently with the test body, and a global flag would
/// count its allocations too (a real intermittent failure, not a
/// theoretical one); the tests of this file run side by side too.
struct CountingAlloc;

std::thread_local! {
    // const-initialized Cells: no lazy init, no destructor, so touching
    // them from inside the allocator cannot itself allocate or recurse.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// `true` iff this thread is inside the audit window. `try_with` covers
/// allocator calls during TLS teardown, where `with` would panic.
fn armed() -> bool {
    ARMED.try_with(Cell::get).unwrap_or(false)
}

/// Count one hit in `counter` if this thread is armed.
fn hit(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if armed() {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

/// Run `f` armed; returns this thread's (allocations, reallocations) in it.
fn audited(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|c| c.set(0));
    REALLOCS.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

// SAFETY: pure pass-through to the `System` allocator — identical layout
// contracts — plus thread-local flag and counter updates, which allocate
// nothing and cannot reenter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        hit(&ALLOCS);
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        hit(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SHARDS: usize = 4;
const OPS: u64 = 1_000_000;
const SNAPSHOTS: u64 = 1_000;

/// Cheap deterministic value mixer (spread across magnitudes so every
/// histogram code path — min, max, high buckets — stays warm).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z ^= z >> 29;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 32)
}

#[test]
fn one_million_telemetry_ops_allocate_nothing() {
    // A schema shaped like the pipeline's real one: a handful of
    // counters and gauges plus per-stage histograms.
    let mut b = RegistryBuilder::new();
    let counters: Vec<_> = ["rx", "accepted", "rejected", "published", "expired"]
        .iter()
        .map(|n| b.counter(n))
        .collect();
    let gauges: Vec<_> = ["occupancy", "in_flight"].iter().map(|n| b.gauge(n)).collect();
    let hists: Vec<_> = [("classify", 4u32), ("track", 4), ("total", 7)]
        .iter()
        .map(|&(n, p)| b.histogram(n, p))
        .collect();
    let registry = b.build(SHARDS);

    // Warm-up: one collection sizes the reusable snapshot + scratch.
    let mut snap = Snapshot::default();
    let mut scratch = Vec::new();
    registry.snapshot_into(0, &mut snap, &mut scratch);

    let hits = audited(|| {
        for i in 0..OPS {
            let shard = (i % SHARDS as u64) as usize;
            let v = mix(i);
            registry.burst_begin(shard);
            registry.counter_add(shard, counters[(i % 5) as usize], 1);
            registry.gauge_store(shard, gauges[(i % 2) as usize], v & 0xfff);
            registry.hist_record(shard, hists[(i % 3) as usize], v >> (i % 40));
            registry.burst_end(shard);
            if i % (OPS / SNAPSHOTS) == 0 {
                registry.snapshot_into(i, &mut snap, &mut scratch);
            }
        }
        registry.snapshot_into(OPS, &mut snap, &mut scratch);
    });

    assert_eq!(hits, (0, 0), "telemetry hot path must be allocation-free in steady state");

    // The audit window did real work: every op accounted for.
    let total: u64 = snap.counters.iter().map(|(_, v)| v).sum();
    assert_eq!(total, OPS);
    let hist_total: u64 = snap.hists.iter().map(|h| h.count).sum();
    assert_eq!(hist_total, OPS);
    for h in &snap.hists {
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }
}

/// Collections exported into one warm store: more than two sealed chunks
/// of rows per series.
const EXPORTS: u64 = 3_000;

#[test]
fn exporting_into_a_warm_store_allocates_under_a_tenth_per_row() {
    let mut b = RegistryBuilder::new();
    let counters: Vec<_> = ["rx", "accepted", "rejected"].iter().map(|n| b.counter(n)).collect();
    let gauge = b.gauge("occupancy");
    let hists: Vec<_> = [("classify", 4u32), ("total", 7)]
        .iter()
        .map(|&(n, p)| b.histogram(n, p))
        .collect();
    let registry = b.build(2);
    let db = TsDb::new();
    let mut snap = Snapshot::default();
    let mut scratch = Vec::new();
    let mut collect = |i: u64| {
        let shard = (i % 2) as usize;
        registry.burst_begin(shard);
        registry.counter_add(shard, counters[(i % 3) as usize], 1 + i % 7);
        registry.gauge_store(shard, gauge, mix(i) & 0xffff);
        registry.hist_record(shard, hists[(i % 2) as usize], mix(i) >> (i % 50));
        registry.burst_end(shard);
        registry.snapshot_into(i * 1_000_000_000, &mut snap, &mut scratch);
        snap.write_into(&db) as u64
    };
    // Warm-up: the first export declares and resolves the series, and
    // the tails grow to one chunk's capacity as the first chunk seals.
    let warm: u64 = (0..1_100).map(&mut collect).sum();
    let mut rows = 0;
    let (allocs, reallocs) = audited(|| rows = (1_100..1_100 + EXPORTS).map(&mut collect).sum());
    assert_eq!(rows, EXPORTS * warm / 1_100);
    assert_eq!(db.points_ingested(), warm + rows);
    let per_row = (allocs + reallocs) as f64 / rows as f64;
    assert!(
        per_row <= 0.1,
        "{allocs} allocations + {reallocs} reallocations over {rows} exported rows \
         ({per_row:.3} per row)"
    );
}
