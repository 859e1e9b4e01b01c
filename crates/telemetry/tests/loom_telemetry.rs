//! Loom model of the registry's epoch snapshot protocol.
//!
//! Compiled (and meaningful) only under `RUSTFLAGS="--cfg loom"`, which
//! swaps `ruru_telemetry::sync` onto the in-tree model checker so these
//! models exhaustively explore interleavings of the *production*
//! seqlock code in `registry.rs`. Two properties, per DESIGN.md §12:
//!
//! 1. **Writers never block**: a worker's burst is a straight-line run of
//!    loads and stores — no locks, no retries — so it completes in every
//!    interleaving (the model would deadlock or fail otherwise).
//! 2. **Readers never observe a torn burst**: cells written inside one
//!    `burst_begin`/`burst_end` window are seen all-or-nothing; a
//!    collector racing the writer either gets a consistent epoch or
//!    skips the shard, never a half-applied burst.
//!
//! Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p ruru-telemetry --test loom_telemetry --release
//! ```
#![cfg(loom)]

// Tests are exempt from the panic-freedom policy (DESIGN.md §10).
#![allow(clippy::unwrap_used, clippy::expect_used)]

use loom::thread;
use ruru_telemetry::sync::Arc;
use ruru_telemetry::{Registry, RegistryBuilder};

/// A two-counter schema where the invariant "both cells carry the same
/// value" stands in for histogram-internal consistency (count vs. bucket
/// sums) without exploding the model's state space.
fn paired_registry() -> (Registry, ruru_telemetry::CounterId, ruru_telemetry::CounterId) {
    let mut b = RegistryBuilder::new();
    let a = b.counter("cells_a");
    let z = b.counter("cells_b");
    (b.build(1), a, z)
}

/// A snapshot racing two write bursts sees the pair in lockstep: (0,0),
/// (1,1) or (2,2) — never a torn (1,0) / (1,2) — or it skips the shard.
#[test]
fn loom_reader_never_observes_a_torn_burst() {
    loom::model(|| {
        let (registry, a, z) = paired_registry();
        let registry = Arc::new(registry);

        let writer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                for _ in 0..2 {
                    registry.burst_begin(0);
                    registry.counter_add(0, a, 1);
                    registry.counter_add(0, z, 1);
                    registry.burst_end(0);
                }
            })
        };

        let snap = registry.snapshot(0);
        if snap.skipped_shards == 0 {
            let (va, vz) = (snap.counter("cells_a"), snap.counter("cells_b"));
            assert_eq!(va, vz, "torn burst observed: ({va}, {vz})");
            assert!(va <= 2);
        }

        writer.join().unwrap();

        // After the writer retires, a snapshot is exact.
        let settled = registry.snapshot(0);
        assert_eq!(settled.skipped_shards, 0);
        assert_eq!(settled.counter("cells_a"), 2);
        assert_eq!(settled.counter("cells_b"), 2);
    });
}

/// The writer side is wait-free with respect to the collector: even with
/// a reader snapshotting concurrently, both write bursts retire and no
/// update is lost (cumulative cells only ever grow).
#[test]
fn loom_writer_never_blocks_on_the_collector() {
    loom::model(|| {
        let (registry, a, z) = paired_registry();
        let registry = Arc::new(registry);

        let reader = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                let snap = registry.snapshot(0);
                (snap.skipped_shards, snap.counter("cells_a"))
            })
        };

        registry.burst_begin(0);
        registry.counter_add(0, a, 1);
        registry.counter_add(0, z, 1);
        registry.burst_end(0);

        let (skipped, seen) = reader.join().unwrap();
        // The reader either skipped (writer held the epoch odd) or saw a
        // prefix-consistent value; it can never have invented updates.
        assert!(seen <= 1);
        assert!(skipped <= 1);

        let settled = registry.snapshot(0);
        assert_eq!(settled.counter("cells_a"), 1);
        assert_eq!(settled.counter("cells_b"), 1);
    });
}

/// The range read copies only the bucket rows between a histogram's
/// copied `min` and `max`. A writer that moves both inside its bursts
/// (first a small value, then one many rows higher) races a snapshot:
/// every copy the reader accepts has its bucket sum equal to its count,
/// so no sample's row fell outside the range read.
#[test]
fn loom_range_read_follows_min_and_max_across_bursts() {
    loom::model(|| {
        let mut b = RegistryBuilder::new();
        let h = b.histogram("residency", 0);
        let registry = Arc::new(b.build(1));

        let writer = {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                for value in [5, 1 << 40] {
                    registry.burst_begin(0);
                    registry.hist_record(0, h, value);
                    registry.burst_end(0);
                }
            })
        };

        let snap = registry.snapshot(0);
        if snap.skipped_shards == 0 {
            let hist = snap.hist("residency").unwrap();
            let held: u64 = hist.buckets.iter().sum();
            assert_eq!(held, hist.count, "bucket rows outside the range read");
            assert!(hist.count <= 2);
        }

        writer.join().unwrap();
        let settled = registry.snapshot(0);
        let hist = settled.hist("residency").unwrap();
        assert_eq!((hist.count, hist.min, hist.max), (2, 5, 1 << 40));
        assert_eq!(hist.buckets.iter().sum::<u64>(), 2);
    });
}
