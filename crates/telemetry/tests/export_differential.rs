//! Differential test of the `ruru_self` export: writing each collection
//! through [`Snapshot::write_into`] (rows appended to series resolved
//! once per store) must leave the store exactly as writing the same
//! snapshots as points (`to_points` + `TsDb::write_batch`) does: every
//! series and field bit-identical, the same `points_ingested` and the
//! same storage totals.

// Tests are exempt from the panic-freedom policy (DESIGN.md §10).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(not(miri))]

use ruru_telemetry::{RegistryBuilder, Snapshot};
use ruru_tsdb::{Query, TsDb};

/// More collections than one sealed chunk holds rows, so each series
/// seals at least once.
const COLLECTIONS: u64 = 1_100;

/// One `ruru_self` series field's samples as raw bits, in query order.
type Run = (String, &'static str, Vec<(u64, Vec<u64>)>);

/// Every `(metric, field)` sample run of `db`'s `ruru_self` series.
fn dump(db: &TsDb) -> Vec<Run> {
    let mut out = Vec::new();
    for metric in db.tag_values("ruru_self", "metric") {
        for field in [
            "value", "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        ] {
            let q = Query::range("ruru_self", field, 0, u64::MAX).with_tag("metric", &metric);
            let runs = db
                .query_values(&q)
                .into_iter()
                .filter(|(_, values)| !values.is_empty())
                .map(|(start, values)| (start, values.iter().map(|v| v.to_bits()).collect()))
                .collect();
            out.push((metric.clone(), field, runs));
        }
    }
    out
}

#[test]
fn write_into_matches_points_through_write_batch() {
    let mut b = RegistryBuilder::new();
    let packets = b.counter("packets");
    let drops = b.counter("drops");
    let occupancy = b.gauge("occupancy");
    let residency = b.histogram("residency_ns", 5);
    let rtt = b.histogram("rtt_ns", 3);
    let _never_recorded = b.histogram("idle_ns", 4);
    let registry = b.build(2);

    let typed = TsDb::new();
    let points = TsDb::new();
    let mut snap = Snapshot::default();
    let mut scratch = Vec::new();
    let mut rows = 0;
    for i in 0..COLLECTIONS {
        for shard in 0..2 {
            registry.burst_begin(shard);
            registry.counter_add(shard, packets, 10 + i);
            registry.counter_add(shard, drops, i % 3);
            registry.gauge_store(shard, occupancy, (i * 7919) % 1_000);
            registry.hist_record(shard, residency, 1 + (i * 104_729) % 5_000_000);
            if i % 5 == 0 {
                registry.hist_record(shard, rtt, u64::MAX - i);
            }
            registry.burst_end(shard);
        }
        // One collection a virtual second, a repeated stamp now and then
        // (the final collection repeats the last one's), and stragglers
        // older than rows in the tail and than sealed rows.
        let ts = match i {
            500 => 400 * 1_000_000_000,
            1_050 => 10 * 1_000_000_000,
            _ if i % 100 == 99 => (i - 1) * 1_000_000_000,
            _ => i * 1_000_000_000,
        };
        registry.snapshot_into(ts, &mut snap, &mut scratch);
        let written = snap.write_into(&typed);
        assert_eq!(written, snap.to_points().len());
        rows += written as u64;
        assert_eq!(points.write_batch(snap.to_points()), written as u64);
    }

    assert_eq!(typed.points_ingested(), rows);
    assert_eq!(typed.points_ingested(), points.points_ingested());
    assert_eq!(
        typed.series_count("ruru_self"),
        points.series_count("ruru_self")
    );
    assert_eq!(typed.storage_stats(), points.storage_stats());
    assert!(
        typed.storage_stats().sealed_points > 0,
        "every series sealed a chunk"
    );
    let (a, b) = (dump(&typed), dump(&points));
    assert_eq!(
        a.len(),
        7 * 9,
        "6 metrics and the skipped-shard count, 9 fields each"
    );
    assert_eq!(a, b);
    assert_eq!(typed.to_snapshot(), points.to_snapshot());
}

#[test]
fn a_snapshot_clone_and_a_restored_store_get_their_own_series() {
    let mut b = RegistryBuilder::new();
    let c = b.counter("packets");
    let registry = b.build(1);
    let db = TsDb::new();
    let mut snap = Snapshot::default();
    let mut scratch = Vec::new();
    for i in 0..3 {
        registry.counter_add(0, c, 1);
        registry.snapshot_into(i, &mut snap, &mut scratch);
        snap.write_into(&db);
    }
    // A restored copy is another store: the same snapshot re-resolves
    // there and leaves the original untouched.
    let restored = TsDb::from_snapshot(&db.to_snapshot()).unwrap();
    let before = db.to_snapshot();
    registry.snapshot_into(3, &mut snap, &mut scratch);
    assert_eq!(snap.write_into(&restored), 2);
    assert_eq!(snap.clone().write_into(&restored), 2);
    assert_eq!(db.to_snapshot(), before);
    let q = Query::range("ruru_self", "value", 0, 10).with_tag("metric", "packets");
    assert_eq!(
        restored.query_values(&q),
        vec![(0, vec![1.0, 2.0, 3.0, 3.0, 3.0])]
    );
}
