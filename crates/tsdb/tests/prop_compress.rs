//! Differential property suite for the sealed-chunk lifecycle: sealing
//! (Gorilla compression) must be **observably invisible**. For any
//! randomized ingest — timestamp jitter, duplicate stamps, NaN and
//! extreme values, empty and single-point series, multi-field and ragged
//! points (missing, extra, reordered and repeated field names) — every
//! public read path must return bit-identical results before and after
//! forcing the whole store through compressed sealed chunks, and after a
//! decode → re-seal round-trip via the snapshot image.

// Tests are exempt from the panic-freedom policy (DESIGN.md §10):
// unwrap/expect on known-good fixtures is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Property suites run thousands of cases: far too slow under Miri, and
// the properties are memory-safety-neutral anyway.
#![cfg(not(miri))]

use ruru_prop::{check, vec, Rng, StdRng};
use ruru_tsdb::{Point, Query, TsDb};

/// Cases per property in this suite.
const CASES: u32 = 64;

/// One randomized sample: series index, timestamp, raw value bits.
#[derive(Debug, Clone, Copy)]
struct Ingest {
    series: u8,
    ts: u64,
    bits: u64,
}

/// Values drawn over raw bits so NaN payloads, signed zeros and
/// infinities are all first-class citizens of the distribution.
fn bits(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..16) {
        // Realistic latencies: small magnitudes with limited jitter.
        0..=7 => (100.0 + rng.gen_range(0u64..1_000_000) as f64 * 0.001).to_bits(),
        // Arbitrary bit patterns (often NaN/subnormal/huge).
        8..=9 => rng.gen(),
        // The named special values.
        10 => f64::NAN.to_bits(),
        11 => f64::INFINITY.to_bits(),
        12 => f64::NEG_INFINITY.to_bits(),
        13 => (-0.0f64).to_bits(),
        14 => f64::MAX.to_bits(),
        _ => f64::MIN_POSITIVE.to_bits(),
    }
}

fn ingest(rng: &mut StdRng) -> Ingest {
    Ingest {
        series: rng.gen::<u8>() % 5,
        ts: ts(rng),
        bits: bits(rng),
    }
}

/// Timestamps cluster on a cadence with jitter, plus occasional extremes
/// (0, far future) and duplicates from the small modulus.
fn ts(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..10) {
        0..=7 => {
            let i = rng.gen_range(0u64..5_000);
            i * 1_000_000 + (i * 37) % 1013
        }
        8 => 0,
        _ => rng.gen_range(0u64..u64::MAX / 2),
    }
}

fn ingest_point(op: &Ingest) -> Point {
    let city = ["akl", "lax", "syd", "nrt", "fra"][op.series as usize];
    Point::new(
        "latency",
        vec![("city".into(), city.into())],
        vec![("total_ms".into(), f64::from_bits(op.bits))],
        op.ts,
    )
}

fn build_store(ops: &[Ingest]) -> TsDb {
    let db = TsDb::new();
    for op in ops {
        db.write(&ingest_point(op));
    }
    db
}

/// Bit-exact view of every stored sample, via the scan path.
fn values_bits(db: &TsDb, q: &Query) -> Vec<(u64, Vec<u64>)> {
    db.query_values(q)
        .into_iter()
        .map(|(start, vs)| (start, vs.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn queries() -> Vec<Query> {
    vec![
        Query::range("latency", "total_ms", 0, u64::MAX),
        Query::range("latency", "total_ms", 0, 5_000_000_000).with_buckets(250_000_000),
        Query::range("latency", "total_ms", 1_000_000, 4_000_000_000).with_buckets(100_000_000),
        Query::range("latency", "total_ms", 0, u64::MAX).with_tag("city", "akl"),
        Query::range("latency", "total_ms", 0, 0),
        Query::range("nope", "total_ms", 0, 1000),
    ]
}

/// Sealing is invisible: every read path returns bit-identical
/// results from the uncompressed store and the fully sealed one.
#[test]
fn sealed_store_reads_bit_identical() {
    let gen = |rng: &mut StdRng| vec(rng, 0..600, ingest);
    check("sealed_store_reads_bit_identical", CASES, gen, |ops| {
        let db = build_store(&ops);
        let before_snapshot = db.to_snapshot();
        let before_values: Vec<_> = queries().iter().map(|q| values_bits(&db, q)).collect();

        let sealed_now = db.seal();
        let stats = db.storage_stats();
        assert_eq!(stats.active_points, 0, "forced seal must drain tails");
        assert_eq!(stats.sealed_points, sealed_now);
        assert_eq!(stats.sealed_points, ops.len() as u64);

        // The snapshot image (decoded sealed chunks) is byte-identical to
        // the pre-seal image: compression round-trips every bit.
        assert_eq!(&db.to_snapshot(), &before_snapshot);
        for (q, before) in queries().iter().zip(&before_values) {
            assert_eq!(&values_bits(&db, q), before, "query {:?}", q);
        }

        // And a store rebuilt from the image re-reads identically too.
        let rebuilt = TsDb::from_snapshot(&before_snapshot).unwrap();
        for (q, before) in queries().iter().zip(&before_values) {
            assert_eq!(&values_bits(&rebuilt, q), before, "rebuilt query {:?}", q);
        }
    });
}

/// Merging shards and direct writes agree after sealing: the
/// shard-merge differential property, carried over to the two-phase
/// store. Points go alternately through two stripes; per bucket the same
/// samples land as through direct writes (order within a bucket may
/// differ between interleavings, so buckets compare as sorted multisets).
fn assert_merge_matches_direct_writes(points: &[Point], queries: &[Query]) {
    let direct = TsDb::new();
    let sharded = std::sync::Arc::new(TsDb::new());
    let mut stripes = [sharded.stripe(97), sharded.stripe(61)];
    for (i, p) in points.iter().enumerate() {
        direct.write(p);
        stripes[i % 2].write(p);
    }
    for s in &mut stripes {
        s.flush();
    }
    assert_eq!(sharded.points_ingested(), direct.points_ingested());
    let sorted_after_seal = |db: &TsDb| {
        db.seal();
        let mut all: Vec<_> = queries.iter().map(|q| values_bits(db, q)).collect();
        for (_, vs) in all.iter_mut().flatten() {
            vs.sort_unstable();
        }
        (db.storage_stats().sealed_points, all)
    };
    assert_eq!(sorted_after_seal(&sharded), sorted_after_seal(&direct));
}

#[test]
fn sealed_merge_matches_direct_writes() {
    let gen = |rng: &mut StdRng| vec(rng, 1..400, ingest);
    check("sealed_merge_matches_direct_writes", CASES, gen, |ops| {
        let points: Vec<Point> = ops.iter().map(ingest_point).collect();
        assert_merge_matches_direct_writes(&points, &queries());
    });
}

/// Single-point and empty series through the seal path.
#[test]
fn tiny_series_seal_roundtrip() {
    let gen = |rng: &mut StdRng| (ts(rng), bits(rng));
    check("tiny_series_seal_roundtrip", CASES, gen, |(ts, bits)| {
        let db = TsDb::new();
        db.write(&Point::new(
            "latency",
            vec![("city".into(), "akl".into())],
            vec![("total_ms".into(), f64::from_bits(bits))],
            ts,
        ));
        let q = Query::range("latency", "total_ms", 0, u64::MAX);
        let before = values_bits(&db, &q);
        assert_eq!(db.seal(), 1);
        assert_eq!(values_bits(&db, &q), before);
        assert_eq!(db.seal(), 0, "empty active tails seal to nothing");
        assert_eq!(values_bits(&db, &q), before);
    });
}

/// The field list a series' points usually carry.
const FIELDS: [&str; 4] = ["internal_ms", "external_ms", "total_ms", "src_lat"];

/// Every field name a ragged point may carry.
const ALL_FIELDS: [&str; 5] = ["internal_ms", "external_ms", "total_ms", "src_lat", "extra"];

/// One randomized multi-field point: series index, timestamp and its
/// fields as (name, raw value bits).
#[derive(Debug, Clone)]
struct Row {
    series: u8,
    ts: u64,
    fields: Vec<(&'static str, u64)>,
}

/// Mostly the usual field list; otherwise one field missing, an extra
/// field, the list reordered, or a name repeated (two samples of one
/// field at one timestamp).
fn field_list(rng: &mut StdRng) -> Vec<&'static str> {
    let mut names = FIELDS.to_vec();
    match rng.gen_range(0..10) {
        0..=5 => {}
        6 => {
            names.remove(rng.gen_range(0..FIELDS.len()));
        }
        7 => names.insert(rng.gen_range(0..=FIELDS.len()), "extra"),
        8 => names.rotate_left(rng.gen_range(1..FIELDS.len())),
        _ => names.push(FIELDS[rng.gen_range(0..FIELDS.len())]),
    }
    names
}

/// One row, stamped as in [`ts`] or from a small window that repeats
/// stamps often (stragglers and ties that land after whole chunks
/// sealed). Series 0 is ragged; series 1 keeps one field list, so each of
/// its fields lives in one column.
fn row(rng: &mut StdRng) -> Row {
    let ts = if rng.gen_range(0..4) == 0 { rng.gen_range(0u64..64) * 1_000 } else { ts(rng) };
    let series = rng.gen::<u8>() % 2;
    let names = if series == 0 { field_list(rng) } else { FIELDS.to_vec() };
    Row {
        series,
        ts,
        fields: names.into_iter().map(|f| (f, bits(rng))).collect(),
    }
}

fn row_point(row: &Row) -> Point {
    let city = ["akl", "lax"][row.series as usize];
    Point::new(
        "latency",
        vec![("city".into(), city.into())],
        row.fields.iter().map(|&(f, b)| (f.into(), f64::from_bits(b))).collect(),
        row.ts,
    )
}

fn field_queries(field: &str) -> Vec<Query> {
    vec![
        Query::range("latency", field, 0, u64::MAX),
        Query::range("latency", field, 0, 5_000_000_000).with_buckets(250_000_000),
        Query::range("latency", field, 0, 64_000).with_buckets(8_000),
        Query::range("latency", field, 0, u64::MAX).with_tag("city", "akl"),
        Query::range("latency", field, 0, u64::MAX).with_tag("city", "lax"),
    ]
}

/// Bit-exact results of every query on every field name.
fn all_values(db: &TsDb) -> Vec<Vec<(u64, Vec<u64>)>> {
    ALL_FIELDS
        .iter()
        .flat_map(|f| field_queries(f))
        .map(|q| values_bits(db, &q))
        .collect()
}

/// Multi-field and ragged series: sealing, auto-sealing one chunk at a
/// time amid stragglers, and a snapshot round trip are invisible to
/// every query, and each field keeps exactly the samples written to it.
#[test]
fn ragged_store_reads_bit_identical() {
    let gen = |rng: &mut StdRng| vec(rng, 0..5000, row);
    check("ragged_store_reads_bit_identical", CASES, gen, |rows| {
        let db = TsDb::new();
        for r in &rows {
            db.write(&row_point(r));
        }
        // Per-field sample counts: one per occurrence of the name.
        for field in ALL_FIELDS {
            let written = rows
                .iter()
                .flat_map(|r| &r.fields)
                .filter(|&&(f, _)| f == field)
                .count();
            let stored = db.query(&Query::range("latency", field, 0, u64::MAX))[0]
                .agg
                .map_or(0, |a| a.count);
            assert_eq!(stored, written, "field {field}");
        }
        let samples: u64 = rows.iter().map(|r| r.fields.len() as u64).sum();
        let stats = db.storage_stats();
        assert_eq!(stats.sealed_points + stats.active_points, samples);

        let image = db.to_snapshot();
        let before = all_values(&db);
        assert_eq!(db.seal(), stats.active_points);
        let stats = db.storage_stats();
        assert_eq!((stats.sealed_points, stats.active_points), (samples, 0));
        assert_eq!(db.to_snapshot(), image, "image after seal");
        assert_eq!(all_values(&db), before, "queries after seal");

        let rebuilt = TsDb::from_snapshot(&image).unwrap();
        assert_eq!(all_values(&rebuilt), before, "queries after round trip");
        assert_eq!(rebuilt.to_snapshot(), image, "image after round trip");
        let stats = rebuilt.storage_stats();
        assert_eq!(stats.sealed_points + stats.active_points, samples);
    });
}

/// The shard-merge differential property for ragged multi-field points.
#[test]
fn ragged_merge_matches_direct_writes() {
    let gen = |rng: &mut StdRng| vec(rng, 1..5000, row);
    check("ragged_merge_matches_direct_writes", CASES, gen, |rows| {
        let points: Vec<Point> = rows.iter().map(row_point).collect();
        let queries: Vec<Query> = ALL_FIELDS.iter().flat_map(|f| field_queries(f)).collect();
        assert_merge_matches_direct_writes(&points, &queries);
    });
}
