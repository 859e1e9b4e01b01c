//! Property suite for the registry's range-limited snapshot: a collection
//! copies and folds only the bucket rows between each histogram's `min`
//! and `max`, and must still equal a fold of every cell.
//!
//! The reference here never looks at the registry's cells: it folds the
//! recorded values themselves into full-length bucket arrays (count,
//! saturating sum, min, max, one bucket per value by `bucket_index`),
//! summed across shards, and answers quantiles by scanning every bucket.
//! Values include 0 and 1, the `u64::MAX` top-bucket saturation, and
//! histograms left empty on some or all shards. A snapshot reused across
//! two registries of one schema must come out the same as a fresh one,
//! which pins the reset of only the rows the previous collection held.

// Tests are exempt from the panic-freedom policy (DESIGN.md §10).
#![allow(clippy::unwrap_used, clippy::expect_used)]
#![cfg(not(miri))]

use ruru_flow::histogram::{bucket_count, bucket_floor_of, bucket_index};
use ruru_prop::{check, vec, Rng, StdRng};
use ruru_telemetry::{HistId, Registry, RegistryBuilder, Snapshot};

const CASES: u32 = 128;

/// Histogram precisions of the schema, one histogram each.
const PRECISIONS: [u32; 3] = [0, 4, 7];
const SHARDS: usize = 3;

/// One recorded value: shard, histogram, value.
type Record = (usize, usize, u64);

fn value(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..10) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        3 => u64::MAX - rng.gen_range(0..1_000u64),
        4 => 1 << rng.gen_range(0..64),
        5..=7 => rng.gen_range(0..100_000u64),
        _ => rng.gen::<u64>() >> rng.gen_range(0..64),
    }
}

/// Records that leave some histograms empty on some shards (or
/// everywhere), and sometimes record nothing at all.
fn records(rng: &mut StdRng) -> Vec<Record> {
    let shards_used = rng.gen_range(1..=SHARDS);
    let hists_used = rng.gen_range(1..=PRECISIONS.len());
    vec(rng, 0..200, |r| {
        (
            r.gen_range(0..shards_used),
            r.gen_range(0..hists_used),
            value(r),
        )
    })
}

fn registry() -> (Registry, Vec<HistId>) {
    let mut b = RegistryBuilder::new();
    b.counter("records");
    let hists = PRECISIONS
        .iter()
        .enumerate()
        .map(|(i, &p)| b.histogram(["h0", "h1", "h2"][i], p))
        .collect();
    (b.build(SHARDS), hists)
}

fn record_all(registry: &Registry, hists: &[HistId], records: &[Record]) {
    for &(shard, h, v) in records {
        registry.burst_begin(shard);
        registry.hist_record(shard, hists[h], v);
        registry.burst_end(shard);
    }
}

/// The full-cell fold of one histogram: what the snapshot must equal.
#[derive(Debug, PartialEq)]
struct Reference {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

fn reference(records: &[Record], h: usize) -> Reference {
    let precision = PRECISIONS[h];
    let mut r = Reference {
        count: 0,
        sum: 0,
        min: u64::MAX,
        max: 0,
        buckets: vec![0; bucket_count(precision)],
    };
    // Per shard, as the cells hold it; then summed across shards.
    for shard in 0..SHARDS {
        let mut sum = 0u64;
        for &(s, hh, v) in records {
            if s == shard && hh == h {
                r.count += 1;
                sum = sum.saturating_add(v);
                r.min = r.min.min(v);
                r.max = r.max.max(v);
                r.buckets[bucket_index(precision, v)] += 1;
            }
        }
        r.sum = r.sum.saturating_add(sum);
    }
    if r.count == 0 {
        r.min = 0;
    }
    r
}

/// The quantile by a scan of every bucket: the pre-range-read algorithm.
fn full_scan_quantile(r: &Reference, precision: u32, q: f64) -> u64 {
    if r.count == 0 {
        return 0;
    }
    if q >= 1.0 {
        return r.max;
    }
    let target = ((q.clamp(0.0, 1.0) * r.count as f64).ceil() as u64).clamp(1, r.count);
    let mut seen = 0u64;
    for (idx, &n) in r.buckets.iter().enumerate() {
        seen += n;
        if seen >= target {
            return bucket_floor_of(precision, idx).max(r.min).min(r.max);
        }
    }
    r.max
}

fn assert_matches(snap: &Snapshot, records: &[Record]) {
    assert_eq!(snap.skipped_shards, 0);
    for (h, &precision) in PRECISIONS.iter().enumerate() {
        let want = reference(records, h);
        let got = &snap.hists[h];
        let got_ref = Reference {
            count: got.count,
            sum: got.sum,
            min: got.min,
            max: got.max,
            buckets: got.buckets.clone(),
        };
        assert_eq!(got_ref, want, "histogram {h}");
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(
                got.value_at_quantile(q),
                full_scan_quantile(&want, precision, q),
                "histogram {h} q{q}"
            );
        }
    }
}

#[test]
fn range_read_equals_a_full_cell_fold() {
    check(
        "range_read_equals_a_full_cell_fold",
        CASES,
        records,
        |records| {
            let (registry, hists) = registry();
            record_all(&registry, &hists, &records);
            let mut snap = Snapshot::default();
            let mut scratch = Vec::new();
            registry.snapshot_into(1, &mut snap, &mut scratch);
            assert_matches(&snap, &records);
            // A second collection reuses the snapshot and the scratch.
            registry.snapshot_into(2, &mut snap, &mut scratch);
            assert_matches(&snap, &records);
        },
    );
}

#[test]
fn a_reused_snapshot_forgets_the_previous_registry_rows() {
    let gen = |rng: &mut StdRng| (records(rng), records(rng));
    check(
        "reused_snapshot_forgets_rows",
        CASES,
        gen,
        |(first, second)| {
            let (a, hists_a) = registry();
            let (b, hists_b) = registry();
            record_all(&a, &hists_a, &first);
            record_all(&b, &hists_b, &second);
            let mut snap = Snapshot::default();
            let mut scratch = Vec::new();
            a.snapshot_into(1, &mut snap, &mut scratch);
            assert_matches(&snap, &first);
            b.snapshot_into(2, &mut snap, &mut scratch);
            assert_matches(&snap, &second);
        },
    );
}
