//! Per-writer striped ingest — the store's first-class write path.
//!
//! Serializing every producer on one global write lock is the scaling
//! ceiling the PR 6 scaling curve measured (`tsdb_write_lock`
//! bottleneck). An [`IngestShard`] is the contention-free alternative: a
//! private, single-writer mini-store (same sorted-run-per-series layout
//! as the shared store, no lock at all) that each writer fills
//! independently and folds into the shared [`crate::TsDb`] with
//! `TsDb::merge_shard` — once per rotation interval
//! (mid-run, via [`StripeWriter`]) rather than once per point. The
//! pipeline's enrichment workers each write through a [`StripeWriter`].
//!
//! Merging is run-aware: each shard holds per-series sorted runs, so the
//! common case (disjoint series — every `latency` series carries a
//! `queue` tag) is a plain move, and overlapping series (e.g. `ruru_self`
//! exports) merge two sorted runs without re-sorting. Ties keep the
//! shared store's insertion order: samples already in the store stay
//! ahead of incoming equal-timestamp samples, exactly as repeated
//! [`crate::store::TsDb::write`] calls would have left them.

use crate::point::Point;
use std::collections::HashMap;

/// One stored sample: timestamp and value (per field).
pub(crate) type Sample = (u64, f64);

/// A private series buffer inside an [`IngestShard`] — the same shape as
/// the shared store's series (tag list + per-field sorted runs).
#[derive(Debug, Default)]
pub(crate) struct ShardSeries {
    pub(crate) tags: Vec<(String, String)>,
    pub(crate) fields: HashMap<String, Vec<Sample>>,
}

impl ShardSeries {
    #[allow(clippy::disallowed_methods)] // sanctioned: owned field key on first sight only; repeats hit the map
    fn insert(&mut self, field: &str, ts: u64, value: f64) {
        // alloc-ok: owned field key + map slot on first sight of a field;
        // repeats hit the existing entry. Bounded per point, enforced by
        // the counting-allocator audit (tests/alloc_stripe_ingest.rs).
        let run = self.fields.entry(field.to_string()).or_default();
        match run.last() {
            Some(&(last_ts, _)) if last_ts > ts => {
                // Out-of-order straggler: binary insert.
                let idx = run.partition_point(|&(t, _)| t <= ts);
                run.insert(idx, (ts, value));
            }
            _ => run.push((ts, value)),
        }
    }
}

/// A single-writer ingest buffer: one producer writes points without any
/// locking, and the whole shard is merged into the shared [`crate::TsDb`]
/// at the end of the run.
///
/// Unlike [`crate::store::TsDb::write`], [`IngestShard::write`] touches no
/// shared state — per-queue writers never contend on one store.
#[derive(Debug, Default)]
pub struct IngestShard {
    pub(crate) measurements: HashMap<String, HashMap<String, ShardSeries>>,
    pub(crate) points: u64,
}

impl IngestShard {
    /// An empty shard.
    pub fn new() -> IngestShard {
        IngestShard::default()
    }

    /// Buffer one point. Same semantics as [`crate::store::TsDb::write`],
    /// minus the lock: sorted-run append with a binary-insert fallback for
    /// out-of-order stragglers.
    pub fn write(&mut self, point: &Point) {
        // alloc-ok: map entry + owned measurement key — the bounded
        // per-point string cost of buffering into a private stripe,
        // enforced by the counting-allocator audit.
        let series_map = self.measurements.entry(point.measurement.clone()).or_default();
        let series = series_map
            .entry(point.series_key()) // alloc-ok: owned key per point, audited bound
            .or_insert_with(|| ShardSeries { // alloc-ok: once per new series, not per point
                tags: point.tags.clone(), // alloc-ok: once per new series, not per point
                fields: HashMap::new(),
            });
        for (field, value) in &point.fields {
            series.insert(field, point.timestamp_ns, *value);
        }
        self.points = self.points.saturating_add(1);
    }

    /// Points buffered so far (each counts toward
    /// [`crate::store::TsDb::points_ingested`] once merged).
    pub fn points_buffered(&self) -> u64 {
        self.points
    }

    /// True if nothing has been buffered.
    pub fn is_empty(&self) -> bool {
        self.points == 0
    }
}

/// A per-writer ingest stripe: a private [`IngestShard`] plus the shared
/// store it folds into every `flush_points` buffered points. This is the
/// steady-state dataplane write path — [`StripeWriter::write`] touches
/// only writer-local memory; the store lock is taken whole-shard at
/// flush time, amortised across the stripe.
///
/// Callers own the flush discipline: un-flushed points are not counted
/// in [`crate::store::TsDb::points_ingested`], so a writer that exits
/// without [`StripeWriter::flush`] shows up as a conservation-identity
/// violation, never as silent loss.
pub struct StripeWriter {
    db: std::sync::Arc<crate::store::TsDb>,
    shard: IngestShard,
    flush_points: u64,
}

impl StripeWriter {
    pub(crate) fn new(db: std::sync::Arc<crate::store::TsDb>, flush_points: u64) -> StripeWriter {
        StripeWriter {
            db,
            shard: IngestShard::new(),
            flush_points: flush_points.max(1),
        }
    }

    /// Buffer one point into the private stripe; folds the stripe into
    /// the store when the flush threshold is reached. Returns the number
    /// of points merged into the store by this call (0 unless a flush
    /// triggered) so callers can maintain exact merge accounting.
    pub fn write(&mut self, point: &Point) -> u64 {
        self.shard.write(point);
        if self.shard.points >= self.flush_points {
            self.flush()
        } else {
            0
        }
    }

    /// Fold everything buffered into the store now. Returns points
    /// merged. Must be called before the writer exits.
    pub fn flush(&mut self) -> u64 {
        if self.shard.is_empty() {
            return 0;
        }
        let shard = core::mem::take(&mut self.shard);
        self.db.merge_shard(shard)
    }

    /// Points buffered in the stripe, not yet merged.
    pub fn points_buffered(&self) -> u64 {
        self.shard.points_buffered()
    }
}

/// Merge sorted run `src` into sorted run `dst`, keeping existing samples
/// ahead of incoming ones on timestamp ties (matching the insertion order
/// repeated `write` calls produce).
pub(crate) fn merge_runs(dst: &mut Vec<Sample>, src: Vec<Sample>) {
    if src.is_empty() {
        return;
    }
    let append_only = match (dst.last(), src.first()) {
        (Some(&(last, _)), Some(&(first, _))) => last <= first,
        _ => true,
    };
    if append_only {
        // alloc-ok: wholesale run move at merge time — O(series) merges
        // per flush, not per point (tests/alloc_stripe_ingest.rs bounds
        // the whole merge at a per-series constant).
        dst.extend(src);
        return;
    }
    let old = core::mem::take(dst);
    // alloc-ok: single exact reservation for the interleaved-run rebuild,
    // once per overlapping merge — never on the append-only fast path.
    dst.reserve(old.len() + src.len());
    // Slice-cursor two-way merge: samples are Copy pairs, and slice
    // patterns keep the body free of both fallible indexing and iterator
    // method calls the name-based analyzer call graph would over-resolve.
    let (mut a, mut b) = (old.as_slice(), src.as_slice());
    while !a.is_empty() || !b.is_empty() {
        let take_existing = match (a.first(), b.first()) {
            (Some(&(ta, _)), Some(&(tb, _))) => ta <= tb,
            (Some(_), None) => true,
            _ => false,
        };
        if take_existing {
            if let [s, rest @ ..] = a {
                dst.push(*s);
                a = rest;
            }
        } else if let [s, rest @ ..] = b {
            dst.push(*s);
            b = rest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Query, TsDb};

    fn point(city: &str, ms: f64, ts: u64) -> Point {
        Point::new(
            "latency",
            vec![("city".into(), city.into())],
            vec![("total_ms".into(), ms)],
            ts,
        )
    }

    #[test]
    fn shard_buffers_without_touching_the_store() {
        let mut shard = IngestShard::new();
        assert!(shard.is_empty());
        shard.write(&point("akl", 130.0, 10));
        shard.write(&point("akl", 131.0, 20));
        assert_eq!(shard.points_buffered(), 2);
        assert!(!shard.is_empty());
    }

    #[test]
    fn merge_disjoint_series_moves_runs() {
        let db = TsDb::new();
        let mut a = IngestShard::new();
        let mut b = IngestShard::new();
        for i in 0..100u64 {
            a.write(&point("akl", i as f64, i * 10));
            b.write(&point("lax", i as f64, i * 10 + 5));
        }
        assert_eq!(db.merge_shard(a), 100);
        assert_eq!(db.merge_shard(b), 100);
        assert_eq!(db.points_ingested(), 200);
        assert_eq!(db.series_count("latency"), 2);
        let agg = db.query(&Query::range("latency", "total_ms", 0, 10_000))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 200);
    }

    #[test]
    fn merge_interleaves_overlapping_series_in_time_order() {
        let db = TsDb::new();
        db.write(&point("akl", 0.0, 0));
        db.write(&point("akl", 2.0, 200));
        let mut shard = IngestShard::new();
        shard.write(&point("akl", 1.0, 100));
        shard.write(&point("akl", 3.0, 300));
        db.merge_shard(shard);
        assert_eq!(db.points_ingested(), 4);
        let buckets =
            db.query(&Query::range("latency", "total_ms", 0, 400).with_buckets(100));
        let means: Vec<Option<f64>> =
            buckets.iter().map(|b| b.agg.map(|a| a.mean)).collect();
        assert_eq!(means, vec![Some(0.0), Some(1.0), Some(2.0), Some(3.0)]);
    }

    #[test]
    fn merged_state_matches_direct_writes() {
        // The differential property the pipeline's stripe writers rely
        // on: shard-then-merge must land in exactly the state direct
        // writes produce.
        let direct = TsDb::new();
        let sharded = TsDb::new();
        let mut shards = [IngestShard::new(), IngestShard::new()];
        let mut pts = Vec::new();
        for i in 0..50u64 {
            // Deterministic scramble: out-of-order and duplicate stamps.
            let ts = (i * 37) % 100;
            pts.push(point(if i % 2 == 0 { "akl" } else { "lax" }, i as f64, ts));
        }
        for (i, p) in pts.iter().enumerate() {
            direct.write(p);
            if let Some(s) = shards.get_mut(i % 2) {
                s.write(p);
            }
        }
        let [a, b] = shards;
        sharded.merge_shard(a);
        sharded.merge_shard(b);
        assert_eq!(sharded.points_ingested(), direct.points_ingested());
        assert_eq!(
            sharded.series_count("latency"),
            direct.series_count("latency")
        );
        for city in ["akl", "lax"] {
            let q = Query::range("latency", "total_ms", 0, 1000).with_tag("city", city);
            assert_eq!(direct.query(&q), sharded.query(&q), "city {city}");
        }
    }

    #[test]
    fn merge_runs_keeps_existing_ahead_on_ties() {
        let mut dst = vec![(10, 1.0), (20, 2.0)];
        merge_runs(&mut dst, vec![(5, 0.5), (10, 1.5), (30, 3.0)]);
        assert_eq!(dst, vec![(5, 0.5), (10, 1.0), (10, 1.5), (20, 2.0), (30, 3.0)]);
        // Append-only fast path.
        let mut dst = vec![(10, 1.0)];
        merge_runs(&mut dst, vec![(10, 2.0), (15, 3.0)]);
        assert_eq!(dst, vec![(10, 1.0), (10, 2.0), (15, 3.0)]);
        // Empty cases.
        let mut dst: Vec<Sample> = Vec::new();
        merge_runs(&mut dst, vec![(1, 1.0)]);
        assert_eq!(dst, vec![(1, 1.0)]);
        merge_runs(&mut dst, Vec::new());
        assert_eq!(dst, vec![(1, 1.0)]);
    }

    #[test]
    fn stripe_writer_flushes_on_threshold_and_on_demand() {
        let db = std::sync::Arc::new(TsDb::new());
        let mut stripe = db.stripe(10);
        let mut merged = 0u64;
        for i in 0..25u64 {
            merged += stripe.write(&point("akl", i as f64, i * 10));
        }
        // Two threshold flushes of 10 each; 5 points still buffered.
        assert_eq!(merged, 20);
        assert_eq!(stripe.points_buffered(), 5);
        assert_eq!(db.points_ingested(), 20);
        merged += stripe.flush();
        assert_eq!(merged, 25);
        assert_eq!(db.points_ingested(), 25);
        assert_eq!(stripe.flush(), 0, "flush of empty stripe is a noop");
        let agg = db.query(&Query::range("latency", "total_ms", 0, 1000))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 25);
    }

    #[test]
    fn concurrent_stripes_land_every_point() {
        let db = std::sync::Arc::new(TsDb::new());
        let mut handles = Vec::new();
        for w in 0..4u64 {
            let mut stripe = db.stripe(64);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    stripe.write(&point(if w % 2 == 0 { "akl" } else { "lax" }, w as f64, i));
                }
                stripe.flush();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.points_ingested(), 4000);
        let agg = db.query(&Query::range("latency", "total_ms", 0, 2000))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 4000);
    }

    #[test]
    fn merge_empty_shard_is_a_noop() {
        let db = TsDb::new();
        assert_eq!(db.merge_shard(IngestShard::new()), 0);
        assert_eq!(db.points_ingested(), 0);
    }

    #[test]
    fn merge_preserves_multi_field_points() {
        let db = TsDb::new();
        let mut shard = IngestShard::new();
        shard.write(&Point::new(
            "latency",
            vec![("city".into(), "akl".into())],
            vec![("int_ms".into(), 1.0), ("ext_ms".into(), 130.0)],
            5,
        ));
        db.merge_shard(shard);
        assert_eq!(db.points_ingested(), 1);
        let int_agg = db.query(&Query::range("latency", "int_ms", 0, 10))[0]
            .agg
            .unwrap();
        assert_eq!(int_agg.mean, 1.0);
    }
}
