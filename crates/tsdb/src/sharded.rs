//! Ingest shards and per-writer stripes — the one way samples enter the
//! store.
//!
//! An [`IngestShard`] is a private, lock-free buffer in the shared
//! store's own layout (`store::Series` per series key, one `store::Block`
//! of columns per field list). Every write fills one and folds it into
//! the shared [`crate::TsDb`] with `TsDb::merge_shard`: a
//! [`StripeWriter`] once per rotation, and `TsDb::write`,
//! `TsDb::write_batch` and snapshot restore once per call. One global
//! write lock taken per point would serialize every producer (the
//! measured `tsdb_write_lock` scaling ceiling); the pipeline's
//! enrichment workers each write through a [`StripeWriter`] instead.
//!
//! A shard appends rows in arrival order and never seals. The merge
//! appends each shard block's rows to the stored block with the same
//! field list (every `latency` series carries a `queue` tag, so stripes
//! rarely overlap) or keeps
//! the block as a new one; either way a stable sort, skipped when the
//! rows are already in order, puts the tail in time order. Ties keep the
//! shared store's insertion order: rows already in the store stay ahead
//! of incoming equal-timestamp rows, exactly as writing the points one by
//! one would have left them.

use crate::point::{series_key, Point};
use crate::store::{Measurements, Series};
use std::borrow::Cow;

/// A single-writer ingest buffer: one producer writes points without any
/// locking, and the whole shard is merged into the shared store at once.
/// Shards never seal; sealing happens in the merge.
#[derive(Debug, Default)]
pub(crate) struct IngestShard {
    pub(crate) measurements: Measurements,
    pub(crate) points: u64,
    /// Scratch series key, reused so a repeat series allocates nothing.
    key: String,
}

impl IngestShard {
    /// Buffer one point: the crate's only conversion of a point into
    /// samples, one row appended to the block of its field list. An owned
    /// point's strings move in and a borrowed point's are copied, either
    /// only on first sight of a series or field list in this shard.
    pub(crate) fn insert(&mut self, point: Cow<'_, Point>) {
        series_key(&point.measurement, &point.tags, &mut self.key);
        let ts = point.timestamp_ns;
        let (measurement, tags, fields) = match point {
            Cow::Borrowed(p) => (
                Cow::Borrowed(p.measurement.as_str()),
                Cow::Borrowed(p.tags.as_slice()),
                Cow::Borrowed(p.fields.as_slice()),
            ),
            Cow::Owned(p) => (
                Cow::Owned(p.measurement),
                Cow::Owned(p.tags),
                Cow::Owned(p.fields),
            ),
        };
        let known = self
            .measurements
            .get_mut(measurement.as_ref())
            .and_then(|series_map| series_map.get_mut(self.key.as_str()));
        if let Some(series) = known {
            series.push_fields(fields, ts);
        } else {
            let mut series = Series {
                tags: tags.into_owned(),
                ..Series::default()
            };
            series.push_fields(fields, ts);
            // alloc-ok: owned measurement key and map slot, on first sight
            // of a series in this shard only.
            let series_map = self.measurements.entry(measurement.into_owned()).or_default();
            // alloc-ok: owned series key and map slot, as above.
            series_map.insert(self.key.clone(), series);
        }
        self.points = self.points.saturating_add(1);
    }
}

/// A per-writer ingest stripe: a private `IngestShard` plus the shared
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
            shard: IngestShard::default(),
            flush_points: flush_points.max(1),
        }
    }

    /// Buffer one point into the private stripe; folds the stripe into
    /// the store when the flush threshold is reached. Returns the number
    /// of points merged into the store by this call (0 unless a flush
    /// triggered) so callers can maintain exact merge accounting.
    pub fn write(&mut self, point: &Point) -> u64 {
        self.shard.insert(Cow::Borrowed(point));
        if self.shard.points >= self.flush_points {
            self.flush()
        } else {
            0
        }
    }

    /// Fold everything buffered into the store now. Returns points
    /// merged. Must be called before the writer exits.
    pub fn flush(&mut self) -> u64 {
        self.db.merge_shard(core::mem::take(&mut self.shard))
    }

    /// Points buffered in the stripe, not yet merged.
    pub fn points_buffered(&self) -> u64 {
        self.shard.points
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
        let db = std::sync::Arc::new(TsDb::new());
        let mut stripe = db.stripe(u64::MAX);
        stripe.write(&point("akl", 130.0, 10));
        stripe.write(&point("akl", 131.0, 20));
        assert_eq!(stripe.points_buffered(), 2);
        assert_eq!(db.points_ingested(), 0);
        assert_eq!(db.series_count("latency"), 0);
    }

    #[test]
    fn merge_disjoint_series_moves_runs() {
        let db = TsDb::new();
        let mut a = IngestShard::default();
        let mut b = IngestShard::default();
        for i in 0..100u64 {
            a.insert(Cow::Owned(point("akl", i as f64, i * 10)));
            b.insert(Cow::Owned(point("lax", i as f64, i * 10 + 5)));
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
        let mut shard = IngestShard::default();
        shard.insert(Cow::Owned(point("akl", 1.0, 100)));
        shard.insert(Cow::Owned(point("akl", 3.0, 300)));
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
        let mut shards = [IngestShard::default(), IngestShard::default()];
        let mut pts = Vec::new();
        for i in 0..50u64 {
            // Deterministic scramble: out-of-order and duplicate stamps.
            let ts = (i * 37) % 100;
            pts.push(point(if i % 2 == 0 { "akl" } else { "lax" }, i as f64, ts));
        }
        for (i, p) in pts.iter().enumerate() {
            direct.write(p);
            if let Some(s) = shards.get_mut(i % 2) {
                s.insert(Cow::Borrowed(p));
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
        assert_eq!(db.merge_shard(IngestShard::default()), 0);
        assert_eq!(db.points_ingested(), 0);
    }
}
