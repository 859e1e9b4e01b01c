//! The ways samples enter the store: typed row buffers and per-writer
//! stripes.
//!
//! A `Rows` buffer holds rows per series and field list, in the store's
//! column order. Each of its series is named once, on first sight (from
//! a point: `Rows::resolve`), and then takes `(ts, values)` rows with no
//! point, series key or name comparison. [`crate::TsDb::write`] and
//! [`crate::TsDb::write_batch`] fill one and fold it into the shared
//! store once per call.
//!
//! A [`StripeWriter`] is the dataplane's per-writer `Rows`, folded in once
//! per rotation. Its series and their buffers' room outlive rotations,
//! and the store keeps each series' position under the stripe's identity,
//! so a rotation re-builds no name and re-hashes no key. One global write
//! lock taken per point would serialize every producer (the measured
//! `tsdb_write_lock` scaling ceiling); the pipeline's enrichment workers
//! each write through a stripe instead. Snapshot restore builds whole
//! stored series in an [`IngestShard`].
//!
//! No buffer seals. Rows go onto the tail of the stored block with the
//! same field list (every `latency` series carries a `queue` tag, so
//! stripes rarely overlap) through `Block::append_rows`, and a stable
//! sort, skipped when the rows are already in order, puts the tail in
//! time order. Ties keep the shared store's insertion order: rows already
//! in the store stay ahead of incoming equal-timestamp rows, exactly as
//! writing the points one by one would have left them.

use crate::point::{series_key, Point};
use crate::store::{Measurements, SeriesName};
use std::collections::HashMap;

/// Whole stored series, built outside the store and folded in by one
/// merge (`TsDb::merge_shard`): what snapshot restore fills. Shards never
/// seal; sealing happens in the merge.
#[derive(Debug, Default)]
pub(crate) struct IngestShard {
    pub(crate) measurements: Measurements,
    pub(crate) points: u64,
}

/// One series and field list of a `Rows` buffer: its names and the rows
/// it took since the buffer last rotated, in arrival order, values row by
/// row in field order.
#[derive(Debug)]
pub(crate) struct StripeSeries {
    pub(crate) name: SeriesName,
    pub(crate) ts: Vec<u64>,
    pub(crate) values: Vec<f64>,
}

/// Rows of any number of series, each named once.
#[derive(Debug, Default)]
pub(crate) struct Rows {
    pub(crate) series: Vec<StripeSeries>,
    /// Series key → the series with that key, one per field list.
    index: HashMap<String, Vec<usize>>,
    /// Scratch series key, reused so a known series allocates nothing.
    key: String,
    pub(crate) points: u64,
}

impl Rows {
    /// The series of `point`'s measurement, tags and field list (its
    /// values and timestamp are ignored), added on first sight. A known
    /// series costs a lookup by `&str` and a name comparison.
    pub(crate) fn resolve(&mut self, point: &Point) -> usize {
        series_key(&point.measurement, &point.tags, &mut self.key);
        let names = || point.fields.iter().map(|(name, _)| name);
        let same = |s: &StripeSeries| {
            s.name.measurement == point.measurement && s.name.fields.iter().eq(names())
        };
        let known = self.index.get(self.key.as_str()).into_iter().flatten().copied();
        if let Some(at) = known.into_iter().find(|&at| self.series.get(at).is_some_and(same)) {
            return at;
        }
        let at = self.series.len();
        let name = SeriesName::of(point, &self.key);
        self.series.push(StripeSeries { name, ts: Vec::new(), values: Vec::new() });
        // alloc-ok: a series' index slot, on its first sight only.
        self.index.entry(self.key.clone()).or_default().push(at);
        at
    }

    /// Append one row at `ts` to series `at`: `values` in its field
    /// order. Missing values read NaN and extra ones are dropped, so every
    /// row stays whole.
    pub(crate) fn append(&mut self, at: usize, ts: u64, values: impl IntoIterator<Item = f64>) {
        let Some(s) = self.series.get_mut(at) else {
            return;
        };
        s.ts.push(ts);
        let values = values.into_iter().chain(core::iter::repeat(f64::NAN));
        for value in values.take(s.name.fields.len()) {
            s.values.push(value);
        }
        self.points = self.points.saturating_add(1);
    }

    /// Buffer one point: [`Rows::resolve`], then [`Rows::append`].
    pub(crate) fn insert(&mut self, point: &Point) {
        let at = self.resolve(point);
        self.append(at, point.timestamp_ns, point.fields.iter().map(|&(_, v)| v));
    }

    /// Start the next rotation once the rows are merged. Every series
    /// keeps its buffers' room, except one that took no row in this
    /// rotation: it gives them back, so the buffer holds memory for the
    /// rows of one rotation, not for every series it ever saw.
    fn rotate(&mut self) {
        for s in &mut self.series {
            if s.ts.is_empty() {
                (s.ts, s.values) = (Vec::new(), Vec::new());
            } else {
                s.ts.clear();
                s.values.clear();
            }
        }
        self.points = 0;
    }
}

/// A handle on one series of a [`StripeWriter`], from
/// [`StripeWriter::resolve`]: what [`StripeWriter::append`] takes in place
/// of a point. Valid for the stripe that gave it out, for the stripe's
/// whole life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesHandle(usize);

/// A per-writer ingest stripe: rows buffered per series, folded into the
/// shared store every `flush_points` rows. This is the steady-state
/// dataplane write path. A writer resolves a series once
/// ([`StripeWriter::resolve`]) and then appends `(ts, values)` rows to it
/// ([`StripeWriter::append`]), touching only writer-local memory and
/// comparing no name; the store lock is taken once per flush. The store
/// resolves each stripe series to its position once and keeps it under
/// the stripe's identity, as it does for a `SeriesSet`.
///
/// Callers own the flush discipline: un-flushed points are not counted
/// in [`crate::store::TsDb::points_ingested`], so a writer that exits
/// without [`StripeWriter::flush`] shows up as a conservation-identity
/// violation, never as silent loss.
pub struct StripeWriter {
    db: std::sync::Arc<crate::store::TsDb>,
    /// Identity under which the store keeps this stripe's positions.
    id: u64,
    rows: Rows,
    flush_points: u64,
}

impl StripeWriter {
    pub(crate) fn new(db: std::sync::Arc<crate::store::TsDb>, flush_points: u64) -> StripeWriter {
        StripeWriter {
            db,
            id: crate::store::next_writer_id(),
            rows: Rows::default(),
            flush_points: flush_points.max(1),
        }
    }

    /// The handle of `point`'s series and field list (its values and
    /// timestamp are ignored), added on first sight. A known series costs
    /// a lookup by `&str` and a name comparison, no allocation.
    pub fn resolve(&mut self, point: &Point) -> SeriesHandle {
        SeriesHandle(self.rows.resolve(point))
    }

    /// Append one row at `ts` to `series`: `values` in the order of the
    /// field list it was resolved with. Folds the stripe into the store
    /// when the flush threshold is reached, and returns the number of
    /// points merged by this call (0 unless a flush triggered) so callers
    /// can keep exact merge accounting.
    pub fn append(&mut self, series: SeriesHandle, ts: u64, values: impl IntoIterator<Item = f64>) -> u64 {
        self.rows.append(series.0, ts, values);
        if self.rows.points >= self.flush_points {
            self.flush()
        } else {
            0
        }
    }

    /// Buffer one point: [`StripeWriter::resolve`], then
    /// [`StripeWriter::append`]. Returns the points merged by this call.
    pub fn write(&mut self, point: &Point) -> u64 {
        let series = self.resolve(point);
        self.append(series, point.timestamp_ns, point.fields.iter().map(|&(_, v)| v))
    }

    /// Fold everything buffered into the store now, under one store lock,
    /// and start the next rotation. Returns points merged. Must be called
    /// before the writer exits.
    pub fn flush(&mut self) -> u64 {
        let merged = self.db.merge_rows(Some(self.id), &self.rows);
        self.rows.rotate();
        merged
    }

    /// Points buffered in the stripe, not yet merged.
    pub fn points_buffered(&self) -> u64 {
        self.rows.points
    }
}

impl Drop for StripeWriter {
    /// The store forgets this stripe's positions: no one appends under
    /// its identity again.
    fn drop(&mut self) {
        self.db.forget_writer(self.id);
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
        let db = std::sync::Arc::new(TsDb::new());
        let (mut a, mut b) = (db.stripe(u64::MAX), db.stripe(u64::MAX));
        for i in 0..100u64 {
            a.write(&point("akl", i as f64, i * 10));
            b.write(&point("lax", i as f64, i * 10 + 5));
        }
        assert_eq!(a.flush(), 100);
        assert_eq!(b.flush(), 100);
        assert_eq!(db.points_ingested(), 200);
        assert_eq!(db.series_count("latency"), 2);
        let agg = db.query(&Query::range("latency", "total_ms", 0, 10_000))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 200);
    }

    #[test]
    fn merge_interleaves_overlapping_series_in_time_order() {
        let db = std::sync::Arc::new(TsDb::new());
        db.write(&point("akl", 0.0, 0));
        db.write(&point("akl", 2.0, 200));
        let mut stripe = db.stripe(u64::MAX);
        stripe.write(&point("akl", 1.0, 100));
        stripe.write(&point("akl", 3.0, 300));
        stripe.flush();
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
        let sharded = std::sync::Arc::new(TsDb::new());
        let mut stripes = [sharded.stripe(u64::MAX), sharded.stripe(u64::MAX)];
        let mut pts = Vec::new();
        for i in 0..50u64 {
            // Deterministic scramble: out-of-order and duplicate stamps.
            let ts = (i * 37) % 100;
            pts.push(point(if i % 2 == 0 { "akl" } else { "lax" }, i as f64, ts));
        }
        for (i, p) in pts.iter().enumerate() {
            direct.write(p);
            if let Some(s) = stripes.get_mut(i % 2) {
                s.write(p);
            }
        }
        for s in &mut stripes {
            s.flush();
        }
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
