//! The time-series store: a two-phase (active → sealed) series
//! lifecycle, tag-filtered bucketed queries with bounded parallel
//! fan-out, and retention.
//!
//! A series stores its rows in one block per distinct field list
//! (DESIGN.md §16): one timestamp column shared by one value column per
//! field. Each block has two phases: a mutable **active** tail — plain
//! sorted `Vec`s that each merge extends, stably re-sorting them only
//! when the merge brings stragglers — and an immutable **sealed** prefix
//! of Gorilla-compressed chunks (`compress::Chunk`), cut one
//! [`seal::CHUNK_LEN`]-row chunk at a time as soon as the tail holds
//! one, that queries decode in place. Samples enter the store through
//! one append, one short write-lock hold per batch instead of one per
//! sample: a writer of points buffers them as typed rows per series and
//! appends each series' rows (a [`crate::StripeWriter`] once per
//! rotation), a [`SeriesSet`] (a fixed list of series) appends one row
//! per series, and snapshot restore folds in whole series
//! (`TsDb::merge_shard`). All resolve a series with `Store::series_at`
//! and append with `Block::append_rows`; a stripe and a set resolve each
//! series once and keep its position.

use crate::agg::Aggregate;
use crate::compress::Chunk;
use crate::point::{series_key, Point};
use crate::seal;
use crate::sharded::{IngestShard, Rows, StripeSeries};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};

/// Upper bound on query fan-out threads, whatever the caller asks for.
pub const MAX_QUERY_WORKERS: usize = 16;

/// The rows of one series that carry one field list, in columns: row `i`
/// has timestamp `ts[i]` and value `cols[j][i]` for field `names[j]`.
/// Sealed chunks hold the older rows, the tail the newest. An ingest
/// shard holds the same type and only appends rows in arrival order; the
/// merge sorts and seals.
#[derive(Debug, Default)]
pub(crate) struct Block {
    /// Field names in column order, as the block's first point gave them.
    pub(crate) names: Vec<String>,
    sealed: Vec<Chunk>,
    pub(crate) ts: Vec<u64>,
    pub(crate) cols: Vec<Vec<f64>>,
}

impl Block {
    /// An unsealed block of the given columns.
    pub(crate) fn new(names: Vec<String>, ts: Vec<u64>, cols: Vec<Vec<f64>>) -> Block {
        Block {
            names,
            sealed: Vec::new(),
            ts,
            cols,
        }
    }

    /// Append rows to the tail and settle it: `ts` holds their
    /// timestamps, and `column(names, k, dst)` appends the rows' values of
    /// stored column `k` to `dst` with [`extend_tail`] (`names` are the
    /// block's field names). Every writer ends here: a restored block
    /// ([`Series::absorb`]) and a writer's typed rows
    /// ([`TsDb::append_series`]).
    fn append_rows(
        &mut self,
        ts: &[u64],
        mut column: impl FnMut(&[String], usize, &mut Vec<f64>),
        totals: &mut StorageStats,
    ) {
        let from = self.ts.len();
        extend_tail(&mut self.ts, ts.iter().copied());
        for (k, dst) in self.cols.iter_mut().enumerate() {
            column(&self.names, k, dst);
        }
        totals.active_points += ts.len() as u64 * self.width();
        self.settle(from, totals);
    }

    /// Restore time order after rows were appended at `from`, then seal
    /// every whole chunk. The sort is stable, so rows already stored stay
    /// ahead of incoming ones on timestamp ties and incoming ties keep
    /// their arrival order: the order point-by-point writes would leave.
    fn settle(&mut self, from: usize, totals: &mut StorageStats) {
        let appended = self.ts.get(from.saturating_sub(1)..).unwrap_or(&[]);
        if !appended.is_sorted() {
            // alloc-ok: the tail's row order, once per merge that brings
            // stragglers, never per point.
            let mut order: Vec<usize> = (0..self.ts.len()).collect();
            order.sort_by_key(|&i| self.ts.get(i).copied());
            permute_rows(&mut self.ts, &mut self.cols, &mut order);
        }
        if self.ts.len() >= seal::CHUNK_LEN {
            self.seal_tail(false, totals);
        }
    }

    /// Seal the tail's whole chunks (all of it with `force`) and move
    /// their samples from active to sealed in `totals`. Returns rows
    /// sealed.
    fn seal_tail(&mut self, force: bool, totals: &mut StorageStats) -> u64 {
        let chunks = self.sealed.len();
        let rows = seal::seal_rows(&mut self.ts, &mut self.cols, &mut self.sealed, force);
        let points = rows * self.width();
        totals.active_points -= points;
        totals.sealed_points += points;
        totals.sealed_bytes += sealed_bytes(self.sealed.get(chunks..).unwrap_or(&[]));
        rows
    }

    /// Drop every row older than `cutoff`, from the sealed chunks and the
    /// tail, and take them out of `totals`. Returns samples dropped.
    fn retain_from(&mut self, cutoff: u64, totals: &mut StorageStats) -> u64 {
        let bytes = sealed_bytes(&self.sealed);
        let sealed_rows = seal::retain_chunks(&mut self.sealed, self.names.len(), cutoff);
        let keep_from = self.ts.partition_point(|&t| t < cutoff);
        self.ts.drain(..keep_from);
        for col in &mut self.cols {
            col.drain(..keep_from);
        }
        totals.sealed_points -= sealed_rows * self.width();
        totals.active_points -= keep_from as u64 * self.width();
        totals.sealed_bytes = totals.sealed_bytes - bytes + sealed_bytes(&self.sealed);
        (sealed_rows + keep_from as u64) * self.width()
    }

    /// Columns per row.
    fn width(&self) -> u64 {
        self.names.len() as u64
    }

    /// Column indices holding field `name` (several if the field list
    /// repeats it).
    fn columns_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        self.names.iter().enumerate().filter(move |(_, n)| *n == name).map(|(j, _)| j)
    }

    /// Visit column `col`'s samples with `first <= t <= last` in storage
    /// order: sealed chunks first (each internally time-sorted), then the
    /// active tail.
    fn scan(&self, col: usize, first: u64, last: u64, f: &mut impl FnMut(u64, f64)) {
        for chunk in &self.sealed {
            if chunk.end_ns() < first || chunk.start_ns() > last {
                continue;
            }
            for (t, v) in chunk.iter(col) {
                if t > last {
                    break;
                }
                if t >= first {
                    f(t, v);
                }
            }
        }
        let lo = self.ts.partition_point(|&t| t < first);
        let values = self.cols.get(col).and_then(|c| c.get(lo..)).unwrap_or(&[]);
        for (&t, &v) in self.ts.get(lo..).unwrap_or(&[]).iter().zip(values) {
            if t > last {
                break;
            }
            f(t, v);
        }
    }

    /// Whether storage order is time order: no chunk starts before the
    /// previous one ends, nor the tail before the last chunk ends. Only a
    /// straggler older than an already sealed row breaks it.
    fn in_time_order(&self) -> bool {
        let ends = self.sealed.iter().map(Chunk::end_ns);
        let next_starts = (self.sealed.iter().skip(1).map(Chunk::start_ns))
            .chain(self.ts.first().copied());
        ends.zip(next_starts).all(|(end, start)| end <= start)
    }

    /// Rows in sealed chunks and in the tail.
    fn rows(&self) -> (u64, u64) {
        let sealed: usize = self.sealed.iter().map(Chunk::rows).sum();
        (sealed as u64, self.ts.len() as u64)
    }
}

/// Compressed payload bytes of `chunks`.
fn sealed_bytes(chunks: &[Chunk]) -> u64 {
    chunks.iter().map(|c| c.encoded_bytes() as u64).sum()
}

/// Append `src` to a tail column. Capacity doubles up to one chunk and
/// grows exactly past it: the tail seals at [`seal::CHUNK_LEN`] rows, so
/// its capacity settles at one chunk plus the largest merge's rows
/// instead of the next power of two.
fn extend_tail<T>(dst: &mut Vec<T>, src: impl ExactSizeIterator<Item = T>) {
    let need = dst.len() + src.len();
    if need > dst.capacity() {
        let doubled = (2 * dst.capacity()).min(seal::CHUNK_LEN);
        dst.reserve_exact(need.max(doubled) - dst.len());
    }
    // alloc-ok: within the capacity reserved above, once per column per
    // merge or exported row.
    dst.extend(src);
}

/// Reorder the tail's rows in place so that row `i` becomes the old row
/// `order[i]`, in O(rows): each cycle of the permutation is rotated once
/// through the timestamps and every column, then marked done by pointing
/// its entries at themselves.
fn permute_rows(ts: &mut [u64], cols: &mut [Vec<f64>], order: &mut [usize]) {
    for start in 0..order.len() {
        if order.get(start) == Some(&start) {
            continue;
        }
        rotate_cycle(ts, order, start);
        for col in cols.iter_mut() {
            rotate_cycle(col, order, start);
        }
        let mut k = start;
        while let Some(slot) = order.get_mut(k) {
            k = core::mem::replace(slot, k);
            if k == start {
                break;
            }
        }
    }
}

/// Move `v[order[k]]` into `v[k]` along the cycle through `start`.
fn rotate_cycle<T: Copy>(v: &mut [T], order: &[usize], start: usize) {
    let Some(&first) = v.get(start) else {
        return;
    };
    let mut k = start;
    loop {
        let src = order.get(k).copied().unwrap_or(start);
        let value = if src == start { first } else { v.get(src).copied().unwrap_or(first) };
        if let Some(slot) = v.get_mut(k) {
            *slot = value;
        }
        if src == start {
            return;
        }
        k = src;
    }
}

/// The stored column that takes column `j` of an incoming field list:
/// the one with the same name, and for a repeated name the same
/// occurrence of it.
fn stored_column(stored: &[String], incoming: &[String], j: usize) -> Option<usize> {
    let name = incoming.get(j)?;
    let nth = incoming.iter().take(j).filter(|&n| n == name).count();
    stored
        .iter()
        .enumerate()
        .filter(|&(_, n)| n == name)
        .nth(nth)
        .map(|(k, _)| k)
}

/// Whether rows with field list `incoming` fit a block of `stored`: the
/// same names, in any order.
fn same_fields(stored: &[String], incoming: &[String]) -> bool {
    stored.len() == incoming.len()
        && (0..incoming.len()).all(|j| stored_column(stored, incoming, j).is_some())
}

/// One series: its tag set and one block per distinct field list.
#[derive(Debug, Default)]
pub(crate) struct Series {
    pub(crate) tags: Vec<(String, String)>,
    pub(crate) blocks: Vec<Block>,
}

impl Series {
    /// Fold a shard block into the block with the same field names, in
    /// any order, else keep it as a new block.
    fn absorb(&mut self, incoming: Block, totals: &mut StorageStats) {
        match self.blocks.iter_mut().find(|b| same_fields(&b.names, &incoming.names)) {
            Some(block) => {
                let in_order = block.names == incoming.names;
                let column = |names: &[String], k: usize, dst: &mut Vec<f64>| {
                    let source = &incoming.names;
                    let j = if in_order { Some(k) } else { stored_column(source, names, k) };
                    let values = j.and_then(|j| incoming.cols.get(j));
                    extend_tail(dst, values.map_or(&[][..], Vec::as_slice).iter().copied());
                };
                block.append_rows(&incoming.ts, column, totals);
            }
            None => {
                let mut block = incoming;
                totals.active_points += block.ts.len() as u64 * block.width();
                block.settle(0, totals);
                self.blocks.push(block);
            }
        }
    }

    /// The block holding field list `fields` (in any order), opened empty
    /// on the list's first sight in the series; none for an empty list,
    /// whose rows store nothing. Returns its position and whether its
    /// columns are in the order of `fields`.
    fn block_for(&mut self, fields: &[String]) -> (Option<usize>, bool) {
        if fields.is_empty() {
            return (None, true);
        }
        if let Some(at) = self.blocks.iter().position(|b| same_fields(&b.names, fields)) {
            let in_order = self.blocks.get(at).is_some_and(|b| b.names == fields);
            return (Some(at), in_order);
        }
        // alloc-ok: a series' block, on its field list's first sight only.
        self.blocks.push(Block::new(fields.to_vec(), Vec::new(), vec![Vec::new(); fields.len()]));
        (Some(self.blocks.len() - 1), true)
    }

    /// Every (block, column) holding field `name`.
    fn columns<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Block, usize)> + 'a {
        self.blocks
            .iter()
            .flat_map(move |b| b.columns_named(name).map(move |j| (b, j)))
    }

    /// Visit field `name`'s samples with `first <= t <= last` in time
    /// order, ties in storage order: by block, then column (a repeated
    /// name), then row. A field held in one column whose storage order
    /// is time order streams straight from it; otherwise its samples are
    /// gathered and stably sorted.
    fn for_each_sample(&self, name: &str, first: u64, last: u64, f: &mut impl FnMut(u64, f64)) {
        let mut columns = self.columns(name);
        match (columns.next(), columns.next()) {
            (None, _) => {}
            (Some((block, col)), None) if block.in_time_order() => {
                block.scan(col, first, last, f);
            }
            _ => {
                let mut samples = Vec::new();
                for (block, col) in self.columns(name) {
                    block.scan(col, first, last, &mut |t, v| samples.push((t, v)));
                }
                samples.sort_by_key(|&(t, _)| t);
                for (t, v) in samples {
                    f(t, v);
                }
            }
        }
    }
}

/// measurement → series key → series: a restore shard's layout.
pub(crate) type Measurements = HashMap<String, HashMap<String, Series>>;

/// Hands out [`SeriesSet`] and [`crate::StripeWriter`] identities, unique
/// in the process.
static NEXT_WRITER: AtomicU64 = AtomicU64::new(1);

/// A fresh writer identity, under which stores keep its positions.
pub(crate) fn next_writer_id() -> u64 {
    NEXT_WRITER.fetch_add(1, Ordering::Relaxed)
}

/// The store's contents. Every series lives in one slab and is found by
/// measurement and series key through `index`. The series of a
/// [`SeriesSet`] or a [`crate::StripeWriter`] are resolved once to their
/// slab positions and block positions, kept here in `sets` by writer
/// identity; whatever moves a position (retention removing a series or a
/// block) forgets them all, and a restored store starts without any, so
/// a writer never writes through a stale position.
#[derive(Debug, Default)]
struct Store {
    index: HashMap<String, HashMap<String, usize>>,
    series: Vec<Series>,
    /// Per writer identity: where each of its series' rows go, by the
    /// writer's series number; `None` until the series first takes rows.
    sets: HashMap<u64, Vec<Option<Position>>>,
    /// Running storage totals, kept by every write under the store lock.
    totals: StorageStats,
}

impl Store {
    /// The slab position of `measurement`'s series `key`, adding the
    /// series with the tags `tags()` on first sight. Every writer resolves
    /// its series here: a merge for each shard series, a [`SeriesSet`]
    /// once per declared series and store.
    fn series_at(
        &mut self,
        measurement: &str,
        key: Cow<'_, str>,
        tags: impl FnOnce() -> Vec<(String, String)>,
    ) -> usize {
        let keys = self.index.get(measurement);
        if let Some(&at) = keys.and_then(|keys| keys.get(key.as_ref())) {
            return at;
        }
        let at = self.series.len();
        self.series.push(Series { tags: tags(), blocks: Vec::new() });
        match self.index.get_mut(measurement) {
            Some(keys) => keys.insert(key.into_owned(), at),
            // alloc-ok: a new measurement's index, on its first sight only.
            None => self.index.entry(measurement.into()).or_default().insert(key.into_owned(), at),
        };
        at
    }

    /// Where rows of `measurement`'s series `key` with field list `fields`
    /// go, adding the series (tags `tags()`) and its block as needed.
    fn position(
        &mut self,
        measurement: &str,
        key: &str,
        tags: impl FnOnce() -> Vec<(String, String)>,
        fields: &[String],
    ) -> Position {
        let series = self.series_at(measurement, Cow::Borrowed(key), tags);
        let (block, in_order) = match self.series.get_mut(series) {
            Some(s) => s.block_for(fields),
            None => (None, true),
        };
        Position { series, block, in_order }
    }

    /// Append rows at `ts` to the block at `at`, whose writer's field
    /// list is `fields`: `column(j, dst)` appends the rows' values of
    /// field `j` to `dst` with [`extend_tail`].
    fn append_at(
        &mut self,
        at: Position,
        fields: &[String],
        ts: &[u64],
        mut column: impl FnMut(usize, &mut Vec<f64>),
    ) {
        let Position { series, block, in_order } = at;
        let series = self.series.get_mut(series);
        let Some(block) = series.and_then(|s| s.blocks.get_mut(block?)) else {
            // A field-less series stores nothing; positions never go
            // stale (they are dropped whenever they move).
            return;
        };
        let column = |names: &[String], k: usize, dst: &mut Vec<f64>| {
            let j = if in_order { Some(k) } else { stored_column(fields, names, k) };
            if let Some(j) = j {
                column(j, dst);
            }
        };
        block.append_rows(ts, column, &mut self.totals);
    }

    /// `measurement`'s series with their keys, in no particular order.
    fn measurement(&self, measurement: &str) -> impl Iterator<Item = (&String, &Series)> {
        let keys = self.index.get(measurement).into_iter().flatten();
        keys.filter_map(|(key, &at)| Some((key, self.series.get(at)?)))
    }

    /// Remove series without blocks and renumber the rest. Returns
    /// whether any position changed.
    fn drop_empty_series(&mut self) -> bool {
        if self.series.iter().all(|s| !s.blocks.is_empty()) {
            return false;
        }
        let mut kept = 0;
        let moved: Vec<Option<usize>> = (self.series.iter())
            .map(|s| {
                let at = (!s.blocks.is_empty()).then_some(kept);
                kept += usize::from(at.is_some());
                at
            })
            .collect();
        self.series.retain(|s| !s.blocks.is_empty());
        for keys in self.index.values_mut() {
            keys.retain(|_, at| match moved.get(*at).copied().flatten() {
                Some(to) => {
                    *at = to;
                    true
                }
                None => false,
            });
        }
        self.index.retain(|_, keys| !keys.is_empty());
        true
    }
}

/// A tag-filtered, time-bounded, optionally bucketed aggregate query.
#[derive(Debug, Clone)]
pub struct Query {
    /// Measurement to read.
    pub measurement: String,
    /// Field to aggregate.
    pub field: String,
    /// Required tag values (all must match). Empty = all series.
    pub tag_filters: Vec<(String, String)>,
    /// Inclusive start of the time range (ns).
    pub start_ns: u64,
    /// Exclusive end of the time range (ns).
    pub end_ns: u64,
    /// Bucket width; `None` aggregates the whole range as one bucket.
    pub bucket_ns: Option<u64>,
}

impl Query {
    /// A whole-range query over one measurement/field.
    pub fn range(measurement: &str, field: &str, start_ns: u64, end_ns: u64) -> Query {
        Query {
            measurement: measurement.into(),
            field: field.into(),
            tag_filters: Vec::new(),
            start_ns,
            end_ns,
            bucket_ns: None,
        }
    }

    /// Add a required tag value.
    pub fn with_tag(mut self, key: &str, value: &str) -> Query {
        self.tag_filters.push((key.into(), value.into()));
        self
    }

    /// Bucket the range into windows of `bucket_ns`.
    pub fn with_buckets(mut self, bucket_ns: u64) -> Query {
        assert!(bucket_ns > 0, "bucket width must be positive");
        self.bucket_ns = Some(bucket_ns);
        self
    }

    fn matches(&self, series: &Series) -> bool {
        self.tag_filters
            .iter()
            .all(|(k, v)| series.tags.iter().any(|(sk, sv)| sk == k && sv == v))
    }

    fn bucket_width(&self) -> u64 {
        self.bucket_ns
            .unwrap_or(self.end_ns.saturating_sub(self.start_ns))
            .max(1)
    }
}

/// One bucket of a query result.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    /// Bucket start time (ns).
    pub start_ns: u64,
    /// Aggregates of the samples falling in the bucket; `None` if empty.
    pub agg: Option<Aggregate>,
}

/// Storage accounting for the two shard phases — what the pipeline
/// exports as `ruru_self` gauges and the bench reports as bytes/point.
/// The store keeps it as running totals, so reading it costs O(1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Samples held in sealed compressed chunks.
    pub sealed_points: u64,
    /// Compressed payload bytes across all sealed chunks.
    pub sealed_bytes: u64,
    /// Samples still in mutable active tails (8 bytes each in memory,
    /// plus one 8-byte timestamp per row of a block).
    pub active_points: u64,
}

/// The database. All methods take `&self`. Steady-state ingest goes
/// through per-writer stripes ([`TsDb::stripe`]); the internal lock is
/// only taken whole-shard at merge points and by control-plane paths
/// (telemetry export, queries, retention).
pub struct TsDb {
    /// The series and their index. Every access recovers a poisoned
    /// lock: the store keeps serving after a holder panics, which can at
    /// worst lose the samples that holder was moving.
    inner: RwLock<Store>,
    ingested: AtomicU64,
    /// `Store::totals` as the last write under the store lock left them,
    /// so [`TsDb::storage_stats`] never takes the store lock.
    totals: Mutex<StorageStats>,
}

impl TsDb {
    /// An empty database.
    pub fn new() -> TsDb {
        TsDb {
            inner: RwLock::new(Store::default()),
            ingested: AtomicU64::new(0),
            totals: Mutex::new(StorageStats::default()),
        }
    }

    /// Publish the store's running totals; called by every write while
    /// it still holds the store lock, so publications keep write order.
    fn publish_totals(&self, store: &Store) {
        *self.totals.lock().unwrap_or_else(PoisonError::into_inner) = store.totals;
    }

    /// Ingest one point under the store lock — the control-plane path
    /// (line protocol, tests). Dataplane writers use [`TsDb::stripe`],
    /// which takes the lock once per flush instead.
    pub fn write(&self, point: &Point) {
        let mut rows = Rows::default();
        rows.insert(point);
        self.merge_rows(None, &rows);
    }

    /// Ingest a batch of points under one lock hold. Returns the number of
    /// points written.
    pub fn write_batch(&self, points: Vec<Point>) -> u64 {
        let mut rows = Rows::default();
        for point in &points {
            rows.insert(point);
        }
        self.merge_rows(None, &rows)
    }

    /// Fold one [`IngestShard`] of whole series, a restored snapshot, into
    /// the store under one write lock: each shard block's rows go onto
    /// the tail of the stored block with the same field list (or move in
    /// as a new block), the tail is put back in time order and every
    /// whole chunk in it is sealed. Returns the shard's points, which are
    /// also added to [`TsDb::points_ingested`].
    pub(crate) fn merge_shard(&self, shard: IngestShard) -> u64 {
        let points = shard.points;
        if points == 0 {
            return 0;
        }
        // lock-ok: one short write-lock hold per shard is the amortised
        // merge contract of every ingest path.
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let store = &mut *inner;
        for (measurement, incoming) in shard.measurements {
            for (key, mut series) in incoming {
                let tags = || core::mem::take(&mut series.tags);
                let at = store.series_at(&measurement, Cow::Owned(key), tags);
                if let Some(stored) = store.series.get_mut(at) {
                    for block in series.blocks {
                        stored.absorb(block, &mut store.totals);
                    }
                }
            }
        }
        self.publish_totals(store);
        self.ingested.fetch_add(points, Ordering::Relaxed);
        points
    }

    /// A private per-writer ingest stripe that folds itself into this
    /// store every `flush_points` buffered points. The steady-state
    /// write path touches only writer-local memory.
    pub fn stripe(self: &std::sync::Arc<Self>, flush_points: u64) -> crate::sharded::StripeWriter {
        crate::sharded::StripeWriter::new(std::sync::Arc::clone(self), flush_points)
    }

    /// Append every series' buffered rows of `rows` (see
    /// [`TsDb::append_series`]). Returns the rows appended.
    pub(crate) fn merge_rows(&self, writer: Option<u64>, rows: &Rows) -> u64 {
        let column = |_, s: &StripeSeries, j: usize, dst: &mut Vec<f64>| {
            let width = s.name.fields.len().max(1);
            extend_tail(dst, s.values.iter().skip(j).step_by(width).copied());
        };
        self.append_series(writer, &rows.series, |s| &s.name, |s| &s.ts, column)
    }

    /// Append rows to each of a writer's series under one store lock: the
    /// `i`-th of `series`, named `name(..)`, takes rows at `ts(..)`, and
    /// `column(i, .., j, dst)` appends their values of field `j` to `dst`
    /// with [`extend_tail`]. A series is resolved to its position on its
    /// first rows; the positions of writer `writer` are kept under its
    /// identity until retention moves them. Returns the rows appended,
    /// which also count in [`TsDb::points_ingested`] (one point per row).
    fn append_series<'a, T>(
        &self,
        writer: Option<u64>,
        series: &'a [T],
        name: impl Fn(&'a T) -> &'a SeriesName,
        ts: impl Fn(&'a T) -> &'a [u64],
        mut column: impl FnMut(usize, &'a T, usize, &mut Vec<f64>),
    ) -> u64 {
        let rows: u64 = series.iter().map(|s| ts(s).len() as u64).sum();
        if rows == 0 {
            return 0;
        }
        // lock-ok: one short write-lock hold per batch of rows (a stripe
        // rotation, a collection) is the amortised merge contract of every
        // ingest path; sealing a whole chunk allocates under it.
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let store = &mut *inner;
        let mut at = writer.and_then(|id| store.sets.remove(&id)).unwrap_or_default();
        if at.len() < series.len() {
            // alloc-ok: a position slot per series, once per new series
            // and after retention moved positions.
            at.resize(series.len(), None);
        }
        for (i, (s, at)) in series.iter().zip(&mut at).enumerate() {
            let (name, ts) = (name(s), ts(s));
            if ts.is_empty() {
                continue;
            }
            let pos = match *at {
                Some(pos) => pos,
                None => {
                    // alloc-ok: a series' tags, once per store it is new in.
                    let tags = || name.tags.clone();
                    let pos = store.position(&name.measurement, &name.key, tags, &name.fields);
                    *at = Some(pos);
                    pos
                }
            };
            store.append_at(pos, &name.fields, ts, |j, dst| column(i, s, j, dst));
        }
        if let Some(id) = writer {
            store.sets.insert(id, at);
        }
        self.publish_totals(store);
        self.ingested.fetch_add(rows, Ordering::Relaxed);
        rows
    }

    /// Forget the positions kept for writer `id`, which writes no more.
    pub(crate) fn forget_writer(&self, id: u64) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        inner.sets.remove(&id);
    }

    /// Total points ingested (including later-retained ones).
    pub fn points_ingested(&self) -> u64 {
        self.ingested.load(Ordering::Relaxed)
    }

    /// Number of distinct series in a measurement.
    pub fn series_count(&self, measurement: &str) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .index
            .get(measurement)
            .map_or(0, HashMap::len)
    }

    /// Force-seal every active tail into compressed chunks (retention
    /// horizon flushes, snapshot sizing, benchmarks). Returns samples
    /// sealed. Steady-state sealing happens at merge time, one whole
    /// chunk at a time; this drains the partial tails too.
    pub fn seal(&self) -> u64 {
        // lock-ok: cold control-plane compaction — draining tails into
        // compressed chunks holds the store lock by design; never on the
        // per-point ingest path.
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let store = &mut *inner;
        let mut sealed = 0u64;
        for b in store.series.iter_mut().flat_map(|s| &mut s.blocks) {
            sealed += b.seal_tail(true, &mut store.totals) * b.width();
        }
        self.publish_totals(store);
        sealed
    }

    /// Storage accounting across both shard phases: the running totals,
    /// read in O(1) without the store lock.
    pub fn storage_stats(&self) -> StorageStats {
        *self.totals.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// [`TsDb::storage_stats`] recounted by walking every block and chunk:
    /// the reference the running totals are tested against.
    #[cfg(test)]
    pub(crate) fn storage_walk(&self) -> StorageStats {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut stats = StorageStats::default();
        for b in inner.series.iter().flat_map(|s| &s.blocks) {
            let (sealed, active) = b.rows();
            stats.sealed_points += sealed * b.width();
            stats.active_points += active * b.width();
            stats.sealed_bytes += sealed_bytes(&b.sealed);
        }
        stats
    }

    /// Execute a query single-threaded; returns one [`Bucket`] per
    /// window (a single bucket for un-bucketed queries).
    pub fn query(&self, q: &Query) -> Vec<Bucket> {
        self.query_parallel(q, 1)
    }

    /// Execute a query with bounded fan-out: the scan phase partitions
    /// matching series (in sorted-key order) across up to `workers`
    /// threads, the aggregate phase partitions buckets. Results are
    /// identical to [`TsDb::query`] for every worker count — partials
    /// concatenate in the same deterministic series order the
    /// single-threaded scan uses.
    pub fn query_parallel(&self, q: &Query, workers: usize) -> Vec<Bucket> {
        if q.end_ns < q.start_ns {
            // Inverted range: no window can match; the detector keeps running.
            return Vec::new();
        }
        let bucket_ns = q.bucket_width();
        let (workers, mut per_bucket) = self.scan_buckets(q, workers);
        let n_buckets = per_bucket.len();
        let aggs: Vec<Option<Aggregate>> = if workers <= 1 || n_buckets <= 1 {
            per_bucket.iter_mut().map(|v| Aggregate::compute(v)).collect()
        } else {
            let stride = n_buckets.div_ceil(workers);
            std::thread::scope(|s| {
                let handles: Vec<_> = per_bucket
                    .chunks_mut(stride)
                    .map(|slice| {
                        // Qualified form: `.spawn(` on an untyped receiver
                        // would over-resolve in the analyzer call graph.
                        std::thread::Scope::spawn(s, move || {
                            slice
                                .iter_mut()
                                .map(|v| Aggregate::compute(v))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let mut out = Vec::with_capacity(n_buckets);
                for h in handles {
                    match h.join() {
                        Ok(part) => out.extend(part),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                out
            })
        };
        aggs.into_iter()
            .enumerate()
            .map(|(i, agg)| Bucket {
                start_ns: q.start_ns.saturating_add((i as u64).saturating_mul(bucket_ns)),
                agg,
            })
            .collect()
    }

    /// Scan phase only: the raw values falling into each bucket, in the
    /// same deterministic order the aggregate paths consume them. This is
    /// the parallelisable part of a query; benchmarks use it to separate
    /// scan cost from aggregation cost.
    pub fn query_values(&self, q: &Query) -> Vec<(u64, Vec<f64>)> {
        if q.end_ns < q.start_ns {
            return Vec::new();
        }
        let bucket_ns = q.bucket_width();
        let (_, per_bucket) = self.scan_buckets(q, 1);
        per_bucket
            .into_iter()
            .enumerate()
            .map(|(i, values)| {
                (
                    q.start_ns.saturating_add((i as u64).saturating_mul(bucket_ns)),
                    values,
                )
            })
            .collect()
    }

    /// Shared scan core: gather per-bucket values across matching series,
    /// serially or fanned out over contiguous sorted-key ranges. Returns
    /// the effective worker count and the per-bucket values.
    fn scan_buckets(&self, q: &Query, workers: usize) -> (usize, Vec<Vec<f64>>) {
        let bucket_ns = q.bucket_width();
        let n_buckets = bucket_count(q.start_ns, q.end_ns, bucket_ns);
        let mut per_bucket: Vec<Vec<f64>> = vec![Vec::new(); n_buckets];
        // lock-ok: queries are control-plane reads; the scan fan-out
        // borrows series data under the read lock while dataplane writers
        // stay on their private stripes.
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        // Deterministic scan order, independent of worker count.
        let mut matching: Vec<(&String, &Series)> =
            inner.measurement(&q.measurement).filter(|(_, s)| q.matches(s)).collect();
        matching.sort_unstable_by_key(|&(k, _)| k);
        let workers = workers.clamp(1, MAX_QUERY_WORKERS).min(matching.len().max(1));
        if workers <= 1 {
            for (_, series) in &matching {
                scan_series(series, q, bucket_ns, &mut per_bucket);
            }
            return (1, per_bucket);
        }
        let stride = matching.len().div_ceil(workers);
        std::thread::scope(|s| {
            let handles: Vec<_> = matching
                .chunks(stride)
                .map(|range| {
                    // Qualified form: `.spawn(` on an untyped receiver
                    // would over-resolve in the analyzer call graph.
                    std::thread::Scope::spawn(s, move || {
                        let mut part: Vec<Vec<f64>> = vec![Vec::new(); n_buckets];
                        for (_, series) in range {
                            scan_series(series, q, bucket_ns, &mut part);
                        }
                        part
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => {
                        for (dst, src) in per_bucket.iter_mut().zip(part) {
                            if dst.is_empty() {
                                *dst = src;
                            } else {
                                dst.extend(src);
                            }
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        (workers, per_bucket)
    }

    /// Stable dump of all data for snapshot serialization (sorted for
    /// deterministic images): one sample run per field name, in the order
    /// queries read it. Sealed chunks are decoded for the image — the
    /// snapshot format stays raw samples per field.
    #[allow(clippy::type_complexity)]
    pub(crate) fn dump_for_snapshot(
        &self,
    ) -> Vec<(
        String,
        Vec<(Vec<(String, String)>, Vec<(String, Vec<(u64, f64)>)>)>,
    )> {
        // lock-ok: snapshot dump is control-plane; copies out under the
        // read lock by design.
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut measurements: Vec<&String> = inner.index.keys().collect();
        measurements.sort_unstable();
        measurements
            .into_iter()
            .map(|m| {
                let mut keyed: Vec<(&String, &Series)> = inner.measurement(m).collect();
                keyed.sort_unstable_by_key(|&(k, _)| k);
                let series = keyed
                    .into_iter()
                    .map(|(_, s)| {
                        let mut names: Vec<&String> =
                            s.blocks.iter().flat_map(|b| &b.names).collect();
                        names.sort_unstable();
                        names.dedup();
                        let fields = names
                            .into_iter()
                            .map(|name| {
                                let mut run = Vec::new();
                                s.for_each_sample(name, 0, u64::MAX, &mut |t, v| run.push((t, v)));
                                (name.clone(), run)
                            })
                            .collect();
                        (s.tags.clone(), fields)
                    })
                    .collect();
                (m.clone(), series)
            })
            .collect()
    }

    /// Blocks across every series of every measurement.
    #[cfg(test)]
    pub(crate) fn block_count(&self) -> usize {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner.series.iter().map(|s| s.blocks.len()).sum()
    }

    /// Distinct values of tag `key` across a measurement's series, sorted —
    /// what a dashboard uses to populate its "city" / "ASN" selectors.
    pub fn tag_values(&self, measurement: &str, key: &str) -> Vec<String> {
        // lock-ok: dashboard selector query, control-plane.
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut values: Vec<String> = inner
            .measurement(measurement)
            .filter_map(|(_, s)| {
                s.tags
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }

    /// Drop samples older than `keep_ns` relative to `now_ns`; empty series
    /// are removed. Wholly-expired sealed chunks drop without decoding;
    /// the chunk straddling the cutoff is rewritten. Returns how many
    /// samples were dropped.
    pub fn enforce_retention(&self, now_ns: u64, keep_ns: u64) -> u64 {
        let cutoff = now_ns.saturating_sub(keep_ns);
        let mut dropped = 0u64;
        // lock-ok: cold retention maintenance — chunk rewrites hold the
        // store lock by design; never on the per-point ingest path.
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let store = &mut *inner;
        let mut moved = false;
        for series in &mut store.series {
            for b in &mut series.blocks {
                dropped += b.retain_from(cutoff, &mut store.totals);
            }
            let blocks = series.blocks.len();
            series.blocks.retain(|b| b.rows() != (0, 0));
            moved |= series.blocks.len() != blocks;
        }
        if store.drop_empty_series() || moved {
            store.sets.clear();
        }
        self.publish_totals(store);
        dropped
    }
}

/// A fixed list of series that one writer appends a row to, all at one
/// timestamp, many times over: a typed writer for a known shape, such as
/// a self-telemetry export. Each series' measurement, tags, key and field
/// names are built once, at [`SeriesSet::declare`]. A store resolves the
/// set's series to their positions once and keeps them, so an append
/// builds no point and no string and looks nothing up by name: it takes
/// the store lock once and appends one row per series through the same
/// block append a merge uses. Positions are kept per store and dropped
/// whenever retention moves any, so a set never writes into a series it
/// was not declared for, in any store or restored copy.
#[derive(Debug, Clone, Default)]
pub struct SeriesSet {
    /// Identity under which stores keep this set's positions; fresh on
    /// every declaration, so a clone that declares more gets its own.
    id: u64,
    declared: Vec<SeriesName>,
}

/// The names of one series and field list a writer appends rows to: what
/// a store resolves to a position once, and the writer builds once.
#[derive(Debug, Clone)]
pub(crate) struct SeriesName {
    pub(crate) measurement: String,
    /// The series key (`point::series_key`).
    pub(crate) key: String,
    /// Tags, in series-key order (sorted by name).
    pub(crate) tags: Vec<(String, String)>,
    /// Field names, in the order the writer gives values.
    pub(crate) fields: Vec<String>,
}

impl SeriesName {
    /// The names of `point`'s series and field list; `key` is its series
    /// key.
    pub(crate) fn of(point: &Point, key: &str) -> SeriesName {
        let (measurement, tags) = (&point.measurement, &point.tags);
        let fields = point.fields.iter().map(|(name, _)| name).cloned();
        // alloc-ok: a series' names, on its first sight by a writer only.
        SeriesName { measurement: measurement.clone(), key: key.into(), tags: tags.clone(), fields: fields.collect() }
    }
}

impl SeriesSet {
    /// An empty set.
    pub fn new() -> SeriesSet {
        SeriesSet::default()
    }

    /// Declare one more series: `measurement` with `tags` (in any order),
    /// whose rows carry `fields` in this order.
    pub fn declare(&mut self, measurement: &str, tags: &[(&str, &str)], fields: &[&str]) {
        let owned = |&(k, v): &(&str, &str)| (k.into(), v.into());
        let mut tags: Vec<(String, String)> = tags.iter().map(owned).collect();
        tags.sort_by(|a, b| a.0.cmp(&b.0));
        let mut key = String::new();
        series_key(measurement, &tags, &mut key);
        let fields = fields.iter().map(|&f| f.into()).collect();
        self.declared.push(SeriesName { measurement: measurement.into(), key, tags, fields });
        self.id = next_writer_id();
    }

    /// Whether nothing is declared yet.
    pub fn is_empty(&self) -> bool {
        self.declared.is_empty()
    }

    /// Append one row at `ts` to every declared series, in declaration
    /// order, under one store write lock: `row_value(i, j)` is series
    /// `i`'s value of its `j`-th declared field. Returns the rows written,
    /// which also count in [`TsDb::points_ingested`] (one point per row).
    pub fn append(
        &self,
        db: &TsDb,
        ts: u64,
        mut row_value: impl FnMut(usize, usize) -> f64,
    ) -> u64 {
        let ts = [ts];
        let column = |i, _: &SeriesName, j, dst: &mut Vec<f64>| {
            extend_tail(dst, [row_value(i, j)].into_iter());
        };
        db.append_series(Some(self.id), &self.declared, |d| d, |_| &ts[..], column)
    }
}

/// Where a writer's series' rows go in one store: its slab position, its
/// block's position in the series (none for an empty field list), and
/// whether that block's columns are in the writer's field order.
#[derive(Debug, Clone, Copy)]
struct Position {
    series: usize,
    block: Option<usize>,
    in_order: bool,
}

/// Scan one series' field into per-bucket value vectors.
fn scan_series(series: &Series, q: &Query, bucket_ns: u64, per_bucket: &mut [Vec<f64>]) {
    // The range is half-open: an empty one scans nothing.
    let Some(last) = q.end_ns.checked_sub(1).filter(|&l| l >= q.start_ns) else {
        return;
    };
    series.for_each_sample(&q.field, q.start_ns, last, &mut |t, v| {
        // panic-ok: bucket_ns is clamped to at least 1 by bucket_width
        let b = (t.saturating_sub(q.start_ns) / bucket_ns) as usize;
        if let Some(bucket) = per_bucket.get_mut(b) {
            bucket.push(v);
        }
    });
}

impl Default for TsDb {
    fn default() -> Self {
        Self::new()
    }
}

fn bucket_count(start: u64, end: u64, width: u64) -> usize {
    if end <= start {
        return 0;
    }
    ((end - start).div_ceil(width)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(city: &str, ms: f64, ts: u64) -> Point {
        Point::new(
            "latency",
            vec![("city".into(), city.into())],
            vec![("total_ms".into(), ms)],
            ts,
        )
    }

    #[test]
    fn write_and_whole_range_query() {
        let db = TsDb::new();
        db.write(&point("akl", 130.0, 10));
        db.write(&point("akl", 132.0, 20));
        db.write(&point("lax", 60.0, 15));
        let buckets = db.query(&Query::range("latency", "total_ms", 0, 100));
        assert_eq!(buckets.len(), 1);
        let agg = buckets[0].agg.unwrap();
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 60.0);
        assert_eq!(agg.max, 132.0);
        assert_eq!(db.points_ingested(), 3);
        assert_eq!(db.series_count("latency"), 2);
    }

    #[test]
    fn tag_filter_restricts_series() {
        let db = TsDb::new();
        db.write(&point("akl", 130.0, 10));
        db.write(&point("lax", 60.0, 15));
        let buckets = db.query(
            &Query::range("latency", "total_ms", 0, 100).with_tag("city", "akl"),
        );
        let agg = buckets[0].agg.unwrap();
        assert_eq!(agg.count, 1);
        assert_eq!(agg.mean, 130.0);
    }

    #[test]
    fn time_range_is_half_open() {
        let db = TsDb::new();
        db.write(&point("akl", 1.0, 10));
        db.write(&point("akl", 2.0, 20));
        let buckets = db.query(&Query::range("latency", "total_ms", 10, 20));
        assert_eq!(buckets[0].agg.unwrap().count, 1, "end is exclusive");
    }

    #[test]
    fn bucketed_query_splits_windows() {
        let db = TsDb::new();
        for i in 0..10u64 {
            db.write(&point("akl", i as f64, i * 100));
        }
        let buckets = db.query(&Query::range("latency", "total_ms", 0, 1000).with_buckets(500));
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].start_ns, 0);
        assert_eq!(buckets[1].start_ns, 500);
        assert_eq!(buckets[0].agg.unwrap().count, 5);
        assert_eq!(buckets[1].agg.unwrap().count, 5);
        assert_eq!(buckets[0].agg.unwrap().mean, 2.0);
        assert_eq!(buckets[1].agg.unwrap().mean, 7.0);
    }

    #[test]
    fn empty_buckets_are_reported() {
        let db = TsDb::new();
        db.write(&point("akl", 1.0, 50));
        let buckets = db.query(&Query::range("latency", "total_ms", 0, 300).with_buckets(100));
        assert_eq!(buckets.len(), 3);
        assert!(buckets[0].agg.is_some());
        assert!(buckets[1].agg.is_none());
        assert!(buckets[2].agg.is_none());
    }

    #[test]
    fn unknown_measurement_returns_empty_buckets() {
        let db = TsDb::new();
        let buckets = db.query(&Query::range("nope", "f", 0, 200).with_buckets(100));
        assert_eq!(buckets.len(), 2);
        assert!(buckets.iter().all(|b| b.agg.is_none()));
    }

    #[test]
    fn out_of_order_ingest_is_sorted() {
        let db = TsDb::new();
        db.write(&point("akl", 3.0, 300));
        db.write(&point("akl", 1.0, 100));
        db.write(&point("akl", 2.0, 200));
        let buckets = db.query(&Query::range("latency", "total_ms", 0, 400).with_buckets(100));
        let means: Vec<Option<f64>> = buckets.iter().map(|b| b.agg.map(|a| a.mean)).collect();
        assert_eq!(means, vec![None, Some(1.0), Some(2.0), Some(3.0)]);
    }

    #[test]
    fn tag_values_lists_distinct_sorted() {
        let db = TsDb::new();
        db.write(&point("lax", 1.0, 1));
        db.write(&point("akl", 1.0, 2));
        db.write(&point("akl", 2.0, 3));
        assert_eq!(db.tag_values("latency", "city"), vec!["akl", "lax"]);
        assert!(db.tag_values("latency", "nope").is_empty());
        assert!(db.tag_values("nope", "city").is_empty());
    }

    #[test]
    fn retention_drops_old_samples() {
        let db = TsDb::new();
        for i in 0..10u64 {
            db.write(&point("akl", i as f64, i * 1000));
        }
        let dropped = db.enforce_retention(10_000, 5_000);
        assert_eq!(dropped, 5); // samples at 0..4999 dropped
        let agg = db.query(&Query::range("latency", "total_ms", 0, 100_000))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 5);
        assert_eq!(agg.min, 5.0);
    }

    #[test]
    fn retention_removes_empty_series() {
        let db = TsDb::new();
        db.write(&point("akl", 1.0, 10));
        db.enforce_retention(1_000_000, 0);
        assert_eq!(db.series_count("latency"), 0);
    }

    #[test]
    fn retention_spans_sealed_chunks() {
        let db = TsDb::new();
        let n = crate::seal::CHUNK_LEN as u64 + 100;
        for i in 0..n {
            db.write(&point("akl", i as f64, i * 1000));
        }
        let stats = db.storage_stats();
        assert!(stats.sealed_points > 0, "a whole chunk must seal");
        // Keep only the newest 100 samples' worth of time.
        let dropped = db.enforce_retention(n * 1000, 100 * 1000);
        assert_eq!(dropped, n - 100);
        let agg = db.query(&Query::range("latency", "total_ms", 0, u64::MAX))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, (n - 100) as f64);
    }

    #[test]
    fn line_protocol_ingest() {
        let db = TsDb::new();
        db.write(&crate::line::parse("latency,city=akl total_ms=130 100").unwrap());
        assert!(crate::line::parse("garbage").is_err());
        let agg = db.query(&Query::range("latency", "total_ms", 0, 200))[0]
            .agg
            .unwrap();
        assert_eq!(agg.count, 1);
    }

    #[test]
    fn merge_keeps_stored_samples_ahead_on_ties() {
        let db = TsDb::new();
        db.write(&point("akl", 1.0, 10));
        db.write(&point("akl", 2.0, 20));
        // Older than the stored tail: the merge sorts.
        db.write_batch(vec![point("akl", 0.5, 5), point("akl", 1.5, 10), point("akl", 3.0, 30)]);
        // In order: the merge only appends.
        db.write_batch(vec![point("akl", 3.5, 30), point("akl", 4.0, 40)]);
        let q = Query::range("latency", "total_ms", 0, 100);
        let values = vec![0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0];
        assert_eq!(db.query_values(&q), vec![(0, values)]);
    }

    #[test]
    fn batch_write_matches_point_by_point() {
        // Out-of-order and duplicate stamps: one batched merge must leave
        // every series in the order single writes leave it, ties included.
        let pts: Vec<Point> = (0..60u64)
            .map(|i| {
                let city = if i % 3 == 0 { "akl" } else { "lax" };
                point(city, i as f64, (i * 37) % 50)
            })
            .collect();
        let single = TsDb::new();
        for p in &pts {
            single.write(p);
        }
        let batch = TsDb::new();
        assert_eq!(batch.write_batch(pts), 60);
        assert_eq!(batch.points_ingested(), single.points_ingested());
        for city in ["akl", "lax"] {
            let q = Query::range("latency", "total_ms", 0, 100)
                .with_tag("city", city)
                .with_buckets(10);
            assert_eq!(single.query_values(&q), batch.query_values(&q), "city {city}");
        }
    }

    #[test]
    fn concurrent_ingest() {
        let db = std::sync::Arc::new(TsDb::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = std::sync::Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    db.write(&point(if t % 2 == 0 { "akl" } else { "lax" }, 1.0, i));
                }
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
    fn multiple_fields_per_point() {
        let db = TsDb::new();
        db.write(&Point::new(
            "latency",
            vec![("city".into(), "akl".into())],
            vec![("int_ms".into(), 1.0), ("ext_ms".into(), 130.0)],
            5,
        ));
        let int_agg = db.query(&Query::range("latency", "int_ms", 0, 10))[0].agg.unwrap();
        let ext_agg = db.query(&Query::range("latency", "ext_ms", 0, 10))[0].agg.unwrap();
        assert_eq!(int_agg.mean, 1.0);
        assert_eq!(ext_agg.mean, 130.0);
    }

    #[test]
    fn sealing_is_transparent_to_queries() {
        let db = TsDb::new();
        let n = crate::seal::CHUNK_LEN as u64 * 2 + 17;
        for i in 0..n {
            db.write(&point("akl", (i % 97) as f64, i * 1000));
        }
        let stats = db.storage_stats();
        assert_eq!(stats.sealed_points, crate::seal::CHUNK_LEN as u64 * 2);
        assert_eq!(stats.sealed_points + stats.active_points, n);
        assert!(stats.sealed_bytes > 0);
        // Compression must beat raw 16 bytes/sample on a regular cadence.
        assert!(
            stats.sealed_bytes < stats.sealed_points * 16,
            "sealed {} bytes for {} points",
            stats.sealed_bytes,
            stats.sealed_points
        );
        let buckets = db.query(&Query::range("latency", "total_ms", 0, n * 1000));
        assert_eq!(buckets[0].agg.unwrap().count, n as usize);
        // Forced seal drains the tails and changes nothing observable.
        db.seal();
        let stats = db.storage_stats();
        assert_eq!(stats.active_points, 0);
        assert_eq!(stats.sealed_points, n);
        let buckets = db.query(&Query::range("latency", "total_ms", 0, n * 1000));
        assert_eq!(buckets[0].agg.unwrap().count, n as usize);
    }

    #[test]
    fn parallel_query_matches_single_threaded() {
        let db = TsDb::new();
        for i in 0..5000u64 {
            let city = ["akl", "lax", "syd", "nrt", "fra"][(i % 5) as usize];
            db.write(&point(city, (i % 211) as f64 * 0.5, i * 337));
        }
        db.seal();
        let q = Query::range("latency", "total_ms", 0, 5000 * 337).with_buckets(100_000);
        let reference = db.query(&q);
        for workers in [2, 3, 4, 16, 64] {
            assert_eq!(db.query_parallel(&q, workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn query_values_matches_aggregate_counts() {
        let db = TsDb::new();
        for i in 0..100u64 {
            db.write(&point("akl", i as f64, i * 10));
        }
        let q = Query::range("latency", "total_ms", 0, 1000).with_buckets(250);
        let values = db.query_values(&q);
        let buckets = db.query(&q);
        assert_eq!(values.len(), buckets.len());
        for ((start, vals), bucket) in values.iter().zip(&buckets) {
            assert_eq!(*start, bucket.start_ns);
            assert_eq!(vals.len(), bucket.agg.map_or(0, |a| a.count));
        }
    }

    fn fields(measurement: &str, names: &[&str], ts: u64) -> Point {
        let fields = names.iter().enumerate().map(|(i, &n)| (n.into(), i as f64)).collect();
        Point::new(measurement, vec![], fields, ts)
    }

    #[test]
    fn one_block_per_field_list_and_reorderings_join_it() {
        let db = TsDb::new();
        db.write(&fields("m", &["a", "b"], 10));
        db.write(&fields("m", &["a", "b"], 20));
        assert_eq!(db.block_count(), 1);
        // Reordered: same block, column by name.
        db.write(&fields("m", &["b", "a"], 30));
        assert_eq!(db.block_count(), 1);
        // Missing, extra and repeated names: a block each.
        db.write(&fields("m", &["a"], 40));
        db.write(&fields("m", &["a", "b", "c"], 50));
        db.write(&fields("m", &["a", "a"], 60));
        assert_eq!(db.block_count(), 4);
        // No fields: nothing stored, but the series exists.
        db.write(&fields("n", &[], 70));
        assert_eq!((db.block_count(), db.series_count("n")), (4, 1));
        let a = Query::range("m", "a", 0, 100);
        assert_eq!(db.query_values(&a), vec![(0, vec![0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])]);
        let b = Query::range("m", "b", 0, 100);
        assert_eq!(db.query_values(&b), vec![(0, vec![1.0, 1.0, 0.0, 1.0])]);
        assert_eq!(db.points_ingested(), 7);
        let stats = db.storage_stats();
        assert_eq!(stats.active_points, 2 * 3 + 1 + 3 + 2);
    }

    #[test]
    fn block_tail_seals_one_chunk_at_a_time() {
        let db = std::sync::Arc::new(TsDb::new());
        let names = ["a", "b", "c"];
        let mut stripe = db.stripe(100);
        for i in 0..crate::seal::CHUNK_LEN as u64 * 3 {
            stripe.write(&fields("m", &names, i));
            let stats = db.storage_stats();
            // The tail never holds a whole chunk after a merge.
            assert!(stats.active_points < 3 * crate::seal::CHUNK_LEN as u64);
        }
        stripe.flush();
        let stats = db.storage_stats();
        assert_eq!((stats.sealed_points, stats.active_points), (3 * 3 * 1024, 0));
        // One timestamp stream per chunk, shared by the three columns: the
        // constant columns cost about a bit per row each.
        assert!(stats.sealed_bytes < 3 * 1024 * 2, "{} sealed bytes", stats.sealed_bytes);
    }

    #[test]
    fn permute_matches_gather() {
        // Every permutation of up to six elements.
        for n in 0..=6usize {
            for code in 0..n.pow(n as u32) {
                let order: Vec<usize> = (0..n).map(|d| code / n.pow(d as u32) % n).collect();
                if (0..n).any(|i| !order.contains(&i)) {
                    continue;
                }
                let ts: Vec<u64> = (0..n as u64).map(|i| i * 10).collect();
                let cols: Vec<Vec<f64>> = vec![ts.iter().map(|&t| -(t as f64)).collect()];
                let (mut pts, mut pcols) = (ts.clone(), cols.clone());
                permute_rows(&mut pts, &mut pcols, &mut order.clone());
                let gathered: Vec<u64> = order.iter().map(|&i| ts[i]).collect();
                assert_eq!(pts, gathered, "order {order:?}");
                let gathered: Vec<f64> = order.iter().map(|&i| cols[0][i]).collect();
                assert_eq!(pcols[0], gathered, "order {order:?}");
            }
        }
    }
}

#[cfg(test)]
mod running_totals {
    //! The running storage totals and the series positions a
    //! [`SeriesSet`] and a [`crate::StripeWriter`] keep, under random
    //! sequences of every write.

    use super::*;
    use ruru_prop::{check, vec, Rng, StdRng};

    #[derive(Debug, Clone)]
    enum Op {
        /// Points of (series, field-list) choices at timestamps.
        Batch(Vec<(u8, u8, u64)>),
        /// One row of every declared series at a timestamp.
        Rows(u64),
        Seal,
        /// Retention keeping `keep` ns before `now`.
        Retain { now: u64, keep: u64 },
        Restore,
    }

    const FIELD_LISTS: [&[&str]; 3] = [&["value"], &["a", "b"], &["b", "a"]];

    fn point(series: u8, fields: u8, ts: u64) -> Point {
        let names = FIELD_LISTS[usize::from(fields) % FIELD_LISTS.len()];
        let fields = names.iter().map(|&n| (n.into(), ts as f64)).collect();
        Point::new("m", vec![("s".into(), format!("{}", series % 4))], fields, ts)
    }

    fn op(rng: &mut StdRng) -> Op {
        let ts = |rng: &mut StdRng| rng.gen_range(0..4_000u64);
        match rng.gen_range(0..10) {
            0..=3 => Op::Batch(vec(rng, 0..1_500, |r| (r.gen(), r.gen(), ts(r)))),
            4..=6 => Op::Rows(ts(rng)),
            7 => Op::Seal,
            8 => Op::Retain { now: ts(rng), keep: rng.gen_range(0..3_000) },
            _ => Op::Restore,
        }
    }

    /// The series a [`SeriesSet`] writes, declared both ways round: as
    /// the set's own and as points for the reference store.
    fn declared() -> SeriesSet {
        let mut set = SeriesSet::new();
        set.declare("m", &[("s", "1")], &["b", "a"]);
        set.declare("m", &[("s", "9")], &["value"]);
        set.declare("self", &[("metric", "x"), ("kind", "gauge")], &["a", "b"]);
        set
    }

    fn declared_points(ts: u64) -> Vec<Point> {
        let p = |m: &str, tags: &[(&str, &str)], fields: &[(&str, f64)]| {
            let tags = tags.iter().map(|&(k, v)| (k.into(), v.into())).collect();
            let fields = fields.iter().map(|&(n, v)| (n.into(), v)).collect();
            Point::new(m, tags, fields, ts)
        };
        let v = ts as f64;
        vec![
            p("m", &[("s", "1")], &[("b", v), ("a", -v)]),
            p("m", &[("s", "9")], &[("value", v + 0.5)]),
            p("self", &[("kind", "gauge"), ("metric", "x")], &[("a", v), ("b", 2.0 * v)]),
        ]
    }

    fn value(i: usize, j: usize, ts: u64) -> f64 {
        let v = ts as f64;
        let row: &[f64] = match i {
            0 => &[v, -v],
            1 => &[v + 0.5],
            _ => &[v, 2.0 * v],
        };
        row[j]
    }

    /// Write `p` to `stripe` as a point or, on odd timestamps, as a
    /// typed row of the series it resolves to; returns points merged.
    fn stripe_write(stripe: &mut crate::StripeWriter, p: &Point) -> u64 {
        if p.timestamp_ns.is_multiple_of(2) {
            return stripe.write(p);
        }
        let series = stripe.resolve(p);
        stripe.append(series, p.timestamp_ns, p.fields.iter().map(|&(_, v)| v))
    }

    #[test]
    fn running_totals_match_a_full_walk_and_rows_land_in_their_series() {
        check("running_totals", 64, |rng| vec(rng, 1..40, op), |ops| {
            // `typed` takes rows through a SeriesSet, `striped` every
            // write through a stripe that rotates every 211 points, as
            // points and as typed rows, and `reference` all of them as
            // points; all three take seals, retention and restores alike.
            let (mut typed, mut reference) = (TsDb::new(), TsDb::new());
            let mut striped = std::sync::Arc::new(TsDb::new());
            let mut stripe = striped.stripe(211);
            let set = declared();
            for op in ops {
                match op {
                    Op::Batch(points) => {
                        let points: Vec<Point> =
                            points.iter().map(|&(s, f, ts)| point(s, f, ts)).collect();
                        let merged: u64 = points.iter().map(|p| stripe_write(&mut stripe, p)).sum();
                        assert_eq!(merged + stripe.flush(), points.len() as u64);
                        typed.write_batch(points.clone());
                        reference.write_batch(points);
                    }
                    Op::Rows(ts) => {
                        assert_eq!(set.append(&typed, ts, |i, j| value(i, j, ts)), 3);
                        for p in &declared_points(ts) {
                            stripe_write(&mut stripe, p);
                        }
                        stripe.flush();
                        reference.write_batch(declared_points(ts));
                    }
                    Op::Seal => {
                        assert_eq!(typed.seal(), reference.seal());
                        // Smaller merges seal other rows first, so only
                        // the totals agree.
                        striped.seal();
                        let totals = |db: &TsDb| {
                            let stats = db.storage_stats();
                            stats.sealed_points + stats.active_points
                        };
                        assert_eq!(totals(&striped), totals(&reference));
                    }
                    Op::Retain { now, keep } => {
                        let dropped = typed.enforce_retention(now, keep);
                        assert_eq!(dropped, reference.enforce_retention(now, keep));
                        assert_eq!(dropped, striped.enforce_retention(now, keep));
                    }
                    Op::Restore => {
                        typed = TsDb::from_snapshot(&typed.to_snapshot()).unwrap();
                        reference = TsDb::from_snapshot(&reference.to_snapshot()).unwrap();
                        striped =
                            std::sync::Arc::new(TsDb::from_snapshot(&striped.to_snapshot()).unwrap());
                        stripe = striped.stripe(211);
                    }
                }
                for db in [&typed, &reference, &*striped] {
                    assert_eq!(db.storage_stats(), db.storage_walk());
                }
                let image = reference.to_snapshot();
                assert_eq!(typed.to_snapshot(), image);
                assert_eq!(striped.to_snapshot(), image);
                let q = Query::range("m", "a", 0, 4_000).with_buckets(500);
                assert_eq!(striped.query(&q), reference.query(&q));
            }
        });
    }
}
