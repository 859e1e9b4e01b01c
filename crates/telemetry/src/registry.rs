//! The metric registry: fixed-capacity, sharded, allocation-free after
//! construction.
//!
//! # Layout
//!
//! All metrics are declared up front on a [`RegistryBuilder`]; `build(n)`
//! freezes the schema and allocates `n` *shards* — one per worker lcore.
//! A shard is a flat `Box<[AtomicU64]>` cell array:
//!
//! ```text
//! [ counters... | gauges... | hist0: count,sum,min,max,buckets... | hist1: ... ]
//! ```
//!
//! Histogram buckets reuse the logarithmic geometry of
//! [`ruru_flow::histogram`] (`bucket_index` / `bucket_floor_of`), so a
//! precision-`p` histogram costs exactly `4 + (65-p)·2^p` cells and covers
//! the full `u64` range with saturation at the top bucket — bounded memory,
//! as in P4TG's in-dataplane RTT histograms.
//!
//! # Writer protocol (one writer per shard)
//!
//! Each shard has a single designated writer (its lcore). Updates are
//! plain load/store pairs — no RMW instructions, no locks, no `SeqCst`:
//!
//! * `burst_begin` stores an **odd** epoch (Relaxed),
//! * each cell update is `load(Relaxed)` + `store(Release)`,
//! * `burst_end` stores the next **even** epoch (Release).
//!
//! # Reader protocol (epoch-validated seqlock, fence-free)
//!
//! The collector reads `epoch` with Acquire (retrying while odd), copies
//! with Acquire loads the counters, the gauges, each histogram's header
//! and the bucket rows between the copied header's `min` and `max` (the
//! only rows that can hold samples), then re-reads `epoch` (Relaxed) and
//! accepts the copy only if both reads agree. If the reader observed *any*
//! cell value stored inside burst `N`, that Acquire load synchronizes-with
//! the writer's Release store, so the odd epoch store that began burst `N`
//! happens-before the reader's second epoch load — which therefore cannot
//! observe a value older than it: the epochs mismatch and the copy is
//! retried. A consistent copy is accepted unchanged. The writer never
//! blocks and never retries; the reader retries at most [`SNAP_RETRIES`]
//! times per shard and then *skips* the shard, counting it in
//! [`Snapshot::skipped_shards`]. The whole protocol is model-checked in
//! `tests/loom_telemetry.rs`.
//!
//! Cells outside a `burst_begin`/`burst_end` window may still be updated
//! (e.g. control-plane counters); individual `u64` reads can never tear,
//! they just aren't cross-cell consistent.

use crate::sync::atomic::{AtomicU64, Ordering};

use ruru_flow::histogram::{bucket_count, bucket_floor_of, bucket_index};
use ruru_tsdb::{line, Point, SeriesSet, TsDb};

/// Epoch-validated reads per shard before the collector gives up and
/// skips it for this snapshot (the shard's data is cumulative, so a
/// skipped shard only delays visibility, never loses updates).
pub const SNAP_RETRIES: usize = 64;

/// Cells preceding the bucket array in a histogram block:
/// `count`, `sum`, `min`, `max`.
const HIST_HEADER: usize = 4;

/// Handle to a registered counter (monotonic, cumulative).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a registered gauge (last-write-wins level, e.g. occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a registered latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Declares the metric schema; `build` freezes it into a [`Registry`].
#[derive(Debug, Default)]
pub struct RegistryBuilder {
    counters: Vec<&'static str>,
    gauges: Vec<&'static str>,
    hists: Vec<(&'static str, u32)>,
}

impl RegistryBuilder {
    /// An empty schema.
    pub fn new() -> RegistryBuilder {
        RegistryBuilder::default()
    }

    /// Register a cumulative counter named `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        let id = CounterId(self.counters.len() as u32);
        self.counters.push(name);
        id
    }

    /// Register a gauge named `name`.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        let id = GaugeId(self.gauges.len() as u32);
        self.gauges.push(name);
        id
    }

    /// Register a histogram named `name` with `precision` significant bits
    /// per power of two (see [`ruru_flow::histogram`]). Precision is
    /// clamped to 12 to keep the per-shard memory bound tight.
    pub fn histogram(&mut self, name: &'static str, precision: u32) -> HistId {
        let id = HistId(self.hists.len() as u32);
        self.hists.push((name, precision.min(12)));
        id
    }

    /// Freeze the schema and allocate `shards` cell arrays (one per
    /// worker lcore; a minimum of one is always allocated). This is the
    /// registry's **only** allocation site — every hot-path operation
    /// afterwards is allocation-free.
    pub fn build(self, shards: usize) -> Registry {
        let gauge_base = self.counters.len();
        let mut next = gauge_base + self.gauges.len();
        let mut hist_bases = Vec::with_capacity(self.hists.len());
        let mut hist_buckets = Vec::with_capacity(self.hists.len());
        for &(_, precision) in &self.hists {
            let buckets = bucket_count(precision);
            hist_bases.push(next);
            hist_buckets.push(buckets);
            next += HIST_HEADER + buckets;
        }
        let cells_per_shard = next;
        let shard_count = shards.max(1);
        let shards: Vec<Shard> = (0..shard_count)
            .map(|_| Shard::new(cells_per_shard, &hist_bases))
            .collect();
        let mut registry = Registry {
            counter_names: self.counters.into_boxed_slice(),
            gauge_names: self.gauges.into_boxed_slice(),
            hists: self.hists.into_boxed_slice(),
            hist_bases: hist_bases.into_boxed_slice(),
            hist_buckets: hist_buckets.into_boxed_slice(),
            gauge_base,
            cells_per_shard,
            shards: shards.into_boxed_slice(),
            template: Snapshot::default(),
        };
        registry.template = Snapshot::keyed_to_schema(&registry);
        registry
    }
}

/// One lcore's private cell array plus its seqlock epoch.
///
/// `align(64)` keeps each shard header on its own cache line; the cell
/// arrays are separate heap allocations, so two lcores never write the
/// same line in steady state.
#[repr(align(64))]
struct Shard {
    epoch: AtomicU64,
    cells: Box<[AtomicU64]>,
}

impl Shard {
    fn new(cells: usize, hist_bases: &[usize]) -> Shard {
        let shard = Shard {
            epoch: AtomicU64::new(0),
            cells: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        };
        // `min` cells start saturated so the first recorded value wins.
        for &base in hist_bases {
            if let Some(cell) = shard.cells.get(base + 2) {
                cell.store(u64::MAX, Ordering::Relaxed); // lint: relaxed-ok (pre-publication init)
            }
        }
        shard
    }
}

/// Single-writer cell increment: no RMW, Release so seqlock readers that
/// observe the new value also observe the odd epoch that preceded it.
#[inline]
fn bump_add(cell: &AtomicU64, n: u64) {
    let cur = cell.load(Ordering::Relaxed); // lint: relaxed-ok (single writer per shard)
    cell.store(cur.wrapping_add(n), Ordering::Release);
}

/// Single-writer saturating increment (sums never wrap past `u64::MAX`).
#[inline]
fn bump_sat_add(cell: &AtomicU64, n: u64) {
    let cur = cell.load(Ordering::Relaxed); // lint: relaxed-ok (single writer per shard)
    cell.store(cur.saturating_add(n), Ordering::Release);
}

/// Single-writer running minimum.
#[inline]
fn bump_min(cell: &AtomicU64, value: u64) {
    if cell.load(Ordering::Relaxed) > value {
        // lint: relaxed-ok (single writer per shard)
        cell.store(value, Ordering::Release);
    }
}

/// Single-writer running maximum.
#[inline]
fn bump_max(cell: &AtomicU64, value: u64) {
    if cell.load(Ordering::Relaxed) < value {
        // lint: relaxed-ok (single writer per shard)
        cell.store(value, Ordering::Release);
    }
}

/// The frozen metric registry. See the module docs for the memory layout
/// and the snapshot protocol.
pub struct Registry {
    counter_names: Box<[&'static str]>,
    gauge_names: Box<[&'static str]>,
    hists: Box<[(&'static str, u32)]>,
    hist_bases: Box<[usize]>,
    hist_buckets: Box<[usize]>,
    gauge_base: usize,
    cells_per_shard: usize,
    shards: Box<[Shard]>,
    /// An empty snapshot of this schema, export series declared: what a
    /// snapshot first collected against this registry is cloned from.
    template: Snapshot,
}

impl Registry {
    /// Number of shards allocated at build time.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The histogram registered as `name`, if any: for callers outside
    /// the code that declared it, such as a benchmark filling it.
    pub fn hist_id(&self, name: &str) -> Option<HistId> {
        let at = self.hists.iter().position(|&(n, _)| n == name)?;
        Some(HistId(at as u32))
    }

    /// Open a write burst on `shard`: readers will reject the shard until
    /// the matching [`Registry::burst_end`]. Never blocks.
    #[inline]
    pub fn burst_begin(&self, shard: usize) {
        if let Some(s) = self.shards.get(shard) {
            let e = s.epoch.load(Ordering::Relaxed); // lint: relaxed-ok (single writer per shard)
            s.epoch.store(e | 1, Ordering::Relaxed); // lint: relaxed-ok (published by the data-cell Release stores)
        }
    }

    /// Close a write burst on `shard`, publishing every update since the
    /// matching [`Registry::burst_begin`]. Never blocks.
    #[inline]
    pub fn burst_end(&self, shard: usize) {
        if let Some(s) = self.shards.get(shard) {
            let e = s.epoch.load(Ordering::Relaxed); // lint: relaxed-ok (single writer per shard)
            s.epoch.store((e | 1).wrapping_add(1), Ordering::Release);
        }
    }

    /// Add `n` to counter `id` on `shard`. Out-of-range shard or id is a
    /// silent no-op (the hot path must never panic).
    #[inline]
    pub fn counter_add(&self, shard: usize, id: CounterId, n: u64) {
        if let Some(s) = self.shards.get(shard) {
            if let Some(cell) = s.cells.get(id.0 as usize) {
                bump_add(cell, n);
            }
        }
    }

    /// Set gauge `id` on `shard` to `value` (last write wins).
    #[inline]
    pub fn gauge_store(&self, shard: usize, id: GaugeId, value: u64) {
        if let Some(s) = self.shards.get(shard) {
            if let Some(cell) = s.cells.get(self.gauge_base + id.0 as usize) {
                cell.store(value, Ordering::Release);
            }
        }
    }

    /// Record `value` into histogram `id` on `shard`: bumps the count,
    /// saturating sum, min/max, and exactly one bucket (values above the
    /// top magnitude saturate into the top bucket, never out of range).
    #[inline]
    pub fn hist_record(&self, shard: usize, id: HistId, value: u64) {
        self.hist_record_n(shard, id, value, 1);
    }

    /// Record `n` samples of `value` at once: the same cells as `n`
    /// [`Registry::hist_record`] calls, in one update each.
    #[inline]
    pub fn hist_record_n(&self, shard: usize, id: HistId, value: u64, n: u64) {
        let (Some(s), Some(&base), Some(&(_, precision))) = (
            self.shards.get(shard),
            self.hist_bases.get(id.0 as usize),
            self.hists.get(id.0 as usize),
        ) else {
            return;
        };
        if n == 0 {
            return;
        }
        if let Some(cell) = s.cells.get(base) {
            bump_add(cell, n);
        }
        if let Some(cell) = s.cells.get(base + 1) {
            bump_sat_add(cell, value.saturating_mul(n));
        }
        if let Some(cell) = s.cells.get(base + 2) {
            bump_min(cell, value);
        }
        if let Some(cell) = s.cells.get(base + 3) {
            bump_max(cell, value);
        }
        let bucket = bucket_index(precision, value);
        if let Some(cell) = s.cells.get(base + HIST_HEADER + bucket) {
            bump_add(cell, n);
        }
    }

    /// Epoch-validated copy of one shard's cells into `out`: the
    /// counters, the gauges, each histogram's header and then only the
    /// bucket rows its copied `min`/`max` can hold
    /// ([`held_rows`]), all inside one validation window. In a consistent
    /// copy every other bucket is zero, so the copy is exact; the cells
    /// outside those rows keep whatever `out` held and must not be read.
    /// Returns `false` if the shard stayed mid-burst for all
    /// [`SNAP_RETRIES`] attempts.
    fn read_shard(&self, s: &Shard, out: &mut [u64]) -> bool {
        let scalars = self.hist_bases.first().copied().unwrap_or(self.cells_per_shard);
        for _ in 0..SNAP_RETRIES {
            let e1 = s.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                crate::sync::hint::spin_loop();
                // account-ok: seqlock retry — retry exhaustion is counted
                // by the caller as skipped_shards, with the shard id.
                continue;
            }
            copy_cells(&s.cells, out, 0..scalars);
            for (&base, &(_, precision)) in self.hist_bases.iter().zip(self.hists.iter()) {
                copy_cells(&s.cells, out, base..base + HIST_HEADER);
                let rows = header_rows(out, base, precision);
                let first = base + HIST_HEADER;
                copy_cells(&s.cells, out, first + rows.start..first + rows.end);
            }
            // Validated against `e1`; any cell read from a newer burst
            // forces this load to observe that burst's odd epoch.
            let e2 = s.epoch.load(Ordering::Relaxed); // lint: relaxed-ok (seqlock validation read)
            if e1 == e2 {
                return true;
            }
        }
        false
    }

    /// Collect a consistent snapshot without blocking any writer,
    /// reusing `snap`'s and `scratch`'s allocations (steady-state
    /// allocation-free once both have been through one call).
    /// `timestamp_ns` stamps the exported points — pass the pipeline's
    /// virtual-clock reading, never wall time.
    pub fn snapshot_into(&self, timestamp_ns: u64, snap: &mut Snapshot, scratch: &mut Vec<u64>) {
        if scratch.len() != self.cells_per_shard {
            scratch.clear();
            // alloc-ok: fixed shape — allocates on the caller's first
            // snapshot only; later collections reuse it as it is.
            scratch.resize(self.cells_per_shard, 0);
        }
        snap.reset(self, timestamp_ns);
        for (sid, shard) in self.shards.iter().enumerate() {
            if self.read_shard(shard, scratch) {
                snap.accumulate(self, scratch);
            } else {
                snap.skipped_shards += 1;
                // Bounded by shard_count, and only on the torn
                // (exceptional) path — an exact snapshot pushes nothing.
                snap.skipped_shard_ids.push(sid);
            }
        }
        snap.normalize();
    }

    /// Allocating convenience wrapper around [`Registry::snapshot_into`].
    pub fn snapshot(&self, timestamp_ns: u64) -> Snapshot {
        let mut snap = Snapshot::default();
        let mut scratch = Vec::new();
        self.snapshot_into(timestamp_ns, &mut snap, &mut scratch);
        snap
    }
}

/// Acquire-load `cells[range]` into `out[range]`; a range outside either
/// copies nothing.
fn copy_cells(cells: &[AtomicU64], out: &mut [u64], range: core::ops::Range<usize>) {
    let (Some(src), Some(dst)) = (cells.get(range.start..range.end), out.get_mut(range)) else {
        return;
    };
    for (slot, cell) in dst.iter_mut().zip(src) {
        *slot = cell.load(Ordering::Acquire);
    }
}

/// The bucket rows that can hold samples of a histogram whose values lie
/// in `min..=max`: `bucket_index(min)..=bucket_index(max)`, as
/// `bucket_index` is monotone. Empty when `min > max`, as in a histogram
/// with no samples (`min` starts at `u64::MAX`, `max` at 0).
fn held_rows(precision: u32, min: u64, max: u64) -> core::ops::Range<usize> {
    if min > max {
        return 0..0;
    }
    bucket_index(precision, min)..bucket_index(precision, max) + 1
}

/// [`held_rows`] of the histogram whose header starts at `base` in a
/// copied cell array.
fn header_rows(cells: &[u64], base: usize, precision: u32) -> core::ops::Range<usize> {
    let min = cells.get(base + 2).copied().unwrap_or(u64::MAX);
    let max = cells.get(base + 3).copied().unwrap_or(0);
    held_rows(precision, min, max)
}

/// An exported series: metric name, `kind` tag, field names.
type ExportSeries = (&'static str, &'static str, &'static [&'static str]);

/// Field names of an exported counter or gauge row.
const SCALAR_FIELDS: &[&str] = &["value"];

/// Field names of an exported histogram row, in the order of
/// `HistSnap::export_value`'s field index.
const HIST_FIELDS: &[&str] = &["count", "sum", "min", "max", "mean", "p50", "p95", "p99"];

/// Aggregated (summed-across-shards) view of one histogram. Every bucket
/// outside rows `bucket_index(min)..=bucket_index(max)` is zero; a reset
/// and a quantile read touch only the rows inside.
#[derive(Debug, Clone, Default)]
pub struct HistSnap {
    /// Registered metric name.
    pub name: &'static str,
    /// Bucket geometry precision (see [`ruru_flow::histogram`]).
    pub precision: u32,
    /// Total recorded values.
    pub count: u64,
    /// Saturating sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when `count == 0`).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts in `bucket_index` order.
    pub buckets: Vec<u64>,
}

impl HistSnap {
    /// An empty histogram of `buckets` rows.
    fn empty(name: &'static str, precision: u32, buckets: usize) -> HistSnap {
        HistSnap {
            name,
            precision,
            min: u64::MAX,
            buckets: vec![0; buckets],
            ..HistSnap::default()
        }
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest value `v` such that at least `q × count` recorded values
    /// are `≤ v`, resolved to the floor of the containing bucket and
    /// clamped into `[min, max]`; `q ≥ 1` is the exact maximum. `q`
    /// outside `[0, 1]` is clamped.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let rows = held_rows(self.precision, self.min, self.max);
        let held = self.buckets.get(rows.start..rows.end).unwrap_or(&[]);
        let mut seen: u64 = 0;
        for (idx, &n) in rows.zip(held) {
            seen = seen.saturating_add(n);
            if seen >= target {
                return bucket_floor_of(self.precision, idx)
                    .max(self.min)
                    .min(self.max);
            }
        }
        self.max
    }

    /// The exported value of field `j` of [`HIST_FIELDS`].
    fn export_value(&self, j: usize) -> f64 {
        match j {
            0 => self.count as f64,
            1 => self.sum as f64,
            2 => self.min as f64,
            3 => self.max as f64,
            4 => self.mean(),
            5 => self.value_at_quantile(0.50) as f64,
            6 => self.value_at_quantile(0.95) as f64,
            _ => self.value_at_quantile(0.99) as f64,
        }
    }
}

/// One collected snapshot: counters and gauges summed across shards,
/// histograms merged across shards. Reused across collections via
/// [`Registry::snapshot_into`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per registered counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` per registered gauge (summed across shards).
    pub gauges: Vec<(&'static str, u64)>,
    /// One merged [`HistSnap`] per registered histogram.
    pub hists: Vec<HistSnap>,
    /// Shards skipped this collection because their writer kept the
    /// epoch odd for [`SNAP_RETRIES`] consecutive validation attempts.
    pub skipped_shards: u64,
    /// The shard indices behind [`Snapshot::skipped_shards`], for loud
    /// diagnostics when a final snapshot is expected to be exact.
    pub skipped_shard_ids: Vec<usize>,
    /// Virtual-clock stamp the caller passed to the collection.
    pub timestamp_ns: u64,
    /// The `ruru_self` series this snapshot's schema exports, declared
    /// when the snapshot is keyed to a schema.
    export: SeriesSet,
}

impl Snapshot {
    /// Zero all values for a collection against `registry`, re-keying
    /// this snapshot to its schema first if it differs. On the same
    /// schema nothing is allocated, and each histogram zeroes only the
    /// bucket rows it held.
    fn reset(&mut self, registry: &Registry, timestamp_ns: u64) {
        if self.export.is_empty() || !self.keyed_to(registry) {
            // alloc-ok: a new schema — the first collection into this
            // snapshot takes the registry's empty one.
            *self = registry.template.clone();
        }
        self.timestamp_ns = timestamp_ns;
        self.skipped_shards = 0;
        self.skipped_shard_ids.clear();
        for slot in self.counters.iter_mut().chain(self.gauges.iter_mut()) {
            slot.1 = 0;
        }
        for hist in &mut self.hists {
            let rows = held_rows(hist.precision, hist.min, hist.max);
            hist.buckets.get_mut(rows).unwrap_or(&mut []).fill(0);
            hist.count = 0;
            hist.sum = 0;
            hist.min = u64::MAX;
            hist.max = 0;
        }
    }

    /// Whether this snapshot has `registry`'s metric names, histogram
    /// precisions and bucket counts.
    fn keyed_to(&self, registry: &Registry) -> bool {
        let hists = (registry.hists.iter().zip(registry.hist_buckets.iter()))
            .map(|(&(name, precision), &buckets)| (name, precision, buckets));
        self.counters.iter().map(|c| c.0).eq(registry.counter_names.iter().copied())
            && self.gauges.iter().map(|g| g.0).eq(registry.gauge_names.iter().copied())
            && self.hists.iter().map(|h| (h.name, h.precision, h.buckets.len())).eq(hists)
    }

    /// An empty snapshot of `registry`'s schema with its export series
    /// declared: built once per registry, at [`RegistryBuilder::build`].
    fn keyed_to_schema(registry: &Registry) -> Snapshot {
        let zero = |&name: &&'static str| (name, 0);
        let hists = registry.hists.iter().zip(registry.hist_buckets.iter());
        let mut snap = Snapshot {
            counters: registry.counter_names.iter().map(zero).collect(),
            gauges: registry.gauge_names.iter().map(zero).collect(),
            hists: hists.map(|(&(name, p), &n)| HistSnap::empty(name, p, n)).collect(),
            ..Snapshot::default()
        };
        let mut export = SeriesSet::new();
        for (metric, kind, fields) in snap.series() {
            export.declare("ruru_self", &[("metric", metric), ("kind", kind)], fields);
        }
        snap.export = export;
        snap
    }

    /// Fold one consistently-read shard cell array into the totals: the
    /// scalars, and of each histogram with samples its header and the
    /// rows [`Registry::read_shard`] copied.
    fn accumulate(&mut self, registry: &Registry, cells: &[u64]) {
        for (idx, slot) in self.counters.iter_mut().enumerate() {
            slot.1 = slot.1.wrapping_add(cells.get(idx).copied().unwrap_or(0));
        }
        for (idx, slot) in self.gauges.iter_mut().enumerate() {
            let cell = cells.get(registry.gauge_base + idx).copied().unwrap_or(0);
            slot.1 = slot.1.wrapping_add(cell);
        }
        for (idx, hist) in self.hists.iter_mut().enumerate() {
            let Some(&base) = registry.hist_bases.get(idx) else {
                // account-ok: registry shape guard — a histogram with no
                // base has no cells to fold; unreachable on a built registry.
                continue;
            };
            let count = cells.get(base).copied().unwrap_or(0);
            if count == 0 {
                // account-ok: empty-histogram fold skip; no samples exist.
                continue;
            }
            let rows = header_rows(cells, base, hist.precision);
            hist.count = hist.count.wrapping_add(count);
            hist.sum = hist.sum.saturating_add(cells.get(base + 1).copied().unwrap_or(0));
            hist.min = hist.min.min(cells.get(base + 2).copied().unwrap_or(u64::MAX));
            hist.max = hist.max.max(cells.get(base + 3).copied().unwrap_or(0));
            let first = base + HIST_HEADER;
            let src = cells.get(first + rows.start..first + rows.end).unwrap_or(&[]);
            let dst = hist.buckets.get_mut(rows).unwrap_or(&mut []);
            for (slot, &n) in dst.iter_mut().zip(src) {
                *slot = slot.wrapping_add(n);
            }
        }
    }

    /// Normalize sentinel values once every shard has been folded in.
    /// (Named `normalize`, not `finish`, so the panic checker's name-based
    /// call graph does not alias it with `Pipeline::finish`.)
    fn normalize(&mut self) {
        for hist in &mut self.hists {
            if hist.count == 0 {
                hist.min = 0;
            }
        }
    }

    /// Value of counter `name`. An undeclared name reads 0 in a release
    /// build and panics in a debug build, so a misspelt read cannot pass
    /// a test as a zero.
    pub fn counter(&self, name: &str) -> u64 {
        let found = self.counters.iter().find(|(n, _)| *n == name);
        debug_assert!(found.is_some(), "counter `{name}` is not declared");
        found.map_or(0, |(_, v)| *v)
    }

    /// Value of gauge `name`; an undeclared name is treated as in
    /// [`Snapshot::counter`].
    pub fn gauge(&self, name: &str) -> u64 {
        let found = self.gauges.iter().find(|(n, _)| *n == name);
        debug_assert!(found.is_some(), "gauge `{name}` is not declared");
        found.map_or(0, |(_, v)| *v)
    }

    /// The merged histogram named `name`, if registered.
    pub fn hist(&self, name: &str) -> Option<&HistSnap> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// The exported `ruru_self` series in export order: one per counter
    /// and gauge (`metric=<name>` and `kind` tags, a `value` field), one
    /// per histogram (the [`HIST_FIELDS`]), then the skipped-shard count.
    fn series(&self) -> impl Iterator<Item = ExportSeries> + '_ {
        let counters = self.counters.iter().map(|c| (c.0, "counter", SCALAR_FIELDS));
        let gauges = self.gauges.iter().map(|g| (g.0, "gauge", SCALAR_FIELDS));
        let hists = self.hists.iter().map(|h| (h.name, "histogram", HIST_FIELDS));
        let skipped = ("snapshot_skipped_shards", "counter", SCALAR_FIELDS);
        counters.chain(gauges).chain(hists).chain(core::iter::once(skipped))
    }

    /// The value of field `j` of series `i`. Both exports read values
    /// here, so they write the same bits.
    fn series_value(&self, i: usize, j: usize) -> f64 {
        let (counters, gauges) = (self.counters.len(), self.gauges.len());
        let scalar = match i.checked_sub(counters) {
            None => self.counters.get(i).map_or(0, |c| c.1),
            Some(i) => match i.checked_sub(gauges) {
                None => self.gauges.get(i).map_or(0, |g| g.1),
                Some(i) => match self.hists.get(i) {
                    Some(hist) => return hist.export_value(j),
                    None => self.skipped_shards,
                },
            },
        };
        scalar as f64
    }

    /// Render the snapshot as `ruru_self` points, one per
    /// [`Snapshot::write_into`] row: the text edge's form.
    #[allow(clippy::disallowed_methods)] // sanctioned: control-plane export builds owned tag strings per snapshot
    pub fn to_points(&self) -> Vec<Point> {
        (self.series().enumerate())
            .map(|(i, (metric, kind, fields))| {
                let field = |(j, f): (usize, &&str)| (f.to_string(), self.series_value(i, j));
                Point::new(
                    "ruru_self",
                    vec![
                        ("metric".to_string(), metric.to_string()),
                        ("kind".to_string(), kind.to_string()),
                    ],
                    fields.iter().enumerate().map(field).collect(),
                    self.timestamp_ns,
                )
            })
            .collect()
    }

    /// The snapshot in InfluxDB line protocol, one line per point.
    pub fn to_lines(&self) -> Vec<String> {
        self.to_points().iter().map(line::encode).collect()
    }

    /// Append one row per `ruru_self` series at this snapshot's timestamp
    /// into `db`, under one store lock; returns the rows written, which
    /// count in `db`'s `points_ingested`. The series are declared once per
    /// schema and resolved once per store (see [`SeriesSet`]), so a
    /// collection builds no point and no string. A snapshot no collection
    /// has filled writes nothing.
    pub fn write_into(&self, db: &TsDb) -> usize {
        self.export.append(db, self.timestamp_ns, |i, j| self.series_value(i, j)) as usize
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn small_registry(shards: usize) -> (Registry, CounterId, GaugeId, HistId) {
        let mut b = RegistryBuilder::new();
        let c = b.counter("rx_packets");
        let g = b.gauge("flow_table_occupancy");
        let h = b.histogram("stage_residency", 2);
        (b.build(shards), c, g, h)
    }

    #[test]
    fn counters_gauges_and_histograms_roundtrip() {
        let (r, c, g, h) = small_registry(1);
        r.burst_begin(0);
        r.counter_add(0, c, 5);
        r.counter_add(0, c, 7);
        r.gauge_store(0, g, 42);
        for v in [1_000, 2_000, 4_000, 1_000_000] {
            r.hist_record(0, h, v);
        }
        r.burst_end(0);

        let snap = r.snapshot(99);
        assert_eq!(snap.timestamp_ns, 99);
        assert_eq!(snap.counter("rx_packets"), 12);
        assert_eq!(snap.gauge("flow_table_occupancy"), 42);
        let hist = snap.hist("stage_residency").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.sum, 1_007_000);
        assert_eq!(hist.min, 1_000);
        assert_eq!(hist.max, 1_000_000);
        assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
        assert!(hist.value_at_quantile(0.5) >= 1_000);
        assert!(hist.value_at_quantile(1.0) <= 1_000_000);
        assert_eq!(snap.skipped_shards, 0);
    }

    #[test]
    fn a_weighted_record_equals_repeated_records() {
        let (w, _, _, hw) = small_registry(1);
        let (p, _, _, hp) = small_registry(1);
        for v in [3, 1_000, 77_777] {
            w.hist_record_n(0, hw, v, 5);
            w.hist_record_n(0, hw, v + 1, 0);
            for _ in 0..5 {
                p.hist_record(0, hp, v);
            }
        }
        let (weighted, repeated) = (w.snapshot(0), p.snapshot(0));
        let a = weighted.hist("stage_residency").unwrap();
        let b = repeated.hist("stage_residency").unwrap();
        assert_eq!((a.count, a.sum, a.min, a.max), (15, 393_900, 3, 77_777));
        assert_eq!((a.count, a.sum, a.min, a.max), (b.count, b.sum, b.min, b.max));
        assert_eq!(a.buckets, b.buckets);
    }

    #[test]
    fn shards_are_summed_and_merged() {
        let (r, c, g, h) = small_registry(3);
        for shard in 0..3 {
            r.counter_add(shard, c, 10);
            r.gauge_store(shard, g, 5);
            r.hist_record(shard, h, 1 << (10 + shard));
        }
        let snap = r.snapshot(0);
        assert_eq!(snap.counter("rx_packets"), 30);
        assert_eq!(snap.gauge("flow_table_occupancy"), 15);
        let hist = snap.hist("stage_residency").unwrap();
        assert_eq!(hist.count, 3);
        assert_eq!(hist.min, 1 << 10);
        assert_eq!(hist.max, 1 << 12);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn out_of_range_ops_are_silent_noops() {
        let (r, c, g, h) = small_registry(1);
        r.counter_add(9, c, 1);
        r.gauge_store(9, g, 1);
        r.hist_record(9, h, 1);
        r.burst_begin(9);
        r.burst_end(9);
        let snap = r.snapshot(0);
        assert_eq!(snap.counter("rx_packets"), 0);
        assert!(snap.hist("missing").is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "counter `rx_packet` is not declared")]
    fn a_misspelt_counter_read_panics() {
        let (r, _, _, _) = small_registry(1);
        r.snapshot(0).counter("rx_packet");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "gauge `rx_packets` is not declared")]
    fn a_counter_read_as_a_gauge_panics() {
        let (r, _, _, _) = small_registry(1);
        r.snapshot(0).gauge("rx_packets");
    }

    #[test]
    fn mid_burst_shard_is_skipped_not_blocked_on() {
        let (r, c, _, _) = small_registry(2);
        r.counter_add(0, c, 3);
        r.burst_begin(1); // shard 1 stays mid-burst: reader must give up on it
        r.counter_add(1, c, 1_000);
        let snap = r.snapshot(0);
        assert_eq!(snap.skipped_shards, 1);
        assert_eq!(snap.counter("rx_packets"), 3);
        r.burst_end(1);
        let snap = r.snapshot(0);
        assert_eq!(snap.skipped_shards, 0);
        assert_eq!(snap.counter("rx_packets"), 1_003);
    }

    #[test]
    fn snapshot_into_reuses_allocations() {
        let (r, c, _, h) = small_registry(2);
        let mut snap = Snapshot::default();
        let mut scratch = Vec::new();
        r.counter_add(0, c, 1);
        r.hist_record(1, h, 500);
        r.snapshot_into(7, &mut snap, &mut scratch);
        assert_eq!(snap.counter("rx_packets"), 1);

        let buckets_ptr = snap.hists[0].buckets.as_ptr();
        let scratch_ptr = scratch.as_ptr();
        r.counter_add(0, c, 41);
        r.snapshot_into(8, &mut snap, &mut scratch);
        assert_eq!(snap.counter("rx_packets"), 42);
        assert_eq!(snap.hist("stage_residency").unwrap().count, 1);
        assert_eq!(snap.hists[0].buckets.as_ptr(), buckets_ptr);
        assert_eq!(scratch.as_ptr(), scratch_ptr);
    }

    #[test]
    fn empty_histogram_normalizes_min_and_quantiles() {
        let (r, _, _, _) = small_registry(1);
        let snap = r.snapshot(0);
        let hist = snap.hist("stage_residency").unwrap();
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 0);
        assert_eq!(hist.mean(), 0.0);
        assert_eq!(hist.value_at_quantile(0.99), 0);
    }

    #[test]
    fn extreme_values_saturate_into_the_top_bucket() {
        let (r, _, _, h) = small_registry(1);
        r.hist_record(0, h, u64::MAX);
        r.hist_record(0, h, u64::MAX - 1);
        let snap = r.snapshot(0);
        let hist = snap.hist("stage_residency").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 2);
        assert_eq!(hist.max, u64::MAX);
        assert!(hist.value_at_quantile(0.99) >= 1 << 63);
    }

    /// A one-shard registry holding one precision-`p` histogram, with
    /// `values` recorded into it; returns the snapshot's view of it.
    fn recorded(precision: u32, values: impl IntoIterator<Item = u64>) -> HistSnap {
        let mut b = RegistryBuilder::new();
        let h = b.histogram("latency", precision);
        let r = b.build(1);
        for v in values {
            r.hist_record(0, h, v);
        }
        r.snapshot(0).hist("latency").unwrap().clone()
    }

    #[test]
    fn quantiles_within_relative_error() {
        // 1..=100_000 — a wide range spanning many octaves.
        let h = recorded(5, 1..=100_000u64);
        for (q, expect) in [(0.5, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = h.value_at_quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.04, "q{q}: got {got}, expect {expect}, rel {rel}");
        }
        assert_eq!(h.value_at_quantile(0.0), 1);
        assert_eq!(h.value_at_quantile(1.0), 100_000);
    }

    #[test]
    fn small_values_are_exact() {
        // The linear region holds values < 2^precision exactly: with one
        // sample of each of 0..32, quantile (v+1)/32 is exactly v.
        let h = recorded(5, 0..32u64);
        for v in 0..32u64 {
            assert_eq!(h.value_at_quantile((v + 1) as f64 / 32.0), v);
        }
    }

    #[test]
    fn realistic_latency_distribution() {
        // 130 ms baseline with 1% at 4000 ms: the p99.5 exposes the spike.
        let h = recorded(
            5,
            (0..10_000u64).map(|i| {
                if i % 100 == 0 {
                    4_000_000_000
                } else {
                    130_000_000 + (i % 997) * 10_000
                }
            }),
        );
        let p50 = h.value_at_quantile(0.5);
        let p995 = h.value_at_quantile(0.995);
        assert!((125_000_000..145_000_000).contains(&p50), "p50 {p50}");
        assert!(p995 >= 3_800_000_000, "p99.5 {p995}");
    }

    #[test]
    fn quantile_of_extreme_values_stays_in_range() {
        let h = recorded(0, [u64::MAX, u64::MAX]);
        assert_eq!(h.value_at_quantile(0.5), u64::MAX);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        let h = recorded(0, [u64::MAX, u64::MAX, 1]);
        let p25 = h.value_at_quantile(0.25);
        assert_eq!(p25, 1, "low quantile finds the small value: {p25}");
    }

    #[test]
    fn export_is_parseable_line_protocol() {
        let (r, c, g, h) = small_registry(1);
        r.counter_add(0, c, 11);
        r.gauge_store(0, g, 3);
        r.hist_record(0, h, 2_500);
        let snap = r.snapshot(123_456);
        let lines = snap.to_lines();
        assert_eq!(lines.len(), 4); // counter + gauge + hist + skipped_shards
        for l in &lines {
            let p = line::parse(l).expect("self-telemetry must emit valid line protocol");
            assert_eq!(p.measurement, "ruru_self");
            assert!(p.tag("metric").is_some());
            assert_eq!(p.timestamp_ns, 123_456);
        }
    }

    #[test]
    fn write_into_tsdb_creates_ruru_self_series() {
        let (r, c, _, _) = small_registry(1);
        r.counter_add(0, c, 2);
        let db = TsDb::new();
        let written = r.snapshot(1).write_into(&db);
        assert_eq!(written as u64, db.points_ingested());
        assert!(db.series_count("ruru_self") >= 2);
    }
}
