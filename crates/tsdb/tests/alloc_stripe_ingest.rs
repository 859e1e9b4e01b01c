//! Allocation audit for the striped ingest path. The dataplane's claim:
//!
//! * a steady-state stripe write allocates nothing per point: the
//!   measurement and series are looked up by `&str`, the fields match
//!   the series' block by position, and names are copied only on first
//!   sight in the stripe. What remains is amortized column growth, well
//!   under one allocator hit per ten points even for the pipeline's
//!   seven-field `latency` point;
//! * folding a stripe into the store costs O(series) allocator hits, not
//!   O(points) — the move/extend merge is the whole point of
//!   shard-then-merge over per-point locked writes;
//! * across rotations, once every series has been seen and has taken the
//!   same rows in a few of them, writing and flushing allocate nothing at
//!   all, through `write(&Point)` and through typed `append` alike: the
//!   stripe's series keep their names and their columns' room from one
//!   rotation to the next, and the store keeps their positions.
//!
//! Both bounds are enforced here with a counting pass-through allocator,
//! so a regression that sneaks a per-point or per-field allocation into
//! the shard insert or the merge fails loudly.

// Tests are exempt from the panic-freedom policy (DESIGN.md §10).
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Miri has its own allocator machinery; this audits native behaviour.
#![cfg(not(miri))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ruru_tsdb::{Point, Query, SeriesHandle, TsDb};

/// Counts allocator hits while `ARMED`; defers everything to [`System`].
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to the `System` allocator — identical layout
// contracts — plus relaxed counter increments, which allocate nothing and
// cannot reenter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards all arguments unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            REALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SERIES: usize = 64;
const POINTS: u64 = 100_000;

/// Allocator hits (allocs + reallocs) counted over `f`.
fn audited_hits(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::Relaxed);
    REALLOCS.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    f();
    ARMED.store(false, Ordering::Relaxed);
    ALLOCS.load(Ordering::Relaxed) + REALLOCS.load(Ordering::Relaxed)
}

/// A 1-field point on a two-tag series.
fn narrow(series: usize) -> Point {
    Point::new(
        "latency",
        vec![
            ("city".into(), format!("city-{series:03}")),
            ("queue".into(), format!("{}", series % 4)),
        ],
        vec![("total_ms".into(), 0.0)],
        0,
    )
}

/// The pipeline's `latency` point: seven tags and seven fields, so a
/// per-field cost shows seven times per point.
fn latency(series: usize) -> Point {
    let tag = |k: &str, v: String| (k.into(), v);
    Point::new(
        "latency",
        vec![
            tag("queue", format!("{}", series % 4)),
            tag("src_cc", "NZ".into()),
            tag("src_city", format!("city-{series:03}")),
            tag("src_asn", "64500".into()),
            tag("dst_cc", "US".into()),
            tag("dst_city", "Los Angeles".into()),
            tag("dst_asn", "64501".into()),
        ],
        [
            "internal_ms",
            "external_ms",
            "total_ms",
            "src_lat",
            "src_lon",
            "dst_lat",
            "dst_lon",
        ]
        .iter()
        .map(|&f| (f.into(), 0.0))
        .collect(),
        0,
    )
}

#[test]
fn stripe_ingest_allocations_are_bounded_and_merge_is_amortized() {
    for template in [narrow as fn(usize) -> Point, latency] {
        audit(template);
        audit_rotations(template);
    }
}

/// Rows each series takes per rotation, and rotations before and in the
/// audit window. Each series' stored tail grows by doubling and last
/// grows in rotation 5, to room for 8 rotations' rows (128, under a
/// chunk, so nothing seals).
const ROWS_PER_ROTATION: u64 = 16;
const WARM_ROTATIONS: u64 = 5;
const AUDITED_ROTATIONS: u64 = 3;

fn audit_rotations(template: fn(usize) -> Point) {
    let db = Arc::new(TsDb::new());
    let rotation = SERIES as u64 * ROWS_PER_ROTATION;
    let mut stripe = db.stripe(rotation);
    let mut points: Vec<Point> = (0..SERIES).map(template).collect();
    let handles: Vec<SeriesHandle> = points.iter().map(|p| stripe.resolve(p)).collect();
    // Half the series are written as points, half as typed rows.
    let mut write = |i: u64| -> u64 {
        let s = (i % SERIES as u64) as usize;
        let p = &mut points[s];
        p.timestamp_ns = 1_000 + i * 1_000;
        for f in &mut p.fields {
            f.1 = (i % 977) as f64 * 0.1;
        }
        if s.is_multiple_of(2) {
            stripe.write(p)
        } else {
            stripe.append(handles[s], p.timestamp_ns, p.fields.iter().map(|f| f.1))
        }
    };
    let warm = WARM_ROTATIONS * rotation;
    let merged: u64 = (0..warm).map(&mut write).sum();
    assert_eq!(merged, warm, "every warm rotation merged");

    let mut merged = 0;
    let audited = AUDITED_ROTATIONS * rotation;
    let hits = audited_hits(|| {
        merged = (warm..warm + audited).map(&mut write).sum();
    });
    assert_eq!(merged, audited, "every audited rotation merged");
    assert_eq!(
        hits, 0,
        "{AUDITED_ROTATIONS} rotations of {rotation} points over {SERIES} known series: \
         writes and merges allocate nothing"
    );
    assert_eq!(db.storage_stats().sealed_points, 0, "nothing sealed");
    let agg = db.query(&Query::range("latency", "total_ms", 0, u64::MAX))[0]
        .agg
        .unwrap();
    assert_eq!(agg.count, (warm + audited) as usize);
}

fn audit(template: fn(usize) -> Point) {
    let db = Arc::new(TsDb::new());

    // Warm-up: create every series in the store and in a stripe once, so
    // one-time setup (hash maps, first columns) predates the audit windows.
    let mut warm = db.stripe(u64::MAX);
    for s in 0..SERIES {
        let mut p = template(s);
        p.timestamp_ns = 1;
        warm.write(&p);
    }
    warm.flush();

    // Templates are built outside the windows; the loops below only mutate
    // plain fields, so every counted hit belongs to the ingest path itself.
    let mut points: Vec<Point> = (0..SERIES).map(template).collect();

    // Window 1: steady-state stripe writes — never flushing — allocate
    // only for amortized column growth (measured: 0.021 hits/point
    // with one field, 0.074 with seven). The shared store is not touched
    // at all.
    let mut stripe = db.stripe(u64::MAX);
    let write_hits = audited_hits(|| {
        for i in 0..POINTS {
            let p = &mut points[(i % SERIES as u64) as usize];
            p.timestamp_ns = 1_000 + i * 1_000;
            for f in &mut p.fields {
                f.1 = (i % 977) as f64 * 0.1;
            }
            stripe.write(p);
        }
    });
    assert_eq!(stripe.points_buffered(), POINTS);
    let per_point = write_hits as f64 / POINTS as f64;
    assert!(
        per_point <= 0.1,
        "stripe write must not allocate per point: {write_hits} hits / {POINTS} points = {per_point:.4}"
    );

    // Window 2: folding the stripe into the store must be O(series), not
    // O(points) — columns move or extend wholesale. Budget: a generous
    // per-series constant, still ~50x below one hit per point.
    let merge_hits = audited_hits(|| {
        assert_eq!(stripe.flush(), POINTS);
    });
    assert!(
        merge_hits <= 32 * SERIES as u64,
        "merge must be O(series): {merge_hits} hits for {SERIES} series / {POINTS} points"
    );
    assert!(
        merge_hits < POINTS / 16,
        "merge amortization regressed: {merge_hits} hits for {POINTS} points"
    );

    // The audited work really landed.
    assert_eq!(db.points_ingested(), POINTS + SERIES as u64);
    let agg = db.query(&Query::range("latency", "total_ms", 0, u64::MAX))[0]
        .agg
        .unwrap();
    assert_eq!(agg.count, (POINTS + SERIES as u64) as usize);
}
