//! Machine-readable production-retention TSDB report: writes
//! `BENCH_tsdb.json` covering the full two-phase shard lifecycle on a
//! day-scale workload (120 series × 86,400 points ≈ 10.4M points). Every
//! figure is measured on the host that runs it:
//!
//! * **ingest** — the workload streamed through per-writer
//!   [`ruru_tsdb::StripeWriter`]s (flush every 4096 points, the pipeline's
//!   own cadence): buffered runs, periodic merges, incremental sealing.
//! * **storage** — after a retention-style `seal()` drain, compressed
//!   bytes/point from [`ruru_tsdb::TsDb::storage_stats`]. Gated ≤ 4.0
//!   (16 bytes/point raw). A second, latency-shaped store — 120 series of
//!   the pipeline's seven-field `latency` point at irregular timestamps:
//!   three varying latencies and four per-series coordinates — reports
//!   sealed bytes per row (`latency_row_bytes`), gated ≤ 28.
//! * **query** — p50/p99 serial latency of a bucketed day-range scan, and
//!   the best-of-25 wall clock of [`ruru_tsdb::TsDb::query_parallel`] with
//!   2 workers against the best serial run (interleaved, so both see the
//!   same host). The speedup is gated; a 1-core host cannot show one.
//! * **allocation audit** — counting-allocator hits per point over a
//!   steady-state stripe window (same instrument as
//!   `crates/tsdb/tests/alloc_stripe_ingest.rs`).
//!
//! Usage: tsdb_report [--out PATH] [--smoke]

use ruru_tsdb::{Point, Query, TsDb};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

/// The pipeline's own stripe rotation cadence (analytics workers).
const FLUSH_POINTS: u64 = 4096;
/// Query timing repetitions (p99 comes from this sample).
const QUERY_REPS: usize = 25;
/// Worker count of the measured parallel query.
const QUERY_WORKERS: usize = 2;

struct Args {
    out: String,
    smoke: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_tsdb.json".into(),
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--smoke" => args.smoke = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: tsdb_report [--out PATH] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    args
}

/// Workload shape: `series` latency series sampled once a second over
/// `points_per_series` seconds (24 h in the full run).
struct Shape {
    series: usize,
    points_per_series: u64,
}

impl Shape {
    fn points(&self) -> u64 {
        self.series as u64 * self.points_per_series
    }
}

/// One pre-built point template per series; the ingest loops only mutate
/// the timestamp and field value, so the measured cost is the write path.
fn templates(shape: &Shape) -> Vec<Point> {
    (0..shape.series)
        .map(|s| {
            Point::new(
                "latency",
                vec![
                    ("city".into(), format!("city-{:03}", s / 4)),
                    ("queue".into(), format!("{}", s % 4)),
                ],
                vec![("total_ms".into(), 0.0)],
                0,
            )
        })
        .collect()
}

/// Deterministic latency sample for (series, tick): a per-series baseline
/// plus bounded jitter that holds for a few seconds at a time, quantized
/// to 0.1 ms like a real measurement feed. The hold gives the XOR
/// compressor the value profile real monitoring streams have — runs of
/// identical readings broken by small steps — instead of white noise.
fn latency_ms(series: usize, tick: u64) -> f64 {
    let base = 20.0 + 3.0 * (series % 7) as f64;
    let step = tick / 4;
    let jitter = ((step.wrapping_mul(2654435761).wrapping_add(series as u64 * 97)) % 64) as f64;
    ((base + jitter * 0.1) * 10.0).round() / 10.0
}

/// Stream the whole workload through `writers` round-robin stripes with
/// the production flush cadence; returns elapsed ns. This is the real
/// lifecycle: buffered runs, periodic merges, incremental sealing.
fn ingest(db: &Arc<TsDb>, shape: &Shape, writers: usize) -> f64 {
    let mut points = templates(shape);
    let mut stripes: Vec<_> = (0..writers).map(|_| db.stripe(FLUSH_POINTS)).collect();
    let started = Instant::now();
    for tick in 0..shape.points_per_series {
        let ts = 1_000_000_000 * (tick + 1);
        for (s, p) in points.iter_mut().enumerate() {
            p.timestamp_ns = ts;
            p.fields[0].1 = latency_ms(s, tick);
            stripes[s % writers].write(black_box(p));
        }
    }
    for stripe in &mut stripes {
        stripe.flush();
    }
    started.elapsed().as_nanos() as f64
}

/// Fields of the pipeline's `latency` point, in its order.
const LATENCY_FIELDS: [&str; 7] = [
    "internal_ms",
    "external_ms",
    "total_ms",
    "src_lat",
    "src_lon",
    "dst_lat",
    "dst_lon",
];

/// Deterministic 64-bit mix of (series, row) for the latency-shaped store.
fn mix(series: usize, row: u64) -> u64 {
    let mut x = (series as u64) << 32 ^ row;
    x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (x >> 32)
}

/// Stream `rows_per_series` seven-field `latency` rows per series through
/// 4 stripes, seal everything, and return (rows, sealed bytes per row).
/// Each series gets handshake-like arrivals (gaps of 0.2–2.2 ms at ns
/// resolution), internal and external latencies in whole nanoseconds
/// reported in ms as the enricher does, their sum, and four constant
/// coordinates.
fn latency_row_bytes(series: usize, rows_per_series: u64) -> (u64, f64) {
    let db = Arc::new(TsDb::new());
    let mut stripes: Vec<_> = (0..4).map(|_| db.stripe(FLUSH_POINTS)).collect();
    let mut points: Vec<Point> = (0..series)
        .map(|s| {
            // A per-series f32 coordinate, widened as the enricher does.
            let coord =
                |k: usize| f64::from(((s * 7919 + k * 104_729) % 18_000) as f32 / 100.0 - 90.0);
            let fields = LATENCY_FIELDS
                .iter()
                .enumerate()
                .map(|(k, &name)| (name.into(), if k < 3 { 0.0 } else { coord(k) }))
                .collect();
            let tags = vec![
                ("queue".into(), format!("{}", s % 4)),
                ("src_city".into(), format!("city-{:03}", s / 4)),
            ];
            Point::new("latency", tags, fields, 0)
        })
        .collect();
    let mut clock = vec![1_000_000_000u64; series];
    for row in 0..rows_per_series {
        for (s, p) in points.iter_mut().enumerate() {
            let h = mix(s, row);
            clock[s] += 200_000 + h % 2_000_000;
            p.timestamp_ns = clock[s];
            let internal_ns = 50_000 + (h >> 21) % 2_000_000;
            let external_ns = 20_000_000 + (s as u64 % 7) * 15_000_000 + (h >> 42) % 5_000_000;
            p.fields[0].1 = internal_ns as f64 / 1e6;
            p.fields[1].1 = external_ns as f64 / 1e6;
            p.fields[2].1 = (internal_ns + external_ns) as f64 / 1e6;
            stripes[s % 4].write(black_box(p));
        }
    }
    for stripe in &mut stripes {
        stripe.flush();
    }
    db.seal();
    let stats = db.storage_stats();
    let rows = stats.sealed_points / LATENCY_FIELDS.len() as u64;
    assert_eq!(rows, series as u64 * rows_per_series, "latency store lost rows");
    (rows, stats.sealed_bytes as f64 / rows.max(1) as f64)
}

/// Steady-state allocation audit: warmed stripe, counting allocator armed
/// over a bounded window; allocator hits per point.
fn audit_allocs_per_point(db: &Arc<TsDb>, shape: &Shape) -> f64 {
    let mut points = templates(shape);
    let mut stripe = db.stripe(u64::MAX);
    // Warm pass: every series exists in the stripe, runs have capacity.
    for (s, p) in points.iter_mut().enumerate() {
        p.timestamp_ns = 1;
        p.fields[0].1 = latency_ms(s, 0);
        stripe.write(p);
    }
    let window = 100_000u64.min(shape.points());
    ruru_bench::take_hits();
    ruru_bench::arm();
    let mut written = 0u64;
    'outer: for tick in 1.. {
        let ts = 1_000_000_000 * (tick + 1);
        for (s, p) in points.iter_mut().enumerate() {
            p.timestamp_ns = ts;
            p.fields[0].1 = latency_ms(s, tick);
            stripe.write(black_box(p));
            written += 1;
            if written >= window {
                break 'outer;
            }
        }
    }
    ruru_bench::disarm();
    let hits = ruru_bench::take_hits();
    hits as f64 / written as f64
}

/// Wall time of one call of `f` in ns.
fn wall_ns(f: impl FnOnce() -> usize) -> f64 {
    let started = Instant::now();
    black_box(f());
    started.elapsed().as_nanos() as f64
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

fn main() {
    let args = parse_args();
    let shape = if args.smoke {
        Shape {
            series: 24,
            points_per_series: 2_000,
        }
    } else {
        Shape {
            series: 120,
            points_per_series: 86_400,
        }
    };
    let total_points = shape.points();
    eprintln!(
        "workload: {} series x {} points = {} points",
        shape.series, shape.points_per_series, total_points
    );

    // --- ingest: full lifecycle through 4 writers' stripes --------------
    let db = Arc::new(TsDb::new());
    let ingest_ns = ingest(&db, &shape, 4);
    let ingest_ns_per_point = ingest_ns / total_points as f64;
    assert_eq!(db.points_ingested(), total_points, "ingest lost points");
    eprintln!("ingest: {ingest_ns_per_point:.0} ns/pt lifecycle");

    let allocs_per_point = audit_allocs_per_point(&Arc::new(TsDb::new()), &shape);
    eprintln!("steady-state allocator hits/point: {allocs_per_point:.2}");

    // --- storage: retention-style seal, then compressed accounting ------
    let sealed_now = db.seal();
    let stats = db.storage_stats();
    assert_eq!(
        stats.sealed_points + stats.active_points,
        total_points,
        "storage accounting lost points"
    );
    let bytes_per_point = stats.sealed_bytes as f64 / stats.sealed_points.max(1) as f64;
    eprintln!(
        "storage: {} sealed ({} at drain), {} bytes -> {bytes_per_point:.2} bytes/pt (raw 16)",
        stats.sealed_points, sealed_now, stats.sealed_bytes
    );

    let (latency_rows, row_bytes) = latency_row_bytes(shape.series, shape.points_per_series / 8);
    eprintln!("storage: {latency_rows} seven-field latency rows -> {row_bytes:.2} bytes/row sealed");

    // --- query: bucketed day-range scan over the sealed store -----------
    let span_ns = 1_000_000_000 * (shape.points_per_series + 1);
    let q = Query::range("latency", "total_ms", 0, span_ns).with_buckets(60_000_000_000);
    assert_eq!(
        db.query_parallel(&q, QUERY_WORKERS),
        db.query(&q),
        "parallel query must return the serial result"
    );
    // Serial and parallel runs alternate, so host noise hits both alike.
    let mut serial_ns = Vec::with_capacity(QUERY_REPS);
    let mut parallel_ns = f64::INFINITY;
    for _ in 0..QUERY_REPS {
        serial_ns.push(wall_ns(|| db.query(&q).len()));
        parallel_ns = parallel_ns.min(wall_ns(|| db.query_parallel(&q, QUERY_WORKERS).len()));
    }
    serial_ns.sort_by(f64::total_cmp);
    let serial_p50 = percentile(&serial_ns, 0.50);
    let serial_p99 = percentile(&serial_ns, 0.99);
    let serial_best = serial_ns.first().copied().unwrap_or(0.0);
    let speedup = serial_best / parallel_ns.max(1.0);
    eprintln!(
        "query: p50 {:.2} ms, p99 {:.2} ms; {QUERY_WORKERS}-worker {:.2} ms, speedup {speedup:.2}x",
        serial_p50 / 1e6,
        serial_p99 / 1e6,
        parallel_ns / 1e6
    );

    let host_cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        r#"{{
  "note": "every figure is measured on this host; query.parallel is the best of {reps} query_parallel runs against the best of {reps} serial runs, interleaved.",
  "host_cores": {host_cores},
  "workload": {{ "series": {series}, "points_per_series": {pps}, "points": {points}, "cadence_seconds": 1 }},
  "ingest": {{
    "writers": 4,
    "flush_points": {flush},
    "lifecycle_ns_per_point": {ing:.1},
    "allocator_hits_per_point": {allocs:.2}
  }},
  "storage": {{
    "sealed_points": {sp},
    "active_points": {ap},
    "sealed_bytes": {sb},
    "bytes_per_point": {bpp:.3},
    "raw_bytes_per_point": 16,
    "compression_ratio": {cr:.1},
    "latency_rows": {latency_rows},
    "latency_row_bytes": {row_bytes:.3}
  }},
  "query": {{
    "range_seconds": {range_s},
    "bucket_seconds": 60,
    "serial_ms_p50": {qp50:.3},
    "serial_ms_p99": {qp99:.3},
    "parallel": {{ "workers": {QUERY_WORKERS}, "parallel_ms": {pms:.3}, "speedup_measured": {speedup:.2} }}
  }}
}}
"#,
        reps = QUERY_REPS,
        series = shape.series,
        pps = shape.points_per_series,
        points = total_points,
        flush = FLUSH_POINTS,
        ing = ingest_ns_per_point,
        allocs = allocs_per_point,
        sp = stats.sealed_points,
        ap = stats.active_points,
        sb = stats.sealed_bytes,
        bpp = bytes_per_point,
        cr = 16.0 / bytes_per_point.max(f64::MIN_POSITIVE),
        range_s = shape.points_per_series,
        qp50 = serial_p50 / 1e6,
        qp99 = serial_p99 / 1e6,
        pms = parallel_ns / 1e6,
    );
    print!("{json}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("failed to write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);
}
