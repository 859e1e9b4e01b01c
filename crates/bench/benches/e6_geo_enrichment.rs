//! E6 — §2: multi-threaded geo/AS enrichment, and the "98% country-level
//! accuracy" figure.
//!
//! One-shot: accuracy of a 2%-perturbed database (the IP2Location LITE
//! quality level) and multi-thread enrichment scaling. Timed: raw lookup
//! cost against a fragmented table, and one enrichment worker's whole
//! per-record path (its `Enricher` and `Renderer`: lookup, stripe row and
//! PUB line).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruru_analytics::{Enricher, Renderer};
use ruru_bench::row;
use ruru_flow::LatencyMeasurement;
use ruru_geo::{GeoDb, SynthWorld};
use ruru_nic::Timestamp;
use ruru_tsdb::TsDb;
use ruru_wire::{ipv4, IpAddress};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const V4_BASE: u128 = 0xffff_0000_0000;

fn sample_keys(world: &SynthWorld, n: usize, seed: u64) -> Vec<u128> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let city = rng.gen_range(0..world.city_count());
            let addr = world.sample_v4(city, &mut rng);
            V4_BASE | u32::from_be_bytes(addr) as u128
        })
        .collect()
}

fn accuracy_report(world: &SynthWorld) {
    let keys = sample_keys(world, 100_000, 61);
    for rate in [0.02f64, 0.05, 0.10] {
        let perturbed = world.perturbed(rate, 9).unwrap();
        let correct = keys
            .iter()
            .filter(|&&k| {
                let t = world.db().lookup_key(k).unwrap();
                let g = perturbed.lookup_key(k).unwrap();
                g.country_code == t.country_code
            })
            .count();
        println!(
            "  db perturbation {:>4.1}% → country-level accuracy {:.2}%",
            rate * 100.0,
            100.0 * correct as f64 / keys.len() as f64
        );
    }
}

fn scaling_report(world: &SynthWorld) {
    let db = Arc::new(world.db().clone());
    let keys = Arc::new(sample_keys(world, 1_000_000, 62));
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let mut handles = Vec::new();
        for t in 0..threads {
            let db = Arc::clone(&db);
            let keys = Arc::clone(&keys);
            handles.push(std::thread::spawn(move || {
                let chunk = keys.len() / threads;
                keys[t * chunk..(t + 1) * chunk]
                    .iter()
                    .filter(|&&k| db.lookup_key(k).is_some_and(|l| l.asn != 0))
                    .count() as u64
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let secs = start.elapsed().as_secs_f64();
        println!(
            "  {threads} thread(s): {:.1}M lookups/s ({total} resolved)",
            keys.len() as f64 / secs / 1e6
        );
    }
}

fn main() {
    let world = SynthWorld::generate(2);
    println!("== E6: geo enrichment ==");
    println!(
        "  database: {} ranges, {} locations",
        world.db().range_count(),
        world.db().location_count()
    );
    accuracy_report(&world);
    scaling_report(&world);

    // Lookup cost against a realistically fragmented table (real
    // IP2Location DBs have millions of rows, ours would otherwise have
    // 168) and a skewed key stream (live traffic repeats prefixes).
    let db: GeoDb = world.fragmented(4096).unwrap();
    println!("  fragmented table: {} ranges", db.range_count());
    let uniq = sample_keys(&world, 256, 63);
    // Zipf-ish skew: hot keys dominate, as on a live tap.
    let keys: Vec<u128> = (0..20_000usize)
        .map(|i| uniq[(i * i) % uniq.len()])
        .collect();

    // A shared host's speed drifts over seconds, so the best of a few
    // ~1 ms passes spread 40 % between runs of one binary. The best of
    // 400 passes of 10 rounds over the stream (200 000 lookups, ~7 ms
    // each; ~3 s in all) finds a quiet stretch in most runs.
    const ROUNDS: usize = 10;
    const PASSES: usize = 400;
    let secs = (0..PASSES)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..ROUNDS {
                let hits = keys.iter().filter(|&&k| db.lookup_key(black_box(k)).is_some());
                black_box(hits.count());
            }
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    row("e6_geo/lookup/uncached", (ROUNDS * keys.len()) as u64, secs);

    worker_report(&world);
}

/// One enrichment worker's per-record cost: `Enricher::locate` then
/// `Renderer::render` into a stripe that rotates every 4 096 rows, as in
/// the pipeline, over 40 000 records of 240 series (60 city pairs, 4
/// queues; a handshake_mix run stores 120). Best of 8 passes; the store
/// keeps every pass's rows.
fn worker_report(world: &SynthWorld) {
    let mut rng = StdRng::seed_from_u64(64);
    let pairs: Vec<(usize, usize)> = (0..60)
        .map(|_| (rng.gen_range(0..world.city_count()), rng.gen_range(0..world.city_count())))
        .collect();
    let records: Vec<LatencyMeasurement> = (0..40_000u64)
        .map(|i| {
            let (src, dst) = pairs[rng.gen_range(0..pairs.len())];
            LatencyMeasurement {
                src: IpAddress::V4(ipv4::Address(world.sample_v4(src, &mut rng))),
                dst: IpAddress::V4(ipv4::Address(world.sample_v4(dst, &mut rng))),
                src_port: 40_000,
                dst_port: 443,
                internal_ns: rng.gen_range(100_000..5_000_000),
                external_ns: rng.gen_range(1_000_000..300_000_000),
                completed_at: Timestamp::from_nanos(i * 1_000),
                queue_id: rng.gen_range(0..4),
                syn_retransmissions: 0,
            }
        })
        .collect();
    let tsdb = Arc::new(TsDb::new());
    let mut enricher = Enricher::new(Arc::new(world.db().clone()), 0);
    let mut renderer = Renderer::new(tsdb.stripe(4096));
    const PASSES: u64 = 8;
    let secs = (0..PASSES)
        .map(|pass| {
            let started = Instant::now();
            for m in &records {
                let mut m = *m;
                m.completed_at = Timestamp::from_nanos(m.completed_at.as_nanos() + pass * 40_000_000);
                let (em, at) = enricher.locate(&m);
                black_box(renderer.render(&em, at));
            }
            started.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    row("e6_geo/worker/enrich_render", records.len() as u64, secs);
}
