//! E6 — §2: multi-threaded geo/AS enrichment, and the "98% country-level
//! accuracy" figure.
//!
//! One-shot: accuracy of a 2%-perturbed database (the IP2Location LITE
//! quality level) and multi-thread enrichment scaling. Timed: raw lookup
//! cost against a fragmented table.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruru_bench::row;
use ruru_geo::{GeoDb, SynthWorld};
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
}
