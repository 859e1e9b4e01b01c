//! A full simulated day-and-two-nights, exactly the paper's story: diurnal
//! traffic on the Auckland↔world link, and a firewall update at 03:10 *each
//! night* adding 4000 ms to every connection started during it. Ruru's
//! alerts cluster at the same small hour both nights — the signature that
//! let REANNZ identify the periodic firewall job.
//!
//! Simulates 48 hours; takes a minute or two of wall time.
//!
//! ```sh
//! cargo run --release --example full_day
//! ```

use ruru::analytics::KeySpace;
use ruru::gen::{Anomaly, GenConfig, RateProfile, TrafficGen};
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};
use ruru::viz::panel::{Panel, Stat};

fn main() {
    let two_days = Timestamp::from_secs(48 * 3600);
    // 03:10–03:11 each night.
    let night = |day: u64| {
        let start = Timestamp::from_secs(day * 86_400 + 3 * 3600 + 600);
        Anomaly::firewall_4s(start, start.advanced(60 * 1_000_000_000))
    };

    println!("simulating 48 h of diurnal traffic with a nightly 03:10 firewall window…");
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 4848,
            flows_per_sec: 8.0,
            rate_profile: RateProfile::diurnal(),
            duration: two_days,
            data_exchanges: (0, 1),
            anomalies: vec![night(0), night(1)],
            record_truth: false,
            ..GenConfig::default()
        },
        world,
    );
    let wall = std::time::Instant::now();
    pipeline.run(&mut gen);
    let (flows, _, packets) = gen.stats();
    let report = pipeline.finish();
    println!(
        "{flows} flows / {packets} packets over 48 simulated hours in {:.1} wall-seconds",
        wall.elapsed().as_secs_f64()
    );
    println!(
        "measured {} | alerts {} ({} spike / {} flood / {} rate)",
        report.measurements(),
        report.alerts.len(),
        report.alerts.iter().filter(|a| a.kind == "latency_spike").count(),
        report.alerts.iter().filter(|a| a.kind == "syn_flood").count(),
        report.alerts.iter().filter(|a| a.kind == "connection_rate").count()
    );

    // Where do the alerts land? Bucket by hour-of-day.
    let mut per_hour = [0u32; 24];
    for a in report.alerts.iter().filter(|a| a.kind == "latency_spike") {
        per_hour[((a.at.as_nanos() / 1_000_000_000) % 86_400 / 3600) as usize] += 1;
    }
    println!("\nlatency-spike alerts by hour of day (both nights combined):");
    for (h, n) in per_hour.iter().enumerate() {
        let bar = "#".repeat((*n as usize / 4).min(60));
        println!("  {h:02}:00 {n:>5} {bar}");
    }
    let at_3am = per_hour[3];
    let elsewhere: u32 = per_hour.iter().sum::<u32>() - at_3am;
    println!(
        "\n{}% of all alerts fall in the 03:00 hour — \"a specific, very short time \
         period each night\"",
        100 * at_3am / (at_3am + elsewhere).max(1)
    );

    // The 48-h max-latency panel: two spikes, same night-time offset.
    let data = Panel::latency_overview().evaluate(&report.tsdb, 0, two_days.as_nanos(), 96);
    println!("\nmax(total_ms) over 48 h (30-min buckets — note the twin nightly walls):");
    println!("  {}", data.sparkline(Stat::Max));
    println!("count per bucket (the diurnal curve):");
    let count_panel = Panel {
        stats: vec![Stat::Count],
        ..Panel::latency_overview()
    };
    let counts = count_panel.evaluate(&report.tsdb, 0, two_days.as_nanos(), 96);
    println!("  {}", counts.sparkline(Stat::Count));

    println!("\nbusiest country pairs across the day:");
    for (key, stats) in report.aggregates.top_by_count(KeySpace::CountryPair, 5) {
        println!(
            "  {key:<10} n={:<7} mean {:>6.1} ms  p95 {:>7.1} ms",
            stats.count(),
            stats.mean(),
            stats.p95()
        );
    }
}
