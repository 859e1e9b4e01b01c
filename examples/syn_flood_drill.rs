//! SYN-flood drill — the paper's second §3 use case: *"Other types of
//! anomalies (e.g., … SYN floods) can also be identified in real-time with
//! simple Ruru modules."*
//!
//! Injects a 50k SYN/s spoofed flood into normal traffic and shows: the
//! flood detector fires within a second; the per-queue flow tables stay
//! bounded (oldest-first shedding); and legitimate handshakes keep being
//! measured throughout the flood.
//!
//! ```sh
//! cargo run --release --example syn_flood_drill
//! ```

use ruru::gen::{Anomaly, GenConfig, TrafficGen};
use ruru::geo::synth::LOS_ANGELES;
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};

fn main() {
    let duration = Timestamp::from_secs(30);
    let flood = (Timestamp::from_secs(10), Timestamp::from_secs(20));
    println!(
        "syn flood drill — 50k SYN/s against Los Angeles during {}..{}",
        flood.0, flood.1
    );

    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
        tracker: ruru::flow::TrackerConfig {
            capacity: 100_000, // bounded per-queue tables
            ..ruru::flow::TrackerConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 99,
            flows_per_sec: 100.0,
            duration,
            data_exchanges: (0, 1),
            anomalies: vec![Anomaly::SynFlood {
                start: flood.0,
                end: flood.1,
                syns_per_sec: 50_000,
                target_city: LOS_ANGELES,
            }],
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let (legit_flows, flood_syns, packets) = gen.stats();
    let report = pipeline.finish();

    println!("\nlegitimate flows  : {legit_flows}");
    println!("flood SYNs        : {flood_syns}");
    println!("total packets     : {packets}");

    println!("\n== detection ==");
    let alerts = report
        .alerts
        .iter()
        .filter(|a| a.kind == "syn_flood")
        .collect::<Vec<_>>();
    println!("syn_flood alerts  : {}", alerts.len());
    if let Some(first) = alerts.first() {
        println!("first alert       : {first}");
        println!(
            "detection delay   : {:.2} s after flood onset",
            first.at.saturating_nanos_since(flood.0) as f64 / 1e9
        );
    }

    println!("\n== table resilience ==");
    for (q, s) in &report.trackers {
        println!(
            "  queue {q}: {} syns, {} evicted (shed), {} expired, {} measured",
            s.syns, s.evicted, s.expired, s.measurements
        );
    }
    println!(
        "\nlegitimate handshakes measured through the flood: {}/{} ({:.1}%)",
        report.measurements(),
        legit_flows,
        100.0 * report.measurements() as f64 / legit_flows as f64
    );
}
