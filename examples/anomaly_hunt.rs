//! The paper's §3 case study, reproduced: a periodic firewall update adds
//! **4000 ms** to every connection started inside a short nightly window.
//! Conventional five-minute SNMP-style polling never notices; Ruru's
//! flow-level stream flags every affected connection in real time.
//!
//! ```sh
//! cargo run --release --example anomaly_hunt
//! ```

use ruru::analytics::Severity;
use ruru::gen::{Anomaly, GenConfig, TrafficGen};
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};
use ruru::viz::panel::{Panel, Stat};

fn main() {
    // A compressed "night": 20 simulated minutes, the firewall window at
    // minute 10 lasting 30 s (the paper: "a specific, very short time
    // period each night").
    let duration = Timestamp::from_secs(20 * 60);
    let window = (Timestamp::from_secs(600), Timestamp::from_secs(630));

    println!("anomaly hunt — firewall window {}..{}", window.0, window.1);
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 4000,
            flows_per_sec: 60.0,
            duration,
            data_exchanges: (0, 1),
            anomalies: vec![Anomaly::firewall_4s(window.0, window.1)],
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let affected_truth = gen.truths().iter().filter(|t| t.anomalous).count();
    let report = pipeline.finish();

    println!("\nflows measured    : {}", report.measurements());
    println!("flows affected    : {affected_truth} (ground truth)");

    // --- What Ruru sees: per-flow alerts, precisely inside the window. ---
    let spikes = report
        .alerts
        .iter()
        .filter(|a| a.kind == "latency_spike")
        .collect::<Vec<_>>();
    let in_window = spikes
        .iter()
        .filter(|a| a.at >= window.0 && a.at < window.1.advanced(10_000_000_000))
        .count();
    let critical = spikes
        .iter()
        .filter(|a| a.severity == Severity::Critical)
        .count();
    println!("\n== Ruru (flow-level) ==");
    println!("latency-spike alerts : {} ({critical} critical)", spikes.len());
    println!("alerts in/near window: {in_window}");
    if let Some(first) = spikes.first() {
        println!("first alert          : {first}");
        let detection_delay = first.at.saturating_nanos_since(window.0);
        println!(
            "detection delay      : {:.2} s after the window opened",
            detection_delay as f64 / 1e9
        );
    }

    // The Grafana view: max latency per 30 s bucket shows a wall.
    let data = Panel::latency_overview().evaluate(&report.tsdb, 0, duration.as_nanos(), 40);
    println!("\nGrafana panel, max(total_ms), 30 s buckets:");
    println!("  {}", data.sparkline(Stat::Max));
    println!("  {}", data.sparkline(Stat::Median));
    println!("  (top: max — the spike is unmistakable; bottom: median — unmoved)");

    // --- What conventional monitoring sees. ---
    println!("\n== SNMP-style 5-minute poller ==");
    for s in &report.snmp {
        println!(
            "  t={:>6} packets={:<7} util={:.4}%",
            s.start,
            s.packets,
            s.utilization * 100.0,
        );
    }
    let utils: Vec<f64> = report.snmp.iter().map(|s| s.utilization).collect();
    let max_util = utils.iter().cloned().fold(0.0, f64::max);
    let min_util = utils.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "utilization swing across polls: {:.3}% — nothing to page anyone about",
        (max_util - min_util) * 100.0
    );

    // Even a generous "NetFlow-style" 5-minute MEAN of latency dilutes the
    // 31× spike into a blip (30 s of 4134 ms inside 300 s of 134 ms).
    let five_min = Panel::latency_overview().evaluate(&report.tsdb, 0, duration.as_nanos(), 4);
    let means: Vec<String> = five_min
        .series_for(Stat::Mean)
        .unwrap()
        .iter()
        .map(|v| v.map(|x| format!("{x:.0}")).unwrap_or_else(|| "-".into()))
        .collect();
    println!(
        "5-minute mean latency per poll : [{}] ms — a 4000 ms incident shrunk {:.0}×",
        means.join(", "),
        4134.0
            / five_min.series_for(Stat::Mean).unwrap()[2]
                .unwrap_or(4134.0)
    );
    println!(
        "\nverdict: {} per-flow alerts vs a counter graph that never moved.",
        spikes.len()
    );
}
