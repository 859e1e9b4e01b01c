//! Quickstart: run the whole Ruru pipeline over two simulated minutes of
//! trans-Pacific traffic and print what the operator would see.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ruru::analytics::KeySpace;
use ruru::gen::{GenConfig, TrafficGen};
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};
use ruru::viz::panel::{Panel, Stat};

fn main() {
    let duration = Timestamp::from_secs(120);
    println!("ruru quickstart — {} of simulated Auckland↔world traffic", duration);

    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 2017,
            flows_per_sec: 150.0,
            duration,
            ..GenConfig::default()
        },
        world,
    );

    let fed = pipeline.run(&mut gen);
    let (flows, _, packets) = gen.stats();
    let report = pipeline.finish();

    println!("\n== dataplane ==");
    println!("packets injected : {packets} ({fed} accepted by the NIC)");
    println!("rx bytes         : {}", report.port.rx_bytes);
    println!(
        "drops            : {} (pool) + {} (ring)",
        report.port.no_mbuf_drops, report.port.ring_full_drops
    );

    println!("\n== measurement (Figure 1) ==");
    println!("flows generated  : {flows}");
    println!("flows measured   : {}", report.measurements());
    for (q, s) in &report.trackers {
        println!(
            "  queue {q}: {} measurements, {} syns, {} in-flight expired",
            s.measurements, s.syns, s.expired
        );
    }

    println!("\n== analytics ==");
    let t = &report.telemetry;
    println!("enriched         : {}", t.counter("enrich_enriched"));
    println!("geo misses       : {}", t.counter("enrich_geo_misses"));
    println!("tsdb points      : {}", report.tsdb.points_ingested());
    println!("alerts           : {}", report.alerts.len());
    println!(
        "city pairs       : {}",
        report.aggregates.key_count(KeySpace::CityPair)
    );

    // The Grafana-style latency panel over the whole run, 24 buckets.
    let data = Panel::latency_overview().evaluate(&report.tsdb, 0, duration.as_nanos(), 24);
    println!("\n== latency panel (total_ms over {} buckets) ==", data.times.len());
    for stat in [Stat::Min, Stat::Median, Stat::Mean, Stat::Max] {
        let series = data.series_for(stat).unwrap();
        let last = series.iter().flatten().last().copied().unwrap_or(0.0);
        println!(
            "  {:>6}: {}  (last {last:.1} ms)",
            stat.name(),
            data.sparkline(stat)
        );
    }

    // A couple of example measurements straight from the tsdb.
    println!("\n== sample per-city-pair medians ==");
    for city in ["Los Angeles", "Sydney", "Tokyo", "London"] {
        let panel = Panel::latency_overview().with_tag("dst_city", city);
        let d = panel.evaluate(&report.tsdb, 0, duration.as_nanos(), 1);
        if let Some(Some(median)) = d.series_for(Stat::Median).map(|s| s[0]) {
            println!("  Auckland → {city:<12} median {median:.1} ms");
        }
    }
}
