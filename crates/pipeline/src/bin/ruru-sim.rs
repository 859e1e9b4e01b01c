//! `ruru-sim` — scenario runner for the Ruru pipeline.
//!
//! ```text
//! ruru-sim [SCENARIO] [--secs N] [--rate F] [--queues N]
//!          [--seed N] [--dashboard] [--json] [--diurnal]
//!          [--pcap-in FILE] [--pcap-out FILE] [--snapshot FILE]
//!
//! SCENARIO: steady (default) | firewall | synflood
//! --json      print a JSON summary: counts, every alert and every city
//!             pair's latency row
//! --queues    RX queues; the enrichment pool gets one worker per queue
//! --diurnal   shape the flow arrival rate with a day/night cycle
//! --pcap-in   analyze a capture file instead of generating traffic
//! --pcap-out  also write the generated traffic to a capture file
//! --snapshot  save the time-series database to FILE after the run
//! ```
//!
//! Examples:
//!
//! ```sh
//! cargo run --release --bin ruru-sim -- steady --secs 60 --rate 200
//! cargo run --release --bin ruru-sim -- firewall --secs 1200 --dashboard
//! cargo run --release --bin ruru-sim -- synflood --rate 50 --json
//! ```


// CLI runner: fail-fast on IO errors and wall-clock timing of the run
// are the point; the panic-freedom policy targets the dataplane library.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::disallowed_methods)]

use ruru_gen::{Anomaly, GenConfig, TrafficGen};
use ruru_geo::synth::LOS_ANGELES;
use ruru_nic::port::PortConfig;
use ruru_nic::Timestamp;
use ruru_pipeline::{Pipeline, PipelineConfig};
use ruru_viz::Dashboard;

struct Args {
    scenario: String,
    secs: u64,
    rate: f64,
    queues: u16,
    seed: u64,
    dashboard: bool,
    json: bool,
    pcap_in: Option<String>,
    pcap_out: Option<String>,
    snapshot: Option<String>,
    diurnal: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scenario: "steady".into(),
        secs: 60,
        rate: 100.0,
        queues: 4,
        seed: 1,
        dashboard: false,
        json: false,
        pcap_in: None,
        pcap_out: None,
        snapshot: None,
        diurnal: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "steady" | "firewall" | "synflood" => args.scenario = arg,
            "--secs" => args.secs = value("--secs")?.parse().map_err(|e| format!("--secs: {e}"))?,
            "--rate" => args.rate = value("--rate")?.parse().map_err(|e| format!("--rate: {e}"))?,
            "--queues" => {
                args.queues = value("--queues")?.parse().map_err(|e| format!("--queues: {e}"))?
            }
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--dashboard" => args.dashboard = true,
            "--json" => args.json = true,
            "--pcap-in" => args.pcap_in = Some(value("--pcap-in")?),
            "--pcap-out" => args.pcap_out = Some(value("--pcap-out")?),
            "--snapshot" => args.snapshot = Some(value("--snapshot")?),
            "--diurnal" => args.diurnal = true,
            "--help" | "-h" => {
                println!(
                    "usage: ruru-sim [steady|firewall|synflood] [--secs N] [--rate F] \
                     [--queues N] [--seed N] [--dashboard] [--json] \
                     [--pcap-in FILE] [--pcap-out FILE] [--snapshot FILE] [--diurnal]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let duration = Timestamp::from_secs(args.secs);
    let anomalies = match args.scenario.as_str() {
        "firewall" => {
            let start = Timestamp::from_nanos(duration.as_nanos() / 2);
            let end = start.advanced(30 * 1_000_000_000);
            eprintln!("scenario: firewall 4000 ms window {start}..{end}");
            vec![Anomaly::firewall_4s(start, end)]
        }
        "synflood" => {
            let start = Timestamp::from_nanos(duration.as_nanos() / 3);
            let end = Timestamp::from_nanos(duration.as_nanos() * 2 / 3);
            eprintln!("scenario: 30k SYN/s flood {start}..{end}");
            vec![Anomaly::SynFlood {
                start,
                end,
                syns_per_sec: 30_000,
                target_city: LOS_ANGELES,
            }]
        }
        _ => Vec::new(),
    };

    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
        port: PortConfig {
            num_queues: args.queues,
            queue_depth: 1 << 15,
            pool_size: 1 << 17,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: args.seed,
            flows_per_sec: args.rate,
            rate_profile: if args.diurnal {
                ruru_gen::RateProfile::diurnal()
            } else {
                ruru_gen::RateProfile::Constant
            },
            duration,
            anomalies,
            record_truth: false,
            ..GenConfig::default()
        },
        world,
    );

    let wall = std::time::Instant::now();
    let (flows, flood_syns, packets);
    if let Some(path) = &args.pcap_in {
        // Offline mode: feed a capture through the pipeline instead of the
        // generator (the libpcap fall-back path).
        let file = std::fs::File::open(path).unwrap_or_else(|e| {
            eprintln!("error: cannot open {path}: {e}");
            std::process::exit(1);
        });
        let mut reader = ruru_wire::pcap::Reader::new(std::io::BufReader::new(file))
            .unwrap_or_else(|e| {
                eprintln!("error: {path} is not a readable pcap: {e}");
                std::process::exit(1);
            });
        let mut n = 0u64;
        while let Some(rec) = reader.next() {
            let rec = rec.unwrap_or_else(|e| {
                eprintln!("error: malformed record in {path}: {e}");
                std::process::exit(1);
            });
            pipeline.feed(&ruru_gen::Event {
                at: Timestamp::from_nanos(rec.timestamp_ns),
                frame: rec.data,
            });
            n += 1;
        }
        eprintln!("replayed {n} packets from {path}");
        flows = 0;
        flood_syns = 0;
        packets = n;
    } else if let Some(path) = &args.pcap_out {
        let file = std::fs::File::create(path).unwrap_or_else(|e| {
            eprintln!("error: cannot create {path}: {e}");
            std::process::exit(1);
        });
        let mut writer = ruru_wire::pcap::Writer::new(std::io::BufWriter::new(file))
            .expect("pcap header");
        for ev in gen.by_ref() {
            writer
                .write(&ruru_wire::pcap::Record {
                    timestamp_ns: ev.at.as_nanos(),
                    orig_len: ev.frame.len() as u32,
                    data: ev.frame.clone(),
                })
                .expect("pcap write");
            pipeline.feed(&ev);
        }
        eprintln!("wrote capture to {path}");
        (flows, flood_syns, packets) = gen.stats();
    } else {
        pipeline.run(&mut gen);
        (flows, flood_syns, packets) = gen.stats();
    }
    let report = pipeline.finish();
    let wall_secs = wall.elapsed().as_secs_f64();

    if let Some(path) = &args.snapshot {
        let image = report.tsdb.to_snapshot();
        std::fs::write(path, &image).unwrap_or_else(|e| {
            eprintln!("error: cannot write snapshot {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("tsdb snapshot: {path} ({} bytes)", image.len());
    }

    if args.json {
        // Machine-readable summary.
        let mut w = ruru_viz::json::JsonWriter::new();
        w.begin_object()
            .key("scenario")
            .string(&args.scenario)
            .key("sim_secs")
            .integer(args.secs as i64)
            .key("wall_secs")
            .number(wall_secs)
            .key("packets")
            .integer(packets as i64)
            .key("flows")
            .integer(flows as i64)
            .key("flood_syns")
            .integer(flood_syns as i64)
            .key("measurements")
            .integer(report.measurements() as i64)
            .key("enriched")
            .integer(report.telemetry.counter("enrich_enriched") as i64)
            .key("telemetry_points")
            .integer(report.telemetry_points as i64)
            .key("skipped_shards")
            .integer(report.telemetry.skipped_shards as i64)
            .key("alerts")
            .begin_object()
            .key("total")
            .integer(report.alerts.len() as i64);
        for kind in ["latency_spike", "syn_flood", "connection_rate"] {
            let n = report.alerts.iter().filter(|a| a.kind == kind).count();
            w.key(kind).integer(n as i64);
        }
        w.key("list").begin_array();
        for a in &report.alerts {
            w.begin_object()
                .key("kind")
                .string(&a.kind)
                .key("severity")
                .string(&a.severity.to_string())
                .key("key")
                .string(&a.key)
                .key("at_ns")
                .integer(a.at.as_nanos() as i64)
                .key("value")
                .number(a.value)
                .key("message")
                .string(&a.message)
                .end_object();
        }
        w.end_array().end_object();
        // Every city pair, busiest first: the rows the text summary
        // prints the top five of.
        use ruru_analytics::KeySpace;
        let pairs = report.aggregates.key_count(KeySpace::CityPair);
        w.key("city_pairs").begin_array();
        for (key, stats) in report.aggregates.top_by_count(KeySpace::CityPair, pairs) {
            w.begin_object()
                .key("key")
                .string(key)
                .key("count")
                .integer(stats.count() as i64)
                .key("mean_ms")
                .number(stats.mean())
                .key("median_ms")
                .number(stats.median())
                .key("p95_ms")
                .number(stats.p95())
                .key("max_ms")
                .number(stats.max())
                .end_object();
        }
        w.end_array()
            .key("nic_drops")
            .integer((report.port.no_mbuf_drops + report.port.ring_full_drops) as i64)
            .end_object();
        println!("{}", w.finish());
        return;
    }

    println!("scenario {}: {} sim-seconds in {wall_secs:.2} wall-seconds", args.scenario, args.secs);
    println!("packets {packets} | flows {flows} | flood SYNs {flood_syns}");
    println!(
        "measured {} | enriched {} | tsdb points {} ({} self-telemetry) | skipped shards {}",
        report.measurements(),
        report.telemetry.counter("enrich_enriched"),
        report.tsdb.points_ingested(),
        report.telemetry_points,
        report.telemetry.skipped_shards
    );
    if report.telemetry.skipped_shards != 0 {
        println!(
            "  WARNING: final telemetry snapshot is torn — shard ids {:?}",
            report.telemetry.skipped_shard_ids
        );
    }
    println!(
        "alerts: {} total ({} spike / {} flood / {} rate)",
        report.alerts.len(),
        report.alerts.iter().filter(|a| a.kind == "latency_spike").count(),
        report.alerts.iter().filter(|a| a.kind == "syn_flood").count(),
        report.alerts.iter().filter(|a| a.kind == "connection_rate").count(),
    );
    for alert in report.alerts.iter().take(5) {
        println!("  {alert}");
    }
    if report.alerts.len() > 5 {
        println!("  … {} more", report.alerts.len() - 5);
    }

    // The paper's location/AS aggregation view.
    use ruru_analytics::KeySpace;
    println!("\nbusiest city pairs:");
    for (key, stats) in report.aggregates.top_by_count(KeySpace::CityPair, 5) {
        println!(
            "  {key:<28} n={:<6} mean {:>7.1} ms  p95 {:>7.1} ms  max {:>7.1} ms",
            stats.count(),
            stats.mean(),
            stats.p95(),
            stats.max()
        );
    }
    println!("slowest AS pairs (n ≥ 20):");
    for (key, stats) in report.aggregates.top_by_mean(KeySpace::AsPair, 5, 20) {
        println!(
            "  {key:<28} n={:<6} mean {:>7.1} ms  median {:>7.1} ms",
            stats.count(),
            stats.mean(),
            stats.median()
        );
    }

    if args.dashboard {
        let dash = Dashboard::operator_default(&report.tsdb, 4);
        let data = dash.evaluate(&report.tsdb, 0, duration.as_nanos(), 48);
        println!("\n{}", data.render_ascii());
    }
}
