//! E4 — §3: "SYN floods … identified in real-time".
//!
//! Reproduced claims: detection within one accounting interval; bounded
//! tracker memory under flood (oldest-first shedding); legitimate flows
//! measured throughout. The timed part measures tracker cost per
//! flood SYN (the worst-case packet: always a table insert, often an
//! eviction) at several flood rates.

use ruru_bench::bench;
use ruru_flow::classify::TcpMeta;
use ruru_flow::{HandshakeTracker, TrackerConfig};
use ruru_gen::{Anomaly, GenConfig, TrafficGen};
use ruru_geo::synth::LOS_ANGELES;
use ruru_nic::Timestamp;
use ruru_pipeline::{Pipeline, PipelineConfig};
use ruru_wire::tcp::Flags;
use ruru_wire::{ipv4, IpAddress};
use std::hint::black_box;

fn drill(rate: u64) -> (usize, f64, u64, u64) {
    let flood_start = Timestamp::from_secs(5);
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
        tracker: TrackerConfig {
            capacity: 100_000,
            ..TrackerConfig::default()
        },
        // Deep rings: this drill measures tracker resilience, not host
        // scheduling; on a 1-CPU host shallow rings overflow spuriously.
        port: ruru_nic::port::PortConfig {
            queue_depth: 1 << 16,
            pool_size: 1 << 18,
            ..ruru_nic::port::PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 41,
            flows_per_sec: 100.0,
            duration: Timestamp::from_secs(15),
            data_exchanges: (0, 0),
            anomalies: vec![Anomaly::SynFlood {
                start: flood_start,
                end: Timestamp::from_secs(10),
                syns_per_sec: rate,
                target_city: LOS_ANGELES,
            }],
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let legit = gen.truths().len() as u64;
    let report = pipeline.finish();
    let alerts: Vec<_> = report.alerts.iter().filter(|a| a.kind == "syn_flood").collect();
    let delay = alerts
        .first()
        .map(|a| a.at.saturating_nanos_since(flood_start) as f64 / 1e9)
        .unwrap_or(f64::NAN);
    let max_in_flight: u64 = report
        .trackers
        .iter()
        .map(|(_, s)| s.evicted + s.expired)
        .sum();
    (alerts.len(), delay, report.measurements() * 100 / legit, max_in_flight)
}

fn flood_metas(n: usize) -> Vec<TcpMeta> {
    (0..n)
        .map(|i| TcpMeta {
            src: IpAddress::V4(ipv4::Address([
                (i >> 24) as u8 | 1,
                (i >> 16) as u8,
                (i >> 8) as u8,
                i as u8,
            ])),
            dst: IpAddress::V4(ipv4::Address([100, 8, 0, 1])),
            src_port: (i % 60000) as u16 + 1024,
            dst_port: 443,
            seq: i as u32,
            ack: 0,
            flags: Flags::SYN,
            payload_len: 0,
            timestamps: None,
            timestamp: Timestamp::from_nanos(i as u64 * 20_000),
        })
        .collect()
}

fn main() {
    println!("== E4: SYN flood detection and resilience ==");
    for rate in [10_000u64, 50_000, 200_000] {
        let (alerts, delay, legit_pct, shed) = drill(rate);
        println!(
            "  {rate:>7} SYN/s: {alerts} alerts, first after {delay:.2} s, \
             legit coverage {legit_pct}%, {shed} entries shed/expired"
        );
    }

    for n in [50_000usize, 200_000] {
        let metas = flood_metas(n);
        bench(&format!("e4_tracker_under_flood/flood_syns/{n}"), n as u64, || {
            let mut tracker = HandshakeTracker::new(
                0,
                TrackerConfig {
                    capacity: 100_000,
                    ..TrackerConfig::default()
                },
            );
            for meta in &metas {
                black_box(tracker.process(black_box(meta)));
            }
            tracker.in_flight() as u64
        });
    }
}
