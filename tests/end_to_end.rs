//! Integration tests spanning the whole workspace: generator → NIC →
//! trackers → bus → analytics → tsdb/frontend, under clean and adverse
//! conditions.

use ruru::flow::classify::{classify, ChecksumMode};
use ruru::flow::{HandshakeTracker, TrackerConfig};
use ruru::gen::{GenConfig, TrafficGen};
use ruru::nic::fault::{FaultConfig, FaultInjector};
use ruru::nic::port::PortConfig;
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};

fn base_gen(seed: u64, fps: f64, secs: u64) -> GenConfig {
    GenConfig {
        seed,
        flows_per_sec: fps,
        duration: Timestamp::from_secs(secs),
        data_exchanges: (0, 2),
        ..GenConfig::default()
    }
}

#[test]
fn clean_run_measures_every_flow_exactly() {
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(base_gen(101, 250.0, 3), world);
    pipeline.run(&mut gen);
    let report = pipeline.finish();

    let truths = gen.truths();
    assert_eq!(report.measurements(), truths.len() as u64);
    let t = &report.telemetry;
    assert_eq!(t.counter("enrich_enriched"), truths.len() as u64);
    // Conservation: everything in the store is either an enriched
    // measurement or a `ruru_self` telemetry export point.
    assert_eq!(
        report.tsdb.points_ingested(),
        truths.len() as u64 + report.telemetry_points
    );
    assert_eq!(t.counter("enrich_geo_misses"), 0);
    assert_eq!(report.rejects.total(), 0);
    // Every measurement passed through the detector's per-record work.
    let aggregated: u64 = report
        .aggregates
        .top_by_count(ruru::analytics::KeySpace::CityPair, usize::MAX)
        .iter()
        .map(|(_, s)| s.count())
        .sum();
    assert_eq!(aggregated, truths.len() as u64);

    // Spot-check values through the tsdb: mean external for LA flows in a
    // plausible trans-Pacific band.
    let q = ruru::tsdb::Query::range("latency", "external_ms", 0, u64::MAX)
        .with_tag("dst_city", "Los Angeles");
    let agg = report.tsdb.query(&q)[0].agg.expect("LA flows present");
    assert!(
        (100.0..170.0).contains(&agg.mean),
        "external mean {} ms",
        agg.mean
    );
}

#[test]
fn lossy_link_degrades_gracefully_never_wrongly() {
    // Drop/corrupt/duplicate/reorder the tap stream. The tracker may lose
    // flows (dropped handshake packets) but must never fabricate a
    // measurement that disagrees with ground truth.
    let mut gen = TrafficGen::new(base_gen(202, 150.0, 3));
    let mut injector = FaultInjector::new(
        FaultConfig {
            drop: 0.02,
            corrupt: 0.01,
            duplicate: 0.01,
            reorder: 0.01,
        },
        7,
    );
    let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
    let mut measured = Vec::new();
    let mut corrupt_rejects = 0u64;
    for ev in gen.by_ref() {
        for frame in injector.apply(ev.frame) {
            match classify(&frame, ev.at, ChecksumMode::Validate) {
                Ok(meta) => {
                    if let Some(m) = tracker.process(&meta) {
                        measured.push(m);
                    }
                }
                Err(_) => corrupt_rejects += 1,
            }
        }
    }
    let truths = gen.truths();
    assert!(corrupt_rejects > 0, "checksums catch corrupted frames");
    // Coverage: the vast majority of flows still measured.
    let coverage = measured.len() as f64 / truths.len() as f64;
    assert!(coverage > 0.80, "coverage {coverage}");
    // Correctness: measurements match ground truth except for the few
    // flows whose handshake packets were reordered (reordering genuinely
    // changes tap arrival times) or whose ACK was dropped and replaced by
    // the first data packet. Those must stay a small minority; nothing may
    // be fabricated (every measurement maps to a generated flow).
    let mut exact = 0usize;
    for m in &measured {
        let t = truths
            .iter()
            .find(|t| {
                t.src_port == m.src_port
                    && t.dst_port == m.dst_port
                    && t.src == m.src
            })
            .expect("measurement corresponds to a generated flow");
        if m.external_ns == t.external_ns && m.internal_ns == t.internal_ns {
            exact += 1;
        }
    }
    let exact_frac = exact as f64 / measured.len() as f64;
    assert!(exact_frac > 0.90, "exact fraction {exact_frac}");
}

#[test]
fn symmetric_rss_keeps_flows_whole_asymmetric_splits_them() {
    let run = |symmetric: bool| {
        let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
            port: PortConfig {
                num_queues: 8,
                symmetric_rss: symmetric,
                ..PortConfig::default()
            },
            ..PipelineConfig::default()
        });
        let mut gen = TrafficGen::with_world(base_gen(303, 200.0, 2), world);
        pipeline.run(&mut gen);
        let report = pipeline.finish();
        (gen.truths().len() as u64, report)
    };

    let (flows_sym, report_sym) = run(true);
    assert_eq!(
        report_sym.measurements(),
        flows_sym,
        "symmetric RSS: every flow measured"
    );

    let (flows_asym, report_asym) = run(false);
    // With the Microsoft key, most flows' directions land on different
    // queues; the per-queue trackers see only half a handshake.
    assert!(
        report_asym.measurements() < flows_asym / 2,
        "asymmetric RSS breaks per-queue tracking: {}/{flows_asym}",
        report_asym.measurements()
    );
    let strays: u64 = report_asym
        .trackers
        .iter()
        .map(|(_, s)| s.stray_synacks)
        .sum();
    assert!(strays > 0, "split handshakes appear as stray SYN-ACKs");
}

#[test]
fn dual_stack_flows_are_tracked() {
    use ruru::gen::packet::build_v6_control;
    use ruru::wire::tcp::Flags;
    let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
    let a = [0x24u8; 16];
    let b = [0x26u8; 16];
    let t = |us| Timestamp::from_micros(us);

    let syn = build_v6_control(a, b, 50000, 443, 100, 0, Flags::SYN);
    let synack = build_v6_control(b, a, 443, 50000, 900, 101, Flags::SYN | Flags::ACK);
    let ack = build_v6_control(a, b, 50000, 443, 101, 901, Flags::ACK);

    let m1 = classify(&syn, t(0), ChecksumMode::Validate).unwrap();
    let m2 = classify(&synack, t(140_000), ChecksumMode::Validate).unwrap();
    let m3 = classify(&ack, t(141_000), ChecksumMode::Validate).unwrap();
    assert!(tracker.process(&m1).is_none());
    assert!(tracker.process(&m2).is_none());
    let m = tracker.process(&m3).expect("v6 handshake measured");
    assert_eq!(m.external_ns, 140_000_000);
    assert_eq!(m.internal_ns, 1_000_000);
    assert!(!m.src.is_v4());
}

#[test]
fn backpressure_slow_analytics_loses_nothing() {
    // A tiny HWM forces the PUSH side to block; every measurement must
    // still arrive (ZeroMQ PUSH semantics: block, don't drop). One RX
    // queue means a single enrichment worker drains the pipe.
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
        mq_hwm: 2,
        port: PortConfig {
            num_queues: 1,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    let mut gen = TrafficGen::with_world(base_gen(404, 300.0, 2), world);
    pipeline.run(&mut gen);
    let report = pipeline.finish();
    let truths = gen.truths().len() as u64;
    assert_eq!(report.telemetry.counter("dp_records_out"), truths);
    assert_eq!(report.telemetry.counter("enrich_enriched"), truths);
    assert_eq!(report.rejects.bus_closed, 0, "no push was dropped");
}

#[test]
fn pcap_roundtrip_preserves_measurements() {
    use ruru::wire::pcap;
    // Generate → pcap bytes → replay: identical measurement set.
    let mut gen = TrafficGen::new(base_gen(505, 100.0, 2));
    let mut buf = Vec::new();
    {
        let mut w = pcap::Writer::new(&mut buf).unwrap();
        for ev in gen.by_ref() {
            w.write(&pcap::Record {
                timestamp_ns: ev.at.as_nanos(),
                orig_len: ev.frame.len() as u32,
                data: ev.frame,
            })
            .unwrap();
        }
    }
    let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
    let mut measured = 0u64;
    let mut reader = pcap::Reader::new(&buf[..]).unwrap();
    while let Some(rec) = reader.next() {
        let rec = rec.unwrap();
        let meta = classify(
            &rec.data,
            Timestamp::from_nanos(rec.timestamp_ns),
            ChecksumMode::Validate,
        )
        .unwrap();
        if tracker.process(&meta).is_some() {
            measured += 1;
        }
    }
    assert_eq!(measured, gen.truths().len() as u64);
}
