//! Shape-level checks of the experiments in EXPERIMENTS.md (E1–E8, E12),
//! at test scale. The bench harness regenerates the full numbers; these
//! tests pin the *direction* of each claim so a regression that flips a
//! conclusion fails CI.

use ruru::analytics::detect::FloodConfig;
use ruru::analytics::{Alert, SynFloodDetector};
use ruru::flow::baseline::pping::{Pping, PpingConfig};
use ruru::flow::baseline::synonly::SynOnly;
use ruru::flow::classify::{classify, ChecksumMode};
use ruru::flow::{HandshakeTracker, TrackerConfig};
use ruru::gen::{Anomaly, GenConfig, TrafficGen};
use ruru::geo::synth::LOS_ANGELES;
use ruru::geo::SynthWorld;
use ruru::nic::port::PortConfig;
use ruru::nic::Timestamp;
use ruru::pipeline::{Pipeline, PipelineConfig};

/// E1 (Figure 1): the three-timestamp decomposition reproduces ground
/// truth exactly, for every flow, including the internal/external split.
#[test]
fn e1_latency_decomposition_is_exact() {
    let mut gen = TrafficGen::new(GenConfig {
        seed: 1,
        flows_per_sec: 500.0,
        duration: Timestamp::from_secs(2),
        data_exchanges: (0, 1),
        ..GenConfig::default()
    });
    let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
    let mut by_tuple = std::collections::HashMap::new();
    for ev in gen.by_ref() {
        let meta = classify(&ev.frame, ev.at, ChecksumMode::Validate).unwrap();
        if let Some(m) = tracker.process(&meta) {
            by_tuple.insert((m.src, m.src_port, m.dst_port), m);
        }
    }
    let truths = gen.truths();
    assert_eq!(by_tuple.len(), truths.len());
    for t in truths {
        let key = (t.src, t.src_port, t.dst_port);
        let m = &by_tuple[&key];
        assert_eq!(m.external_ns, t.external_ns);
        assert_eq!(m.internal_ns, t.internal_ns);
        assert_eq!(m.total_ns(), t.external_ns + t.internal_ns);
    }
}

/// E2 (Figure 2): more RSS queues process a fixed packet batch with the
/// same completeness, and per-queue load is balanced.
#[test]
fn e2_rss_sharding_preserves_completeness_and_balances() {
    for queues in [1u16, 2, 4, 8] {
        let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
            port: ruru::nic::port::PortConfig {
                num_queues: queues,
                // Deep rings: this experiment checks completeness and
                // balance, not loss under overload (E2's bench covers rates).
                queue_depth: 1 << 16,
                pool_size: 1 << 18,
                ..ruru::nic::port::PortConfig::default()
            },
            ..PipelineConfig::default()
        });
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 2,
                flows_per_sec: 400.0,
                duration: Timestamp::from_secs(2),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let report = pipeline.finish();
        assert_eq!(
            report.measurements(),
            gen.truths().len() as u64,
            "{queues} queues"
        );
        if queues >= 4 {
            let counts: Vec<u64> = report.trackers.iter().map(|(_, s)| s.measurements).collect();
            let max = *counts.iter().max().unwrap() as f64;
            let min = *counts.iter().min().unwrap() as f64;
            assert!(min > max * 0.3, "queue imbalance: {counts:?}");
        }
    }
}

/// E3: the firewall spike is caught at flow level with ~100% recall and
/// ~zero false positives, while the SNMP-style utilization view is flat.
#[test]
fn e3_firewall_anomaly_detected_with_high_recall() {
    let window = (Timestamp::from_secs(60), Timestamp::from_secs(75));
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 3,
            flows_per_sec: 50.0,
            duration: Timestamp::from_secs(180),
            data_exchanges: (0, 0),
            anomalies: vec![Anomaly::firewall_4s(window.0, window.1)],
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let affected = gen.truths().iter().filter(|t| t.anomalous).count();
    // The virtual clock stands at the last packet fed.
    let last_packet = pipeline.clock().now();
    let report = pipeline.finish();
    let spikes = report.alerts.iter().filter(|a| a.kind == "latency_spike").count();
    assert!(affected > 100, "window produced {affected} affected flows");
    let recall = spikes as f64 / affected as f64;
    assert!(recall > 0.95, "recall {recall}");
    assert!(
        spikes <= affected + affected / 20,
        "false positives: {spikes} alerts vs {affected} affected"
    );
    // SNMP view: the whole 180 s run, window included, is one five-minute
    // poll. It counts every packet the NIC received, and its utilization
    // is those bytes averaged over the part of the poll the run covered,
    // on the 10 Gbit/s link the poller assumes.
    assert_eq!(report.snmp.len(), 1, "one five-minute poll");
    let poll = report.snmp[0];
    assert_eq!(poll.packets, report.port.rx_packets);
    assert_eq!(poll.bytes, report.port.rx_bytes);
    let secs = last_packet.saturating_nanos_since(poll.start) as f64 / 1e9;
    assert!(secs > 170.0 && secs < 181.0, "the poll covered {secs} s");
    let expected = poll.bytes as f64 * 8.0 / (secs * 10e9);
    assert!(
        (poll.utilization - expected).abs() <= expected * 1e-9,
        "utilization {} against {expected} from the run's own counters",
        poll.utilization
    );
}

/// E4: a SYN flood is detected within one interval while every
/// legitimate flow is still measured, at 1 and 4 RX queues. The lcores
/// hand the detector one SYN tally per queue and flood interval; the
/// pipeline's flood alerts are exactly those of a detector fed every
/// SYN-only packet and every generated handshake's completion one by one,
/// in tap order (the same `at`, SYN count and completion count).
#[test]
fn e4_syn_flood_detected_with_full_legit_coverage() {
    for queues in [1u16, 4] {
        let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
            port: PortConfig {
                num_queues: queues,
                ..PortConfig::default()
            },
            tracker: TrackerConfig {
                capacity: 50_000,
                ..TrackerConfig::default()
            },
            ..PipelineConfig::default()
        });
        let flood_start = Timestamp::from_secs(5);
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 4,
                flows_per_sec: 100.0,
                duration: Timestamp::from_secs(15),
                data_exchanges: (0, 0),
                anomalies: vec![Anomaly::SynFlood {
                    start: flood_start,
                    end: Timestamp::from_secs(10),
                    syns_per_sec: 20_000,
                    target_city: LOS_ANGELES,
                }],
                ..GenConfig::default()
            },
            world,
        );
        let events: Vec<_> = gen.by_ref().collect();
        for ev in &events {
            assert!(pipeline.feed(ev));
        }
        let report = pipeline.finish();

        // The oracle: one `observe_syn` per SYN-only packet and one
        // `observe_completion` per handshake, at its ACK's tap time.
        let mut stream: Vec<(Timestamp, bool)> = events
            .iter()
            .filter(|ev| {
                classify(&ev.frame, ev.at, ChecksumMode::Validate)
                    .is_ok_and(|meta| meta.flags.is_syn_only())
            })
            .map(|ev| (ev.at, true))
            .collect();
        stream.extend(
            gen.truths()
                .iter()
                .map(|t| (t.t_syn_tap.advanced(t.external_ns + t.internal_ns), false)),
        );
        stream.sort_by_key(|&(at, _)| at);
        let mut oracle = SynFloodDetector::new(FloodConfig::default());
        let expected: Vec<Alert> = stream
            .iter()
            .filter_map(|&(at, syn)| {
                if syn {
                    oracle.observe_syn(at)
                } else {
                    oracle.observe_completion(at)
                }
            })
            .collect();
        let floods: Vec<Alert> = report
            .alerts
            .iter()
            .filter(|a| a.kind == "syn_flood")
            .cloned()
            .collect();
        assert!(!floods.is_empty(), "flood must be detected");
        assert_eq!(floods, expected, "{queues} queues");
        let delay = floods[0].at.saturating_nanos_since(flood_start);
        assert!(delay <= 2_000_000_000, "detection delay {delay} ns");
        assert_eq!(
            report.measurements(),
            gen.truths().len() as u64,
            "legit flows still measured under flood"
        );
    }
}

/// E5: frame batching keeps up with thousands of connections/sec and
/// respects the per-frame budget.
#[test]
fn e5_frame_batcher_sustains_thousands_per_second() {
    use ruru::viz::frame::{FrameBatcher, FrameConfig};
    let mut batcher = FrameBatcher::new(FrameConfig::default(), Timestamp::ZERO);
    // 5000 connections/s for one simulated second.
    let mut frames = Vec::new();
    for i in 0..5000u64 {
        let at = Timestamp::from_nanos(i * 200_000);
        frames.extend(batcher.add(at, (-36.85, 174.76), (34.05, -118.24), 130.0));
    }
    frames.extend(batcher.advance_to(Timestamp::from_secs(2)));
    let (drawn, dropped) = batcher.stats();
    assert_eq!(drawn + dropped, 5000);
    assert_eq!(dropped, 0, "2000-arc budget not exceeded at 5k/s and 30fps");
    assert!(frames.len() >= 30, "one sim-second cuts ≥30 frames");
    // Every frame within budget and JSON-encodable.
    for f in &frames {
        assert!(f.arcs.len() <= 2000);
    }
    let json = frames.iter().find(|f| !f.arcs.is_empty()).unwrap().to_json();
    assert!(json.contains("\"arcs\""));
}

/// E6: geo enrichment reproduces the "98% country-level accuracy" claim
/// against a 2%-perturbed database.
#[test]
fn e6_geo_accuracy_with_perturbed_db() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // One perturbed database has only ~84 IPv4 ranges: at 2 % no range is
    // perturbed about 18 % of the time, and one with four perturbed ranges
    // falls below the floor. Pool the lookups over many perturbation seeds
    // instead, so both assertions hold for any seed stream.
    const SEEDS: u64 = 64;
    const LOOKUPS_PER_SEED: u32 = 1_000;
    let world = SynthWorld::generate(2);
    let mut rng = StdRng::seed_from_u64(10);
    let mut correct = 0u32;
    for seed in 0..SEEDS {
        let perturbed = world.perturbed(0.02, seed).unwrap();
        for i in 0..LOOKUPS_PER_SEED {
            let city = (i as usize) % world.city_count();
            let addr = world.sample_v4(city, &mut rng);
            let key = 0xffff_0000_0000u128 | u32::from_be_bytes(addr) as u128;
            let truth = world.db().lookup_key(key).unwrap();
            let got = perturbed.lookup_key(key).unwrap();
            if got.country_code == truth.country_code {
                correct += 1;
            }
        }
    }
    let acc = correct as f64 / (SEEDS as u32 * LOOKUPS_PER_SEED) as f64;
    // Country-level accuracy beats range-level perturbation (some wrong
    // ranges still land in the right country), matching the ~98% claim.
    assert!(acc >= 0.97, "accuracy {acc}");
    assert!(acc < 1.0, "perturbation must bite");
}

/// E7: Ruru covers every flow with 2 table ops per flow; pping yields more
/// samples but pays per-packet state; SYN-only only sees the external half.
#[test]
fn e7_baseline_comparison_shapes() {
    let mut gen = TrafficGen::new(GenConfig {
        seed: 7,
        flows_per_sec: 200.0,
        duration: Timestamp::from_secs(3),
        data_exchanges: (2, 4),
        ..GenConfig::default()
    });
    let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
    let mut pping = Pping::new(PpingConfig::default());
    let mut synonly = SynOnly::new(1 << 20, 10_000_000_000);
    let (mut ruru_n, mut pping_n, mut syn_n) = (0u64, 0u64, 0u64);
    let mut ruru_total = Vec::new();
    let mut syn_ext = Vec::new();
    for ev in gen.by_ref() {
        let meta = classify(&ev.frame, ev.at, ChecksumMode::Trust).unwrap();
        if let Some(m) = tracker.process(&meta) {
            ruru_n += 1;
            ruru_total.push(m.total_ns());
        }
        if pping.process(&meta).is_some() {
            pping_n += 1;
        }
        if let Some(s) = synonly.process(&meta) {
            syn_n += 1;
            syn_ext.push(s.rtt_ns);
        }
    }
    let flows = gen.truths().len() as u64;
    assert_eq!(ruru_n, flows, "Ruru: exactly one measurement per flow");
    assert_eq!(syn_n, flows, "SYN-only also covers flows");
    assert!(
        pping_n > 2 * flows,
        "pping produces many per-flow samples: {pping_n} vs {flows}"
    );
    // SYN-only underestimates: its external-only median is below Ruru's
    // total median.
    ruru_total.sort_unstable();
    syn_ext.sort_unstable();
    assert!(syn_ext[syn_n as usize / 2] < ruru_total[ruru_n as usize / 2]);
    // pping state grows with in-flight TSvals, Ruru's only with handshakes.
    assert!(pping.outstanding() > tracker.in_flight());
}

/// E8: the zero-copy bus fans out without copying payload bytes, and
/// PUSH/PULL delivers everything under backpressure.
#[test]
fn e8_bus_zero_copy_and_lossless_pushpull() {
    use ruru::mq::{pipe, Message, Publisher};
    let publisher = Publisher::new();
    let subs: Vec<_> = (0..8).map(|_| publisher.subscribe("", 64)).collect();
    let payload = bytes::Bytes::from(vec![7u8; 16 * 1024]);
    publisher.publish(Message::new("t", payload.clone()));
    for s in &subs {
        let m = s.try_recv().unwrap();
        assert_eq!(m.payload.as_ptr(), payload.as_ptr(), "no copy on fan-out");
    }

    let (push, pull) = pipe::<Message>(8);
    let consumer = std::thread::spawn(move || {
        let mut n = 0u32;
        while let Some(m) = pull.recv() {
            assert_eq!(m.payload.len(), 66);
            n += 1;
        }
        n
    });
    for _ in 0..10_000u32 {
        push.send(Message::new("m", vec![0u8; 66])).unwrap();
    }
    drop(push);
    assert_eq!(consumer.join().unwrap(), 10_000);
}

/// E12: the continuous in-flow RTT path catches a mid-flow latency
/// regression that handshake-only sampling provably misses. Elephant
/// flows all complete setup before the congestion window opens, so every
/// handshake measurement is clean and the spike detector (fed by
/// handshake measurements) stays silent — while the in-flow histogram
/// records the shifted exchanges unmistakably.
#[test]
fn e12_inflow_catches_midflow_shift_handshakes_miss() {
    use ruru::geo::synth::AUCKLAND;
    let shift_start = Timestamp::from_secs(4);
    let shift_end = Timestamp::from_secs(8);
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            // LA-only external mix: the clean data-leg RTT stays below
            // ~150 ms (2×OWD + jitter + proc), so the 60 ms shift
            // separates the populations deterministically.
            external_weights: vec![(LOS_ANGELES, 1)],
            internal_cities: vec![AUCKLAND],
            ..GenConfig::elephant_flows(
                12,
                Timestamp::from_secs(1),
                shift_start,
                shift_end,
                60_000_000,
            )
        },
        world,
    );
    pipeline.run(&mut gen);
    let report = pipeline.finish();
    let truths = gen.truths();
    assert!(!truths.is_empty());

    // Handshake-only view: complete coverage, every setup clean, no
    // ground-truth flow flagged, and the handshake-fed spike detector
    // never fires — the regression is invisible at this layer.
    assert!(truths
        .iter()
        .all(|t| t.t_syn_tap < Timestamp::from_secs(1)));
    assert_eq!(report.measurements(), truths.len() as u64);
    assert!(truths.iter().all(|t| !t.anomalous));
    assert!(truths.iter().all(|t| t.external_ns < 160_000_000));
    assert!(
        report.alerts.iter().all(|a| a.kind != "latency_spike"),
        "handshake-fed detector saw the shift it cannot see: {:?}",
        report.alerts.iter().find(|a| a.kind == "latency_spike")
    );

    // In-flow view: the registry's merged per-queue histogram carries a
    // heavy tail that no clean AKL↔LAX exchange can produce.
    let h = report.telemetry.hist("inflow_rtt_ns").expect("in-flow histogram");
    assert_eq!(h.count, report.inflow_samples());
    assert!(h.count > 500, "in-flow samples: {}", h.count);
    assert!(
        h.max >= 170_000_000,
        "shifted exchanges recorded: max {} ns",
        h.max
    );
    // The window spans a large share of the exchanges, so the tail is
    // population-level, not a stray sample.
    assert!(
        h.value_at_quantile(0.95) >= 160_000_000,
        "p95 {} ns",
        h.value_at_quantile(0.95)
    );
}
