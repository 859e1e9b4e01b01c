//! Idle threads cost nothing: under a trickle of SYNs — one every 200 µs
//! of wall time — the RX lcore sleeps one coalescing period
//! (`RX_COALESCE`) after each drain, and the detector blocks on its one
//! feed instead of polling it. Each sleeps between arrivals and uses a
//! small share of one core. Once the trickle stops, the lcore's sleep runs
//! dry and it parks until the next packet, at no cost at all. A lossless
//! feeder ahead of its RX lcore parks on the full ring the same way. Under
//! steady load the bus wakes a sleeping stage once per burst, not per few
//! records; under a SYN flood the detector is woken per measurement and
//! per flood interval, not per SYN; and a lone record still reaches every
//! stage without more traffic behind it.
//!
//! Linux-only: per-thread CPU time is read from
//! `/proc/self/task/<tid>/schedstat`. The tests take turns on one lock, so
//! the process has exactly one thread of each name at a time.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]
// Pacing the feed needs wall-clock sleeps; this is a test, not a hot path.
#![allow(clippy::disallowed_methods)]

use ruru_analytics::detect::FloodConfig;
use ruru_gen::packet::TcpPacketSpec;
use ruru_gen::{Anomaly, Event, GenConfig, TrafficGen};
use ruru_geo::synth::LOS_ANGELES;
use ruru_nic::lcore::RX_COALESCE;
use ruru_nic::port::{Port, PortConfig};
use ruru_nic::{Clock, Timestamp};
use ruru_pipeline::{conservation, Pipeline, PipelineConfig, Report};
use ruru_wire::tcp::Flags;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Serialises the tests: most look their thread up by name, and the
/// others measure a steady run that a second pipeline would slow.
static ONE_PIPELINE: Mutex<()> = Mutex::new(());

/// CPU time of the thread named `name` (the first field of its
/// `schedstat`, nanoseconds spent on a CPU), and whether it is asleep.
fn thread_cpu(name: &str) -> Option<(Duration, bool)> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    tasks.filter_map(Result::ok).find_map(|task| {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).ok()?;
        if comm.trim_end() != name {
            return None;
        }
        let schedstat = std::fs::read_to_string(path.join("schedstat")).ok()?;
        let ns = schedstat.split_whitespace().next()?.parse().ok()?;
        // The state letter follows the parenthesised comm.
        let stat = std::fs::read_to_string(path.join("stat")).ok()?;
        let asleep = stat.get(stat.rfind(')')? + 2..)?.starts_with('S');
        Some((Duration::from_nanos(ns), asleep))
    })
}

/// Feed a 300 ms SYN trickle through a one-queue pipeline, assert that
/// thread `name` used under a quarter of the wall time, run `after` on the
/// pipeline once the trickle has stopped, and return the report.
fn trickle(name: &str, after: impl FnOnce(&mut Pipeline)) -> Report {
    let _turn = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let (mut pipeline, _world) = Pipeline::with_synth_world(PipelineConfig {
        port: PortConfig {
            num_queues: 1,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    // A new thread takes its name from inside itself, then builds its
    // state (the lcore's flow tables take tens of ms in a debug build):
    // count from its first sleep, once both are done.
    let before = loop {
        if let Some((cpu, true)) = thread_cpu(name) {
            break cpu;
        }
        std::thread::yield_now();
    };
    let period = Duration::from_micros(200);
    let run = Duration::from_millis(300);
    let start = Instant::now();
    let mut sent = 0u32;
    while start.elapsed() < run {
        let frame = TcpPacketSpec::control(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            1024 + (sent % 60_000) as u16,
            80,
            sent,
            0,
            Flags::SYN,
        )
        .build();
        assert!(pipeline.feed(&Event {
            at: Timestamp::from_micros(200 * u64::from(sent)),
            frame,
        }));
        sent += 1;
        let next = period * sent;
        if let Some(wait) = next.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
    }
    let wall = start.elapsed();
    let cpu = thread_cpu(name).unwrap().0 - before;
    after(&mut pipeline);
    let report = pipeline.finish();

    assert_eq!(report.syns(), u64::from(sent));
    assert_eq!(report.telemetry.counter("dp_syn_events"), u64::from(sent));
    let violations = conservation::check(
        &report.telemetry,
        &[
            ("tsdb_points_ingested", report.tsdb.points_ingested()),
            ("telemetry_points", report.telemetry_points),
        ],
    );
    assert!(violations.is_empty(), "{}", violations.join("\n"));
    assert!(
        cpu < wall / 4,
        "{name} used {cpu:?} of CPU over {wall:?} for {sent} SYNs"
    );
    report
}

/// The lcore sleeps between arrivals. A 200 µs trickle never lets a
/// coalescing sleep run dry, so the lcore may never take the untimed park
/// that a delivery would end: either kind of sleep counts.
#[test]
fn rx_lcore_sleeps_under_a_syn_trickle() {
    let report = trickle("lcore-rx0", |_| {});
    assert!(
        report.port.rx_sleeps + report.port.rx_wakeups > 0,
        "the lcore never slept"
    );
}

/// Once the trickle stops, the lcore's last coalescing sleep runs dry and
/// it takes the untimed park within 2 × `RX_COALESCE`: from then on it
/// takes no more sleeps and gains no CPU at all.
#[test]
fn rx_lcore_parks_for_good_once_the_trickle_stops() {
    trickle("lcore-rx0", |pipeline| {
        std::thread::sleep(2 * RX_COALESCE);
        let sleeps = pipeline.telemetry_now().gauge("port_rx_sleeps");
        let (cpu, asleep) = thread_cpu("lcore-rx0").unwrap();
        assert!(sleeps > 0, "the lcore never slept between SYNs");
        assert!(asleep, "the lcore is asleep");
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(
            pipeline.telemetry_now().gauge("port_rx_sleeps"),
            sleeps,
            "the lcore still wakes on its timer"
        );
        let (later, asleep) = thread_cpu("lcore-rx0").unwrap();
        assert!(asleep, "the lcore is still asleep");
        assert_eq!(later, cpu, "the parked lcore used CPU");
    });
}

#[test]
fn detector_sleeps_under_a_syn_trickle() {
    trickle("ruru-detect", |_| {});
}

/// A lossless feeder whose RX ring is full, with the ring's consumer
/// stalled, sleeps instead of spinning: blocked for 200 ms, it gains under
/// 10 ms of CPU. Once the consumer drains, every packet is delivered, the
/// ones that found the ring full counted as waits, none as drops.
#[test]
fn lossless_feeder_sleeps_on_a_full_ring() {
    let _turn = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    const DEPTH: usize = 64;
    const PACKETS: usize = 4 * DEPTH;
    let mut port = Port::new(
        PortConfig {
            num_queues: 1,
            queue_depth: DEPTH,
            pool_size: 2 * PACKETS,
            ..PortConfig::default()
        },
        Clock::virtual_clock(),
    );
    let mut rx = port.take_all_rx_queues().swap_remove(0);
    let feeder = std::thread::Builder::new()
        .name("lossless-feeder".into())
        .spawn(move || {
            // Not TCP: every frame steers to queue 0.
            let frame = vec![0xffu8; 60];
            for _ in 0..PACKETS {
                assert_eq!(port.inject_lossless_at(&frame, Timestamp::ZERO), Some(0));
            }
            port.stats()
        })
        .unwrap();
    // The ring fills, then the feeder blocks on it: count from its sleep.
    while rx.backlog() < DEPTH {
        std::thread::yield_now();
    }
    let blocked = Instant::now();
    let before = loop {
        match thread_cpu("lossless-feeder") {
            Some((cpu, true)) => break cpu,
            _ => assert!(
                blocked.elapsed() < Duration::from_secs(1),
                "the feeder never slept on its full ring"
            ),
        }
        std::thread::yield_now();
    };
    std::thread::sleep(Duration::from_millis(200));
    let (after, asleep) = thread_cpu("lossless-feeder").unwrap();
    assert!(asleep, "the blocked feeder sleeps");
    assert!(
        after - before < Duration::from_millis(10),
        "the blocked feeder used {:?} of CPU in 200 ms",
        after - before
    );
    assert_eq!(rx.backlog(), DEPTH, "nothing drained, nothing delivered");

    let mut out = Vec::new();
    let mut drained = 0;
    while drained < PACKETS {
        drained += rx.rx_burst(&mut out, 32);
        out.clear();
        std::thread::yield_now();
    }
    let stats = feeder.join().unwrap();
    assert_eq!(stats.rx_packets, PACKETS as u64);
    assert_eq!((stats.ring_full_drops, stats.no_mbuf_drops), (0, 0));
    assert!(
        (1..=(PACKETS - DEPTH) as u64).contains(&stats.inject_waits),
        "waits: {}",
        stats.inject_waits
    );
    assert!(stats.inject_parks >= 1, "the drain woke the parked feeder");
}

/// A one-queue pipeline with the default settings otherwise.
fn one_queue() -> PipelineConfig {
    PipelineConfig {
        port: PortConfig {
            num_queues: 1,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Under a steady closed loop, a PUSH wakes the sleeping detector once per
/// burst: over 2 s of handshakes fed as fast as the pipeline takes them,
/// the detector is woken at most once per 8 records it receives. (A wake
/// per send, as the bus once did, made about one per 3.)
#[test]
fn the_detector_is_woken_once_per_burst_under_steady_load() {
    let _turn = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let (mut pipeline, world) = Pipeline::with_synth_world(one_queue());
    // A pass of traffic generated up front and replayed, shifted in time,
    // so the feeder is not slowed by the generator.
    let span = Timestamp::from_secs(5);
    let gen = TrafficGen::with_world(
        GenConfig {
            seed: 12,
            flows_per_sec: 5_000.0,
            duration: span,
            data_exchanges: (0, 1),
            ..GenConfig::default()
        },
        world,
    );
    let pass: Vec<Event> = gen.collect();
    let run = Duration::from_secs(2);
    let start = Instant::now();
    let mut offset = 0;
    'feed: loop {
        for (i, ev) in pass.iter().enumerate() {
            pipeline.feed(&Event {
                at: Timestamp::from_nanos(ev.at.as_nanos() + offset),
                frame: ev.frame.clone(),
            });
            if i % 1024 == 0 && start.elapsed() >= run {
                break 'feed;
            }
        }
        offset += span.as_nanos();
    }
    let report = pipeline.finish();
    let t = &report.telemetry;
    let records = t.counter("det_records_in");
    let wakes = t.gauge("detect_wakeups");
    assert!(records > 10_000, "a steady run: {records} records");
    assert!(
        wakes * 8 <= records,
        "{wakes} detector wakes for {records} records"
    );
}

/// A SYN flood wakes the detector per record it needs, not per SYN: each
/// lcore sends one SYN tally per flood interval, and a wake needs a
/// buffered record, so however the threads are scheduled the wakes stay
/// within `measurements + queues × (intervals + 1)` (the one extra per
/// queue covers the tally sent at shutdown and the disconnect).
#[test]
fn a_syn_flood_wakes_the_detector_per_interval_not_per_syn() {
    let _turn = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let queues = 2u16;
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
        port: PortConfig {
            num_queues: queues,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    let flood_end = Timestamp::from_secs(4);
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 13,
            flows_per_sec: 100.0,
            duration: flood_end,
            data_exchanges: (0, 0),
            anomalies: vec![Anomaly::SynFlood {
                start: Timestamp::ZERO,
                end: flood_end,
                syns_per_sec: 20_000,
                target_city: LOS_ANGELES,
            }],
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let last = pipeline.clock().now().as_nanos();
    let report = pipeline.finish();
    let t = &report.telemetry;
    let intervals = last / FloodConfig::default().interval_ns + 1;
    let syns = t.counter("dp_syn_events");
    assert!(syns > 60_000, "a flood: {syns} SYNs");
    let measurements = report.measurements();
    assert_eq!(t.counter("det_records_in"), syns + measurements);
    let wakes = t.gauge("detect_wakeups");
    let bound = measurements + u64::from(queues) * (intervals + 1);
    assert!(
        wakes <= bound,
        "{wakes} detector wakes for {syns} SYNs and {measurements} measurements \
         over {intervals} intervals: more than {bound}"
    );
}

/// One handshake, one record, far below a burst: it reaches the detector
/// and a PUB subscriber with no more traffic behind it, because the lcore
/// flushes its pipes on its first empty poll and the enricher flushes the
/// detector feed before it blocks. The SYN's tally stays open until a
/// later flood interval or shutdown.
#[test]
fn a_lone_record_reaches_the_detector_and_a_subscriber() {
    let _turn = ONE_PIPELINE.lock().unwrap_or_else(|e| e.into_inner());
    let (mut pipeline, _world) = Pipeline::with_synth_world(one_queue());
    let sub = pipeline.subscribe_enriched(16);
    let (client, server) = ([10, 0, 0, 1], [10, 0, 0, 2]);
    let handshake = [
        TcpPacketSpec::control(client, server, 40_000, 443, 100, 0, Flags::SYN),
        TcpPacketSpec::control(server, client, 443, 40_000, 500, 101, Flags::SYN | Flags::ACK),
        TcpPacketSpec::control(client, server, 40_000, 443, 101, 501, Flags::ACK),
    ];
    for (i, spec) in handshake.iter().enumerate() {
        assert!(pipeline.feed(&Event {
            at: Timestamp::from_millis(1 + i as u64),
            frame: spec.build(),
        }));
    }
    let line = sub.recv_timeout(Duration::from_secs(5));
    assert!(line.is_some(), "the record never reached the PUB subscriber");
    // The detector takes in the measurement.
    let deadline = Instant::now() + Duration::from_secs(5);
    while pipeline.telemetry_now().counter("det_records_in") < 1 {
        assert!(
            Instant::now() < deadline,
            "the record never reached the detector"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let report = pipeline.finish();
    assert_eq!(report.measurements(), 1);
    // Shutdown sends the open tally: the one SYN.
    assert_eq!(report.telemetry.counter("dp_syn_events"), 1);
    assert_eq!(report.telemetry.counter("det_records_in"), 2);
}
