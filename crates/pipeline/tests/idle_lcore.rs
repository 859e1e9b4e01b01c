//! The RX lcore parks on an empty ring and the port wakes it on the next
//! packet: under a trickle of SYNs — one every 200 µs of wall time — it
//! sleeps between arrivals and uses a small share of one core.
//!
//! Linux-only: per-thread CPU time is read from `/proc/self/task/*/stat`.
//! The test is its own binary, so the process has exactly one
//! `lcore-rx0` thread.
#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]
// Pacing the feed needs wall-clock sleeps; this is a test, not a hot path.
#![allow(clippy::disallowed_methods)]

use ruru_gen::packet::TcpPacketSpec;
use ruru_gen::Event;
use ruru_nic::port::PortConfig;
use ruru_nic::Timestamp;
use ruru_pipeline::{conservation, Pipeline, PipelineConfig};
use ruru_wire::tcp::Flags;
use std::time::{Duration, Instant};

/// `/proc` reports per-thread CPU time in USER_HZ ticks, 100 per second
/// on Linux.
const TICK: Duration = Duration::from_millis(10);

/// utime + stime of the thread named `name`, in clock ticks.
fn thread_cpu_ticks(name: &str) -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    tasks.filter_map(Result::ok).find_map(|task| {
        let path = task.path();
        let comm = std::fs::read_to_string(path.join("comm")).ok()?;
        if comm.trim_end() != name {
            return None;
        }
        let stat = std::fs::read_to_string(path.join("stat")).ok()?;
        // The fields after the parenthesised comm start at field 3
        // (state); utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .get(stat.rfind(')')? + 2..)?
            .split_whitespace()
            .collect();
        let utime: u64 = fields.get(11)?.parse().ok()?;
        let stime: u64 = fields.get(12)?.parse().ok()?;
        Some(utime + stime)
    })
}

#[test]
fn rx_lcore_sleeps_under_a_syn_trickle() {
    let (mut pipeline, _world) = Pipeline::with_synth_world(PipelineConfig {
        port: PortConfig {
            num_queues: 1,
            ..PortConfig::default()
        },
        ..PipelineConfig::default()
    });
    // A new thread takes its name from inside itself, so wait for it.
    let before = loop {
        if let Some(ticks) = thread_cpu_ticks("lcore-rx0") {
            break ticks;
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
    let cpu = TICK * u32::try_from(thread_cpu_ticks("lcore-rx0").unwrap() - before).unwrap();
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
        report.port.rx_wakeups > 0,
        "the port never woke the lcore: it never parked"
    );
    assert!(
        cpu < wall / 4,
        "lcore-rx0 used {cpu:?} of CPU over {wall:?} for {sent} SYNs"
    );
}
