//! End-to-end panic-freedom under wire faults.
//!
//! The panic-check analyzer proves no panic site is statically reachable
//! from the dataplane roots; this test exercises the same property
//! dynamically: corrupt, truncated, duplicated and reordered frames flow
//! through the full parse → flow-table → codec → analytics path, and the
//! pipeline must account for every mangled frame in its reject counters —
//! never panic, never wedge.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ruru_gen::{Event, GenConfig, TrafficGen};
use ruru_nic::fault::{FaultConfig, FaultInjector};
use ruru_nic::port::PortConfig;
use ruru_nic::Timestamp;
use ruru_pipeline::{Pipeline, PipelineConfig};

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        port: PortConfig {
            num_queues: 2,
            queue_depth: 8192,
            pool_size: 16384,
            buf_size: 2048,
            symmetric_rss: true,
        },
        ..PipelineConfig::default()
    }
}

/// Corrupt/duplicate/reorder/drop a generated capture, interleave hard
/// truncations (including empty frames), and play it all through the
/// pipeline. The run must finish cleanly with the damage showing up as
/// per-cause rejects rather than as a dead worker.
#[test]
fn faulted_capture_is_rejected_not_fatal() {
    let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 21,
            flows_per_sec: 300.0,
            duration: Timestamp::from_secs(2),
            data_exchanges: (0, 1),
            ..GenConfig::default()
        },
        world,
    );

    // Aggressive profile: roughly a third of all frames take a bit flip,
    // plus drops, duplicates and single-step reorders.
    let mut injector = FaultInjector::new(
        FaultConfig {
            drop: 0.02,
            corrupt: 0.30,
            duplicate: 0.05,
            reorder: 0.05,
        },
        0xFA17,
    );

    let mut fed = 0u64;
    let mut truncated = 0u64;
    let deliver = |pipeline: &mut Pipeline, at: Timestamp, n: u64, frame: Vec<u8>| {
        // Every fifth delivery is additionally truncated mid-header /
        // mid-payload (length cycles through 0, 1, 7, 13, ..).
        let frame = if n.is_multiple_of(5) {
            let keep = [0, 1, 7, 13, 21, 33, 53][(n as usize / 5) % 7].min(frame.len());
            frame[..keep].to_vec()
        } else {
            frame
        };
        pipeline.feed(&Event { at, frame });
    };
    for event in gen.by_ref() {
        for frame in injector.apply(event.frame) {
            if fed.is_multiple_of(5) {
                truncated += 1;
            }
            deliver(&mut pipeline, event.at, fed, frame);
            fed += 1;
        }
    }
    if let Some(frame) = injector.flush() {
        deliver(&mut pipeline, Timestamp::from_secs(3), fed, frame);
        fed += 1;
    }

    let faults = injector.stats();
    assert!(faults.corrupted > 0, "profile must actually corrupt");
    assert!(truncated > 0, "profile must actually truncate");

    let truths = gen.truths().len() as u64;
    let report = pipeline.finish();

    // Every frame was consumed: classified, measured, or rejected with a
    // cause — the workers survived the whole mangled capture.
    assert_eq!(report.telemetry.counter("dp_records_in"), fed);
    assert!(
        report.rejects.total() > 0,
        "corrupt + truncated frames must surface as rejects: {:?}",
        report.rejects
    );
    // Bit flips land in the checksum causes; truncations land in the
    // header-parse causes (NotIp below header sizes, BadTcp mid-header).
    let checksum_rejects = report.rejects.bad_ip_checksum + report.rejects.bad_tcp_checksum;
    assert!(
        checksum_rejects > 0,
        "bit flips must fail checksum validation: {:?}",
        report.rejects
    );
    // Damaged flows can't all complete, but the path keeps measuring:
    // most handshakes still survive a per-frame fault process.
    assert!(report.measurements() > 0, "pipeline still measures");
    assert!(report.measurements() <= truths);
    assert_eq!(report.port.no_mbuf_drops, 0, "losses are accounted, not leaked");
}

/// Pure truncation sweep: one well-formed capture replayed with every
/// frame cut to an adversarial prefix length, covering each parse layer's
/// boundary (Ethernet header, IP header, TCP header, options).
#[test]
fn truncation_sweep_never_panics() {
    let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 22,
            flows_per_sec: 150.0,
            duration: Timestamp::from_secs(1),
            data_exchanges: (0, 0),
            ..GenConfig::default()
        },
        world,
    );

    let mut fed = 0u64;
    for (i, event) in gen.by_ref().enumerate() {
        // Cut lengths walk 0..=66 — straddling the Ethernet (14), IPv4
        // (14+20), IPv6 (14+40) and TCP (+20..+60) header boundaries —
        // but always strictly shorter than the original frame, so no
        // handshake can slip through intact.
        let keep = (i % 67).min(event.frame.len().saturating_sub(1));
        let frame = event.frame[..keep].to_vec();
        pipeline.feed(&Event {
            at: event.at,
            frame,
        });
        fed += 1;
    }

    let report = pipeline.finish();
    assert_eq!(report.telemetry.counter("dp_records_in"), fed);
    assert_eq!(
        report.measurements(),
        0,
        "no truncated handshake may produce a measurement"
    );
    assert_eq!(
        report.rejects.total(),
        fed,
        "every truncated frame is rejected with a cause: {:?}",
        report.rejects
    );
}
