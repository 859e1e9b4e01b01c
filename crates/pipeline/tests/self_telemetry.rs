//! Integration tests for the pipeline's self-telemetry layer (ISSUE 5):
//! the `ruru_self` export smoke test and the counter-conservation
//! invariant — every packet fed into the pipeline is accounted for exactly
//! once across the reject counters and the tracker, and the registry's
//! exported series reconcile with the run report to the last unit.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ruru_flow::classify::Reject;
use ruru_gen::{Event, GenConfig, TrafficGen};
use ruru_nic::Timestamp;
use ruru_pipeline::{Pipeline, PipelineConfig};
use ruru_tsdb::{line, Query};
use ruru_viz::panel::Stat;
use ruru_viz::Dashboard;

#[test]
fn ruru_self_series_are_exported_and_parseable() {
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 21,
            flows_per_sec: 150.0,
            duration: Timestamp::from_secs(2),
            ..GenConfig::default()
        },
        world,
    );
    pipeline.run(&mut gen);
    let report = pipeline.finish();

    // Smoke: the export landed in the same tsdb the measurements use,
    // as multiple distinct `ruru_self` series.
    assert!(report.telemetry_points > 0);
    let series = report.tsdb.series_count("ruru_self");
    assert!(series > 20, "one series per metric: {series}");

    // Every line of the final snapshot round-trips through the
    // line-protocol parser.
    let lines = report.telemetry.to_lines();
    assert!(!lines.is_empty());
    for l in &lines {
        let p = line::parse(l).unwrap_or_else(|e| panic!("unparseable export {l:?}: {e:?}"));
        assert_eq!(p.measurement, "ruru_self");
        assert!(p.tags.iter().any(|(k, _)| k == "metric"), "{l}");
    }

    // The wakes of a feeder parked on a full RX ring are exported with
    // the port's other gauges, and mirror the port's own count.
    let parks = lines
        .iter()
        .filter_map(|l| line::parse(l).ok())
        .find(|p| p.tag("metric") == Some("port_inject_parks"))
        .expect("port_inject_parks is exported");
    assert_eq!(parks.field("value"), Some(report.port.inject_parks as f64));
    assert_eq!(
        report.telemetry.gauge("port_inject_parks"),
        report.port.inject_parks
    );

    // The bus's wake counts, of the enrichers' input pipe and of the
    // detector's feed, are exported with them.
    for name in ["enrich_wakeups", "detect_wakeups"] {
        let wakes = lines
            .iter()
            .filter_map(|l| line::parse(l).ok())
            .find(|p| p.tag("metric") == Some(name))
            .unwrap_or_else(|| panic!("{name} is exported"));
        let gauge = report.telemetry.gauge(name);
        assert_eq!(wakes.field("value"), Some(gauge as f64));
        assert!(gauge > 0, "{name}: the stage slept and was woken");
    }

    // Histogram exports carry the quantile fields the panel reads.
    let rx = report
        .telemetry
        .hist("stage_rx_residency_ns")
        .expect("rx residency histogram");
    assert!(rx.count > 0);
    assert!(rx.value_at_quantile(0.95) >= rx.value_at_quantile(0.50));

    // Every self-monitoring panel names a metric the pipeline exports.
    let dash = Dashboard::self_monitoring().evaluate(&report.tsdb, 0, 2_000_000_000, 4);
    for p in &dash.panels {
        let values = p.series_for(Stat::Max).expect("every panel plots Max");
        assert!(
            values.iter().any(Option::is_some),
            "{} reads no exported series",
            p.title
        );
    }
}

#[test]
fn counters_conserve_every_packet_and_reconcile_with_the_export() {
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());

    // N deliberately corrupt (non-IP) frames interleaved with real traffic.
    const CORRUPT: u64 = 37;
    for i in 0..CORRUPT {
        assert!(pipeline.feed(&Event {
            at: Timestamp::from_nanos(i * 10_000),
            frame: vec![0u8; 60],
        }));
    }
    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 22,
            flows_per_sec: 200.0,
            duration: Timestamp::from_secs(2),
            data_exchanges: (0, 1),
            ..GenConfig::default()
        },
        world,
    );
    let fed = pipeline.run(&mut gen);
    let truths = gen.truths().len() as u64;
    let report = pipeline.finish();
    let t = &report.telemetry;

    // Conservation 0: every manifest identity holds on the final snapshot
    // (and the snapshot is exact — a torn one fails with its shard ids).
    let violations = ruru_pipeline::conservation::check(
        t,
        &[
            ("tsdb_points_ingested", report.tsdb.points_ingested()),
            ("telemetry_points", report.telemetry_points),
        ],
    );
    assert!(
        violations.is_empty(),
        "conservation violated:\n  {}",
        violations.join("\n  ")
    );

    // Conservation 1: N corrupt frames ⇒ the reject counters sum to N,
    // in the run report and in the registry, cause by cause.
    assert_eq!(report.rejects.not_ip, CORRUPT);
    assert_eq!(report.rejects.total(), CORRUPT);
    assert_eq!(t.counter("reject_not_ip"), CORRUPT);
    let reject_sum: u64 = Reject::ALL.iter().map(|&r| report.rejects.get(r)).sum();
    assert_eq!(reject_sum, CORRUPT);

    // Conservation 2: every frame entering the dataplane is either
    // rejected (counted per cause) or reaches the tracker as a TCP packet.
    let tracker_packets: u64 = report.trackers.iter().map(|(_, s)| s.packets).sum();
    assert_eq!(t.counter("dp_records_in"), fed + CORRUPT);
    assert_eq!(t.counter("dp_records_in"), reject_sum + tracker_packets);
    assert_eq!(t.hist("stage_rx_residency_ns").map(|h| h.count), Some(fed));

    // Conservation 3: measurements flow loss-free through every stage.
    assert_eq!(report.measurements(), truths);
    assert_eq!(t.counter("dp_records_out"), truths);
    assert_eq!(t.gauge("tracker_measurements"), truths);
    assert_eq!(t.counter("enrich_enriched"), truths);
    assert_eq!(t.counter("tsdb_merge_points"), truths);
    assert_eq!(
        t.hist("stage_enrich_residency_ns").map(|h| h.count),
        Some(truths)
    );
    // Detector saw every measurement plus every SYN (a tally counts as
    // its SYNs).
    assert_eq!(
        t.counter("det_records_in"),
        truths + t.counter("dp_syn_events")
    );
    assert_eq!(t.counter("det_records_out"), t.counter("det_records_in"));

    // Reconciliation: the registry values and the tsdb-exported
    // `ruru_self` series agree exactly — the last exported point of each
    // counter is the final snapshot value.
    let end = u64::MAX;
    for (name, expect) in [
        ("reject_not_ip", CORRUPT),
        ("dp_records_in", fed + CORRUPT),
        ("dp_records_out", truths),
        ("enrich_enriched", truths),
    ] {
        let q = Query::range("ruru_self", "value", 0, end).with_tag("metric", name);
        let buckets = report.tsdb.query(&q);
        let max = buckets
            .iter()
            .filter_map(|b| b.agg.map(|a| a.max))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max, expect as f64, "exported {name} reconciles");
    }

    // And the export's own bookkeeping reconciles with the tsdb total.
    assert_eq!(
        report.tsdb.points_ingested(),
        truths + report.telemetry_points
    );
}
