//! Steady-state allocation audit of the detector thread's per-record work:
//! after a warm-up pass over 30 city pairs, a pass of pair interning →
//! latency-spike detector → connection-rate detector → pair aggregates
//! that raises no alert performs **zero** heap allocations. This is what
//! the pipeline's `detector_loop` does for every released measurement.
//!
//! The counting allocator is process-wide, so this audit is a test binary
//! of its own.

// Miri has its own allocator machinery, and the property is
// native-allocator behaviour anyway.
#![cfg(not(miri))]

use ruru_analytics::detect::{RateConfig, SpikeConfig};
use ruru_analytics::{
    EndpointInfo, EnrichedMeasurement, KeySpace, LatencySpikeDetector, PairAggregator,
    PairInterner, RateAnomalyDetector,
};
use ruru_nic::Timestamp;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

const CITIES: [&str; 6] = [
    "Auckland",
    "Wellington",
    "Los Angeles",
    "Sydney",
    "Tokyo",
    "London",
];

/// One record per pair per simulated second: 10 per 10 s rate window,
/// far below its `min_count`, and latency jitter well inside the spike
/// threshold, so no pass raises an alert.
const PASS_SECS: u64 = 700;

/// The detector thread's per-record state, built once like `detector_loop`.
struct Detector {
    pairs: PairInterner,
    spike: LatencySpikeDetector,
    rate: RateAnomalyDetector,
    aggregates: PairAggregator,
}

impl Detector {
    /// Feed `records` once per simulated second from `start_s`; returns
    /// the number of alerts raised.
    fn run(&mut self, records: &[EnrichedMeasurement], start_s: u64) -> u64 {
        let mut alerts = 0;
        for s in start_s..start_s + PASS_SECS {
            for (i, em) in records.iter().enumerate() {
                let at = Timestamp::from_nanos(s * 1_000_000_000 + i as u64 * 1_000_000);
                let src = self.pairs.atom(&em.src.city);
                let dst = self.pairs.atom(&em.dst.city);
                let key = self.pairs.pair(src, dst);
                let jitter = (s + i as u64) % 7 * 100_000;
                let spike =
                    self.spike
                        .observe_id(key, self.pairs.name(key), em.total_ns() + jitter, at);
                let rate = self.rate.observe_id(key, self.pairs.name(key), at);
                alerts += u64::from(spike.is_some()) + u64::from(rate.is_some());
                self.aggregates.observe(em);
            }
        }
        alerts
    }
}

fn endpoint(city: &str, asn: u32) -> EndpointInfo {
    EndpointInfo {
        country_code: *b"NZ",
        city: city.into(),
        lat: -36.8,
        lon: 174.7,
        asn,
    }
}

#[test]
fn detector_path_allocates_nothing_in_steady_state() {
    // The 30 ordered pairs of six cities.
    let mut records = Vec::new();
    for (si, src) in CITIES.iter().enumerate() {
        for (di, dst) in CITIES.iter().enumerate() {
            if si != di {
                records.push(EnrichedMeasurement {
                    src: endpoint(src, 64_000 + si as u32),
                    dst: endpoint(dst, 64_000 + di as u32),
                    internal_ns: 2_000_000,
                    external_ns: 100_000_000 + records.len() as u64 * 3_000_000,
                    completed_at: Timestamp::ZERO,
                    queue_id: 0,
                });
            }
        }
    }
    assert_eq!(records.len(), 30);
    let mut det = Detector {
        pairs: PairInterner::new(),
        spike: LatencySpikeDetector::new(SpikeConfig::default()),
        rate: RateAnomalyDetector::new(RateConfig::default()),
        aggregates: PairAggregator::new(),
    };

    // Warm pass: longer than both detectors' windows (256 samples per
    // pair, 60 closed 10 s windows), so every per-pair buffer is at its
    // final size.
    assert_eq!(det.run(&records, 0), 0, "the warm pass raises no alert");

    ruru_bench::take_hits();
    ruru_bench::arm();
    let alerts = det.run(&records, PASS_SECS);
    ruru_bench::disarm();
    let hits = ruru_bench::take_hits();

    assert_eq!(
        hits, 0,
        "the steady-state detector path must not touch the heap"
    );
    assert_eq!(alerts, 0, "the audited pass took the no-alert path");
    assert_eq!(det.spike.key_count(), 30);
    let stats = det
        .aggregates
        .get(KeySpace::CityPair, "Auckland→Tokyo")
        .expect("pair aggregated");
    assert_eq!(stats.count(), 2 * PASS_SECS);
}
