//! Measurement filtering — the paper's example extension module.
//!
//! §2: *"Due to the modular nature of the pipeline … one could add a filter
//! module to filter measurements in the pipeline based on some criteria
//! (e.g., geo-location)."* This is that module: a declarative
//! [`FilterSpec`] compiled into a predicate over enriched measurements,
//! plus [`FilterStage`], a bus stage that subscribes to one topic and
//! republishes matching measurements on another.

use crate::enrich::EnrichedMeasurement;
use crate::workers::ENRICHED_TOPIC;
use bytes::Bytes;
use ruru_mq::{Message, Publisher, Subscriber};
use std::time::Duration;

/// One filtering criterion.
#[derive(Debug, Clone, PartialEq)]
pub enum Criterion {
    /// Either endpoint is in this ISO country (e.g. `"NZ"`).
    Country([u8; 2]),
    /// The source city equals.
    SrcCity(String),
    /// The destination city equals.
    DstCity(String),
    /// Either endpoint's ASN equals.
    Asn(u32),
    /// Total latency at least this many ns.
    MinTotalNs(u64),
    /// Total latency at most this many ns.
    MaxTotalNs(u64),
    /// External latency at least this many ns.
    MinExternalNs(u64),
}

impl Criterion {
    /// Evaluate against one measurement.
    pub fn matches(&self, m: &EnrichedMeasurement) -> bool {
        match self {
            Criterion::Country(cc) => m.src.country_code == *cc || m.dst.country_code == *cc,
            Criterion::SrcCity(city) => *m.src.city == **city,
            Criterion::DstCity(city) => *m.dst.city == **city,
            Criterion::Asn(asn) => m.src.asn == *asn || m.dst.asn == *asn,
            Criterion::MinTotalNs(ns) => m.total_ns() >= *ns,
            Criterion::MaxTotalNs(ns) => m.total_ns() <= *ns,
            Criterion::MinExternalNs(ns) => m.external_ns >= *ns,
        }
    }
}

/// A conjunction of criteria (all must match).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilterSpec {
    criteria: Vec<Criterion>,
}

impl FilterSpec {
    /// A filter that matches everything.
    pub fn all() -> FilterSpec {
        FilterSpec::default()
    }

    /// Add a criterion.
    pub fn and(mut self, c: Criterion) -> FilterSpec {
        self.criteria.push(c);
        self
    }

    /// True if every criterion matches.
    pub fn matches(&self, m: &EnrichedMeasurement) -> bool {
        self.criteria.iter().all(|c| c.matches(m))
    }

    /// Number of criteria.
    pub fn len(&self) -> usize {
        self.criteria.len()
    }

    /// True when unconstrained.
    pub fn is_empty(&self) -> bool {
        self.criteria.is_empty()
    }
}

/// Counters for a filter stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterStats {
    /// Messages examined.
    pub seen: u64,
    /// Messages republished.
    pub passed: u64,
    /// Payloads that failed to decode.
    pub decode_errors: u64,
}

/// A running filter stage: SUB one topic, republish matches on another.
pub struct FilterStage {
    handle: std::thread::JoinHandle<FilterStats>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl FilterStage {
    /// Spawn a stage reading `input` and republishing matches to
    /// `output` under `out_topic`.
    pub fn spawn(
        spec: FilterSpec,
        input: Subscriber,
        output: Publisher,
        out_topic: &'static [u8],
    ) -> FilterStage {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = std::sync::Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("ruru-filter".into())
            .spawn(move || {
                let mut stats = FilterStats::default();
                loop {
                    match input.recv_timeout(Duration::from_millis(5)) {
                        Some(msg) => {
                            stats.seen += 1;
                            let Ok(line) = core::str::from_utf8(&msg.payload) else {
                                stats.decode_errors += 1;
                                continue;
                            };
                            let Some(em) = EnrichedMeasurement::from_line(line) else {
                                stats.decode_errors += 1;
                                continue;
                            };
                            if spec.matches(&em) {
                                stats.passed += 1;
                                output.publish(Message::new(
                                    Bytes::from_static(out_topic),
                                    msg.payload.clone(),
                                ));
                            }
                        }
                        None => {
                            if stop2.load(std::sync::atomic::Ordering::Acquire) {
                                break;
                            }
                        }
                    }
                }
                stats
            })
            .expect("spawn filter stage");
        FilterStage { handle, stop }
    }

    /// Stop after draining and return the counters.
    pub fn finish(self) -> FilterStats {
        self.stop
            .store(true, std::sync::atomic::Ordering::Release);
        self.handle.join().expect("filter stage panicked")
    }
}

/// Convenience: the default enriched-topic subscription for a filter.
pub fn subscribe_enriched(publisher: &Publisher, hwm: usize) -> Subscriber {
    publisher.subscribe(ENRICHED_TOPIC, hwm)
}

#[cfg(test)]
mod tests {
    // Tests coordinate real threads with fixed sleeps; fine off the dataplane.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::enrich::EndpointInfo;
    use ruru_nic::Timestamp;

    fn em(src_cc: &str, dst_city: &str, asn: u32, total_ms: u64) -> EnrichedMeasurement {
        EnrichedMeasurement {
            src: EndpointInfo {
                country_code: src_cc.as_bytes().try_into().unwrap(),
                city: "Auckland".into(),
                lat: -36.85,
                lon: 174.76,
                asn,
                },
            dst: EndpointInfo {
                country_code: *b"US",
                city: dst_city.into(),
                lat: 34.05,
                lon: -118.24,
                asn: 7018,
            },
            internal_ns: total_ms * 500_000,
            external_ns: total_ms * 500_000,
            completed_at: Timestamp::from_millis(1),
            queue_id: 0,
        }
    }

    #[test]
    fn criteria_match_correctly() {
        let m = em("NZ", "Los Angeles", 64000, 130);
        assert!(Criterion::Country(*b"NZ").matches(&m));
        assert!(Criterion::Country(*b"US").matches(&m));
        assert!(!Criterion::Country(*b"JP").matches(&m));
        assert!(Criterion::SrcCity("Auckland".into()).matches(&m));
        assert!(!Criterion::SrcCity("Los Angeles".into()).matches(&m));
        assert!(Criterion::DstCity("Los Angeles".into()).matches(&m));
        assert!(Criterion::Asn(64000).matches(&m));
        assert!(Criterion::Asn(7018).matches(&m));
        assert!(!Criterion::Asn(1).matches(&m));
        assert!(Criterion::MinTotalNs(100_000_000).matches(&m));
        assert!(!Criterion::MinTotalNs(200_000_000).matches(&m));
        assert!(Criterion::MaxTotalNs(200_000_000).matches(&m));
        assert!(Criterion::MinExternalNs(60_000_000).matches(&m));
    }

    #[test]
    fn spec_is_conjunction() {
        let spec = FilterSpec::all()
            .and(Criterion::Country(*b"NZ"))
            .and(Criterion::MinTotalNs(100_000_000));
        assert_eq!(spec.len(), 2);
        assert!(spec.matches(&em("NZ", "Los Angeles", 1, 130)));
        assert!(!spec.matches(&em("NZ", "Los Angeles", 1, 50)));
        assert!(!spec.matches(&em("JP", "Los Angeles", 1, 130)));
        assert!(FilterSpec::all().matches(&em("JP", "x", 0, 0)));
    }

    #[test]
    fn stage_republishes_only_matches() {
        let bus = Publisher::new();
        let input = bus.subscribe(ENRICHED_TOPIC, 1024);
        let filtered_sub = bus.subscribe(b"slow", 1024);
        let stage = FilterStage::spawn(
            FilterSpec::all().and(Criterion::MinTotalNs(1_000_000_000)),
            input,
            bus.clone(),
            b"slow",
        );
        // 10 fast, 3 slow measurements.
        for i in 0..13u64 {
            let m = em("NZ", "Los Angeles", 1, if i < 3 { 4000 } else { 130 });
            bus.publish(Message::new(
                Bytes::from_static(ENRICHED_TOPIC),
                m.to_line(),
            ));
        }
        // Give the stage time to drain before stopping.
        std::thread::sleep(Duration::from_millis(100));
        let stats = stage.finish();
        assert_eq!(stats.seen, 13);
        assert_eq!(stats.passed, 3);
        assert_eq!(stats.decode_errors, 0);
        assert_eq!(filtered_sub.backlog(), 3);
    }

    #[test]
    fn stage_counts_garbage() {
        let bus = Publisher::new();
        let input = bus.subscribe(b"", 64);
        let stage = FilterStage::spawn(FilterSpec::all(), input, bus.clone(), b"out");
        bus.publish(Message::new(Bytes::from_static(b"x"), vec![0xff, 0xfe]));
        std::thread::sleep(Duration::from_millis(50));
        let stats = stage.finish();
        assert_eq!(stats.decode_errors, 1);
    }
}
