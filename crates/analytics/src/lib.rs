#![warn(missing_docs)]

//! # ruru-analytics — enrichment, privacy scrubbing and anomaly detection
//!
//! The paper's "Ruru Analytics" stage: measurements arrive from the DPDK
//! application over the message bus; multiple threads *"retrieve
//! geographical locations … and AS information for the source and
//! destination IPs"*; then *"all original IP addresses are removed for
//! privacy reasons and the geographically enriched measurements are sent to
//! a time-series database … as well as to the frontend"*.
//!
//! * [`enrich`] — [`enrich::EnrichedMeasurement`]: the IP-free, geo-tagged
//!   record, its tsdb point form and its line-protocol wire form.
//! * [`workers`] — the multi-threaded enrichment pool (PULL → enrich →
//!   tsdb + PUB + detector feed), one database lookup per endpoint.
//! * [`render`] — each record's tsdb row and PUB line, from text and
//!   stripe series kept per location: the one `latency` line layout.
//! * [`detect`] — the detectors behind §3's use cases: a robust
//!   (median/MAD) latency-spike detector that catches the 4000 ms firewall
//!   anomaly, a SYN-flood detector, and a per-location-pair connection-rate
//!   detector.
//! * [`alert`] — alert records and an in-memory sink.
//! * [`intern`] — string/pair-key interning so the detector hot loop keys
//!   its state by dense `u32` ids instead of formatted `String`s.

pub mod aggregate;
pub mod alert;
pub mod detect;
pub mod enrich;
pub mod filter;
pub mod intern;
pub mod render;
pub mod workers;

pub use aggregate::{KeySpace, PairAggregator, RunningStats};
pub use alert::{Alert, AlertSink, Severity};
pub use detect::{LatencySpikeDetector, RateAnomalyDetector, SynFloodDetector};
pub use enrich::{EndpointInfo, EnrichedMeasurement, Enricher, LocationPair};
pub use filter::{Criterion, FilterSpec, FilterStage};
pub use intern::{Interner, PairInterner};
pub use render::{Rendered, Renderer};
pub use workers::{DetectorInput, EnrichmentPool, PoolTelemetry};
