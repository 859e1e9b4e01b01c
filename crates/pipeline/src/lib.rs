#![warn(missing_docs)]

//! # ruru-pipeline — the assembled system
//!
//! Wires the full architecture of the paper's Figure 2:
//!
//! ```text
//!  traffic ──► Port (RSS, N queues) ──► lcore workers ──► HandshakeTracker
//!                                                          │ PUSH       │ PUSH
//!                                                          │ measure-   │ SYN
//!                                                          ▼ ments      │ events
//!  TsDb ◄── EnrichmentPool (geo/AS, privacy scrub) ◄───── pipe          │
//!    │              │ PUSH enriched records                             │
//!    │              ├─────────► pipe ◄──────────────────────────────────┘
//!    │              │            └──► detector ──► AlertSink
//!    │              │ PUB "enriched" (line protocol)
//!    ▼              └─ SUB ───► FrameBatcher ──► 3D-map frames
//!  Panels (Grafana-style)
//! ```
//!
//! Every edge between pipeline threads is a `ruru-mq` socket. The PUSH/PULL
//! pipes between the pipeline's own threads carry records as values; the
//! PUB edge, which leaves them, carries line-protocol bytes. The lcores
//! poll their RX rings; every stage after them blocks on its one PULL
//! feed and exits once the feed's pushers are gone and it is drained.
//!
//! * [`engine`] — [`engine::Pipeline`]: construction, event injection (from
//!   `ruru-gen` or a pcap), shutdown, and the final [`engine::Report`].
//! * [`snmp`] — the conventional-monitoring baseline: a poller that sees
//!   only five-minute interface counters (the SNMP view), used by
//!   experiment E3 to reproduce "the 4000 ms increase had not been noticed
//!   by conventional measurement tools".

pub mod conservation;
pub mod engine;
pub mod snmp;
pub mod telemetry;

pub use engine::{Pipeline, PipelineConfig, Report};
pub use snmp::SnmpPoller;
pub use telemetry::SelfMetrics;
