#![warn(missing_docs)]

//! # ruru-flow — Ruru's core: flow-level passive latency measurement
//!
//! The paper's contribution (its Figure 1): for every TCP flow crossing the
//! tap, record three sub-microsecond timestamps — the first **SYN**, the
//! following **SYN-ACK**, and the first **ACK** — and derive
//!
//! * **external latency** = `t(SYN-ACK) − t(SYN)` — tap → server → tap,
//! * **internal latency** = `t(ACK) − t(SYN-ACK)` — tap → client → tap,
//! * **total latency** = external + internal — the full client↔server RTT,
//!
//! one measurement per connection, entirely passively.
//!
//! Modules:
//!
//! * [`classify`] — single-pass pre-parsing of a frame into the
//!   [`classify::TcpMeta`] the tracker consumes (with optional checksum
//!   validation so corrupted packets can't pollute the tables).
//! * [`key`] — direction-normalized flow keys, so both directions of a
//!   connection address the same table entry, and
//!   [`key::FlowKey::table_hash`], the one hash the tables key on.
//! * [`table`] — the per-queue storage: a slab-backed open-addressing
//!   table keyed by `table_hash`, with intrusive-FIFO expiry and
//!   `rte_hash_lookup_bulk`-style prefetch staging. Per-queue sharding via
//!   symmetric RSS is what makes it lock-free; the RSS hash itself only
//!   picks the queue, because the symmetric key leaves it 16 bits of
//!   entropy.
//! * [`handshake`] — the SYN / SYN-ACK / ACK state machine and
//!   [`handshake::HandshakeTracker`], the paper's measurement engine.
//! * [`inflow`] — continuous in-flow RTT ([`inflow::InflowTracker`]):
//!   RFC 7323 TCP-timestamp matching promoted to the slab table, with
//!   bounded per-flow TSval rings inline in the entry and every sample
//!   handed to the caller (catches mid-flow latency shifts the one-shot
//!   handshake measurement is blind to).
//! * [`histogram`] — the log-linear bucket geometry shared by every
//!   latency histogram (the telemetry registry's included).
//! * [`measurement`] — the [`measurement::LatencyMeasurement`] record and
//!   its compact binary wire form used on the message bus.
//! * [`baseline`] — comparison implementations: `pping`-style TCP-timestamp
//!   matching (per-packet RTTs), a SYN-only estimator (external RTT only),
//!   and the original `HashMap`-based flow store
//!   ([`baseline::expiring::ExpiringTable`]) kept as the differential
//!   reference for the new table; used by experiments E7 and E9.

pub mod baseline;
pub mod classify;
pub mod handshake;
pub mod histogram;
pub mod inflow;
pub mod key;
pub mod measurement;
pub mod table;

pub use handshake::{HandshakeTracker, TrackerConfig, TrackerStats};
pub use inflow::{InflowConfig, InflowStats, InflowTracker};
pub use key::{Direction, FlowKey};
pub use measurement::LatencyMeasurement;
