#![warn(missing_docs)]

//! # ruru-tsdb — an embedded tagged time-series database
//!
//! The pipeline's long-term store: *"the geographically enriched
//! measurements are sent to a time-series database (InfluxDB) for long-term
//! storage … InfluxDB takes care of indexing data on geo-location and AS
//! information"*, and the Grafana UI queries it for *"min, max, median,
//! mean … for a required time interval"*.
//!
//! This crate reproduces the slice of InfluxDB that Ruru uses:
//!
//! * [`point`] — tagged, timestamped points and series keys.
//! * [`line`](crate::line) — the InfluxDB line protocol (parse + encode), the ingest
//!   format of the deployed system.
//! * [`agg`] — the aggregates Grafana panels request: count / min / max /
//!   mean / median / p95 / p99 / stddev.
//! * [`store`] — [`store::TsDb`]: two-phase (active → sealed) storage
//!   of each series as columns sharing one timestamp column,
//!   tag-filtered and time-bucketed queries with bounded parallel
//!   fan-out and retention enforcement; [`store::SeriesSet`] appends rows
//!   to a fixed list of series resolved once per store.
//! * [`sharded`] — the ways in: points become typed rows per series in a
//!   private buffer that one append folds into the store;
//!   [`sharded::StripeWriter`] is the dataplane's per-writer buffer, its
//!   series resolved once and flushed once per rotation.
//! * `compress` (private) — Gorilla-style sealed-chunk codec: one
//!   timestamp delta-of-delta varint stream per chunk + one value XOR
//!   stream (leading/trailing-zero windows) per column, decoded in place
//!   by query cursors.
//! * `seal` (private) — sealing and chunk retention: the cold
//!   maintenance half of the lifecycle.

pub mod agg;
mod compress;
pub mod line;
pub mod point;
mod seal;
pub mod sharded;
pub mod snapshot;
pub mod store;

pub use agg::Aggregate;
pub use point::Point;
pub use sharded::{SeriesHandle, StripeWriter};
pub use store::{Query, SeriesSet, StorageStats, TsDb, MAX_QUERY_WORKERS};
