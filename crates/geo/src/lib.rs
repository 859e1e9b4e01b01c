#![warn(missing_docs)]

//! # ruru-geo — IP geolocation and AS lookup
//!
//! Ruru Analytics *"retrieve\[s\] geographical locations (coordinates, country
//! and city information) and AS information for the source and destination
//! IPs"* from an IP2Location LITE database. IP2Location databases are
//! range tables: rows of `(from_ip, to_ip) → location`. This crate
//! reproduces that faithfully:
//!
//! * [`db`] — the range database over a unified u128 address space (IPv4
//!   mapped into `::ffff:0:0/96`): a sorted range table searched with
//!   `partition_point`, and overlap validation. Enrichment workers share one database and look every
//!   endpoint up directly.
//! * [`synth`] — a deterministic synthetic world: real cities with real
//!   coordinates and plausible AS numbers, allocated address blocks; the
//!   substitute for the proprietary IP2Location data. Includes a
//!   `perturb`ed variant so the paper's "98% country-level accuracy" claim
//!   can be reproduced as experiment E6.

pub mod db;
pub mod synth;

pub use db::{GeoDb, Location};
pub use synth::SynthWorld;
