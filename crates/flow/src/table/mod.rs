//! The per-queue flow store: a slab-backed open-addressing hash table with
//! intrusive FIFO expiry and prefetch staging for burst loops.
//!
//! The paper tracks handshakes in "hash tables indexed by the RSS hash".
//! This table does not: the symmetric Toeplitz key (`0x6d5a` repeated) has
//! a 16-bit period, so a symmetric RSS hash is 16 bits written twice. Keyed
//! on it, a 2²¹-bucket table would use only 65 536 home buckets and its tag
//! would repeat the bucket's bits. Like DPDK's `rte_hash`, which computes
//! its own hash instead of reusing the NIC's, the trackers key every
//! operation on [`crate::key::FlowKey::table_hash`], a multiply-fold of
//! the canonical key they store:
//!
//! * **Bucket array** — power-of-two length (≥ 2 × capacity, so load stays
//!   ≤ 50 % and every probe chain ends at an empty bucket), linear probing,
//!   masked indexing. Each bucket holds a slab index plus a **1-byte tag**
//!   (the hash's top byte) checked before any slab access: a probe touches
//!   only the compact tag/bucket lines until the tag matches, and a full
//!   `FlowKey` compare then resolves genuine collisions.
//! * **Slab** — entries live in a fixed `capacity`-sized slab; free slots
//!   are a preallocated stack. No entry ever moves in memory, so the FIFO
//!   can thread raw `u32` links through the slab: an **intrusive doubly
//!   linked list** in insertion order replaces the baseline's `VecDeque` +
//!   generation counters. Handshake TTLs are uniform, so insertion order
//!   *is* expiry order; removal unlinks in O(1) with no stale ghosts to
//!   skip.
//! * **Deletion** — backward-shift (Knuth), not tombstones: probe chains
//!   stay gapless, lookups never slow down under churn, and a SYN flood's
//!   insert/evict cycling cannot poison the table.
//! * **Prefetch** — `FlowTable::prefetch` stages a hash's home bucket
//!   line into cache. The trackers' `process_burst` loops call it for a
//!   whole RX burst before running any probe, `rte_hash_lookup_bulk`-style,
//!   so the probes run against warmed lines.
//!
//! After construction the table performs **zero heap allocation**: insert,
//! lookup, remove, evict and expire all work within the preallocated slab,
//! bucket array and free stack (asserted by the counting-allocator test in
//! `tests/alloc_steady_state.rs`).
//!
//! Invariants (checked by the differential property suite against the baseline
//! [`crate::baseline::expiring::ExpiringTable`]) are documented in
//! DESIGN.md §11.

mod burst;
mod store;

pub use store::FlowTable;

/// The outcome of an insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A fresh entry was created.
    Inserted,
    /// A fresh entry was created and the oldest entry was evicted for room.
    InsertedWithEviction,
    /// An entry with this key already existed; it was left untouched.
    AlreadyPresent,
}
