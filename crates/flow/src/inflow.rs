//! Continuous in-flow RTT on the slab table — the fast-path promotion of
//! the [`crate::baseline::pping`] reference estimator.
//!
//! Ruru's handshake method samples each flow exactly once, at connection
//! setup — blind to mid-flow latency shifts, which is where production
//! latency lives. This module matches TCP timestamps (RFC 7323) the same
//! way `pping` does, but with the baseline's two scaling problems fixed:
//!
//! * **State** — the baseline keys a side `HashMap` by `(flow, dir, TSval)`
//!   so its footprint grows with every in-flight TSval. Here the
//!   outstanding TSvals live **inline in the slab [`FlowTable`] entry**: a
//!   fixed-size ring per direction ([`TSVAL_RING`] slots). One table entry
//!   per flow, bounded per-flow state, zero steady-state allocations, and
//!   the table is keyed and prefetch-staged by `FlowKey::table_hash`
//!   exactly like the handshake tracker's.
//! * **Output** — the baseline emits one `RttSample` record per match. At
//!   line rate that is one record per ACK; instead each sample is handed
//!   to the caller's `on_sample`, and the engine folds it into the
//!   registry's per-queue log-bucket `inflow_rtt_ns` histogram (P4TG-style
//!   data-plane histograms) — one bucket bump per sample, no record.
//!
//! Validity rules (shared with the fixed baseline, exercised by the
//! differential test in `tests/transport_and_edge.rs`):
//!
//! * TSecr is matched only on segments with ACK set (RFC 7323 §3.2 — a
//!   SYN's TSecr field is undefined garbage).
//! * TSecr 0 never matches and TSval 0 is never recorded: 0 is the
//!   "no echo yet" ambiguity value, so an entry for it could never be
//!   consumed and would only pin dead state.
//! * A TSval already outstanding (retransmit, repeated pure ACK) keeps the
//!   *first* send time and counts as a duplicate.
//! * An echo is consumed exactly once; a sample whose arrival precedes the
//!   recorded send time (severe reordering) is suppressed and counted.

use crate::classify::TcpMeta;
use crate::key::{Direction, FlowKey};
use crate::table::FlowTable;
use ruru_nic::Timestamp;

/// Outstanding TSvals tracked per flow *per direction*. TSval granularity
/// is ≥ 1 ms on every mainstream stack while RTTs worth measuring are well
/// under the 10 s TTL, so a handful of in-flight values per direction
/// covers real traffic; overflow overwrites the oldest slot and is counted
/// in [`InflowStats::ring_evicted`].
pub const TSVAL_RING: usize = 4;

/// Configuration of a per-queue in-flow tracker.
#[derive(Debug, Clone)]
pub struct InflowConfig {
    /// Maximum flows with outstanding TSvals held (per queue).
    pub capacity: usize,
    /// Flow entries older than this are dropped (a long-lived flow is
    /// simply re-admitted by its next packet; up to one ring of
    /// outstanding TSvals is lost per reset).
    pub ttl_ns: u64,
}

impl Default for InflowConfig {
    fn default() -> Self {
        InflowConfig {
            capacity: 1 << 20,
            ttl_ns: 10_000_000_000,
        }
    }
}

/// Counters exposed by an in-flow tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InflowStats {
    /// TCP packets processed.
    pub packets: u64,
    /// Packets without a TCP timestamps option (unusable).
    pub no_timestamp: u64,
    /// TSvals recorded into a ring slot.
    pub tsvals_recorded: u64,
    /// Packets whose TSval was already outstanding in its direction's ring
    /// (retransmits, repeated pure ACKs) — first send time kept.
    pub duplicate_tsvals: u64,
    /// Packets carrying the unmatchable TSval 0; skipped.
    pub zero_tsvals: u64,
    /// RTT samples produced (each handed to `on_sample`).
    pub samples: u64,
    /// Ring slots overwritten while still outstanding (more than
    /// [`TSVAL_RING`] in-flight TSvals in one direction).
    pub ring_evicted: u64,
    /// Echo arrivals that preceded the recorded send time (reordering /
    /// clock anomaly); sample suppressed.
    pub nonmonotonic: u64,
    /// Flow entries dropped by TTL expiry.
    pub expired_flows: u64,
    /// Flow entries force-evicted by capacity pressure.
    pub evicted_flows: u64,
}

/// One outstanding TSval. `sent_at == Timestamp::ZERO` never occurs for a
/// live slot because slot validity is tracked explicitly.
#[derive(Debug, Clone, Copy)]
struct TsSlot {
    tsval: u32,
    sent_at: Timestamp,
    live: bool,
}

const EMPTY_SLOT: TsSlot = TsSlot {
    tsval: 0,
    sent_at: Timestamp::ZERO,
    live: false,
};

/// Fixed-size ring of outstanding TSvals for one direction of one flow.
#[derive(Debug, Clone, Copy)]
struct TsRing {
    slots: [TsSlot; TSVAL_RING],
}

impl TsRing {
    const EMPTY: TsRing = TsRing {
        slots: [EMPTY_SLOT; TSVAL_RING],
    };

    /// Consume the slot holding `tsval`, returning its send time.
    #[inline]
    fn take(&mut self, tsval: u32) -> Option<Timestamp> {
        for slot in &mut self.slots {
            if slot.live && slot.tsval == tsval {
                slot.live = false;
                return Some(slot.sent_at);
            }
        }
        None
    }

    /// Record `tsval` at `sent_at`, keeping the first occurrence.
    #[inline]
    fn record(&mut self, tsval: u32, sent_at: Timestamp) -> RecordOutcome {
        // One pass finds a duplicate, a free slot, and the oldest live
        // slot (the overwrite victim) — TSVAL_RING is small enough that
        // this is a handful of register compares.
        let mut free: Option<usize> = None;
        let mut oldest = 0usize;
        let mut oldest_at = Timestamp::from_nanos(u64::MAX);
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.live {
                if slot.tsval == tsval {
                    return RecordOutcome::Duplicate;
                }
                if slot.sent_at < oldest_at {
                    oldest_at = slot.sent_at;
                    oldest = i;
                }
            } else if free.is_none() {
                free = Some(i);
            }
        }
        match free {
            Some(i) => {
                // panic-ok: `i` came from `enumerate()` over `slots`.
                self.slots[i] = TsSlot {
                    tsval,
                    sent_at,
                    live: true,
                };
                RecordOutcome::Recorded
            }
            // account-ok: the overwrite is reported as `RecordedWithOverwrite`
            // and tallied by the caller into `stats.ring_evicted`.
            None => {
                // panic-ok: `oldest` is 0 or an `enumerate()` index.
                self.slots[oldest] = TsSlot {
                    tsval,
                    sent_at,
                    live: true,
                };
                RecordOutcome::RecordedWithOverwrite
            }
        }
    }

    /// Live slots (for tests and `outstanding()`).
    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }
}

enum RecordOutcome {
    Recorded,
    RecordedWithOverwrite,
    Duplicate,
}

/// Per-flow in-flow state: one TSval ring per direction, inline in the
/// slab entry (no side allocation, `Copy`-moved on backward-shift).
#[derive(Debug, Clone, Copy)]
struct InflowEntry {
    /// TSvals sent in the canonical key's forward direction.
    forward: TsRing,
    /// TSvals sent in the reverse direction.
    reverse: TsRing,
}

impl InflowEntry {
    const EMPTY: InflowEntry = InflowEntry {
        forward: TsRing::EMPTY,
        reverse: TsRing::EMPTY,
    };

    /// The ring holding TSvals sent in direction `dir`.
    #[inline]
    fn ring_mut(&mut self, dir: Direction) -> &mut TsRing {
        match dir {
            Direction::Forward => &mut self.forward,
            Direction::Reverse => &mut self.reverse,
        }
    }
}

/// The per-queue continuous in-flow RTT tracker.
pub struct InflowTracker {
    table: FlowTable<FlowKey, InflowEntry>,
    queue_id: u16,
    stats: InflowStats,
}

impl InflowTracker {
    /// A tracker for queue `queue_id`.
    pub fn new(queue_id: u16, config: InflowConfig) -> InflowTracker {
        InflowTracker {
            table: FlowTable::new(config.capacity, config.ttl_ns),
            queue_id,
            stats: InflowStats::default(),
        }
    }

    /// Process one packet; returns the RTT sample (ns) when this packet
    /// echoes an outstanding TSval. A one-packet
    /// [`InflowTracker::process_burst`].
    pub fn process(&mut self, meta: &TcpMeta) -> Option<u64> {
        let mut out = None;
        self.process_burst(core::slice::from_ref(meta), |rtt_ns| out = Some(rtt_ns));
        out
    }

    /// Process a whole RX burst: stage every packet's home bucket into
    /// cache, then match/record per packet against warmed lines, handing
    /// each sample's value to `on_sample` (the engine folds these into the
    /// per-queue registry histogram), and finish with an expiry sweep at
    /// the burst boundary.
    pub fn process_burst(&mut self, metas: &[TcpMeta], mut on_sample: impl FnMut(u64)) {
        for meta in metas {
            let hash = FlowKey::tuple_hash(meta.src, meta.dst, meta.src_port, meta.dst_port);
            self.table.prefetch(hash);
        }
        for meta in metas {
            let (key, dir) = FlowKey::from_tuple(meta.src, meta.dst, meta.src_port, meta.dst_port);
            if let Some(rtt_ns) = self.dispatch(key.table_hash(), key, dir, meta) {
                on_sample(rtt_ns);
            }
        }
        if let Some(last) = metas.last() {
            self.housekeep(last.timestamp);
        }
    }

    /// Match this packet's TSecr against the opposite ring, then record its
    /// TSval into its own ring — one table lookup covers both.
    fn dispatch(&mut self, hash: u32, key: FlowKey, dir: Direction, meta: &TcpMeta) -> Option<u64> {
        self.stats.packets += 1;
        let Some((tsval, tsecr)) = meta.timestamps else {
            self.stats.no_timestamp += 1;
            return None;
        };

        // RFC 7323 §3.2: TSecr is only valid on segments with ACK set, and
        // TSecr 0 is the "no echo yet" ambiguity value.
        let match_echo = tsecr != 0 && meta.flags.contains(ruru_wire::tcp::Flags::ACK);
        let record = tsval != 0;
        if !record {
            self.stats.zero_tsvals += 1;
        }

        let mut sample = None;
        match self.table.get_mut(hash, &key) {
            Some(entry) => {
                if match_echo {
                    if let Some(sent_at) = entry.ring_mut(dir.flipped()).take(tsecr) {
                        if meta.timestamp >= sent_at {
                            sample = Some(meta.timestamp - sent_at);
                        } else {
                            self.stats.nonmonotonic += 1;
                        }
                    }
                }
                if record {
                    match entry.ring_mut(dir).record(tsval, meta.timestamp) {
                        RecordOutcome::Recorded => self.stats.tsvals_recorded += 1,
                        RecordOutcome::RecordedWithOverwrite => {
                            self.stats.tsvals_recorded += 1;
                            self.stats.ring_evicted += 1;
                        }
                        RecordOutcome::Duplicate => self.stats.duplicate_tsvals += 1,
                    }
                }
            }
            None if record => {
                let mut entry = InflowEntry::EMPTY;
                let _ = entry.ring_mut(dir).record(tsval, meta.timestamp);
                self.stats.tsvals_recorded += 1;
                // Capacity evictions are counted by the table; see `stats()`.
                self.table.insert(hash, key, entry, meta.timestamp);
            }
            // account-ok: untracked flow with nothing recordable — the
            // packet was already tallied in `packets` and its zero TSval in
            // `zero_tsvals` above; there is no state to lose.
            None => {}
        }

        if sample.is_some() {
            self.stats.samples += 1;
        }
        sample
    }

    /// Run an expiry sweep at `now` (also run at the end of every burst).
    pub(crate) fn housekeep(&mut self, now: Timestamp) {
        self.table.expire(now, |_k, _v| {});
    }

    /// Flows with tracked in-flow state.
    pub fn flows_tracked(&self) -> usize {
        self.table.len()
    }

    /// Outstanding (unechoed) TSvals across all flows — an O(table) scan,
    /// for tests and reports, not the hot path.
    pub fn outstanding(&self) -> usize {
        self.table
            .iter()
            .map(|(_, e)| e.forward.live() + e.reverse.live())
            .sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> InflowStats {
        // Capacity evictions and TTL expiries happen inside the table;
        // it holds the only count of each.
        InflowStats {
            evicted_flows: self.table.evictions(),
            expired_flows: self.table.expirations(),
            ..self.stats
        }
    }

    /// The queue this tracker serves.
    pub fn queue_id(&self) -> u16 {
        self.queue_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_wire::tcp::Flags;
    use ruru_wire::{ipv4, IpAddress};

    fn ip(last: u8) -> IpAddress {
        IpAddress::V4(ipv4::Address([10, 0, 0, last]))
    }

    fn meta_flags(
        src: IpAddress,
        dst: IpAddress,
        sp: u16,
        dp: u16,
        ts: Option<(u32, u32)>,
        t_us: u64,
        flags: Flags,
    ) -> TcpMeta {
        TcpMeta {
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            seq: 0,
            ack: 0,
            flags,
            payload_len: 100,
            timestamps: ts,
            timestamp: Timestamp::from_micros(t_us),
        }
    }

    fn meta(
        src: IpAddress,
        dst: IpAddress,
        sp: u16,
        dp: u16,
        ts: Option<(u32, u32)>,
        t_us: u64,
    ) -> TcpMeta {
        meta_flags(src, dst, sp, dp, ts, t_us, Flags::ACK)
    }

    #[test]
    fn echo_produces_rtt_sample() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        assert!(tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 0)).is_none());
        let rtt = tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 130_000))
            .unwrap();
        assert_eq!(rtt, 130_000_000);
        assert_eq!(tr.stats().samples, 1);
        assert_eq!(tr.flows_tracked(), 1, "one entry covers both directions");
    }

    #[test]
    fn echo_is_consumed_once() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 1_000))
            .is_some());
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((901, 100)), 2_000))
            .is_none());
        assert_eq!(tr.stats().samples, 1);
    }

    #[test]
    fn retransmission_keeps_first_send_time_and_counts_duplicate() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 50_000));
        let rtt = tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 130_000))
            .unwrap();
        assert_eq!(rtt, 130_000_000, "measured from first send");
        assert_eq!(tr.stats().duplicate_tsvals, 1);
        assert_eq!(tr.stats().tsvals_recorded, 2, "one per direction-value");
    }

    #[test]
    fn syn_with_stale_tsecr_produces_no_sample() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(s, c, 443, 5000, Some((777, 0)), 0));
        let syn = meta_flags(c, s, 5000, 443, Some((100, 777)), 10_000, Flags::SYN);
        assert!(tr.process(&syn).is_none(), "RFC 7323: TSecr needs ACK");
        assert_eq!(tr.stats().samples, 0);
        assert!(tr
            .process(&meta(c, s, 5000, 443, Some((101, 777)), 20_000))
            .is_some());
    }

    #[test]
    fn zero_tsval_and_zero_tsecr_are_inert() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        tr.process(&meta(ip(1), ip(2), 1, 2, Some((0, 0)), 0));
        assert_eq!(tr.flows_tracked(), 0, "TSval 0 creates no state");
        assert_eq!(tr.stats().zero_tsvals, 1);
        assert!(tr
            .process(&meta(ip(2), ip(1), 2, 1, Some((7, 0)), 10))
            .is_none());
    }

    #[test]
    fn tsval_wraparound_keeps_sampling() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        let mut samples = 0;
        for (i, tsval) in [u32::MAX - 1, u32::MAX, 0, 1, 2].into_iter().enumerate() {
            let t0 = i as u64 * 1_000;
            tr.process(&meta(c, s, 5000, 443, Some((tsval, 9)), t0));
            if tr
                .process(&meta(s, c, 443, 5000, Some((10 + i as u32, tsval)), t0 + 130))
                .is_some()
            {
                samples += 1;
            }
        }
        assert_eq!(samples, 4, "exact matching survives the u32 wrap");
        assert_eq!(tr.stats().zero_tsvals, 1);
    }

    #[test]
    fn delayed_ack_inflation_is_measured_at_the_tap() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        // Path RTT 100 ms + 40 ms delayed-ACK hold at the receiver.
        let rtt = tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 140_000))
            .unwrap();
        assert_eq!(rtt, 140_000_000);
    }

    #[test]
    fn ring_overflow_overwrites_oldest_and_counts() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        // TSVAL_RING + 1 distinct unechoed TSvals in one direction.
        for i in 0..=TSVAL_RING as u32 {
            tr.process(&meta(c, s, 5000, 443, Some((100 + i, 0)), i as u64));
        }
        assert_eq!(tr.stats().ring_evicted, 1);
        assert_eq!(tr.outstanding(), TSVAL_RING);
        // The overwritten (oldest) TSval 100 no longer matches…
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 10_000))
            .is_none());
        // …but the newest does.
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((901, 100 + TSVAL_RING as u32)), 11_000))
            .is_some());
    }

    #[test]
    fn reordered_echo_is_suppressed() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 1_000));
        // Echo timestamped BEFORE the send (tap-side reordering).
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 500))
            .is_none());
        assert_eq!(tr.stats().nonmonotonic, 1);
        assert_eq!(tr.stats().samples, 0);
    }

    #[test]
    fn flow_entries_expire_and_flow_readmits() {
        let mut tr = InflowTracker::new(
            0,
            InflowConfig {
                ttl_ns: 1_000_000, // 1 ms
                ..InflowConfig::default()
            },
        );
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        tr.housekeep(Timestamp::from_micros(2_000));
        assert_eq!(tr.flows_tracked(), 0);
        assert_eq!(tr.stats().expired_flows, 1);
        // The flow's next exchange re-admits it and samples again.
        tr.process(&meta(c, s, 5000, 443, Some((200, 0)), 3_000));
        assert!(tr
            .process(&meta(s, c, 443, 5000, Some((900, 200)), 4_000))
            .is_some());
    }

    #[test]
    fn capacity_bounded_under_flow_churn() {
        let mut tr = InflowTracker::new(
            0,
            InflowConfig {
                capacity: 100,
                ..InflowConfig::default()
            },
        );
        for i in 0..10_000u32 {
            let src = IpAddress::V4(ipv4::Address([1, (i >> 16) as u8, (i >> 8) as u8, i as u8]));
            tr.process(&meta(src, ip(2), 4000, 443, Some((1 + i, 0)), i as u64));
        }
        assert_eq!(tr.flows_tracked(), 100);
        assert_eq!(tr.stats().evicted_flows, 9_900);
    }

    #[test]
    fn burst_matches_scalar_processing() {
        let mut per_packet = InflowTracker::new(3, InflowConfig::default());
        let mut burst = InflowTracker::new(3, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        let mut packets = Vec::new();
        for i in 0..64u32 {
            let t0 = i as u64 * 1_000;
            packets.push(meta(c, s, 5000, 443, Some((1000 + i, 500 + i)), t0));
            packets.push(meta(s, c, 443, 5000, Some((501 + i, 1000 + i)), t0 + 130));
        }
        let per_packet_samples: Vec<u64> = packets
            .iter()
            .filter_map(|m| per_packet.process(m))
            .collect();
        let mut burst_samples = Vec::new();
        burst.process_burst(&packets, |rtt| burst_samples.push(rtt));
        assert_eq!(per_packet_samples, burst_samples);
        // 64 server echoes of client TSvals + 63 client echoes of server
        // TSvals (the first client packet has nothing to echo yet).
        assert_eq!(per_packet_samples.len(), 127);
        assert_eq!(per_packet.stats(), burst.stats());
        assert_eq!(per_packet.flows_tracked(), burst.flows_tracked());
    }

    #[test]
    fn every_burst_boundary_expires_due_entries() {
        let mut tr = InflowTracker::new(
            0,
            InflowConfig {
                ttl_ns: 1_000, // 1 µs
                ..InflowConfig::default()
            },
        );
        let c = ip(1);
        let s = ip(2);
        tr.process_burst(&[meta(c, s, 5000, 443, Some((100, 0)), 0)], |_| {});
        assert_eq!(tr.flows_tracked(), 1, "not yet due at its own burst");
        // The next burst, past the TTL, sweeps the first flow at its
        // boundary; its own flow is not yet due.
        tr.process_burst(&[meta(ip(3), ip(4), 1, 2, Some((5, 0)), 2)], |_| {});
        assert_eq!(tr.stats().expired_flows, 1);
        assert_eq!(tr.flows_tracked(), 1);
    }

    #[test]
    fn every_sample_reaches_on_sample() {
        let mut tr = InflowTracker::new(0, InflowConfig::default());
        let c = ip(1);
        let s = ip(2);
        let mut burst = Vec::new();
        for i in 0..50u32 {
            let t0 = i as u64 * 10_000;
            burst.push(meta(c, s, 5000, 443, Some((1000 + i, 0)), t0));
            burst.push(meta(s, c, 443, 5000, Some((501 + i, 1000 + i)), t0 + 2_000));
        }
        let mut rtts = Vec::new();
        tr.process_burst(&burst, |rtt_ns| rtts.push(rtt_ns));
        assert_eq!(rtts.len() as u64, tr.stats().samples);
        assert_eq!(rtts.len(), 50);
        assert!(rtts.iter().all(|&rtt| rtt == 2_000_000), "{rtts:?}");
    }
}
