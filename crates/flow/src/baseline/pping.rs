//! `pping`-style passive RTT from TCP timestamps.
//!
//! For every packet we record `(flow, direction, TSval) → arrival time` the
//! first time that TSval is seen. When a packet travels the *opposite*
//! direction echoing that TSval in its TSecr, the difference of arrival
//! times is an RTT sample through the measurement point.
//!
//! Compared to Ruru's handshake method this produces samples continuously
//! over a flow's life (detecting mid-flow latency changes) at the price of
//! state per in-flight TSval and a table operation on *every* packet rather
//! than only on handshake packets — experiment E7 quantifies the trade.

use crate::baseline::RttSample;
use crate::classify::TcpMeta;
use crate::key::{Direction, FlowKey};
use crate::baseline::expiring::ExpiringTable;
use crate::table::InsertOutcome;
use ruru_nic::Timestamp;

/// Configuration for the pping estimator.
#[derive(Debug, Clone)]
pub struct PpingConfig {
    /// Maximum outstanding (unechoed) TSvals tracked.
    pub capacity: usize,
    /// Drop unechoed TSvals after this long.
    pub ttl_ns: u64,
    /// Housekeeping interval in packets.
    pub expire_interval_packets: u64,
}

impl Default for PpingConfig {
    fn default() -> Self {
        PpingConfig {
            capacity: 1 << 20,
            ttl_ns: 10_000_000_000,
            expire_interval_packets: 1024,
        }
    }
}

/// Counters for the pping estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PpingStats {
    /// Packets processed.
    pub packets: u64,
    /// Packets without a TCP timestamps option (unusable).
    pub no_timestamp: u64,
    /// TSvals recorded.
    pub tsvals_recorded: u64,
    /// Packets whose TSval was already outstanding (retransmits, repeated
    /// pure ACKs) — not re-recorded, not counted in `tsvals_recorded`.
    pub duplicate_tsvals: u64,
    /// Packets carrying TSval 0, which the `tsecr != 0` ambiguity guard
    /// makes unmatchable; skipped instead of left to rot until TTL.
    pub zero_tsvals: u64,
    /// RTT samples emitted.
    pub samples: u64,
    /// Outstanding TSvals dropped by TTL.
    pub expired: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TsKey {
    flow: FlowKey,
    dir: Direction,
    tsval: u32,
}

/// The passive-ping estimator (single-threaded, one per queue).
pub struct Pping {
    table: ExpiringTable<TsKey, Timestamp>,
    config: PpingConfig,
    stats: PpingStats,
    packets_since_expiry: u64,
}

impl Pping {
    /// Create an estimator.
    pub fn new(config: PpingConfig) -> Pping {
        let table = ExpiringTable::new(config.capacity, config.ttl_ns);
        Pping {
            table,
            config,
            stats: PpingStats::default(),
            packets_since_expiry: 0,
        }
    }

    /// Process one packet; returns an RTT sample when this packet echoes a
    /// previously recorded TSval.
    pub fn process(&mut self, meta: &TcpMeta) -> Option<RttSample> {
        self.stats.packets += 1;
        self.packets_since_expiry += 1;
        if self.packets_since_expiry >= self.config.expire_interval_packets {
            self.housekeep(meta.timestamp);
        }
        let Some((tsval, tsecr)) = meta.timestamps else {
            self.stats.no_timestamp += 1;
            return None;
        };
        let (flow, dir) = FlowKey::from_tuple(meta.src, meta.dst, meta.src_port, meta.dst_port);

        // 1. Try to match this packet's TSecr against a TSval recorded in
        //    the opposite direction. RFC 7323 §3.2: TSecr is only valid on
        //    segments with ACK set — a SYN's TSecr field is undefined
        //    garbage and must not be matched.
        let mut sample = None;
        if tsecr != 0 && meta.flags.contains(ruru_wire::tcp::Flags::ACK) {
            let probe = TsKey {
                flow,
                dir: dir.flipped(),
                tsval: tsecr,
            };
            if let Some(sent_at) = self.table.remove(&probe) {
                // Severe reordering can make this negative; skip such samples.
                if meta.timestamp >= sent_at {
                    self.stats.samples += 1;
                    sample = Some(RttSample {
                        key: flow,
                        rtt_ns: meta.timestamp - sent_at,
                        at: meta.timestamp,
                    });
                }
            }
        }

        // 2. Record this packet's TSval (first occurrence only: retransmits
        //    and ACK-only repeats keep the original send time). Pure ACKs
        //    with no payload do not advance TSval meaningfully but are still
        //    echoed by peers, so pping records them too. TSval 0 is skipped:
        //    the `tsecr != 0` ambiguity guard above means an echo of it can
        //    never match, so recording it would only pin a dead entry in the
        //    table until TTL.
        if tsval == 0 {
            self.stats.zero_tsvals += 1;
            return sample;
        }
        let record = TsKey { flow, dir, tsval };
        match self.table.insert(record, meta.timestamp, meta.timestamp) {
            InsertOutcome::AlreadyPresent => self.stats.duplicate_tsvals += 1,
            InsertOutcome::Inserted | InsertOutcome::InsertedWithEviction => {
                self.stats.tsvals_recorded += 1;
            }
        }

        sample
    }

    /// Expire outstanding TSvals at `now`.
    pub(crate) fn housekeep(&mut self, now: Timestamp) {
        self.packets_since_expiry = 0;
        let before = self.table.expirations();
        self.table.expire(now, |_k, _v| {});
        self.stats.expired += self.table.expirations() - before;
    }

    /// Outstanding (unechoed) TSvals.
    pub fn outstanding(&self) -> usize {
        self.table.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PpingStats {
        self.stats
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
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        // Client sends TSval=100 at t=0.
        assert!(p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0)).is_none());
        // Server echoes TSecr=100 at t=130ms.
        let sample = p
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 130_000))
            .unwrap();
        assert_eq!(sample.rtt_ns, 130_000_000);
        assert_eq!(p.stats().samples, 1);
    }

    #[test]
    fn echo_is_consumed_once() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        assert!(p
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 1_000))
            .is_some());
        // Second echo of the same TSval: no double-count.
        assert!(p
            .process(&meta(s, c, 443, 5000, Some((901, 100)), 2_000))
            .is_none());
        assert_eq!(p.stats().samples, 1);
    }

    #[test]
    fn retransmission_keeps_first_send_time() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        // Retransmission with same TSval at t=50ms is not re-recorded.
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 50_000));
        let sample = p
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 130_000))
            .unwrap();
        assert_eq!(sample.rtt_ns, 130_000_000, "measured from first send");
    }

    #[test]
    fn samples_flow_continuously() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        let mut samples = 0;
        // 100 data/ack exchanges, each a distinct TSval.
        for i in 0..100u32 {
            let t0 = i as u64 * 1_000;
            p.process(&meta(c, s, 5000, 443, Some((1000 + i, 500 + i)), t0));
            if p
                .process(&meta(s, c, 443, 5000, Some((501 + i, 1000 + i)), t0 + 130))
                .is_some()
            {
                samples += 1;
            }
        }
        assert_eq!(samples, 100, "pping samples every exchange");
    }

    #[test]
    fn packets_without_timestamps_are_skipped() {
        let mut p = Pping::new(PpingConfig::default());
        assert!(p.process(&meta(ip(1), ip(2), 1, 2, None, 0)).is_none());
        assert_eq!(p.stats().no_timestamp, 1);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn tsecr_zero_is_not_matched() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        // A TSval of 0 recorded…
        p.process(&meta(c, s, 5000, 443, Some((0, 0)), 0));
        // …must not be "echoed" by an unrelated TSecr=0 packet.
        assert!(p.process(&meta(s, c, 443, 5000, Some((7, 0)), 10)).is_none());
    }

    #[test]
    fn same_direction_echo_does_not_match() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        // Another client-side packet claiming TSecr=100 (its own direction).
        assert!(p
            .process(&meta(c, s, 5000, 443, Some((101, 100)), 1_000))
            .is_none());
    }

    #[test]
    fn outstanding_tsvals_expire() {
        let mut p = Pping::new(PpingConfig {
            ttl_ns: 1_000_000, // 1ms
            ..PpingConfig::default()
        });
        p.process(&meta(ip(1), ip(2), 1, 2, Some((1, 0)), 0));
        assert_eq!(p.outstanding(), 1);
        p.housekeep(Timestamp::from_micros(2_000));
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.stats().expired, 1);
    }

    /// Regression: retransmits hit `InsertOutcome::AlreadyPresent` and used
    /// to bump `tsvals_recorded` anyway, over-counting recorded state.
    #[test]
    fn retransmit_counts_duplicate_not_recorded() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        // Two retransmissions of the same segment (same TSval).
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 50_000));
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 100_000));
        assert_eq!(p.stats().tsvals_recorded, 1, "recorded once, not thrice");
        assert_eq!(p.stats().duplicate_tsvals, 2);
        assert_eq!(p.outstanding(), 1);
    }

    /// Regression: RFC 7323 §3.2 — TSecr is only valid on segments with ACK
    /// set. A SYN's TSecr field is undefined garbage (e.g. stale state from
    /// a previous connection on the same tuple) and must not match.
    #[test]
    fn syn_with_stale_tsecr_produces_no_sample() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        // Server-side TSval 777 outstanding from earlier traffic.
        p.process(&meta(s, c, 443, 5000, Some((777, 0)), 0));
        // Client "SYN" (no ACK flag) whose TSecr bytes happen to hold 777.
        let syn = meta_flags(c, s, 5000, 443, Some((100, 777)), 10_000, Flags::SYN);
        assert!(p.process(&syn).is_none(), "garbage TSecr must not match");
        assert_eq!(p.stats().samples, 0);
        // The recorded TSval survives for a *valid* echo later.
        assert!(p
            .process(&meta(c, s, 5000, 443, Some((101, 777)), 20_000))
            .is_some());
    }

    /// Regression: TSval 0 can never be matched (the `tsecr != 0` ambiguity
    /// guard filters legitimate echoes of it), so recording it only pinned a
    /// dead entry in the table until TTL, inflating `outstanding()`.
    #[test]
    fn zero_tsval_is_skipped_and_counted() {
        let mut p = Pping::new(PpingConfig::default());
        p.process(&meta(ip(1), ip(2), 1, 2, Some((0, 0)), 0));
        assert_eq!(p.outstanding(), 0, "dead entry not recorded");
        assert_eq!(p.stats().zero_tsvals, 1);
        assert_eq!(p.stats().tsvals_recorded, 0);
    }

    /// TSval is a free-running 32-bit clock: it wraps u32::MAX → 0 → 1.
    /// Matching is exact (no ordering comparison), so samples keep flowing
    /// across the wrap; the single unusable TSval 0 tick is counted.
    #[test]
    fn tsval_wraparound_keeps_sampling() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        let mut samples = 0;
        for (i, tsval) in [u32::MAX - 1, u32::MAX, 0, 1, 2].into_iter().enumerate() {
            let t0 = i as u64 * 1_000;
            p.process(&meta(c, s, 5000, 443, Some((tsval, 9)), t0));
            if p
                .process(&meta(s, c, 443, 5000, Some((10 + i as u32, tsval)), t0 + 130))
                .is_some()
            {
                samples += 1;
            }
        }
        assert_eq!(samples, 4, "every wrap-spanning exchange except TSval 0");
        assert_eq!(p.stats().zero_tsvals, 1);
    }

    /// Delayed ACKs inflate pping RTT: the receiver may sit on the echo for
    /// up to the delayed-ACK timer, and the sample measures arrival delta at
    /// the tap — the inflation is inherent to the method, not a bug.
    #[test]
    fn delayed_ack_inflates_sample() {
        let mut p = Pping::new(PpingConfig::default());
        let c = ip(1);
        let s = ip(2);
        // Data at t=0; path RTT is 100ms but the server holds the ACK 40ms.
        p.process(&meta(c, s, 5000, 443, Some((100, 0)), 0));
        let sample = p
            .process(&meta(s, c, 443, 5000, Some((900, 100)), 140_000))
            .unwrap();
        assert_eq!(sample.rtt_ns, 140_000_000, "path RTT + delayed-ACK hold");
    }

    #[test]
    fn capacity_bounded_under_load() {
        let mut p = Pping::new(PpingConfig {
            capacity: 100,
            ..PpingConfig::default()
        });
        for i in 0..10_000u32 {
            p.process(&meta(ip(1), ip(2), 1, 2, Some((i, 0)), i as u64));
        }
        assert_eq!(p.outstanding(), 100);
    }
}
