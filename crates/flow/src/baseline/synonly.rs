//! SYN→SYN-ACK-only RTT estimation.
//!
//! The simplest passive latency estimator (what many flow monitors and IDSes
//! implement): the delta between a SYN and its SYN-ACK. It measures only the
//! *external* side of the path — from the tap to the responder — and is
//! blind to the client-side (internal) latency, which is half of what Ruru
//! reports. Used as the weak baseline in experiment E7.

use crate::baseline::RttSample;
use crate::classify::TcpMeta;
use crate::key::{Direction, FlowKey};
use crate::baseline::expiring::ExpiringTable;
use ruru_nic::Timestamp;

/// Counters for the SYN-only estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynOnlyStats {
    /// Packets processed.
    pub packets: u64,
    /// SYNs recorded.
    pub syns: u64,
    /// Samples emitted.
    pub samples: u64,
}

#[derive(Clone, Copy)]
struct Pending {
    t_syn: Timestamp,
    client_isn: u32,
    client_dir: Direction,
}

/// The SYN-only estimator.
pub struct SynOnly {
    table: ExpiringTable<FlowKey, Pending>,
    stats: SynOnlyStats,
}

impl SynOnly {
    /// Create an estimator bounded to `capacity` in-flight SYNs with the
    /// given TTL.
    pub fn new(capacity: usize, ttl_ns: u64) -> SynOnly {
        SynOnly {
            table: ExpiringTable::new(capacity, ttl_ns),
            stats: SynOnlyStats::default(),
        }
    }

    /// Process a packet; returns an external-RTT sample when a SYN-ACK
    /// matches a recorded SYN.
    pub fn process(&mut self, meta: &TcpMeta) -> Option<RttSample> {
        self.stats.packets += 1;
        let (key, dir) = FlowKey::from_tuple(meta.src, meta.dst, meta.src_port, meta.dst_port);
        if meta.flags.is_syn_only() {
            self.stats.syns += 1;
            self.table.insert(
                key,
                Pending {
                    t_syn: meta.timestamp,
                    client_isn: meta.seq,
                    client_dir: dir,
                },
                meta.timestamp,
            );
            return None;
        }
        if meta.flags.is_syn_ack() {
            let pending = self.table.get(&key).copied()?;
            if dir == pending.client_dir || meta.ack != pending.client_isn.wrapping_add(1) {
                return None;
            }
            self.table.remove(&key);
            if meta.timestamp < pending.t_syn {
                return None;
            }
            self.stats.samples += 1;
            return Some(RttSample {
                key,
                rtt_ns: meta.timestamp - pending.t_syn,
                at: meta.timestamp,
            });
        }
        None
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SynOnlyStats {
        self.stats
    }

    /// In-flight SYNs awaiting a SYN-ACK.
    pub fn in_flight(&self) -> usize {
        self.table.len()
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

    #[allow(clippy::too_many_arguments)]
    fn meta(
        src: IpAddress,
        dst: IpAddress,
        sp: u16,
        dp: u16,
        flags: Flags,
        seq: u32,
        ack: u32,
        t_us: u64,
    ) -> TcpMeta {
        TcpMeta {
            src,
            dst,
            src_port: sp,
            dst_port: dp,
            seq,
            ack,
            flags,
            payload_len: 0,
            timestamps: None,
            timestamp: Timestamp::from_micros(t_us),
        }
    }

    #[test]
    fn measures_external_rtt_only() {
        let mut e = SynOnly::new(1024, 10_000_000_000);
        let c = ip(1);
        let s = ip(2);
        e.process(&meta(c, s, 5000, 443, Flags::SYN, 100, 0, 0));
        let sample = e
            .process(&meta(s, c, 443, 5000, Flags::SYN | Flags::ACK, 900, 101, 130_000))
            .unwrap();
        assert_eq!(sample.rtt_ns, 130_000_000);
        // The client ACK produces nothing — internal latency is invisible.
        assert!(e
            .process(&meta(c, s, 5000, 443, Flags::ACK, 101, 901, 131_200))
            .is_none());
        assert_eq!(e.stats().samples, 1);
    }

    #[test]
    fn wrong_ack_number_rejected() {
        let mut e = SynOnly::new(1024, 10_000_000_000);
        let c = ip(1);
        let s = ip(2);
        e.process(&meta(c, s, 5000, 443, Flags::SYN, 100, 0, 0));
        assert!(e
            .process(&meta(s, c, 443, 5000, Flags::SYN | Flags::ACK, 900, 77, 130_000))
            .is_none());
        assert_eq!(e.in_flight(), 1);
    }

    #[test]
    fn synack_without_syn_is_ignored() {
        let mut e = SynOnly::new(1024, 10_000_000_000);
        assert!(e
            .process(&meta(ip(2), ip(1), 443, 5000, Flags::SYN | Flags::ACK, 1, 1, 0))
            .is_none());
    }
}
