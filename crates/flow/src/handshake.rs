//! The SYN / SYN-ACK / ACK handshake state machine — Ruru's measurement
//! engine (the paper's Figure 1).
//!
//! One [`HandshakeTracker`] runs per RX queue. Because symmetric RSS
//! delivers both directions of a flow to the same queue, the tracker is
//! purely single-threaded: a hash table of in-flight handshakes, three state
//! transitions, and one emitted [`LatencyMeasurement`] per completed
//! handshake.
//!
//! Robustness rules (exercised by the fault-injection tests):
//!
//! * Retransmitted SYNs keep the *first* SYN timestamp (the paper measures
//!   from the first SYN) and are counted.
//! * A SYN with a *different* ISN on an in-flight tuple restarts the entry —
//!   it is a new connection attempt (port reuse).
//! * SYN-ACKs must acknowledge `ISN+1`; anything else is counted as stray
//!   and ignored (protects against spoofed/corrupted packets).
//! * The completing ACK must acknowledge the server's `ISN+1`.
//! * RST aborts the entry without a measurement.
//! * Entries expire after a TTL, and the table is capacity-bounded with
//!   oldest-first eviction, so SYN floods cannot exhaust memory.

use crate::classify::TcpMeta;
use crate::key::{Direction, FlowKey};
use crate::measurement::LatencyMeasurement;
use crate::table::FlowTable;
use ruru_nic::Timestamp;

/// Configuration of a per-queue tracker.
#[derive(Debug, Clone)]
pub struct TrackerConfig {
    /// Maximum in-flight handshakes held (per queue).
    pub capacity: usize,
    /// Handshake time-to-live: entries older than this are dropped.
    pub ttl_ns: u64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            capacity: 1 << 20,
            ttl_ns: 10_000_000_000, // 10 s — covers several SYN retransmissions
        }
    }
}

/// Counters exposed by a tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrackerStats {
    /// TCP packets processed.
    pub packets: u64,
    /// Pure SYNs observed.
    pub syns: u64,
    /// SYN-ACKs observed.
    pub synacks: u64,
    /// Measurements emitted (completed handshakes).
    pub measurements: u64,
    /// Retransmitted SYNs (same ISN).
    pub syn_retransmissions: u64,
    /// Retransmitted SYN-ACKs.
    pub synack_retransmissions: u64,
    /// SYNs that restarted an entry with a new ISN (tuple reuse).
    pub restarts: u64,
    /// SYN-ACKs with no matching SYN, wrong direction or wrong ACK number.
    pub stray_synacks: u64,
    /// Handshakes aborted by RST.
    pub rst_aborts: u64,
    /// Entries dropped by TTL expiry (incomplete handshakes).
    pub expired: u64,
    /// Entries force-evicted by capacity pressure (SYN-flood shedding).
    pub evicted: u64,
    /// ACK timestamps that preceded the SYN-ACK timestamp (clock anomaly /
    /// severe reordering); measurement suppressed.
    pub nonmonotonic: u64,
}

#[derive(Debug, Clone, Copy)]
enum HsState {
    /// SYN seen; waiting for SYN-ACK.
    SynSeen {
        t_syn: Timestamp,
        client_isn: u32,
        syn_retx: u8,
    },
    /// SYN-ACK seen; waiting for the client's ACK.
    SynAckSeen {
        t_syn: Timestamp,
        t_synack: Timestamp,
        server_isn: u32,
        syn_retx: u8,
    },
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    state: HsState,
    /// Direction (relative to the canonical key) the SYN travelled — i.e.
    /// which side is the client.
    client_dir: Direction,
}

/// The per-queue handshake tracker.
pub struct HandshakeTracker {
    table: FlowTable<FlowKey, Entry>,
    queue_id: u16,
    stats: TrackerStats,
    last_seen: Timestamp,
}

impl HandshakeTracker {
    /// A tracker for queue `queue_id`.
    pub fn new(queue_id: u16, config: TrackerConfig) -> HandshakeTracker {
        HandshakeTracker {
            table: FlowTable::new(config.capacity, config.ttl_ns),
            queue_id,
            stats: TrackerStats::default(),
            last_seen: Timestamp::ZERO,
        }
    }

    /// Process one classified TCP packet; returns a measurement when this
    /// packet completed a handshake. A one-packet
    /// [`HandshakeTracker::process_burst`].
    pub fn process(&mut self, meta: &TcpMeta) -> Option<LatencyMeasurement> {
        let mut out = None;
        self.process_burst(core::slice::from_ref(meta), |m| out = Some(m));
        out
    }

    /// Process a whole RX burst, `rte_hash_lookup_bulk`-style: stage every
    /// packet's home bucket into cache, then run the state machine per
    /// packet (emitting measurements through `emit`), and finish with an
    /// expiry sweep at the burst boundary.
    pub fn process_burst(&mut self, metas: &[TcpMeta], mut emit: impl FnMut(LatencyMeasurement)) {
        // Stage 1: prefetch each packet's home bucket.
        for meta in metas {
            let hash = FlowKey::tuple_hash(meta.src, meta.dst, meta.src_port, meta.dst_port);
            self.table.prefetch(hash);
        }
        // Stage 2: the per-packet state machine against warmed lines.
        // Recomputing the hash (a few multiplies) keeps the burst loop free
        // of per-burst state.
        for meta in metas {
            let (key, dir) = FlowKey::from_tuple(meta.src, meta.dst, meta.src_port, meta.dst_port);
            if let Some(m) = self.dispatch(key.table_hash(), key, dir, meta) {
                emit(m);
            }
        }
        // Stage 3: expiry at the burst boundary — O(1) while the oldest
        // entry is not yet due.
        if let Some(last) = metas.last() {
            self.housekeep(last.timestamp);
        }
    }

    /// The state machine proper, with the key and its table hash resolved.
    fn dispatch(
        &mut self,
        hash: u32,
        key: FlowKey,
        dir: Direction,
        meta: &TcpMeta,
    ) -> Option<LatencyMeasurement> {
        self.stats.packets += 1;
        self.last_seen = meta.timestamp;

        if meta.flags.contains(ruru_wire::tcp::Flags::RST) {
            if self.table.remove(hash, &key).is_some() {
                self.stats.rst_aborts += 1;
            }
            return None;
        }

        if meta.flags.is_syn_only() {
            self.on_syn(hash, key, dir, meta);
            return None;
        }

        if meta.flags.is_syn_ack() {
            self.on_synack(hash, key, dir, meta);
            return None;
        }

        if meta.flags.contains(ruru_wire::tcp::Flags::ACK) {
            return self.on_ack(hash, key, dir, meta);
        }

        None
    }

    fn on_syn(&mut self, hash: u32, key: FlowKey, dir: Direction, meta: &TcpMeta) {
        self.stats.syns += 1;
        if let Some(entry) = self.table.get_mut(hash, &key) {
            match entry.state {
                HsState::SynSeen {
                    client_isn,
                    ref mut syn_retx,
                    ..
                } if entry.client_dir == dir && client_isn == meta.seq => {
                    // Retransmission: keep the first timestamp (Figure 1
                    // measures from the *first* SYN).
                    *syn_retx = syn_retx.saturating_add(1);
                    self.stats.syn_retransmissions += 1;
                    return;
                }
                _ => {
                    // New ISN or new direction on a live tuple: a fresh
                    // connection attempt. Restart the entry.
                    self.stats.restarts += 1;
                    self.table.remove(hash, &key);
                }
            }
        }
        // Capacity evictions are counted by the table; see `stats()`.
        self.table.insert(
            hash,
            key,
            Entry {
                state: HsState::SynSeen {
                    t_syn: meta.timestamp,
                    client_isn: meta.seq,
                    syn_retx: 0,
                },
                client_dir: dir,
            },
            meta.timestamp,
        );
    }

    fn on_synack(&mut self, hash: u32, key: FlowKey, dir: Direction, meta: &TcpMeta) {
        self.stats.synacks += 1;
        let Some(entry) = self.table.get_mut(hash, &key) else {
            self.stats.stray_synacks += 1;
            return;
        };
        match entry.state {
            HsState::SynSeen {
                t_syn,
                client_isn,
                syn_retx,
            } => {
                // Must travel opposite to the SYN and ack the client's ISN+1.
                if dir == entry.client_dir || meta.ack != client_isn.wrapping_add(1) {
                    self.stats.stray_synacks += 1;
                    return;
                }
                entry.state = HsState::SynAckSeen {
                    t_syn,
                    t_synack: meta.timestamp,
                    server_isn: meta.seq,
                    syn_retx,
                };
            }
            HsState::SynAckSeen { server_isn, .. } => {
                if dir != entry.client_dir && meta.seq == server_isn {
                    // Retransmitted SYN-ACK: keep the first timestamp.
                    self.stats.synack_retransmissions += 1;
                } else {
                    self.stats.stray_synacks += 1;
                }
            }
        }
    }

    fn on_ack(
        &mut self,
        hash: u32,
        key: FlowKey,
        dir: Direction,
        meta: &TcpMeta,
    ) -> Option<LatencyMeasurement> {
        // Fast path: data packets of established flows miss the table.
        let entry = self.table.get(hash, &key).copied()?;
        let HsState::SynAckSeen {
            t_syn,
            t_synack,
            server_isn,
            syn_retx,
        } = entry.state
        else {
            // account-ok: tracked flow not yet past SYN+ACK — this ACK is
            // an ordinary data segment, counted in stats.packets upstream.
            return None;
        };
        // The completing ACK travels in the client's direction and
        // acknowledges the server's ISN+1 (it may carry data).
        if dir != entry.client_dir || meta.ack != server_isn.wrapping_add(1) {
            // account-ok: not the handshake-completing ACK; the flow stays
            // tracked and the packet was counted in stats.packets upstream.
            return None;
        }
        self.table.remove(hash, &key);
        if meta.timestamp < t_synack || t_synack < t_syn {
            self.stats.nonmonotonic += 1;
            return None;
        }
        self.stats.measurements += 1;
        let (src, dst, src_port, dst_port) = key.as_seen(entry.client_dir);
        Some(LatencyMeasurement {
            src,
            dst,
            src_port,
            dst_port,
            internal_ns: meta.timestamp - t_synack,
            external_ns: t_synack - t_syn,
            completed_at: meta.timestamp,
            queue_id: self.queue_id,
            syn_retransmissions: syn_retx,
        })
    }

    /// Run an expiry sweep at `now` (also run at the end of every burst).
    pub(crate) fn housekeep(&mut self, now: Timestamp) {
        self.table.expire(now, |_k, _v| {});
    }

    /// In-flight (incomplete) handshakes currently tracked.
    pub fn in_flight(&self) -> usize {
        self.table.len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> TrackerStats {
        // Capacity evictions and TTL expiries happen inside the table;
        // it holds the only count of each.
        TrackerStats {
            evicted: self.table.evictions(),
            expired: self.table.expirations(),
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

    /// Standard three-way handshake: SYN at t=0, SYN-ACK at t=130ms,
    /// ACK at t=131.2ms (external 130ms, internal 1.2ms).
    fn run_handshake(tr: &mut HandshakeTracker) -> Option<LatencyMeasurement> {
        let c = ip(1);
        let s = ip(2);
        assert!(tr
            .process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0))
            .is_none());
        assert!(tr
            .process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000))
            .is_none());
        tr.process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 131_200))
    }

    #[test]
    fn basic_handshake_measures_figure1_latencies() {
        let mut tr = HandshakeTracker::new(7, TrackerConfig::default());
        let m = run_handshake(&mut tr).expect("measurement");
        assert_eq!(m.external_ns, 130_000_000);
        assert_eq!(m.internal_ns, 1_200_000);
        assert_eq!(m.total_ns(), 131_200_000);
        assert_eq!(m.src, ip(1), "src is the SYN sender");
        assert_eq!(m.dst, ip(2));
        assert_eq!(m.src_port, 51000);
        assert_eq!(m.dst_port, 443);
        assert_eq!(m.queue_id, 7);
        assert_eq!(m.syn_retransmissions, 0);
        assert_eq!(tr.in_flight(), 0, "completed entry removed");
        let s = tr.stats();
        assert_eq!(s.measurements, 1);
        assert_eq!(s.syns, 1);
        assert_eq!(s.synacks, 1);
    }

    #[test]
    fn syn_retransmission_keeps_first_timestamp() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        // retransmit 1 s later, same ISN
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 1_000_000));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 1_130_000));
        let m = tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 1_131_000))
            .unwrap();
        // external measured from the FIRST SYN: 1.13 s
        assert_eq!(m.external_ns, 1_130_000_000);
        assert_eq!(m.syn_retransmissions, 1);
        assert_eq!(tr.stats().syn_retransmissions, 1);
    }

    #[test]
    fn new_isn_restarts_entry() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        // Same tuple, different ISN: a fresh attempt (e.g. after app retry).
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 5000, 0, 10_000));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 5001, 140_000));
        let m = tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 5001, 9001, 141_000))
            .unwrap();
        assert_eq!(m.external_ns, 130_000_000, "measured from the new SYN");
        assert_eq!(tr.stats().restarts, 1);
    }

    #[test]
    fn synack_must_ack_isn_plus_one() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        // Wrong ack number: ignored as stray.
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 4242, 100));
        assert_eq!(tr.stats().stray_synacks, 1);
        // Correct one still completes.
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000));
        assert!(tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 131_000))
            .is_some());
    }

    #[test]
    fn synack_without_syn_is_stray() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        tr.process(&meta(ip(2), ip(1), 443, 51000, Flags::SYN | Flags::ACK, 1, 1, 0));
        assert_eq!(tr.stats().stray_synacks, 1);
        assert_eq!(tr.in_flight(), 0);
    }

    #[test]
    fn synack_retransmission_keeps_first_timestamp() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 230_000));
        assert_eq!(tr.stats().synack_retransmissions, 1);
        let m = tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 231_000))
            .unwrap();
        // internal measured from the FIRST SYN-ACK
        assert_eq!(m.internal_ns, 101_000_000);
    }

    #[test]
    fn ack_with_wrong_number_does_not_complete() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000));
        assert!(tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 7777, 131_000))
            .is_none());
        assert_eq!(tr.in_flight(), 1, "entry remains until the right ACK");
    }

    #[test]
    fn ack_from_server_side_does_not_complete() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000));
        // A (bogus) plain ACK from the server direction must not complete.
        assert!(tr
            .process(&meta(s, c, 443, 51000, Flags::ACK, 9001, 9001, 131_000))
            .is_none());
        assert_eq!(tr.stats().measurements, 0);
    }

    #[test]
    fn rst_aborts_handshake() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        tr.process(&meta(s, c, 443, 51000, Flags::RST | Flags::ACK, 0, 1001, 50));
        assert_eq!(tr.stats().rst_aborts, 1);
        assert_eq!(tr.in_flight(), 0);
        // Late SYN-ACK is now stray.
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 100));
        assert_eq!(tr.stats().stray_synacks, 1);
    }

    #[test]
    fn data_packets_of_established_flows_are_cheap_misses() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        run_handshake(&mut tr).unwrap();
        // Data flows after completion: no state, no measurements.
        for i in 0..100u32 {
            assert!(tr
                .process(&meta(c, s, 51000, 443, Flags::ACK | Flags::PSH, 2000 + i, 9001, 200_000))
                .is_none());
        }
        assert_eq!(tr.stats().measurements, 1);
        assert_eq!(tr.in_flight(), 0);
    }

    #[test]
    fn expiry_drops_half_open_handshakes() {
        let mut tr = HandshakeTracker::new(
            0,
            TrackerConfig {
                ttl_ns: 1_000_000, // 1 ms
                ..TrackerConfig::default()
            },
        );
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0));
        assert_eq!(tr.in_flight(), 1);
        tr.housekeep(Timestamp::from_micros(2_000));
        assert_eq!(tr.in_flight(), 0);
        assert_eq!(tr.stats().expired, 1);
        // A SYN-ACK arriving after expiry is stray; no measurement results.
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 2_100));
        assert_eq!(tr.stats().stray_synacks, 1);
    }

    #[test]
    fn every_burst_boundary_expires_due_entries() {
        let mut tr = HandshakeTracker::new(
            0,
            TrackerConfig {
                ttl_ns: 1_000, // 1 µs
                ..TrackerConfig::default()
            },
        );
        let c = ip(1);
        let s = ip(2);
        tr.process_burst(&[meta(c, s, 51000, 443, Flags::SYN, 1, 0, 0)], |_| {});
        assert_eq!(tr.in_flight(), 1, "not yet due at its own burst");
        // The next burst, past the TTL, sweeps the entry at its boundary.
        tr.process_burst(&[meta(ip(3), ip(4), 1000, 80, Flags::ACK, 1, 1, 2)], |_| {});
        assert_eq!(tr.stats().expired, 1);
        assert_eq!(tr.in_flight(), 0);
    }

    #[test]
    fn capacity_bound_sheds_oldest_under_synflood() {
        let mut tr = HandshakeTracker::new(
            0,
            TrackerConfig {
                capacity: 100,
                ..TrackerConfig::default()
            },
        );
        // 10k distinct spoofed SYNs.
        for i in 0..10_000u32 {
            let src = IpAddress::V4(ipv4::Address([
                (i >> 24) as u8 | 1,
                (i >> 16) as u8,
                (i >> 8) as u8,
                i as u8,
            ]));
            tr.process(&meta(src, ip(2), 4000, 443, Flags::SYN, i, 0, i as u64));
        }
        assert_eq!(tr.in_flight(), 100);
        assert_eq!(tr.stats().evicted, 9_900);
        // A real handshake still completes under flood.
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 20_000));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 21_000));
        assert!(tr
            .process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 22_000))
            .is_some());
    }

    #[test]
    fn process_burst_matches_per_packet_processing() {
        let mut per_packet = HandshakeTracker::new(3, TrackerConfig::default());
        let mut burst = HandshakeTracker::new(3, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        let packets = vec![
            meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 0),
            meta(ip(5), s, 52000, 443, Flags::SYN, 7, 0, 10),
            meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 130_000),
            meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 131_200),
            meta(s, ip(5), 443, 52000, Flags::RST, 0, 8, 131_500),
        ];
        let per_packet_ms: Vec<_> = packets
            .iter()
            .filter_map(|m| per_packet.process(m))
            .collect();
        let mut burst_ms = Vec::new();
        burst.process_burst(&packets, |m| burst_ms.push(m));
        assert_eq!(per_packet_ms, burst_ms);
        assert_eq!(per_packet_ms.len(), 1);
        assert_eq!(per_packet.stats(), burst.stats());
        assert_eq!(per_packet.in_flight(), burst.in_flight());
    }

    #[test]
    fn wrapping_isn_handled() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, u32::MAX, 0, 0));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, u32::MAX, 0, 1_000));
        let m = tr.process(&meta(c, s, 51000, 443, Flags::ACK, 0, 0, 2_000));
        assert!(m.is_some(), "ISN+1 wraps to 0");
    }

    #[test]
    fn nonmonotonic_timestamps_suppressed() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let c = ip(1);
        let s = ip(2);
        tr.process(&meta(c, s, 51000, 443, Flags::SYN, 1000, 0, 5_000));
        tr.process(&meta(s, c, 443, 51000, Flags::SYN | Flags::ACK, 9000, 1001, 6_000));
        // ACK timestamped BEFORE the SYN-ACK (pathological reorder).
        let m = tr.process(&meta(c, s, 51000, 443, Flags::ACK, 1001, 9001, 5_500));
        assert!(m.is_none());
        assert_eq!(tr.stats().nonmonotonic, 1);
        assert_eq!(tr.in_flight(), 0, "entry consumed either way");
    }

    #[test]
    fn simultaneous_flows_tracked_independently() {
        let mut tr = HandshakeTracker::new(0, TrackerConfig::default());
        let s = ip(100);
        // Interleave 50 handshakes.
        for i in 0..50u16 {
            let c = ip((i + 1) as u8);
            tr.process(&meta(c, s, 50_000 + i, 443, Flags::SYN, i as u32, 0, i as u64 * 10));
        }
        for i in 0..50u16 {
            let c = ip((i + 1) as u8);
            tr.process(&meta(
                s, c, 443, 50_000 + i,
                Flags::SYN | Flags::ACK,
                1000 + i as u32,
                i as u32 + 1,
                100_000 + i as u64 * 10,
            ));
        }
        let mut measured = 0;
        for i in 0..50u16 {
            let c = ip((i + 1) as u8);
            if tr
                .process(&meta(
                    c, s, 50_000 + i, 443,
                    Flags::ACK,
                    i as u32 + 1,
                    1001 + i as u32,
                    200_000 + i as u64 * 10,
                ))
                .is_some()
            {
                measured += 1;
            }
        }
        assert_eq!(measured, 50);
        assert_eq!(tr.stats().measurements, 50);
    }
}
