//! Single-pass packet pre-parsing ("pre-parsing all TCP packet headers" in
//! the paper's pipeline).
//!
//! [`classify`] turns a raw Ethernet frame into the compact [`TcpMeta`] the
//! tracker and the baselines consume, rejecting everything that cannot carry
//! handshake information with a precise [`Reject`] reason (counted by the
//! pipeline's statistics). [`classify_mbuf`] is the same function on a
//! received buffer: a [`TcpMeta`] holds only what the frame and its arrival
//! time say, so raw-frame tests and the pipeline key the flow tables
//! identically.

use ruru_nic::Timestamp;
use ruru_wire::{ethernet, ipv4, ipv6, tcp, IpAddress};

/// Why a frame was not classified as a usable TCP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reject {
    /// Not an IPv4/IPv6 Ethernet frame, or truncated below header sizes.
    NotIp,
    /// IP, but not TCP.
    NotTcp,
    /// A non-initial IP fragment (carries no TCP header).
    Fragment,
    /// The IPv4 header checksum failed.
    BadIpChecksum,
    /// The TCP checksum failed (only with [`ChecksumMode::Validate`]).
    BadTcpChecksum,
    /// The TCP header was malformed or truncated.
    BadTcp,
    /// Classified fine, but every downstream bus consumer was gone when the
    /// measurement was pushed: the record was dropped at the bus edge
    /// instead of panicking the dataplane worker.
    BusClosed,
}

impl Reject {
    /// Every cause, in declaration order, so `Reject::ALL[r as usize] == r`:
    /// the one list callers iterate or index instead of spelling the
    /// causes out.
    pub const ALL: [Reject; 7] = [
        Reject::NotIp,
        Reject::NotTcp,
        Reject::Fragment,
        Reject::BadIpChecksum,
        Reject::BadTcpChecksum,
        Reject::BadTcp,
        Reject::BusClosed,
    ];
}

/// How many frames each [`Reject`] cause discarded — the run report's
/// reading of the pipeline's per-cause `reject_*` registry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectStats {
    /// Frames rejected as [`Reject::NotIp`].
    pub not_ip: u64,
    /// Frames rejected as [`Reject::NotTcp`].
    pub not_tcp: u64,
    /// Frames rejected as [`Reject::Fragment`].
    pub fragment: u64,
    /// Frames rejected as [`Reject::BadIpChecksum`].
    pub bad_ip_checksum: u64,
    /// Frames rejected as [`Reject::BadTcpChecksum`].
    pub bad_tcp_checksum: u64,
    /// Frames rejected as [`Reject::BadTcp`].
    pub bad_tcp: u64,
    /// Measurements dropped as [`Reject::BusClosed`].
    pub bus_closed: u64,
}

impl RejectStats {
    /// Total rejected frames across every cause.
    pub fn total(&self) -> u64 {
        Reject::ALL
            .iter()
            .fold(0, |sum, &r| sum.saturating_add(self.get(r)))
    }

    /// The count for one cause.
    pub fn get(&self, reject: Reject) -> u64 {
        match reject {
            Reject::NotIp => self.not_ip,
            Reject::NotTcp => self.not_tcp,
            Reject::Fragment => self.fragment,
            Reject::BadIpChecksum => self.bad_ip_checksum,
            Reject::BadTcpChecksum => self.bad_tcp_checksum,
            Reject::BadTcp => self.bad_tcp,
            Reject::BusClosed => self.bus_closed,
        }
    }
}

/// Whether to validate TCP checksums during classification.
///
/// Hardware taps usually see checksums already verified by the NIC;
/// validating in software costs one pass over the payload. Ruru validates by
/// default because a corrupted header must never create a phantom flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChecksumMode {
    /// Verify IPv4 header and TCP checksums.
    #[default]
    Validate,
    /// Trust the frame (e.g. generator-produced traffic in benches).
    Trust,
}

/// Everything the measurement stages need from one TCP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpMeta {
    /// Source address.
    pub src: IpAddress,
    /// Destination address.
    pub dst: IpAddress,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// TCP flags.
    pub flags: tcp::Flags,
    /// TCP payload length in bytes.
    pub payload_len: usize,
    /// TCP timestamps option, if present: (TSval, TSecr).
    pub timestamps: Option<(u32, u32)>,
    /// Arrival timestamp from the RX path.
    pub timestamp: Timestamp,
}

fn parse_tcp_options(seg: &tcp::Packet<&[u8]>) -> Option<(u32, u32)> {
    for opt in seg.options() {
        match opt {
            Ok(tcp::TcpOption::Timestamps { tsval, tsecr }) => return Some((tsval, tsecr)),
            // account-ok: option-walk skip over non-timestamp kinds; the
            // packet itself is still classified.
            Ok(_) => continue,
            // account-ok: `None` means "no usable timestamps", not loss —
            // classification proceeds without the TS option.
            Err(_) => return None,
        }
    }
    None
}

fn classify_tcp(
    payload: &[u8],
    src: IpAddress,
    dst: IpAddress,
    ph: ruru_wire::checksum::PseudoHeader,
    mode: ChecksumMode,
    timestamp: Timestamp,
) -> Result<TcpMeta, Reject> {
    let seg = tcp::Packet::new_checked(payload).map_err(|_| Reject::BadTcp)?;
    if mode == ChecksumMode::Validate && !seg.verify_checksum(&ph) {
        return Err(Reject::BadTcpChecksum);
    }
    Ok(TcpMeta {
        src,
        dst,
        src_port: seg.src_port(),
        dst_port: seg.dst_port(),
        seq: seg.seq(),
        ack: seg.ack(),
        flags: seg.flag_set(),
        payload_len: payload.len() - seg.header_len(),
        timestamps: parse_tcp_options(&seg),
        timestamp,
    })
}

/// Classify one Ethernet frame arriving at `timestamp`.
pub fn classify(frame: &[u8], timestamp: Timestamp, mode: ChecksumMode) -> Result<TcpMeta, Reject> {
    let eth = ethernet::Frame::new_checked(frame).map_err(|_| Reject::NotIp)?;
    match eth.ethertype() {
        ethernet::EtherType::Ipv4 => {
            let ip = ipv4::Packet::new_checked(eth.payload()).map_err(|_| Reject::NotIp)?;
            if mode == ChecksumMode::Validate && !ip.verify_header_checksum() {
                return Err(Reject::BadIpChecksum);
            }
            if ip.is_non_initial_fragment() {
                return Err(Reject::Fragment);
            }
            if ip.protocol() != ipv4::Protocol::Tcp {
                return Err(Reject::NotTcp);
            }
            classify_tcp(
                ip.payload(),
                IpAddress::V4(ip.src()),
                IpAddress::V4(ip.dst()),
                ip.pseudo_header(),
                mode,
                timestamp,
            )
        }
        ethernet::EtherType::Ipv6 => {
            let ip = ipv6::Packet::new_checked(eth.payload()).map_err(|_| Reject::NotIp)?;
            let (proto, payload) = ip.upper_layer().map_err(|_| Reject::NotIp)?;
            if proto == ipv4::Protocol::Unknown(44) {
                return Err(Reject::Fragment);
            }
            if proto != ipv4::Protocol::Tcp {
                return Err(Reject::NotTcp);
            }
            // The pseudo-header length must be the TCP segment length, which
            // differs from payload_len when extension headers are present.
            let ph = ruru_wire::checksum::PseudoHeader::v6(
                ip.src().0,
                ip.dst().0,
                ipv4::Protocol::Tcp.into(),
                payload.len() as u32,
            );
            classify_tcp(
                payload,
                IpAddress::V6(ip.src()),
                IpAddress::V6(ip.dst()),
                ph,
                mode,
                timestamp,
            )
        }
        _ => Err(Reject::NotIp),
    }
}

/// Classify a received [`ruru_nic::Mbuf`]: its bytes, stamped with its RX
/// arrival time.
pub fn classify_mbuf(mbuf: &ruru_nic::Mbuf, mode: ChecksumMode) -> Result<TcpMeta, Reject> {
    classify(mbuf.data(), mbuf.timestamp, mode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_wire::checksum::PseudoHeader;

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build_v4_frame(
        src: [u8; 4],
        dst: [u8; 4],
        sport: u16,
        dport: u16,
        flags: tcp::Flags,
        seq: u32,
        ack: u32,
        payload: &[u8],
        ts_opt: Option<(u32, u32)>,
    ) -> Vec<u8> {
        let mut options = tcp::OptionList::default();
        if let Some((tsval, tsecr)) = ts_opt {
            options
                .push(tcp::TcpOption::Timestamps { tsval, tsecr })
                .unwrap();
        }
        let tcp_repr = tcp::Repr {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags,
            window: 65535,
            options,
        };
        let ip_repr = ipv4::Repr {
            src: ipv4::Address(src),
            dst: ipv4::Address(dst),
            protocol: ipv4::Protocol::Tcp,
            ttl: 64,
            payload_len: tcp_repr.header_len() + payload.len(),
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_repr.total_len()];
        ethernet::Repr {
            src: ethernet::Address([2, 0, 0, 0, 0, 1]),
            dst: ethernet::Address([2, 0, 0, 0, 0, 2]),
            ethertype: ethernet::EtherType::Ipv4,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        let mut ip = ipv4::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
        ip_repr.emit(&mut ip);
        let ph: PseudoHeader = ip_repr.pseudo_header();
        let hdr_len = tcp_repr.header_len();
        let tcp_buf = ip.payload_mut();
        tcp_buf[hdr_len..].copy_from_slice(payload);
        let mut seg = tcp::Packet::new_unchecked(tcp_buf);
        tcp_repr.emit(&mut seg, &ph);
        buf
    }

    #[test]
    fn reject_stats_total_and_get_cover_every_cause() {
        let stats = RejectStats {
            not_ip: 1,
            not_tcp: 2,
            fragment: 3,
            bad_ip_checksum: 4,
            bad_tcp_checksum: 5,
            bad_tcp: 6,
            bus_closed: 7,
        };
        assert_eq!(stats.get(Reject::NotTcp), 2);
        assert_eq!(stats.get(Reject::BusClosed), 7);
        assert_eq!(stats.total(), 28);
        assert_eq!(RejectStats::default().total(), 0);
    }

    #[test]
    fn all_lists_every_cause_in_declaration_order() {
        for (i, &r) in Reject::ALL.iter().enumerate() {
            assert_eq!(r as usize, i, "{r:?}");
        }
        // A cause added after `BusClosed`, or before it, must join `ALL`.
        assert_eq!(Reject::ALL.len(), Reject::BusClosed as usize + 1);
    }

    #[test]
    fn classifies_a_syn() {
        let frame = build_v4_frame(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            40000,
            443,
            tcp::Flags::SYN,
            1000,
            0,
            &[],
            Some((111, 0)),
        );
        let meta = classify(&frame, Timestamp::from_micros(5), ChecksumMode::Validate).unwrap();
        assert!(meta.flags.is_syn_only());
        assert_eq!(meta.src_port, 40000);
        assert_eq!(meta.seq, 1000);
        assert_eq!(meta.payload_len, 0);
        assert_eq!(meta.timestamps, Some((111, 0)));
        assert_eq!(meta.timestamp.as_micros(), 5);
    }

    #[test]
    fn classify_mbuf_classifies_the_bytes_at_the_rx_timestamp() {
        let frame = build_v4_frame(
            [10, 0, 0, 1],
            [10, 0, 0, 2],
            40000,
            443,
            tcp::Flags::SYN,
            1000,
            0,
            &[],
            Some((111, 0)),
        );
        let mut mbuf = ruru_nic::Mbuf::from_bytes(&frame);
        mbuf.timestamp = Timestamp::from_micros(7);
        let meta = classify_mbuf(&mbuf, ChecksumMode::Validate).unwrap();
        let raw = classify(&frame, Timestamp::from_micros(7), ChecksumMode::Validate).unwrap();
        assert_eq!(meta, raw);
        // A corrupted buffer is rejected the same way on both paths.
        let mut bad = frame.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0xff;
        let bad_mbuf = ruru_nic::Mbuf::from_bytes(&bad);
        assert_eq!(
            classify_mbuf(&bad_mbuf, ChecksumMode::Validate),
            classify(&bad, Timestamp::ZERO, ChecksumMode::Validate)
        );
    }

    #[test]
    fn payload_length_reported() {
        let frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::ACK | tcp::Flags::PSH,
            5,
            6,
            b"hello",
            None,
        );
        let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert_eq!(meta.payload_len, 5);
        assert!(meta.flags.is_plain_ack());
    }

    #[test]
    fn corrupted_tcp_checksum_rejected_when_validating() {
        let mut frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::SYN,
            0,
            0,
            &[],
            None,
        );
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(
            classify(&frame, Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::BadTcpChecksum)
        );
        // Trust mode lets it through.
        assert!(classify(&frame, Timestamp::ZERO, ChecksumMode::Trust).is_ok());
    }

    #[test]
    fn corrupted_ip_checksum_rejected() {
        let mut frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::SYN,
            0,
            0,
            &[],
            None,
        );
        frame[ethernet::HEADER_LEN + 8] = 1; // ttl
        assert_eq!(
            classify(&frame, Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::BadIpChecksum)
        );
    }

    #[test]
    fn non_ip_rejected() {
        assert_eq!(
            classify(&[0u8; 64], Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::NotIp)
        );
        assert_eq!(
            classify(&[0u8; 5], Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::NotIp)
        );
    }

    #[test]
    fn udp_rejected_as_not_tcp() {
        let mut frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::SYN,
            0,
            0,
            &[],
            None,
        );
        // Flip protocol to UDP and fix the IP checksum.
        let ip_at = ethernet::HEADER_LEN;
        frame[ip_at + 9] = 17;
        let mut ip = ipv4::Packet::new_unchecked(&mut frame[ip_at..]);
        ip.fill_header_checksum();
        assert_eq!(
            classify(&frame, Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::NotTcp)
        );
    }

    #[test]
    fn fragment_rejected() {
        let mut frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::SYN,
            0,
            0,
            &[],
            None,
        );
        let ip_at = ethernet::HEADER_LEN;
        frame[ip_at + 6] = 0x00;
        frame[ip_at + 7] = 0x04; // fragment offset 32 bytes
        let mut ip = ipv4::Packet::new_unchecked(&mut frame[ip_at..]);
        ip.fill_header_checksum();
        assert_eq!(
            classify(&frame, Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::Fragment)
        );
    }

    #[test]
    fn ipv6_tcp_classified() {
        // Build a v6 TCP SYN by hand.
        let tcp_repr = tcp::Repr {
            src_port: 50000,
            dst_port: 80,
            seq: 42,
            ack: 0,
            flags: tcp::Flags::SYN,
            window: 1000,
            options: tcp::OptionList::default(),
        };
        let ip_repr = ipv6::Repr {
            src: ipv6::Address::from_groups([0x2404, 1, 0, 0, 0, 0, 0, 1]),
            dst: ipv6::Address::from_groups([0x2607, 2, 0, 0, 0, 0, 0, 2]),
            protocol: ipv4::Protocol::Tcp,
            hop_limit: 64,
            payload_len: tcp_repr.header_len(),
        };
        let mut buf = vec![0u8; ethernet::HEADER_LEN + ip_repr.total_len()];
        ethernet::Repr {
            src: ethernet::Address([2, 0, 0, 0, 0, 1]),
            dst: ethernet::Address([2, 0, 0, 0, 0, 2]),
            ethertype: ethernet::EtherType::Ipv6,
        }
        .emit(&mut ethernet::Frame::new_unchecked(&mut buf[..]));
        let mut ip = ipv6::Packet::new_unchecked(&mut buf[ethernet::HEADER_LEN..]);
        ip_repr.emit(&mut ip);
        let ph = ip_repr.pseudo_header();
        let mut seg = tcp::Packet::new_unchecked(ip.payload_mut());
        tcp_repr.emit(&mut seg, &ph);

        let meta = classify(&buf, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert!(!meta.src.is_v4());
        assert_eq!(meta.dst_port, 80);
        assert!(meta.flags.is_syn_only());
    }

    #[test]
    fn truncated_tcp_rejected() {
        let frame = build_v4_frame(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            tcp::Flags::SYN,
            0,
            0,
            &[],
            None,
        );
        // Shrink the IP total_len so the TCP header is cut to 10 bytes, and
        // re-checksum IP so we reach the TCP stage.
        let ip_at = ethernet::HEADER_LEN;
        let bad_total = (ruru_wire::ipv4::MIN_HEADER_LEN + 10) as u16;
        let mut frame2 = frame.clone();
        frame2[ip_at + 2..ip_at + 4].copy_from_slice(&bad_total.to_be_bytes());
        let mut ip = ipv4::Packet::new_unchecked(&mut frame2[ip_at..]);
        ip.fill_header_checksum();
        assert_eq!(
            classify(&frame2, Timestamp::ZERO, ChecksumMode::Validate),
            Err(Reject::BadTcp)
        );
    }
}
