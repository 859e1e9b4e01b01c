//! Checksummed TCP/IP frame construction, dual-stack.
//!
//! The single frame builder used by the generator, the integration tests
//! and the benches. Frames are always internally consistent (lengths and
//! checksums), so `classify` in validate mode accepts them — and fault
//! injection then has something real to corrupt.

use ruru_wire::checksum::PseudoHeader;
use ruru_wire::{ethernet, ipv4, ipv6, tcp};

/// Source/destination addresses of one packet, either family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrPair {
    /// IPv4 endpoints.
    V4([u8; 4], [u8; 4]),
    /// IPv6 endpoints.
    V6([u8; 16], [u8; 16]),
}

impl AddrPair {
    /// The pair with source and destination swapped (the reply direction).
    pub fn flipped(&self) -> AddrPair {
        match *self {
            AddrPair::V4(s, d) => AddrPair::V4(d, s),
            AddrPair::V6(s, d) => AddrPair::V6(d, s),
        }
    }

    /// The source as a wire-level address.
    pub fn src(&self) -> ruru_wire::IpAddress {
        match *self {
            AddrPair::V4(s, _) => ruru_wire::IpAddress::V4(ipv4::Address(s)),
            AddrPair::V6(s, _) => ruru_wire::IpAddress::V6(ipv6::Address(s)),
        }
    }

    /// The destination as a wire-level address.
    pub fn dst(&self) -> ruru_wire::IpAddress {
        match *self {
            AddrPair::V4(_, d) => ruru_wire::IpAddress::V4(ipv4::Address(d)),
            AddrPair::V6(_, d) => ruru_wire::IpAddress::V6(ipv6::Address(d)),
        }
    }
}

/// Everything needed to emit one TCP packet.
#[derive(Debug, Clone)]
pub struct TcpPacketSpec {
    /// Endpoint addresses (either family).
    pub pair: AddrPair,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: tcp::Flags,
    /// TCP payload length (filled with a deterministic byte pattern).
    pub payload_len: usize,
    /// TCP timestamps option, if any.
    pub timestamps: Option<(u32, u32)>,
}

impl TcpPacketSpec {
    /// A zero-payload spec with the given flags (IPv4 convenience).
    pub fn control(
        src: [u8; 4],
        dst: [u8; 4],
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: tcp::Flags,
    ) -> TcpPacketSpec {
        Self::control_pair(AddrPair::V4(src, dst), src_port, dst_port, seq, ack, flags)
    }

    /// A zero-payload spec for either address family.
    pub fn control_pair(
        pair: AddrPair,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: tcp::Flags,
    ) -> TcpPacketSpec {
        TcpPacketSpec {
            pair,
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            payload_len: 0,
            timestamps: None,
        }
    }

    /// Attach a TCP timestamps option.
    pub(crate) fn with_timestamps(mut self, tsval: u32, tsecr: u32) -> TcpPacketSpec {
        self.timestamps = Some((tsval, tsecr));
        self
    }

    /// Set the payload length.
    pub(crate) fn with_payload(mut self, len: usize) -> TcpPacketSpec {
        self.payload_len = len;
        self
    }

    fn tcp_repr(&self) -> tcp::Repr {
        let mut options = tcp::OptionList::default();
        if self.flags.is_syn_only() {
            options.push(tcp::TcpOption::Mss(1460)).expect("fits");
        }
        if let Some((tsval, tsecr)) = self.timestamps {
            options
                .push(tcp::TcpOption::Timestamps { tsval, tsecr })
                .expect("fits");
        }
        tcp::Repr {
            src_port: self.src_port,
            dst_port: self.dst_port,
            seq: self.seq,
            ack: self.ack,
            flags: self.flags,
            window: 65535,
            options,
        }
    }

    fn fill_payload(buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(31).wrapping_add(7);
        }
    }

    /// Build the Ethernet frame.
    pub fn build(&self) -> Vec<u8> {
        let tcp_repr = self.tcp_repr();
        let tcp_len = tcp_repr.header_len() + self.payload_len;
        match self.pair {
            AddrPair::V4(src, dst) => {
                let ip_repr = ipv4::Repr {
                    src: ipv4::Address(src),
                    dst: ipv4::Address(dst),
                    protocol: ipv4::Protocol::Tcp,
                    ttl: 58,
                    payload_len: tcp_len,
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
                Self::fill_payload(&mut tcp_buf[hdr_len..]);
                let mut seg = tcp::Packet::new_unchecked(tcp_buf);
                tcp_repr.emit(&mut seg, &ph);
                buf
            }
            AddrPair::V6(src, dst) => {
                let ip_repr = ipv6::Repr {
                    src: ipv6::Address(src),
                    dst: ipv6::Address(dst),
                    protocol: ipv4::Protocol::Tcp,
                    hop_limit: 58,
                    payload_len: tcp_len,
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
                let hdr_len = tcp_repr.header_len();
                let tcp_buf = ip.payload_mut();
                Self::fill_payload(&mut tcp_buf[hdr_len..]);
                let mut seg = tcp::Packet::new_unchecked(tcp_buf);
                tcp_repr.emit(&mut seg, &ph);
                buf
            }
        }
    }
}

/// Build an IPv6 TCP control frame (kept for tests that want one call).
pub fn build_v6_control(
    src: [u8; 16],
    dst: [u8; 16],
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
) -> Vec<u8> {
    TcpPacketSpec::control_pair(AddrPair::V6(src, dst), src_port, dst_port, seq, ack, flags).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_flow::classify::{classify, ChecksumMode};
    use ruru_nic::Timestamp;

    #[test]
    fn built_frames_pass_validation() {
        let frame = TcpPacketSpec::control(
            [100, 0, 0, 1],
            [100, 8, 0, 1],
            51000,
            443,
            1234,
            0,
            tcp::Flags::SYN,
        )
        .with_timestamps(99, 0)
        .build();
        let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert!(meta.flags.is_syn_only());
        assert_eq!(meta.timestamps, Some((99, 0)));
        assert_eq!(meta.payload_len, 0);
    }

    #[test]
    fn payload_frames_validate() {
        let frame = TcpPacketSpec::control(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            10,
            20,
            tcp::Flags::ACK | tcp::Flags::PSH,
        )
        .with_payload(512)
        .build();
        let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert_eq!(meta.payload_len, 512);
    }

    #[test]
    fn syn_carries_mss_option() {
        let frame = TcpPacketSpec::control(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            0,
            0,
            tcp::Flags::SYN,
        )
        .build();
        let eth = ethernet::Frame::new_checked(&frame[..]).unwrap();
        let ip = ipv4::Packet::new_checked(eth.payload()).unwrap();
        let seg = tcp::Packet::new_checked(ip.payload()).unwrap();
        let has_mss = seg
            .options()
            .any(|o| matches!(o, Ok(tcp::TcpOption::Mss(1460))));
        assert!(has_mss);
    }

    #[test]
    fn v6_frames_validate() {
        let frame = build_v6_control(
            [0x24; 16],
            [0x26; 16],
            50000,
            443,
            7,
            0,
            tcp::Flags::SYN,
        );
        let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert!(!meta.src.is_v4());
        assert!(meta.flags.is_syn_only());
    }

    #[test]
    fn v6_payload_frames_validate() {
        let frame = TcpPacketSpec::control_pair(
            AddrPair::V6([0x24; 16], [0x26; 16]),
            50000,
            443,
            7,
            8,
            tcp::Flags::ACK | tcp::Flags::PSH,
        )
        .with_payload(700)
        .with_timestamps(5, 6)
        .build();
        let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
        assert_eq!(meta.payload_len, 700);
        assert_eq!(meta.timestamps, Some((5, 6)));
    }

    #[test]
    fn addr_pair_helpers() {
        let p = AddrPair::V4([1, 2, 3, 4], [5, 6, 7, 8]);
        assert_eq!(p.flipped(), AddrPair::V4([5, 6, 7, 8], [1, 2, 3, 4]));
        assert!(p.src().is_v4());
        let p6 = AddrPair::V6([1; 16], [2; 16]);
        assert!(!p6.flipped().src().is_v4());
        assert_eq!(p6.flipped().dst(), p6.src());
    }
}
