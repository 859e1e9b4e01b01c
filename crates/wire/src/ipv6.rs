//! IPv6 packets (RFC 8200).
//!
//! The tracker only needs the fixed header plus enough extension-header
//! walking to find a TCP payload; we implement hop-by-hop, routing,
//! destination-options and fragment headers (the common transit set).

use crate::checksum::PseudoHeader;
use crate::field;
use crate::ipv4::Protocol;
use crate::{Error, Result};

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// An IPv6 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 16]);

impl Address {
    /// Construct from eight 16-bit groups.
    pub fn from_groups(g: [u16; 8]) -> Self {
        let mut b = [0u8; 16];
        for (chunk, v) in b.chunks_exact_mut(2).zip(g) {
            chunk.copy_from_slice(&v.to_be_bytes());
        }
        Address(b)
    }

    /// The eight 16-bit groups of the address.
    pub(crate) fn groups(&self) -> [u16; 8] {
        let mut g = [0u16; 8];
        for (item, chunk) in g.iter_mut().zip(self.0.chunks_exact(2)) {
            *item = field::be16(chunk, 0);
        }
        g
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // RFC 5952 zero compression: find the longest run of zero groups.
        let g = self.groups();
        let (mut best_at, mut best_len, mut cur_at, mut cur_len) = (0usize, 0usize, 0usize, 0usize);
        for (i, &v) in g.iter().enumerate() {
            if v == 0 {
                if cur_len == 0 {
                    cur_at = i;
                }
                cur_len += 1;
                if cur_len > best_len {
                    best_at = cur_at;
                    best_len = cur_len;
                }
            } else {
                cur_len = 0;
            }
        }
        if best_len < 2 {
            for (i, v) in g.iter().enumerate() {
                if i > 0 {
                    write!(f, ":")?;
                }
                write!(f, "{v:x}")?;
            }
            return Ok(());
        }
        for (i, v) in g.iter().enumerate().take(best_at) {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{v:x}")?;
        }
        write!(f, "::")?;
        for (i, v) in g.iter().enumerate().skip(best_at + best_len) {
            if i > best_at + best_len {
                write!(f, ":")?;
            }
            write!(f, "{v:x}")?;
        }
        Ok(())
    }
}

/// Next-header numbers for the extension headers we can walk through.
const NH_HOP_BY_HOP: u8 = 0;
const NH_ROUTING: u8 = 43;
const NH_FRAGMENT: u8 = 44;
const NH_DEST_OPTS: u8 = 60;

/// A zero-copy view of an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating version and payload length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        if p.version() != 6 {
            return Err(Error::BadVersion);
        }
        if p.payload_len() > len.saturating_sub(HEADER_LEN) {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Version field (must be 6).
    pub(crate) fn version(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 0) >> 4
    }

    /// Payload length (everything after the fixed header).
    pub fn payload_len(&self) -> usize {
        usize::from(field::be16(self.buffer.as_ref(), 4))
    }

    /// Raw Next Header field of the fixed header.
    pub(crate) fn next_header(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 6)
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 7)
    }

    /// Source address.
    pub fn src(&self) -> Address {
        Address(field::array16(self.buffer.as_ref(), 8))
    }

    /// Destination address.
    pub fn dst(&self) -> Address {
        Address(field::array16(self.buffer.as_ref(), 24))
    }

    /// The raw payload (extension headers + upper layer); empty when the
    /// length field is out of range for the buffer.
    pub fn payload(&self) -> &[u8] {
        let end = HEADER_LEN.saturating_add(self.payload_len());
        self.buffer.as_ref().get(HEADER_LEN..end).unwrap_or(&[])
    }

    /// Walk extension headers to the upper-layer protocol.
    ///
    /// Returns the protocol and its payload slice. A non-initial fragment
    /// yields `Protocol::Unknown(44)` so the caller can skip it, mirroring
    /// the IPv4 fragment rule.
    pub fn upper_layer(&self) -> Result<(Protocol, &[u8])> {
        let mut nh = self.next_header();
        let mut data = self.payload();
        loop {
            match nh {
                NH_HOP_BY_HOP | NH_ROUTING | NH_DEST_OPTS => {
                    let &[next, len8, ..] = data else {
                        return Err(Error::Truncated);
                    };
                    let ext_len = usize::from(len8).saturating_add(1) << 3;
                    let Some(rest) = data.get(ext_len..) else {
                        return Err(Error::Truncated);
                    };
                    nh = next;
                    data = rest;
                }
                NH_FRAGMENT => {
                    let Some((header, rest)) = data.split_at_checked(8) else {
                        return Err(Error::Truncated);
                    };
                    let frag_offset = field::be16(header, 2) >> 3;
                    if frag_offset != 0 {
                        // Non-initial fragment: no L4 header present.
                        return Ok((Protocol::Unknown(NH_FRAGMENT), rest));
                    }
                    nh = field::byte(header, 0);
                    data = rest;
                }
                other => return Ok((Protocol::from(other), data)),
            }
        }
    }

    /// The pseudo-header for checksumming the upper-layer payload (which must
    /// directly follow the fixed header, i.e. no extension headers).
    pub fn pseudo_header(&self) -> PseudoHeader {
        PseudoHeader::v6(
            self.src().0,
            self.dst().0,
            self.next_header(),
            self.payload_len() as u32,
        )
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version=6 and zero traffic class / flow label.
    pub(crate) fn set_version(&mut self) {
        field::set_be32(self.buffer.as_mut(), 0, 0x6000_0000);
    }

    /// Set the payload length field.
    pub(crate) fn set_payload_len(&mut self, len: usize) {
        field::set_be16(self.buffer.as_mut(), 4, len as u16);
    }

    /// Set the Next Header field.
    pub(crate) fn set_next_header(&mut self, nh: u8) {
        field::set_byte(self.buffer.as_mut(), 6, nh);
    }

    /// Set the hop limit.
    pub(crate) fn set_hop_limit(&mut self, hl: u8) {
        field::set_byte(self.buffer.as_mut(), 7, hl);
    }

    /// Set the source address.
    pub(crate) fn set_src(&mut self, a: Address) {
        field::set_bytes(self.buffer.as_mut(), 8, &a.0);
    }

    /// Set the destination address.
    pub(crate) fn set_dst(&mut self, a: Address) {
        field::set_bytes(self.buffer.as_mut(), 24, &a.0);
    }

    /// Mutable payload region; empty when the length field is out of range
    /// for the buffer.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let end = HEADER_LEN.saturating_add(self.payload_len());
        self.buffer.as_mut().get_mut(HEADER_LEN..end).unwrap_or(&mut [])
    }
}

/// High-level representation of an extension-header-free IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src: Address,
    /// Destination address.
    pub dst: Address,
    /// Upper-layer protocol.
    pub protocol: Protocol,
    /// Hop limit.
    pub hop_limit: u8,
    /// Upper-layer payload length.
    pub payload_len: usize,
}

impl Repr {
    /// Parse a checked packet into its representation.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            src: packet.src(),
            dst: packet.dst(),
            protocol: Protocol::from(packet.next_header()),
            hop_limit: packet.hop_limit(),
            payload_len: packet.payload_len(),
        }
    }

    /// Total emitted length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN.saturating_add(self.payload_len)
    }

    /// Emit this header into a buffer (sized ≥ `total_len`).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version();
        packet.set_payload_len(self.payload_len);
        packet.set_next_header(self.protocol.into());
        packet.set_hop_limit(self.hop_limit);
        packet.set_src(self.src);
        packet.set_dst(self.dst);
    }

    /// The pseudo-header matching this representation.
    pub fn pseudo_header(&self) -> PseudoHeader {
        PseudoHeader::v6(
            self.src.0,
            self.dst.0,
            self.protocol.into(),
            self.payload_len as u32,
        )
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = Repr {
            src: Address::from_groups([0x2404, 0x138, 0, 0, 0, 0, 0, 1]),
            dst: Address::from_groups([0x2607, 0xf8b0, 0, 0, 0, 0, 0, 2]),
            protocol: Protocol::Tcp,
            hop_limit: 64,
            payload_len: 12,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        let r = Repr::parse(&p);
        assert_eq!(r.protocol, Protocol::Tcp);
        assert_eq!(r.hop_limit, 64);
        assert_eq!(r.payload_len, 12);
        let (proto, payload) = p.upper_layer().unwrap();
        assert_eq!(proto, Protocol::Tcp);
        assert_eq!(payload.len(), 12);
    }

    #[test]
    fn version_check() {
        let mut buf = sample();
        buf[0] = 0x40;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadVersion);
    }

    #[test]
    fn payload_len_check() {
        let mut buf = sample();
        buf[4..6].copy_from_slice(&500u16.to_be_bytes());
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn walks_hop_by_hop_extension() {
        let mut buf = sample();
        // Rewrite: fixed header -> HBH(8 bytes) -> TCP(4 bytes of stub)
        buf[6] = 0; // next header: hop-by-hop
        let payload = &mut buf[HEADER_LEN..];
        payload[0] = 6; // HBH.next = TCP
        payload[1] = 0; // HBH length = 8 bytes total
        let p = Packet::new_checked(&buf[..]).unwrap();
        let (proto, rest) = p.upper_layer().unwrap();
        assert_eq!(proto, Protocol::Tcp);
        assert_eq!(rest.len(), 4);
    }

    #[test]
    fn non_initial_fragment_flagged() {
        let mut buf = sample();
        buf[6] = 44; // fragment header
        let payload = &mut buf[HEADER_LEN..];
        payload[0] = 6; // would-be TCP
        payload[2..4].copy_from_slice(&(8u16 << 3).to_be_bytes()); // offset 8
        let p = Packet::new_checked(&buf[..]).unwrap();
        let (proto, _) = p.upper_layer().unwrap();
        assert_eq!(proto, Protocol::Unknown(44));
    }

    #[test]
    fn initial_fragment_walks_through() {
        let mut buf = sample();
        buf[6] = 44;
        let payload = &mut buf[HEADER_LEN..];
        payload[0] = 6;
        payload[2..4].copy_from_slice(&0u16.to_be_bytes()); // offset 0
        let p = Packet::new_checked(&buf[..]).unwrap();
        let (proto, rest) = p.upper_layer().unwrap();
        assert_eq!(proto, Protocol::Tcp);
        assert_eq!(rest.len(), 4);
    }

    #[test]
    fn truncated_extension_rejected() {
        let mut buf = sample();
        buf[6] = 0;
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // payload shorter than ext hdr
        buf.truncate(HEADER_LEN + 4);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.upper_layer().unwrap_err(), Error::Truncated);
    }

    #[test]
    fn display_compresses_zeros() {
        assert_eq!(
            Address::from_groups([0x2404, 0x138, 0, 0, 0, 0, 0, 1]).to_string(),
            "2404:138::1"
        );
        assert_eq!(
            Address::from_groups([0, 0, 0, 0, 0, 0, 0, 1]).to_string(),
            "::1"
        );
        assert_eq!(
            Address::from_groups([1, 2, 3, 4, 5, 6, 7, 8]).to_string(),
            "1:2:3:4:5:6:7:8"
        );
        assert_eq!(
            Address::from_groups([0xfe80, 0, 0, 0, 1, 0, 0, 1]).to_string(),
            "fe80::1:0:0:1"
        );
    }

    #[test]
    fn groups_roundtrip() {
        let g = [0xdead, 0xbeef, 1, 2, 3, 4, 5, 6];
        assert_eq!(Address::from_groups(g).groups(), g);
    }
}
