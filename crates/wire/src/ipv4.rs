//! IPv4 packets (RFC 791).
//!
//! Ruru validates the header checksum at the tap and reads exactly the fields
//! the flow tracker needs: addresses, protocol, total length, and the
//! fragmentation bits (fragments other than the first cannot carry a TCP
//! header and are skipped).

use crate::checksum::{self, PseudoHeader};
use crate::field;
use crate::{Error, Result};

/// Minimum (option-less) IPv4 header length.
pub const MIN_HEADER_LEN: usize = 20;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 4]);

impl Address {
    /// Construct from a host-order u32 (e.g. `0x0a000001` = 10.0.0.1).
    pub fn from_u32(v: u32) -> Self {
        Address(v.to_be_bytes())
    }
}

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [a, b, c, d] = self.0;
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// IP protocol numbers Ruru distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// 6
    Tcp,
    /// 17
    Udp,
    /// 1
    Icmp,
    /// Anything else.
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(v: u8) -> Self {
        match v {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            o => Protocol::Unknown(o),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(v: Protocol) -> u8 {
        match v {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Unknown(o) => o,
        }
    }
}

/// A zero-copy view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation (accessors on short input read
    /// zeros rather than panicking).
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length and total length.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < MIN_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        if p.version() != 4 {
            return Err(Error::BadVersion);
        }
        let hl = p.header_len();
        if hl < MIN_HEADER_LEN || hl > len {
            return Err(Error::BadLength);
        }
        let tl = p.total_len();
        if tl < hl || tl > len {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// IP version field (must be 4).
    pub(crate) fn version(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 0) >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(field::byte(self.buffer.as_ref(), 0) & 0x0f) << 2
    }

    /// Total packet length (header + payload) in bytes.
    pub fn total_len(&self) -> usize {
        usize::from(field::be16(self.buffer.as_ref(), 2))
    }

    /// Identification field.
    pub fn ident(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 4)
    }

    /// Fragment offset in bytes.
    pub(crate) fn frag_offset(&self) -> usize {
        usize::from(field::be16(self.buffer.as_ref(), 6) & 0x1fff) << 3
    }

    /// True if this packet is a fragment other than the first — such packets
    /// carry no TCP header and are skipped by the handshake tracker.
    pub fn is_non_initial_fragment(&self) -> bool {
        self.frag_offset() != 0
    }

    /// Time to live.
    pub fn ttl(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 8)
    }

    /// Payload protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(field::byte(self.buffer.as_ref(), 9))
    }

    /// Source address.
    pub fn src(&self) -> Address {
        Address(field::array4(self.buffer.as_ref(), 12))
    }

    /// Destination address.
    pub fn dst(&self) -> Address {
        Address(field::array4(self.buffer.as_ref(), 16))
    }

    /// Validate the header checksum.
    pub fn verify_header_checksum(&self) -> bool {
        let hl = self.header_len();
        let header = self.buffer.as_ref().get(..hl).unwrap_or(&[]);
        checksum::verify(0, header)
    }

    /// The L4 payload as bounded by `total_len`; empty when the length
    /// fields are out of range for the buffer.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        let tl = self.total_len();
        self.buffer.as_ref().get(hl..tl).unwrap_or(&[])
    }

    /// The pseudo-header for checksumming this packet's L4 payload.
    pub fn pseudo_header(&self) -> PseudoHeader {
        PseudoHeader::v4(
            self.src().0,
            self.dst().0,
            self.protocol().into(),
            self.total_len().saturating_sub(self.header_len()) as u16,
        )
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version=4 and the header length (bytes; must be a multiple of 4).
    pub(crate) fn set_version_and_header_len(&mut self, header_len: usize) {
        debug_assert!(header_len.is_multiple_of(4) && (MIN_HEADER_LEN..=60).contains(&header_len));
        field::set_byte(self.buffer.as_mut(), 0, 0x40 | (header_len / 4) as u8);
    }

    /// Set the total length field.
    pub(crate) fn set_total_len(&mut self, len: usize) {
        field::set_be16(self.buffer.as_mut(), 2, len as u16);
    }

    /// Set the identification field.
    pub(crate) fn set_ident(&mut self, v: u16) {
        field::set_be16(self.buffer.as_mut(), 4, v);
    }

    /// Clear fragmentation fields and set Don't Fragment.
    pub(crate) fn set_unfragmented(&mut self) {
        field::set_byte(self.buffer.as_mut(), 6, 0x40);
        field::set_byte(self.buffer.as_mut(), 7, 0);
    }

    /// Set the TTL.
    pub(crate) fn set_ttl(&mut self, ttl: u8) {
        field::set_byte(self.buffer.as_mut(), 8, ttl);
    }

    /// Set the payload protocol.
    pub(crate) fn set_protocol(&mut self, p: Protocol) {
        field::set_byte(self.buffer.as_mut(), 9, p.into());
    }

    /// Set the source address.
    pub(crate) fn set_src(&mut self, a: Address) {
        field::set_bytes(self.buffer.as_mut(), 12, &a.0);
    }

    /// Set the destination address.
    pub(crate) fn set_dst(&mut self, a: Address) {
        field::set_bytes(self.buffer.as_mut(), 16, &a.0);
    }

    /// Compute and store the header checksum (call last).
    pub fn fill_header_checksum(&mut self) {
        let hl = self.header_len();
        field::set_be16(self.buffer.as_mut(), 10, 0);
        let header = self.buffer.as_ref().get(..hl).unwrap_or(&[]);
        let c = checksum::checksum(0, header);
        field::set_be16(self.buffer.as_mut(), 10, c);
    }

    /// Mutable access to the payload region; empty when the length fields
    /// are out of range for the buffer.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        let tl = self.total_len();
        self.buffer.as_mut().get_mut(hl..tl).unwrap_or(&mut [])
    }
}

/// High-level representation of an option-less IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src: Address,
    /// Destination address.
    pub dst: Address,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Time to live.
    pub ttl: u8,
    /// L4 payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Parse a checked packet into its representation.
    ///
    /// Fails with [`Error::BadChecksum`] if the header checksum is invalid.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        if !packet.verify_header_checksum() {
            return Err(Error::BadChecksum);
        }
        Ok(Repr {
            src: packet.src(),
            dst: packet.dst(),
            protocol: packet.protocol(),
            ttl: packet.ttl(),
            payload_len: packet.total_len().saturating_sub(packet.header_len()),
        })
    }

    /// Total emitted length (header + payload).
    pub fn total_len(&self) -> usize {
        MIN_HEADER_LEN.saturating_add(self.payload_len)
    }

    /// Emit this header into a packet buffer (sized ≥ `total_len`).
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_header_len(MIN_HEADER_LEN);
        field::set_byte(packet.buffer.as_mut(), 1, 0); // DSCP/ECN
        packet.set_total_len(self.total_len());
        packet.set_ident(0);
        packet.set_unfragmented();
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src(self.src);
        packet.set_dst(self.dst);
        packet.fill_header_checksum();
    }

    /// The pseudo-header matching this representation.
    pub fn pseudo_header(&self) -> PseudoHeader {
        PseudoHeader::v4(
            self.src.0,
            self.dst.0,
            self.protocol.into(),
            self.payload_len as u16,
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
            src: Address([10, 0, 0, 1]),
            dst: Address([10, 0, 0, 2]),
            protocol: Protocol::Tcp,
            ttl: 64,
            payload_len: 8,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        let r = Repr::parse(&p).unwrap();
        assert_eq!(r.src, Address([10, 0, 0, 1]));
        assert_eq!(r.dst, Address([10, 0, 0, 2]));
        assert_eq!(r.protocol, Protocol::Tcp);
        assert_eq!(r.ttl, 64);
        assert_eq!(r.payload_len, 8);
        assert!(p.verify_header_checksum());
        assert_eq!(buf[6], 0x40, "DF set, fragment offset 0");
        assert!(!p.is_non_initial_fragment());
    }

    #[test]
    fn corrupted_header_fails_checksum() {
        let mut buf = sample();
        buf[8] = 63; // change TTL without re-checksumming
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), Error::BadChecksum);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = sample();
        buf[0] = 0x65;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadVersion);
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(
            Packet::new_checked(&[0x45u8; 19][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn total_len_beyond_buffer_rejected() {
        let mut buf = sample();
        buf[2..4].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn header_len_below_min_rejected() {
        let mut buf = sample();
        buf[0] = 0x44; // IHL = 16 bytes
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn payload_respects_total_len_padding() {
        // Ethernet may pad: buffer longer than total_len.
        let mut buf = sample();
        buf.extend_from_slice(&[0xaa; 6]);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload().len(), 8);
    }

    #[test]
    fn fragment_detection() {
        let mut buf = sample();
        // offset 8 bytes => raw field 1, MF set
        buf[6] = 0x20;
        buf[7] = 0x01;
        let p = Packet::new_unchecked(&buf[..]);
        assert_eq!(p.frag_offset(), 8);
        assert!(p.is_non_initial_fragment());
    }

    #[test]
    fn address_u32_roundtrip() {
        let a = Address::from_u32(0xc0a80101);
        assert_eq!(a, Address([192, 168, 1, 1]));
        assert_eq!(a.to_string(), "192.168.1.1");
    }
}
