//! Ethernet II frames, with optional single 802.1Q VLAN tag.
//!
//! The REANNZ tap Ruru sits on delivers Ethernet II frames; the pipeline only
//! needs to classify the EtherType (IPv4/IPv6, possibly behind one VLAN tag)
//! and hand the payload to the IP parser.

use crate::field;
use crate::{Error, Result};

/// Length of an untagged Ethernet II header.
pub const HEADER_LEN: usize = 14;
/// Additional length contributed by one 802.1Q tag.
pub const VLAN_TAG_LEN: usize = 4;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Address(pub [u8; 6]);

impl core::fmt::Display for Address {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let [a, b, c, d, e, g] = self.0;
        write!(f, "{a:02x}:{b:02x}:{c:02x}:{d:02x}:{e:02x}:{g:02x}")
    }
}

/// EtherType values the Ruru pipeline distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// 0x0800
    Ipv4,
    /// 0x86DD
    Ipv6,
    /// 0x0806
    Arp,
    /// 0x8100 — a single 802.1Q tag; the real type follows the tag.
    Vlan,
    /// Anything else (carried verbatim).
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86dd => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            0x8100 => EtherType::Vlan,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Arp => 0x0806,
            EtherType::Vlan => 0x8100,
            EtherType::Unknown(o) => o,
        }
    }
}

/// A zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Frame<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Frame<T> {
    /// Wrap a buffer without checking its length.
    ///
    /// Accessors on a buffer shorter than [`HEADER_LEN`] read zeros; use
    /// [`Frame::new_checked`] on untrusted input.
    pub fn new_unchecked(buffer: T) -> Frame<T> {
        Frame { buffer }
    }

    /// Wrap a buffer, ensuring it can hold an Ethernet header (and the VLAN
    /// tag if one is present).
    pub fn new_checked(buffer: T) -> Result<Frame<T>> {
        let len = buffer.as_ref().len();
        if len < HEADER_LEN {
            return Err(Error::Truncated);
        }
        let frame = Frame { buffer };
        if frame.raw_ethertype() == 0x8100 && len < HEADER_LEN + VLAN_TAG_LEN {
            return Err(Error::Truncated);
        }
        Ok(frame)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    fn raw_ethertype(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 12)
    }

    /// Destination MAC.
    pub fn dst(&self) -> Address {
        Address(field::array6(self.buffer.as_ref(), 0))
    }

    /// Source MAC.
    pub fn src(&self) -> Address {
        Address(field::array6(self.buffer.as_ref(), 6))
    }

    /// The *effective* EtherType: if the frame carries one 802.1Q tag, the
    /// type behind the tag.
    pub fn ethertype(&self) -> EtherType {
        let raw = self.raw_ethertype();
        if raw == 0x8100 {
            EtherType::from(field::be16(self.buffer.as_ref(), 16))
        } else {
            EtherType::from(raw)
        }
    }

    /// The 802.1Q VLAN ID, if the frame is tagged.
    pub fn vlan_id(&self) -> Option<u16> {
        if self.raw_ethertype() == 0x8100 {
            Some(field::be16(self.buffer.as_ref(), 14) & 0x0fff)
        } else {
            None
        }
    }

    /// Byte length of the header including any VLAN tag.
    pub fn header_len(&self) -> usize {
        if self.raw_ethertype() == 0x8100 {
            HEADER_LEN + VLAN_TAG_LEN
        } else {
            HEADER_LEN
        }
    }

    /// The layer-3 payload (past any VLAN tag); empty when the buffer is
    /// shorter than the header.
    pub fn payload(&self) -> &[u8] {
        self.buffer.as_ref().get(self.header_len()..).unwrap_or(&[])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Frame<T> {
    /// Set the destination MAC.
    pub(crate) fn set_dst(&mut self, addr: Address) {
        field::set_bytes(self.buffer.as_mut(), 0, &addr.0);
    }

    /// Set the source MAC.
    pub(crate) fn set_src(&mut self, addr: Address) {
        field::set_bytes(self.buffer.as_mut(), 6, &addr.0);
    }

    /// Set the EtherType (untagged form).
    pub(crate) fn set_ethertype(&mut self, ty: EtherType) {
        field::set_be16(self.buffer.as_mut(), 12, ty.into());
    }

    /// Mutable access to the payload of an untagged frame; empty when the
    /// buffer is shorter than the header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let off = self.header_len();
        self.buffer.as_mut().get_mut(off..).unwrap_or(&mut [])
    }
}

/// High-level representation of an (untagged) Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source MAC address.
    pub src: Address,
    /// Destination MAC address.
    pub dst: Address,
    /// The EtherType of the payload.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse a frame into its representation (VLAN tags are transparent:
    /// `ethertype` is the effective type).
    pub fn parse<T: AsRef<[u8]>>(frame: &Frame<T>) -> Repr {
        Repr {
            src: frame.src(),
            dst: frame.dst(),
            ethertype: frame.ethertype(),
        }
    }

    /// Emit this header (untagged) into a frame buffer.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, frame: &mut Frame<T>) {
        frame.set_src(self.src);
        frame.set_dst(self.dst);
        frame.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample_frame() -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_LEN + 4];
        let mut f = Frame::new_unchecked(&mut buf[..]);
        Repr {
            src: Address([2, 0, 0, 0, 0, 1]),
            dst: Address([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut f);
        buf
    }

    #[test]
    fn roundtrip_untagged() {
        let buf = sample_frame();
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.src(), Address([2, 0, 0, 0, 0, 1]));
        assert_eq!(f.dst(), Address([2, 0, 0, 0, 0, 2]));
        assert_eq!(f.ethertype(), EtherType::Ipv4);
        assert_eq!(f.vlan_id(), None);
        assert_eq!(f.header_len(), HEADER_LEN);
        assert_eq!(f.payload().len(), 4);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(
            Frame::new_checked(&[0u8; 13][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn vlan_tagged_frame_parses_inner_type() {
        let mut buf = [0u8; HEADER_LEN + VLAN_TAG_LEN + 2];
        buf[12..14].copy_from_slice(&0x8100u16.to_be_bytes());
        buf[14..16].copy_from_slice(&0x0064u16.to_be_bytes()); // VID 100
        buf[16..18].copy_from_slice(&0x86ddu16.to_be_bytes());
        let f = Frame::new_checked(&buf[..]).unwrap();
        assert_eq!(f.ethertype(), EtherType::Ipv6);
        assert_eq!(f.vlan_id(), Some(100));
        assert_eq!(f.header_len(), HEADER_LEN + VLAN_TAG_LEN);
        assert_eq!(f.payload().len(), 2);
    }

    #[test]
    fn vlan_tag_without_inner_header_is_truncated() {
        let mut buf = [0u8; HEADER_LEN];
        buf[12..14].copy_from_slice(&0x8100u16.to_be_bytes());
        assert_eq!(
            Frame::new_checked(&buf[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn address_properties() {
        assert_eq!(
            Address([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }

    #[test]
    fn ethertype_u16_roundtrip() {
        for ty in [
            EtherType::Ipv4,
            EtherType::Ipv6,
            EtherType::Arp,
            EtherType::Vlan,
            EtherType::Unknown(0x88cc),
        ] {
            assert_eq!(EtherType::from(u16::from(ty)), ty);
        }
    }
}
