//! TCP segments (RFC 9293).
//!
//! The handshake tracker needs flags, ports and sequence numbers; the
//! `pping` baseline additionally needs the timestamp option (TSval/TSecr).
//! Option parsing is allocation-free: [`OptionsIter`] walks the option
//! bytes, and [`OptionList`] is a fixed-capacity collection for emission.

use crate::checksum::PseudoHeader;
use crate::field;
use crate::{Error, Result};

/// Minimum (option-less) TCP header length.
pub const MIN_HEADER_LEN: usize = 20;
/// Maximum TCP header length (data offset 15).
pub const MAX_HEADER_LEN: usize = 60;

/// TCP flag bit set.
///
/// A tiny hand-rolled bitset (no external bitflags dependency): combine with
/// `|`, test with [`Flags::contains`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags(pub u8);

impl Flags {
    /// No flags.
    pub const EMPTY: Flags = Flags(0);
    /// FIN: sender is done sending.
    pub const FIN: Flags = Flags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: Flags = Flags(0x02);
    /// RST: reset the connection.
    pub const RST: Flags = Flags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: Flags = Flags(0x08);
    /// ACK: the acknowledgment field is significant.
    pub const ACK: Flags = Flags(0x10);

    /// Reconstruct from the raw flag byte.
    pub fn from_bits(bits: u8) -> Flags {
        Flags(bits)
    }

    /// True if every flag in `other` is set in `self`.
    pub fn contains(&self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if any flag in `other` is set in `self`.
    pub(crate) fn intersects(&self, other: Flags) -> bool {
        self.0 & other.0 != 0
    }

    /// True if this is a pure SYN (SYN set, ACK not set) — the first packet
    /// of a client handshake.
    pub fn is_syn_only(&self) -> bool {
        self.contains(Flags::SYN) && !self.contains(Flags::ACK)
    }

    /// True if this is a SYN-ACK — the server's handshake reply.
    pub fn is_syn_ack(&self) -> bool {
        self.contains(Flags::SYN) && self.contains(Flags::ACK)
    }

    /// True if this is a plain ACK (ACK set, none of SYN/FIN/RST).
    pub fn is_plain_ack(&self) -> bool {
        self.contains(Flags::ACK) && !self.intersects(Flags::SYN | Flags::FIN | Flags::RST)
    }
}

impl core::ops::BitOr for Flags {
    type Output = Flags;
    fn bitor(self, rhs: Flags) -> Flags {
        Flags(self.0 | rhs.0)
    }
}

impl core::ops::BitOrAssign for Flags {
    fn bitor_assign(&mut self, rhs: Flags) {
        self.0 |= rhs.0;
    }
}

impl core::fmt::Display for Flags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        const NAMES: [(u8, &str); 8] = [
            (0x02, "SYN"),
            (0x10, "ACK"),
            (0x01, "FIN"),
            (0x04, "RST"),
            (0x08, "PSH"),
            (0x20, "URG"),
            (0x40, "ECE"),
            (0x80, "CWR"),
        ];
        let mut first = true;
        for (bit, name) in NAMES {
            if self.0 & bit != 0 {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A single parsed TCP option.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2), SYN-only.
    Mss(u16),
    /// Window scale shift (kind 3), SYN-only.
    WindowScale(u8),
    /// SACK permitted (kind 4), SYN-only.
    SackPermitted,
    /// Timestamps (kind 8): TSval, TSecr. Used by the `pping` baseline to
    /// match data packets to their acknowledgments.
    Timestamps {
        /// The sender's timestamp clock value.
        tsval: u32,
        /// Echo of the most recent TSval received from the peer.
        tsecr: u32,
    },
    /// An option we carry opaquely (kind, data length).
    Unknown {
        /// Option kind byte.
        kind: u8,
        /// Length of the option data (excluding kind and length bytes).
        data_len: u8,
    },
}

impl TcpOption {
    /// The emitted size of this option in bytes.
    pub(crate) fn wire_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Timestamps { .. } => 10,
            TcpOption::Unknown { data_len, .. } => usize::from(*data_len).saturating_add(2),
        }
    }
}

/// Allocation-free iterator over the options region of a TCP header.
///
/// Malformed options (zero length, run past end) terminate iteration with an
/// `Err` item; End-of-options and NOP padding are skipped silently.
#[derive(Debug, Clone)]
pub struct OptionsIter<'a> {
    data: &'a [u8],
}

impl<'a> OptionsIter<'a> {
    /// Iterate over raw option bytes (the header region past byte 20).
    pub fn new(data: &'a [u8]) -> Self {
        OptionsIter { data }
    }
}

impl<'a> Iterator for OptionsIter<'a> {
    type Item = Result<TcpOption>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.data {
                [] | [0, ..] => return None, // end of options
                [1, rest @ ..] => {
                    self.data = rest; // NOP
                }
                [kind, len, ..] => {
                    let len = *len as usize;
                    let split = if len < 2 {
                        None
                    } else {
                        self.data.split_at_checked(len)
                    };
                    let Some((opt, rest)) = split else {
                        self.data = &[];
                        return Some(Err(Error::Malformed));
                    };
                    self.data = rest;
                    let body = match opt {
                        [_, _, body @ ..] => body,
                        _ => &[],
                    };
                    let parsed = match (*kind, body) {
                        (2, [a, b]) => TcpOption::Mss(u16::from_be_bytes([*a, *b])),
                        (3, [shift]) => TcpOption::WindowScale(*shift),
                        (4, []) => TcpOption::SackPermitted,
                        (8, [v0, v1, v2, v3, e0, e1, e2, e3]) => TcpOption::Timestamps {
                            tsval: u32::from_be_bytes([*v0, *v1, *v2, *v3]),
                            tsecr: u32::from_be_bytes([*e0, *e1, *e2, *e3]),
                        },
                        (k, b) => TcpOption::Unknown {
                            kind: k,
                            data_len: b.len() as u8,
                        },
                    };
                    return Some(Ok(parsed));
                }
                [_] => {
                    // single trailing kind byte with no length
                    self.data = &[];
                    return Some(Err(Error::Malformed));
                }
            }
        }
    }
}

/// Maximum options a [`OptionList`] holds (40 option bytes / 2-byte minimum).
pub const MAX_OPTIONS: usize = 8;

/// A fixed-capacity list of options for building headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OptionList {
    opts: [Option<TcpOption>; MAX_OPTIONS],
    len: usize,
}

impl OptionList {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an option. Returns `Err(Malformed)` if capacity or the 40-byte
    /// option-space limit would be exceeded.
    pub fn push(&mut self, opt: TcpOption) -> Result<()> {
        if self.wire_len_unpadded().saturating_add(opt.wire_len()) > 40 {
            return Err(Error::Malformed);
        }
        let Some(slot) = self.opts.get_mut(self.len) else {
            return Err(Error::Malformed); // at MAX_OPTIONS capacity
        };
        *slot = Some(opt);
        self.len = self.len.saturating_add(1);
        Ok(())
    }

    /// Number of options stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no options are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterate over the stored options.
    pub fn iter(&self) -> impl Iterator<Item = &TcpOption> {
        self.opts.iter().take(self.len).filter_map(|o| o.as_ref())
    }

    /// Find the timestamps option, if present.
    pub fn timestamps(&self) -> Option<(u32, u32)> {
        self.iter().find_map(|o| match o {
            TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
            _ => None,
        })
    }

    fn wire_len_unpadded(&self) -> usize {
        self.iter().map(|o| o.wire_len()).sum()
    }

    /// The emitted size, padded to a multiple of 4.
    pub(crate) fn wire_len(&self) -> usize {
        self.wire_len_unpadded().next_multiple_of(4)
    }

    /// Emit into `buf` (must be exactly `wire_len()` bytes), NOP-padding.
    /// A too-short buffer truncates the emission instead of panicking (the
    /// resulting header fails checksum/parse validation downstream).
    pub fn emit(&self, buf: &mut [u8]) {
        debug_assert_eq!(buf.len(), self.wire_len());
        let mut rest: &mut [u8] = buf;
        for opt in self.iter() {
            let Some((chunk, tail)) = std::mem::take(&mut rest).split_at_mut_checked(opt.wire_len())
            else {
                return;
            };
            // Each arm matches the exact chunk length `wire_len` returned,
            // so the catch-all is unreachable by construction.
            match (*opt, chunk) {
                (TcpOption::Mss(v), [k, l, a, b]) => {
                    *k = 2;
                    *l = 4;
                    [*a, *b] = v.to_be_bytes();
                }
                (TcpOption::WindowScale(s), [k, l, v]) => {
                    *k = 3;
                    *l = 3;
                    *v = s;
                }
                (TcpOption::SackPermitted, [k, l]) => {
                    *k = 4;
                    *l = 2;
                }
                (TcpOption::Timestamps { tsval, tsecr }, [k, l, v0, v1, v2, v3, e0, e1, e2, e3]) => {
                    *k = 8;
                    *l = 10;
                    [*v0, *v1, *v2, *v3] = tsval.to_be_bytes();
                    [*e0, *e1, *e2, *e3] = tsecr.to_be_bytes();
                }
                (TcpOption::Unknown { kind, data_len }, [k, l, body @ ..]) => {
                    *k = kind;
                    // data_len <= 38: push() caps the option space at 40.
                    *l = data_len.saturating_add(2);
                    body.fill(0);
                }
                _ => {}
            }
            rest = tail;
        }
        // NOP-pad to the 4-byte boundary.
        rest.fill(1);
    }
}

/// A zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, validating the data offset.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let len = buffer.as_ref().len();
        if len < MIN_HEADER_LEN {
            return Err(Error::Truncated);
        }
        let p = Packet { buffer };
        let hl = p.header_len();
        if hl < MIN_HEADER_LEN {
            return Err(Error::Malformed);
        }
        if hl > len {
            return Err(Error::BadLength);
        }
        Ok(p)
    }

    /// Consume the view, returning the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq(&self) -> u32 {
        field::be32(self.buffer.as_ref(), 4)
    }

    /// Acknowledgment number.
    pub fn ack(&self) -> u32 {
        field::be32(self.buffer.as_ref(), 8)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(field::byte(self.buffer.as_ref(), 12) >> 4) << 2
    }

    /// Raw flag byte.
    pub fn flags(&self) -> u8 {
        field::byte(self.buffer.as_ref(), 13)
    }

    /// Parsed flag set.
    pub fn flag_set(&self) -> Flags {
        Flags::from_bits(self.flags())
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 14)
    }

    /// Checksum field.
    pub fn checksum(&self) -> u16 {
        field::be16(self.buffer.as_ref(), 16)
    }

    /// Raw option bytes (between byte 20 and the data offset); empty when
    /// the offsets are out of range for the buffer.
    pub(crate) fn options_raw(&self) -> &[u8] {
        self.buffer
            .as_ref()
            .get(MIN_HEADER_LEN..self.header_len())
            .unwrap_or(&[])
    }

    /// Iterate the parsed options.
    pub fn options(&self) -> OptionsIter<'_> {
        OptionsIter::new(self.options_raw())
    }

    /// The segment payload; empty when the data offset is out of range.
    pub fn payload(&self) -> &[u8] {
        let hl = self.header_len();
        self.buffer.as_ref().get(hl..).unwrap_or(&[])
    }

    /// Verify the TCP checksum under `ph` (covering header + payload).
    pub fn verify_checksum(&self, ph: &PseudoHeader) -> bool {
        ph.verify(self.buffer.as_ref())
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the source port.
    pub(crate) fn set_src_port(&mut self, v: u16) {
        field::set_be16(self.buffer.as_mut(), 0, v);
    }

    /// Set the destination port.
    pub(crate) fn set_dst_port(&mut self, v: u16) {
        field::set_be16(self.buffer.as_mut(), 2, v);
    }

    /// Set the sequence number.
    pub(crate) fn set_seq(&mut self, v: u32) {
        field::set_be32(self.buffer.as_mut(), 4, v);
    }

    /// Set the acknowledgment number.
    pub(crate) fn set_ack(&mut self, v: u32) {
        field::set_be32(self.buffer.as_mut(), 8, v);
    }

    /// Set the data offset (header length in bytes, multiple of 4).
    pub(crate) fn set_header_len(&mut self, len: usize) {
        debug_assert!(len.is_multiple_of(4) && (MIN_HEADER_LEN..=MAX_HEADER_LEN).contains(&len));
        field::set_byte(self.buffer.as_mut(), 12, ((len / 4) as u8) << 4);
    }

    /// Set the flag byte.
    pub(crate) fn set_flags(&mut self, flags: Flags) {
        field::set_byte(self.buffer.as_mut(), 13, flags.0);
    }

    /// Set the receive window.
    pub(crate) fn set_window(&mut self, v: u16) {
        field::set_be16(self.buffer.as_mut(), 14, v);
    }

    /// Compute and store the checksum under `ph` (call last).
    pub(crate) fn fill_checksum(&mut self, ph: &PseudoHeader) {
        field::set_be16(self.buffer.as_mut(), 16, 0);
        let c = ph.checksum(self.buffer.as_ref());
        field::set_be16(self.buffer.as_mut(), 16, c);
    }

    /// Mutable payload region; empty when the data offset is out of range.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let hl = self.header_len();
        self.buffer.as_mut().get_mut(hl..).unwrap_or(&mut [])
    }
}

/// High-level representation of a TCP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: u32,
    /// Flag set.
    pub flags: Flags,
    /// Receive window.
    pub window: u16,
    /// Options to emit / parsed recognised options.
    pub options: OptionList,
}

impl Repr {
    /// Parse a checked segment, collecting recognised options.
    ///
    /// Malformed options are tolerated: parsing stops at the first bad
    /// option and the segment is still usable (the handshake fields are in
    /// the fixed header).
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        let mut options = OptionList::new();
        for opt in packet.options() {
            match opt {
                Ok(o) => {
                    if options.push(o).is_err() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        Repr {
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            seq: packet.seq(),
            ack: packet.ack(),
            flags: packet.flag_set(),
            window: packet.window(),
            options,
        }
    }

    /// Emitted header length (fixed header + padded options).
    pub fn header_len(&self) -> usize {
        MIN_HEADER_LEN.saturating_add(self.options.wire_len())
    }

    /// Emit into a buffer sized `header_len() + payload`; the payload must
    /// already be in place since the checksum covers it.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>, ph: &PseudoHeader) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq(self.seq);
        packet.set_ack(self.ack);
        packet.set_header_len(self.header_len());
        packet.set_flags(self.flags);
        packet.set_window(self.window);
        field::set_be16(packet.buffer.as_mut(), 18, 0); // urgent ptr
        if let Some(region) = packet.buffer.as_mut().get_mut(MIN_HEADER_LEN..self.header_len()) {
            self.options.emit(region);
        }
        packet.fill_checksum(ph);
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample_repr() -> Repr {
        let mut options = OptionList::new();
        options.push(TcpOption::Mss(1460)).unwrap();
        options.push(TcpOption::SackPermitted).unwrap();
        options
            .push(TcpOption::Timestamps {
                tsval: 0xdeadbeef,
                tsecr: 0x01020304,
            })
            .unwrap();
        Repr {
            src_port: 40000,
            dst_port: 443,
            seq: 1000,
            ack: 0,
            flags: Flags::SYN,
            window: 65535,
            options,
        }
    }

    #[test]
    fn emit_parse_roundtrip_with_options() {
        let repr = sample_repr();
        assert_eq!(repr.header_len(), 20 + 16);
        // pseudo-header length must match emitted segment length
        let ph = PseudoHeader::v4([10, 0, 0, 1], [10, 0, 0, 2], 6, repr.header_len() as u16);
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), &ph);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum(&ph));
        let parsed = Repr::parse(&p);
        assert_eq!(parsed.src_port, 40000);
        assert_eq!(parsed.flags, Flags::SYN);
        assert_eq!(parsed.options.timestamps(), Some((0xdeadbeef, 0x01020304)));
        let opts: Vec<_> = parsed.options.iter().cloned().collect();
        assert!(opts.contains(&TcpOption::Mss(1460)));
        assert!(opts.contains(&TcpOption::SackPermitted));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let repr = Repr {
            options: OptionList::new(),
            ..sample_repr()
        };
        let total = repr.header_len() + 12;
        let ph = PseudoHeader::v4([10, 0, 0, 1], [10, 0, 0, 2], 6, total as u16);
        let mut buf = vec![0u8; total];
        buf[repr.header_len()..].copy_from_slice(b"hello world!");
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]), &ph);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum(&ph));
        buf[repr.header_len() + 3] ^= 0x10;
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum(&ph));
    }

    #[test]
    fn flag_predicates() {
        assert!(Flags::SYN.is_syn_only());
        assert!(!(Flags::SYN | Flags::ACK).is_syn_only());
        assert!((Flags::SYN | Flags::ACK).is_syn_ack());
        assert!(Flags::ACK.is_plain_ack());
        assert!((Flags::ACK | Flags::PSH).is_plain_ack());
        assert!(!(Flags::ACK | Flags::FIN).is_plain_ack());
        assert!(!(Flags::ACK | Flags::RST).is_plain_ack());
    }

    #[test]
    fn flags_display() {
        assert_eq!((Flags::SYN | Flags::ACK).to_string(), "SYN|ACK");
        assert_eq!(Flags::EMPTY.to_string(), "-");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = [0u8; 20];
        buf[12] = 0x30; // offset 12 bytes < 20
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
        buf[12] = 0xf0; // offset 60 > buffer
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::BadLength);
    }

    #[test]
    fn short_buffer_rejected() {
        assert_eq!(
            Packet::new_checked(&[0u8; 19][..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn options_iter_skips_nops_and_stops_at_end() {
        // NOP NOP MSS(1460) EOL garbage
        let raw = [1u8, 1, 2, 4, 0x05, 0xb4, 0, 9, 9, 9];
        let opts: Vec<_> = OptionsIter::new(&raw).collect();
        assert_eq!(opts, vec![Ok(TcpOption::Mss(1460))]);
    }

    #[test]
    fn options_iter_flags_malformed_length() {
        // kind=8 len=3 is not a valid timestamps option but is structurally
        // fine (unknown payload size); kind=5 len=0 is malformed.
        let raw = [5u8, 0, 2, 4, 0, 0];
        let opts: Vec<_> = OptionsIter::new(&raw).collect();
        assert_eq!(opts, vec![Err(Error::Malformed)]);
    }

    #[test]
    fn options_iter_option_running_past_end() {
        let raw = [2u8, 10, 0, 0]; // MSS claims 10 bytes, only 4 present
        let opts: Vec<_> = OptionsIter::new(&raw).collect();
        assert_eq!(opts, vec![Err(Error::Malformed)]);
    }

    #[test]
    fn option_list_enforces_capacity() {
        let mut list = OptionList::new();
        for _ in 0..4 {
            list.push(TcpOption::Timestamps { tsval: 0, tsecr: 0 }).unwrap();
        }
        // 4 × 10 = 40 bytes used; a 5th must fail.
        assert!(list
            .push(TcpOption::Timestamps { tsval: 0, tsecr: 0 })
            .is_err());
        assert_eq!(list.wire_len(), 40);
    }

    #[test]
    fn option_list_pads_to_word() {
        let mut list = OptionList::new();
        list.push(TcpOption::WindowScale(7)).unwrap();
        assert_eq!(list.wire_len(), 4);
        let mut buf = [0u8; 4];
        list.emit(&mut buf);
        assert_eq!(buf, [3, 3, 7, 1]); // NOP pad
    }

    #[test]
    fn unknown_options_are_carried() {
        let raw = [254u8, 4, 0xab, 0xcd];
        let opts: Vec<_> = OptionsIter::new(&raw).collect();
        assert_eq!(
            opts,
            vec![Ok(TcpOption::Unknown {
                kind: 254,
                data_len: 2
            })]
        );
    }
}
