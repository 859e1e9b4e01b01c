//! The ones-complement Internet checksum (RFC 1071) and the TCP/UDP
//! pseudo-header construction for both IP versions.
//!
//! Ruru validates checksums on the tap (corrupted packets must not pollute
//! the latency tables) and the traffic generator emits valid ones, so both
//! directions are exercised heavily.

/// Running ones-complement sum of `data`, pre-folded to 16 bits.
///
/// Data of odd length is padded with a zero byte, per RFC 1071. The sum
/// adds big-endian 32-bit words (RFC 1071 §2(B): any word size whose
/// modulus is a multiple of 2^16 − 1 folds to the same result, because
/// 2^16 ≡ 1 there, and a zero sum stays zero) into a 64-bit accumulator,
/// which cannot wrap for any in-memory slice, and folds it before
/// returning, so combining partial sums with plain u32 addition stays
/// exact.
pub fn sum(data: &[u8]) -> u32 {
    let mut acc: u64 = 0;
    let (words, rest) = data.as_chunks::<4>();
    for w in words {
        acc = acc.wrapping_add(u64::from(u32::from_be_bytes(*w)));
    }
    let mut pairs = rest.chunks_exact(2);
    for c in &mut pairs {
        if let &[a, b] = c {
            acc = acc.wrapping_add(u64::from(u16::from_be_bytes([a, b])));
        }
    }
    if let &[last] = pairs.remainder() {
        acc = acc.wrapping_add(u64::from(u16::from_be_bytes([last, 0])));
    }
    u32::from(fold_u64(acc))
}

/// Fold a 32-bit accumulator into a 16-bit ones-complement value.
pub fn fold(acc: u32) -> u16 {
    fold_u64(u64::from(acc))
}

/// End-around-carry fold of a wide accumulator. The add cannot saturate
/// (`acc >> 16` leaves 48 bits of headroom), so this is exact.
fn fold_u64(mut acc: u64) -> u16 {
    while acc > 0xffff {
        acc = (acc & 0xffff).saturating_add(acc >> 16);
    }
    acc as u16
}

/// Compute the Internet checksum of `data` combined with an already-summed
/// `partial` accumulator (e.g. a pseudo-header sum).
pub fn checksum(partial: u32, data: &[u8]) -> u16 {
    !fold_u64(u64::from(partial).saturating_add(u64::from(sum(data))))
}

/// Verify that `data` (which includes its checksum field) sums to the
/// all-ones pattern when combined with `partial`.
pub fn verify(partial: u32, data: &[u8]) -> bool {
    fold_u64(u64::from(partial).saturating_add(u64::from(sum(data)))) == 0xffff
}

/// The pseudo-header contribution for TCP/UDP checksums.
///
/// Construct via [`PseudoHeader::v4`] or [`PseudoHeader::v6`]; the stored
/// value is the precomputed ones-complement partial sum so per-packet cost is
/// a single add.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PseudoHeader {
    partial: u32,
}

impl PseudoHeader {
    /// IPv4 pseudo-header: src, dst, zero+protocol, TCP length.
    pub fn v4(src: [u8; 4], dst: [u8; 4], protocol: u8, len: u16) -> Self {
        // Each term is a folded 16-bit sum; four adds cannot overflow u32.
        let acc = sum(&src)
            .saturating_add(sum(&dst))
            .saturating_add(u32::from(protocol))
            .saturating_add(u32::from(len));
        PseudoHeader { partial: acc }
    }

    /// IPv6 pseudo-header: src, dst, upper-layer length, next header.
    pub fn v6(src: [u8; 16], dst: [u8; 16], next_header: u8, len: u32) -> Self {
        let acc = sum(&src)
            .saturating_add(sum(&dst))
            .saturating_add(sum(&len.to_be_bytes()))
            .saturating_add(u32::from(next_header));
        PseudoHeader { partial: acc }
    }

    /// Checksum `data` under this pseudo-header.
    pub fn checksum(&self, data: &[u8]) -> u16 {
        checksum(self.partial, data)
    }

    /// Verify `data` (containing its checksum field) under this pseudo-header.
    pub fn verify(&self, data: &[u8]) -> bool {
        verify(self.partial, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(fold(sum(&data)), 0xddf2);
        assert_eq!(checksum(0, &data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(sum(&[0xab]), sum(&[0xab, 0x00]));
    }

    #[test]
    fn checksum_roundtrip_verifies() {
        let mut data = vec![0u8; 40];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 7 + 3) as u8;
        }
        // Put the checksum in bytes 16..18 like TCP does.
        data[16] = 0;
        data[17] = 0;
        let ph = PseudoHeader::v4([10, 0, 0, 1], [10, 0, 0, 2], 6, data.len() as u16);
        let c = ph.checksum(&data);
        data[16..18].copy_from_slice(&c.to_be_bytes());
        assert!(ph.verify(&data));
        // Corrupt one byte: verification must fail.
        data[5] ^= 0x40;
        assert!(!ph.verify(&data));
    }

    #[test]
    fn v6_pseudo_header_differs_from_v4() {
        let p4 = PseudoHeader::v4([1, 2, 3, 4], [5, 6, 7, 8], 6, 20);
        let p6 = PseudoHeader::v6([1; 16], [2; 16], 6, 20);
        assert_ne!(p4.partial, p6.partial);
    }

    #[test]
    fn fold_handles_large_accumulators() {
        assert_eq!(fold(0x0001_ffff), 1);
        assert_eq!(fold(0xffff_ffff), 0xffff);
        assert_eq!(fold(0), 0);
    }

    #[test]
    fn empty_data_checksum_is_complement_of_partial() {
        assert_eq!(checksum(0, &[]), 0xffff);
    }
}
