//! Direction-normalized flow keys.
//!
//! Ruru's hash tables must be addressable from *both* directions of a
//! connection: the SYN arrives as `(client, server)` and the SYN-ACK as
//! `(server, client)`. A [`FlowKey`] stores the 4-tuple in a canonical
//! order (smaller endpoint first) and [`FlowKey::from_tuple`] additionally
//! reports which [`Direction`] the observed packet travelled relative to
//! that canonical order.

use ruru_wire::IpAddress;

/// Which way a packet travelled relative to its flow's canonical key order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the canonical first endpoint to the second.
    Forward,
    /// From the canonical second endpoint to the first.
    Reverse,
}

impl Direction {
    /// The opposite direction.
    pub fn flipped(&self) -> Direction {
        match self {
            Direction::Forward => Direction::Reverse,
            Direction::Reverse => Direction::Forward,
        }
    }
}

/// A canonical (direction-independent) TCP flow key.
///
/// Endpoints are ordered by `(address, port)`; the same physical connection
/// always produces the same key regardless of packet direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The lexicographically smaller endpoint.
    pub a: (IpAddress, u16),
    /// The lexicographically larger endpoint.
    pub b: (IpAddress, u16),
}

/// Fixed odd seeds xored into each fold's operands, so an all-zero key word
/// (the high half of every IPv4 address) still multiplies by a non-zero
/// value.
const FOLD_SEED: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7345,
    0xa409_3822_299f_31d1,
    0x082e_fa98_ec4e_6c89,
];

/// One multiply-fold: the 128-bit product of `x` and `y`, halves xored.
#[inline]
fn fold(x: u64, y: u64) -> u64 {
    let p = u128::from(x).wrapping_mul(u128::from(y));
    (p as u64) ^ ((p >> 64) as u64)
}

/// One endpoint folded to 64 bits. The port goes into the address's low
/// word above bit 47, which is zero for every IPv4 address.
#[inline]
fn endpoint_digest(addr: IpAddress, port: u16) -> u64 {
    let [s0, s1, _, _] = FOLD_SEED;
    let x = addr.as_u128();
    fold(x as u64 ^ (u64::from(port) << 48) ^ s0, (x >> 64) as u64 ^ s1)
}

impl FlowKey {
    /// Build the canonical key for a packet seen as `src → dst`, returning
    /// the direction the packet travelled relative to the canonical order.
    pub fn from_tuple(
        src: IpAddress,
        dst: IpAddress,
        src_port: u16,
        dst_port: u16,
    ) -> (FlowKey, Direction) {
        let s = (src, src_port);
        let d = (dst, dst_port);
        if s <= d {
            (FlowKey { a: s, b: d }, Direction::Forward)
        } else {
            (FlowKey { a: d, b: s }, Direction::Reverse)
        }
    }

    /// The hash the flow tables key on: a word-wise multiply-fold over the
    /// key's two endpoints (each address as `u128`, plus its port).
    ///
    /// The two endpoint digests are combined commutatively (their xor times
    /// their sum), so the hash is symmetric by construction: both
    /// directions of a connection hash identically whichever order the
    /// endpoints come in. Each fold is a full 64 × 64 → 128-bit product
    /// with its halves xored together, so the low bits (the table's bucket
    /// mask) and the high bits (its 1-byte tag) are independent functions
    /// of every key bit. The seeds are fixed: this is not a keyed hash.
    #[inline]
    pub fn table_hash(&self) -> u32 {
        Self::tuple_hash(self.a.0, self.b.0, self.a.1, self.b.1)
    }

    /// [`FlowKey::table_hash`] of the flow a packet seen as `src → dst`
    /// belongs to, without building its canonical key. The trackers'
    /// prefetch pass uses it: canonicalizing the tuple there cost more than
    /// the whole prefetch.
    #[inline]
    pub(crate) fn tuple_hash(src: IpAddress, dst: IpAddress, src_port: u16, dst_port: u16) -> u32 {
        let [_, _, s2, s3] = FOLD_SEED;
        let (x, y) = (endpoint_digest(src, src_port), endpoint_digest(dst, dst_port));
        let h = fold(x ^ y ^ s2, x.wrapping_add(y) ^ s3);
        (h ^ (h >> 32)) as u32
    }

    /// The `(src, dst, src_port, dst_port)` tuple as seen travelling in
    /// `dir`.
    pub(crate) fn as_seen(&self, dir: Direction) -> (IpAddress, IpAddress, u16, u16) {
        match dir {
            Direction::Forward => (self.a.0, self.b.0, self.a.1, self.b.1),
            Direction::Reverse => (self.b.0, self.a.0, self.b.1, self.a.1),
        }
    }
}

impl core::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} <-> {}:{}",
            self.a.0, self.a.1, self.b.0, self.b.1
        )
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use ruru_wire::ipv4;

    fn ip(a: u8, b: u8, c: u8, d: u8) -> IpAddress {
        IpAddress::V4(ipv4::Address([a, b, c, d]))
    }

    #[test]
    fn both_directions_share_a_key() {
        let (k1, d1) = FlowKey::from_tuple(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 40000, 443);
        let (k2, d2) = FlowKey::from_tuple(ip(10, 0, 0, 2), ip(10, 0, 0, 1), 443, 40000);
        assert_eq!(k1, k2);
        assert_ne!(d1, d2);
        assert_eq!(d1.flipped(), d2);
    }

    #[test]
    fn same_hosts_different_ports_differ() {
        let (k1, _) = FlowKey::from_tuple(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 40000, 443);
        let (k2, _) = FlowKey::from_tuple(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 40001, 443);
        assert_ne!(k1, k2);
    }

    #[test]
    fn port_breaks_tie_on_same_address() {
        // Same address both sides (loopback-style): ports decide the order.
        let (k, dir) = FlowKey::from_tuple(ip(1, 1, 1, 1), ip(1, 1, 1, 1), 9999, 80);
        assert_eq!(dir, Direction::Reverse);
        assert_eq!(k.a.1, 80);
        assert_eq!(k.b.1, 9999);
    }

    #[test]
    fn as_seen_reconstructs_tuple() {
        let (k, dir) = FlowKey::from_tuple(ip(200, 1, 1, 1), ip(10, 0, 0, 1), 5000, 443);
        let (src, dst, sp, dp) = k.as_seen(dir);
        assert_eq!(src, ip(200, 1, 1, 1));
        assert_eq!(dst, ip(10, 0, 0, 1));
        assert_eq!(sp, 5000);
        assert_eq!(dp, 443);
        // And the other direction swaps.
        let (src, dst, sp, dp) = k.as_seen(dir.flipped());
        assert_eq!(src, ip(10, 0, 0, 1));
        assert_eq!(sp, 443);
        assert_eq!(dst, ip(200, 1, 1, 1));
        assert_eq!(dp, 5000);
    }

    #[test]
    fn table_hash_is_direction_invariant() {
        let (k1, _) = FlowKey::from_tuple(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 40000, 443);
        let (k2, _) = FlowKey::from_tuple(ip(10, 0, 0, 2), ip(10, 0, 0, 1), 443, 40000);
        assert_eq!(k1.table_hash(), k2.table_hash());
        // Distinct flows spread.
        let (k3, _) = FlowKey::from_tuple(ip(10, 0, 0, 1), ip(10, 0, 0, 2), 40001, 443);
        assert_ne!(k1.table_hash(), k3.table_hash());
    }

    #[test]
    fn tuple_hash_is_the_table_hash_in_either_direction() {
        use rand::{Rng, SeedableRng};
        use ruru_wire::ipv6;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for i in 0..1_000 {
            let (src, dst) = if i % 2 == 0 {
                let v4 = |x: u32| IpAddress::V4(ipv4::Address::from_u32(x));
                (v4(rng.gen()), v4(rng.gen()))
            } else {
                let v6 = |x: u128| IpAddress::V6(ipv6::Address(x.to_be_bytes()));
                (v6(rng.gen()), v6(rng.gen()))
            };
            let (sp, dp) = (rng.gen(), rng.gen());
            let (key, _) = FlowKey::from_tuple(src, dst, sp, dp);
            assert_eq!(FlowKey::tuple_hash(src, dst, sp, dp), key.table_hash());
            assert_eq!(FlowKey::tuple_hash(dst, src, dp, sp), key.table_hash());
        }
    }

    #[test]
    fn display_formats_endpoints() {
        let (k, _) = FlowKey::from_tuple(ip(1, 2, 3, 4), ip(5, 6, 7, 8), 1, 2);
        assert_eq!(k.to_string(), "1.2.3.4:1 <-> 5.6.7.8:2");
    }
}
