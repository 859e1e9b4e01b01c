//! Receive Side Scaling: the Toeplitz hash and the queue indirection table.
//!
//! Ruru configures *symmetric* RSS so that the SYN (client→server) and the
//! SYN-ACK (server→client) of the same TCP connection hash identically and
//! are therefore processed on the same queue/core — this is what makes
//! lock-free per-queue handshake tables possible. Symmetry is obtained the
//! standard way (Woo & Park, NSDI'12): a Toeplitz key consisting of the
//! 16-bit pattern `0x6d5a` repeated, which makes the hash invariant under
//! swapping (src IP, dst IP) and (src port, dst port) simultaneously.
//!
//! The key's 16-bit period carries into the hash: a symmetric hash's high
//! and low halves are always equal (`hash >> 16 == hash & 0xffff`), so it
//! holds only 16 bits. That is plenty for the RETA, which reads 7 of them,
//! and it is the hash's only job here: the port picks the queue with it and
//! drops it. The flow tables key on `FlowKey::table_hash` instead, a full
//! 32-bit hash of the canonical key, as DPDK's `rte_hash` computes its own
//! hash rather than reusing the RSS one.

use ruru_wire::{ipv4, ipv6, IpAddress};

/// Key length used by 40-byte Toeplitz implementations (fits IPv6 4-tuples).
pub const KEY_LEN: usize = 40;

/// The classic Microsoft reference RSS key (not symmetric).
pub const MICROSOFT_KEY: [u8; KEY_LEN] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f,
    0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30,
    0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// The symmetric key: `0x6d5a` repeated. hash(a→b) == hash(b→a).
pub const SYMMETRIC_KEY: [u8; KEY_LEN] = {
    let mut k = [0u8; KEY_LEN];
    let mut i = 0;
    while i < KEY_LEN {
        k[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
        i += 1;
    }
    k
};

/// Size of the redirection table (RETA), as on common 10G NICs.
pub const RETA_SIZE: usize = 128;

/// Maximum hashable input (IPv6 4-tuple).
const MAX_INPUT: usize = 36;

/// A Toeplitz hasher with a fixed key and a queue redirection table.
///
/// Hashing uses the standard byte-at-a-time table optimization: since the
/// key is fixed, each (byte position, byte value) pair's XOR contribution
/// is precomputed, reducing a hash to one table lookup per input byte —
/// this is how software RSS (e.g. DPDK's `rte_softrss_be`) makes Toeplitz
/// line-rate-capable.
#[derive(Clone)]
pub struct RssHasher {
    key: [u8; KEY_LEN],
    /// `tables[pos][byte]` = contribution of `byte` at input position `pos`.
    tables: Box<[[u32; 256]; MAX_INPUT]>,
    reta: [u16; RETA_SIZE],
    num_queues: u16,
}

impl core::fmt::Debug for RssHasher {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("RssHasher")
            .field("num_queues", &self.num_queues)
            .finish()
    }
}

impl RssHasher {
    /// A hasher with the given key, distributing across `num_queues` queues
    /// round-robin in the redirection table (the default NIC programming).
    pub fn new(key: [u8; KEY_LEN], num_queues: u16) -> RssHasher {
        assert!(num_queues > 0, "need at least one queue");
        let mut reta = [0u16; RETA_SIZE];
        for (i, entry) in reta.iter_mut().enumerate() {
            *entry = (i as u16) % num_queues;
        }
        // Precompute contribution tables from the bit-serial definition.
        let mut tables = Box::new([[0u32; 256]; MAX_INPUT]);
        for pos in 0..MAX_INPUT {
            // The 32-bit key windows for the 8 bit-positions of this byte.
            let mut windows = [0u32; 8];
            for (bit, w) in windows.iter_mut().enumerate() {
                let start = pos * 8 + bit;
                let mut window = 0u32;
                for k in 0..32 {
                    let bit_idx = start + k;
                    let bit_val = if bit_idx < KEY_LEN * 8 {
                        (key[bit_idx / 8] >> (7 - bit_idx % 8)) & 1
                    } else {
                        0
                    };
                    window = (window << 1) | bit_val as u32;
                }
                *w = window;
            }
            for b in 0..256usize {
                let mut acc = 0u32;
                for (bit, w) in windows.iter().enumerate() {
                    if b >> (7 - bit) & 1 == 1 {
                        acc ^= w;
                    }
                }
                tables[pos][b] = acc;
            }
        }
        RssHasher {
            key,
            tables,
            reta,
            num_queues,
        }
    }

    /// The symmetric configuration Ruru uses.
    pub fn symmetric(num_queues: u16) -> RssHasher {
        Self::new(SYMMETRIC_KEY, num_queues)
    }

    /// The standard (asymmetric) Microsoft-key configuration, kept for the
    /// ablation experiment.
    pub fn microsoft(num_queues: u16) -> RssHasher {
        Self::new(MICROSOFT_KEY, num_queues)
    }

    /// Number of queues this hasher spreads across.
    pub fn num_queues(&self) -> u16 {
        self.num_queues
    }

    /// The raw Toeplitz hash of an input byte string (table-driven).
    ///
    /// Input bytes beyond the key-derived table count contribute nothing
    /// (the caller never exceeds it: `zip` makes that total).
    pub fn toeplitz(&self, input: &[u8]) -> u32 {
        debug_assert!(input.len() <= MAX_INPUT, "input too long for key");
        let mut result = 0u32;
        for (table, &byte) in self.tables.iter().zip(input) {
            result ^= table.get(usize::from(byte)).copied().unwrap_or(0);
        }
        result
    }

    /// Bit-serial reference implementation of the Toeplitz hash, kept for
    /// verification against [`RssHasher::toeplitz`] and the spec vectors.
    pub fn toeplitz_reference(&self, input: &[u8]) -> u32 {
        debug_assert!(input.len() + 4 <= KEY_LEN, "input too long for key");
        let mut result = 0u32;
        // Current 32-bit window of the key, advanced one bit per input bit.
        let mut window = self.key.first_chunk::<4>().map_or(0, |c| u32::from_be_bytes(*c));
        let mut next_byte = 4; // next key byte to shift in
        let mut bits_into_next = 0u32;
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                // Slide the window left by one bit, pulling in the next key bit.
                let next_bit = if next_byte < KEY_LEN {
                    (self.key[next_byte] >> (7 - bits_into_next)) & 1
                } else {
                    0
                };
                window = (window << 1) | next_bit as u32;
                bits_into_next += 1;
                if bits_into_next == 8 {
                    bits_into_next = 0;
                    next_byte += 1;
                }
            }
        }
        result
    }

    /// Hash an IPv4 TCP/UDP 4-tuple (addresses and ports in wire order).
    pub fn hash_v4(&self, src: ipv4::Address, dst: ipv4::Address, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 12];
        put(&mut input, 0, &src.0);
        put(&mut input, 4, &dst.0);
        put(&mut input, 8, &src_port.to_be_bytes());
        put(&mut input, 10, &dst_port.to_be_bytes());
        self.toeplitz(&input)
    }

    /// Hash an IPv6 TCP/UDP 4-tuple.
    fn hash_v6(&self, src: ipv6::Address, dst: ipv6::Address, src_port: u16, dst_port: u16) -> u32 {
        let mut input = [0u8; 36];
        put(&mut input, 0, &src.0);
        put(&mut input, 16, &dst.0);
        put(&mut input, 32, &src_port.to_be_bytes());
        put(&mut input, 34, &dst_port.to_be_bytes());
        self.toeplitz(&input)
    }

    /// Hash a 4-tuple of either address family.
    pub fn hash_tuple(&self, src: IpAddress, dst: IpAddress, src_port: u16, dst_port: u16) -> u32 {
        match (src, dst) {
            (IpAddress::V4(s), IpAddress::V4(d)) => self.hash_v4(s, d, src_port, dst_port),
            (IpAddress::V6(s), IpAddress::V6(d)) => self.hash_v6(s, d, src_port, dst_port),
            // Mixed families cannot occur on the wire; hash what we have.
            (s, d) => {
                let mut input = [0u8; 36];
                put(&mut input, 0, &s.as_u128().to_be_bytes());
                put(&mut input, 16, &d.as_u128().to_be_bytes());
                put(&mut input, 32, &src_port.to_be_bytes());
                put(&mut input, 34, &dst_port.to_be_bytes());
                self.toeplitz(&input)
            }
        }
    }

    /// Map a hash to a queue through the redirection table, as the NIC does:
    /// the low `log2(RETA_SIZE)` bits of the hash index the table.
    pub fn queue_for(&self, hash: u32) -> u16 {
        self.reta
            .get((hash as usize) & (RETA_SIZE - 1))
            .copied()
            .unwrap_or(0)
    }
}

/// Copy `src` into `buf[at..]`; a no-op when it does not fit. The hash
/// inputs are fixed-size arrays written at literal offsets, so the miss arm
/// is unreachable — this just keeps the copies total.
fn put(buf: &mut [u8], at: usize, src: &[u8]) {
    if let Some(dst) = buf
        .get_mut(at..)
        .and_then(|rest| rest.get_mut(..src.len()))
    {
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(a: u8, b: u8, c: u8, d: u8) -> ipv4::Address {
        ipv4::Address([a, b, c, d])
    }

    /// Verification vectors from the Microsoft RSS specification
    /// ("Verifying the RSS hash calculation", TCP/IPv4 with ports).
    #[test]
    fn microsoft_test_vectors_v4() {
        let h = RssHasher::microsoft(1);
        // input: src 66.9.149.187:2794 -> dst 161.142.100.80:1766
        let got = h.hash_v4(v4(66, 9, 149, 187), v4(161, 142, 100, 80), 2794, 1766);
        assert_eq!(got, 0x51ccc178);
        let got = h.hash_v4(v4(199, 92, 111, 2), v4(65, 69, 140, 83), 14230, 4739);
        assert_eq!(got, 0xc626b0ea);
        let got = h.hash_v4(v4(24, 19, 198, 95), v4(12, 22, 207, 184), 12898, 38024);
        assert_eq!(got, 0x5c2b394a);
    }

    #[test]
    fn microsoft_test_vectors_v6() {
        let h = RssHasher::microsoft(1);
        // 3ffe:2501:200:1fff::7 : 2794 -> 3ffe:2501:200:3::1 : 1766
        let src = ipv6::Address::from_groups([0x3ffe, 0x2501, 0x200, 0x1fff, 0, 0, 0, 7]);
        let dst = ipv6::Address::from_groups([0x3ffe, 0x2501, 0x200, 0x3, 0, 0, 0, 1]);
        assert_eq!(h.hash_v6(src, dst, 2794, 1766), 0x40207d3d);
    }

    #[test]
    fn symmetric_key_swaps_match_v4() {
        let h = RssHasher::symmetric(8);
        let fwd = h.hash_v4(v4(130, 216, 1, 2), v4(128, 9, 160, 1), 51000, 443);
        let rev = h.hash_v4(v4(128, 9, 160, 1), v4(130, 216, 1, 2), 443, 51000);
        assert_eq!(fwd, rev, "symmetric RSS must be direction-invariant");
        assert_eq!(h.queue_for(fwd), h.queue_for(rev));
    }

    #[test]
    fn symmetric_key_swaps_match_v6() {
        let h = RssHasher::symmetric(4);
        let a = ipv6::Address::from_groups([0x2404, 0x138, 0, 0, 0, 0, 0, 0x10]);
        let b = ipv6::Address::from_groups([0x2607, 0xf8b0, 0, 0, 0, 0, 0, 0x20]);
        assert_eq!(h.hash_v6(a, b, 33000, 80), h.hash_v6(b, a, 80, 33000));
    }

    #[test]
    fn microsoft_key_is_not_symmetric() {
        let h = RssHasher::microsoft(8);
        let fwd = h.hash_v4(v4(130, 216, 1, 2), v4(128, 9, 160, 1), 51000, 443);
        let rev = h.hash_v4(v4(128, 9, 160, 1), v4(130, 216, 1, 2), 443, 51000);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn queue_mapping_covers_all_queues() {
        let h = RssHasher::symmetric(4);
        let mut seen = [false; 4];
        for i in 0..1000u32 {
            let hash = h.hash_v4(
                v4(10, (i >> 8) as u8, i as u8, 1),
                v4(192, 168, 0, 1),
                40000 + (i as u16),
                443,
            );
            let q = h.queue_for(hash);
            assert!(q < 4);
            seen[q as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all queues receive traffic");
    }

    #[test]
    fn queue_distribution_is_roughly_uniform() {
        // A simple deterministic LCG for uncorrelated tuples; the symmetric
        // key trades some uniformity for direction-invariance, so the bound
        // is loose: every queue must carry at least half its fair share.
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let h = RssHasher::symmetric(8);
        let mut counts = [0u32; 8];
        let n = 20_000u32;
        for _ in 0..n {
            let r = next();
            let hash = h.hash_v4(
                v4(10, (r >> 8) as u8, (r >> 16) as u8, (r >> 24) as u8),
                v4(128, 9, (r >> 32) as u8, (r >> 40) as u8),
                (r >> 48) as u16,
                443,
            );
            counts[h.queue_for(hash) as usize] += 1;
        }
        let fair = n / 8;
        for &c in &counts {
            assert!(c >= fair / 2, "queue counts skewed: {counts:?}");
        }
    }

    #[test]
    fn mixed_family_tuple_hashes_without_panic() {
        let h = RssHasher::symmetric(2);
        let v4a = IpAddress::V4(v4(1, 2, 3, 4));
        let v6a = IpAddress::V6(ipv6::Address([9; 16]));
        let _ = h.hash_tuple(v4a, v6a, 1, 2);
    }

    #[test]
    #[should_panic(expected = "at least one queue")]
    fn zero_queues_rejected() {
        RssHasher::symmetric(0);
    }

    #[test]
    fn symmetric_key_pattern() {
        assert_eq!(&SYMMETRIC_KEY[..4], &[0x6d, 0x5a, 0x6d, 0x5a]);
        assert_eq!(SYMMETRIC_KEY.len(), KEY_LEN);
    }

    #[test]
    fn table_hash_matches_bit_serial_reference() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for h in [RssHasher::microsoft(4), RssHasher::symmetric(4)] {
            for len in [0usize, 1, 7, 12, 13, 36] {
                let input: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                assert_eq!(
                    h.toeplitz(&input),
                    h.toeplitz_reference(&input),
                    "len {len}"
                );
            }
        }
    }
}
