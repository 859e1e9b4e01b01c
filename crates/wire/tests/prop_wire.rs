//! Property-based tests for the wire formats: emit→parse roundtrips, parser
//! totality on arbitrary bytes, and checksum invariants.


// Tests are exempt from the panic-freedom policy (DESIGN.md §10):
// unwrap/expect on known-good fixtures is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Property suites run thousands of cases: far too slow under Miri's
// interpreter, and the properties are memory-safety-neutral anyway.
#![cfg(not(miri))]

use ruru_prop::{bytes, check, vec, Rng, StdRng, CASES};
use ruru_wire::{checksum, ethernet, ipv4, ipv6, pcap, tcp};

/// The Internet checksum of data with its checksum inserted verifies.
#[test]
fn checksum_self_verifies() {
    check("checksum_self_verifies", CASES, |rng| bytes(rng, 0..256), |mut data| {
        // reserve a 2-byte checksum slot at the front
        data.insert(0, 0);
        data.insert(0, 0);
        let c = checksum::checksum(0, &data);
        data[0..2].copy_from_slice(&c.to_be_bytes());
        assert!(checksum::verify(0, &data));
    });
}

/// Checksumming is independent of how the accumulator is split.
#[test]
fn checksum_sum_is_associative() {
    let gen = |rng: &mut StdRng| (bytes(rng, 0..64), bytes(rng, 0..64));
    check("checksum_sum_is_associative", CASES, gen, |(a, b)| {
        // Only when the first chunk has even length does splitting commute.
        if a.len() % 2 != 0 {
            return;
        }
        let mut joined = a.clone();
        joined.extend_from_slice(&b);
        assert_eq!(
            checksum::fold(checksum::sum(&joined)),
            checksum::fold(checksum::sum(&a) + checksum::sum(&b))
        );
    });
}

/// The RFC 1071 reference: big-endian 16-bit words added one by one,
/// an odd last byte padded with zero, then folded.
fn reference_sum(data: &[u8]) -> u32 {
    let mut acc: u64 = 0;
    let mut pairs = data.chunks_exact(2);
    for c in &mut pairs {
        acc = acc.saturating_add(u64::from(u16::from_be_bytes([c[0], c[1]])));
    }
    if let &[last] = pairs.remainder() {
        acc = acc.saturating_add(u64::from(u16::from_be_bytes([last, 0])));
    }
    while acc > 0xffff {
        acc = (acc & 0xffff) + (acc >> 16);
    }
    acc as u32
}

/// The word-at-a-time sum equals the 16-bit reference for every length
/// from 0 to 2000 bytes, odd ones included: each case checks every prefix
/// of a 2000-byte buffer. Buffers are uniform, or mostly `0xff` or `0x00`
/// bytes, so long carry chains and sums that are multiples of 0xffff come
/// up too.
#[test]
fn checksum_sum_matches_the_16_bit_reference_at_every_length() {
    let gen = |rng: &mut StdRng| {
        let mode = rng.gen_range(0..3u8);
        (0..2000)
            .map(|_| match (mode, rng.gen_range(0..8u8)) {
                (1, 0) | (2, 0) => rng.gen(),
                (1, _) => 0xff,
                (2, _) => 0x00,
                _ => rng.gen(),
            })
            .collect::<Vec<u8>>()
    };
    check("checksum_sum_matches_the_16_bit_reference_at_every_length", 12, gen, |data| {
        for len in 0..=data.len() {
            let prefix = &data[..len];
            assert_eq!(checksum::sum(prefix), reference_sum(prefix), "length {len}");
        }
    });
}

/// IPv4 emit→parse is the identity on the representation.
#[test]
fn ipv4_roundtrip() {
    let gen = |rng: &mut StdRng| ipv4::Repr {
        src: ipv4::Address::from_u32(rng.gen()),
        dst: ipv4::Address::from_u32(rng.gen()),
        protocol: ipv4::Protocol::Tcp,
        ttl: rng.gen(),
        payload_len: rng.gen_range(0..512),
    };
    check("ipv4_roundtrip", CASES, gen, |repr| {
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut ipv4::Packet::new_unchecked(&mut buf[..]));
        let p = ipv4::Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(ipv4::Repr::parse(&p).unwrap(), repr);
    });
}

/// IPv6 emit→parse is the identity on the representation.
#[test]
fn ipv6_roundtrip() {
    let gen = |rng: &mut StdRng| ipv6::Repr {
        src: ipv6::Address(std::array::from_fn(|_| rng.gen())),
        dst: ipv6::Address(std::array::from_fn(|_| rng.gen())),
        protocol: ipv4::Protocol::Tcp,
        hop_limit: rng.gen(),
        payload_len: rng.gen_range(0..512),
    };
    check("ipv6_roundtrip", CASES, gen, |repr| {
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut ipv6::Packet::new_unchecked(&mut buf[..]));
        let p = ipv6::Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(ipv6::Repr::parse(&p), repr);
    });
}

/// TCP emit→parse preserves every field the tracker reads, and the
/// emitted checksum verifies.
#[test]
fn tcp_roundtrip() {
    // (ports, seq/ack, flag bits, window, timestamps if present)
    let gen = |rng: &mut StdRng| {
        let ts: (bool, u32, u32) = (rng.gen(), rng.gen(), rng.gen());
        ([rng.gen(), rng.gen()], [rng.gen(), rng.gen()], rng.gen(), rng.gen(), ts)
    };
    check("tcp_roundtrip", CASES, gen, |([sp, dp], [seq, ack], flag_bits, window, ts)| {
        let (with_ts, tsval, tsecr) = ts;
        let mut options = tcp::OptionList::new();
        if with_ts {
            options.push(tcp::TcpOption::Timestamps { tsval, tsecr }).unwrap();
        }
        let repr = tcp::Repr {
            src_port: sp, dst_port: dp, seq, ack,
            flags: tcp::Flags::from_bits(flag_bits),
            window,
            options,
        };
        let ph = checksum::PseudoHeader::v4([1, 2, 3, 4], [5, 6, 7, 8], 6, repr.header_len() as u16);
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut tcp::Packet::new_unchecked(&mut buf[..]), &ph);
        let p = tcp::Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum(&ph));
        let parsed = tcp::Repr::parse(&p);
        assert_eq!(parsed.src_port, sp);
        assert_eq!(parsed.dst_port, dp);
        assert_eq!(parsed.seq, seq);
        assert_eq!(parsed.ack, ack);
        assert_eq!(parsed.flags, tcp::Flags::from_bits(flag_bits));
        assert_eq!(parsed.window, window);
        assert_eq!(parsed.options.timestamps(), with_ts.then_some((tsval, tsecr)));
    });
}

/// Parsers never panic on arbitrary bytes.
#[test]
fn parsers_are_total() {
    check("parsers_are_total", CASES, |rng| bytes(rng, 0..128), |data| {
        let _ = ethernet::Frame::new_checked(&data[..]).map(|f| {
            let _ = f.ethertype();
            let _ = f.vlan_id();
            let _ = f.payload().len();
        });
        let _ = ipv4::Packet::new_checked(&data[..]).map(|p| {
            let _ = ipv4::Repr::parse(&p);
            let _ = p.payload().len();
        });
        let _ = ipv6::Packet::new_checked(&data[..]).map(|p| {
            let _ = p.upper_layer();
        });
        let _ = tcp::Packet::new_checked(&data[..]).map(|p| {
            for o in p.options() {
                let _ = o;
            }
        });
    });
}

/// TCP option iteration never panics and terminates on arbitrary bytes.
#[test]
fn tcp_options_iter_total() {
    check("tcp_options_iter_total", CASES, |rng| bytes(rng, 0..40), |data| {
        // bounded by construction: each iteration consumes ≥1 byte or ends
        let count = tcp::OptionsIter::new(&data).count();
        assert!(count <= data.len());
    });
}

/// pcap write→read is the identity.
#[test]
fn pcap_roundtrip() {
    let gen = |rng: &mut StdRng| vec(rng, 0..8, |r| (r.gen::<u64>(), bytes(r, 0..64)));
    check("pcap_roundtrip", CASES, gen, |records| {
        let records: Vec<pcap::Record> = records.into_iter().map(|(ts, data)| pcap::Record {
            timestamp_ns: ts % (u32::MAX as u64 * 1_000_000_000),
            orig_len: data.len() as u32,
            data,
        }).collect();
        let mut buf = Vec::new();
        {
            let mut w = pcap::Writer::new(&mut buf).unwrap();
            for r in &records {
                w.write(r).unwrap();
            }
        }
        let got = pcap::Reader::new(&buf[..]).unwrap().read_all().unwrap();
        assert_eq!(got, records);
    });
}
