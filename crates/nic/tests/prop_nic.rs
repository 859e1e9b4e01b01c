//! Property tests for the dataplane primitives: ring FIFO/conservation,
//! pool conservation, RSS invariants.


// Tests are exempt from the panic-freedom policy (DESIGN.md §10):
// unwrap/expect on known-good fixtures is idiomatic here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Property suites run thousands of cases: far too slow under Miri's
// interpreter, and the properties are memory-safety-neutral anyway.
#![cfg(not(miri))]

use ruru_nic::mbuf::MbufPool;
use ruru_nic::ring;
use ruru_nic::rss::RssHasher;
use ruru_prop::{bytes, check, vec, Rng, StdRng, CASES};
use ruru_wire::ipv4::Address;

/// Any interleaving of pushes and pops preserves FIFO order and loses
/// nothing that was accepted.
#[test]
fn ring_fifo_under_any_interleaving() {
    let gen = |rng: &mut StdRng| (vec(rng, 1..400, |r| r.gen::<bool>()), rng.gen_range(1usize..64));
    check("ring_fifo_under_any_interleaving", CASES, gen, |(ops, cap)| {
        let (mut p, mut c) = ring::ring::<u64>(cap);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        let mut queued = 0usize;
        for push in ops {
            if push {
                match p.push(next_push) {
                    Ok(()) => {
                        next_push += 1;
                        queued += 1;
                        assert!(queued <= p.capacity());
                    }
                    Err(v) => {
                        assert_eq!(v, next_push);
                        assert_eq!(queued, p.capacity());
                    }
                }
            } else if let Some(v) = c.pop() {
                assert_eq!(v, next_pop);
                next_pop += 1;
                queued -= 1;
            } else {
                assert_eq!(queued, 0);
            }
        }
        // Drain: everything accepted comes out in order.
        while let Some(v) = c.pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    });
}

/// The pool conserves buffers across arbitrary alloc/free sequences.
#[test]
fn pool_conserves_buffers() {
    let gen = |rng: &mut StdRng| (vec(rng, 1..200, |r| r.gen::<bool>()), rng.gen_range(1usize..32));
    check("pool_conserves_buffers", CASES, gen, |(ops, cap)| {
        let pool = MbufPool::new(cap, 256);
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(m) = pool.alloc(&[1, 2, 3]) {
                    held.push(m);
                }
                assert!(held.len() <= cap);
            } else {
                held.pop();
            }
            assert_eq!(pool.available() + held.len(), cap);
        }
        held.clear();
        assert_eq!(pool.available(), cap);
    });
}

/// Table-driven Toeplitz equals the bit-serial reference for arbitrary
/// inputs, and symmetric hashing is direction-invariant.
#[test]
fn rss_table_matches_reference() {
    check("rss_table_matches_reference", CASES, |rng| bytes(rng, 0..36), |input| {
        for h in [RssHasher::microsoft(8), RssHasher::symmetric(8)] {
            assert_eq!(h.toeplitz(&input), h.toeplitz_reference(&input));
        }
    });
}

/// The symmetric key repeats every 16 bits, and so does its hash: the
/// high and low halves are equal, whatever the tuple and queue count.
#[test]
fn symmetric_rss_hash_has_period_16() {
    let gen = |r: &mut StdRng| ([r.gen(), r.gen()], [r.gen(), r.gen()], r.gen_range(1..64));
    check("symmetric_rss_hash_has_period_16", CASES, gen, |([src, dst], [sp, dp], q)| {
        let h = RssHasher::symmetric(q);
        let hash = h.hash_v4(Address::from_u32(src), Address::from_u32(dst), sp, dp);
        assert_eq!(hash >> 16, hash & 0xffff, "hash {hash:#010x}");
    });
}
