//! Allocation audit of the enrichment worker's per-record lookup:
//! enriching a record whose two endpoints the geo database covers makes
//! exactly **two** heap allocations, the owned city `String` of each
//! endpoint, and a record whose endpoints it does not cover makes **none**.
//! Every endpoint is a distinct address, so no reuse of an earlier lookup
//! can hide a per-endpoint cost. This is what the pipeline's enrichment
//! worker does for every measurement before it builds the tsdb point.
//!
//! The counting allocator is process-wide, so this audit is a test binary
//! of its own.

// Miri has its own allocator machinery, and the property is
// native-allocator behaviour anyway.
#![cfg(not(miri))]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruru_analytics::{EnrichedMeasurement, Enricher};
use ruru_flow::LatencyMeasurement;
use ruru_geo::SynthWorld;
use ruru_nic::Timestamp;
use ruru_wire::{ipv4, IpAddress};
use std::collections::HashSet;
use std::sync::Arc;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

const RECORDS: usize = 1000;

fn measurement(src: [u8; 4], dst: [u8; 4], i: usize) -> LatencyMeasurement {
    LatencyMeasurement {
        src: IpAddress::V4(ipv4::Address(src)),
        dst: IpAddress::V4(ipv4::Address(dst)),
        src_port: 40_000,
        dst_port: 443,
        internal_ns: 1_000_000,
        external_ns: 100_000_000,
        completed_at: Timestamp::from_millis(i as u64),
        queue_id: 0,
        syn_retransmissions: 0,
    }
}

/// `2 * RECORDS` distinct IPv4 addresses for which `covered(addr)` holds.
fn distinct_addresses(
    rng: &mut StdRng,
    mut draw: impl FnMut(&mut StdRng) -> [u8; 4],
    covered: impl Fn([u8; 4]) -> bool,
) -> Vec<[u8; 4]> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(2 * RECORDS);
    while out.len() < 2 * RECORDS {
        let a = draw(rng);
        if covered(a) && seen.insert(a) {
            out.push(a);
        }
    }
    out
}

/// Enrich every record with the allocator armed; returns the enriched
/// records and the heap hits the pass made.
fn audited_pass(
    enricher: &mut Enricher,
    records: &[LatencyMeasurement],
) -> (Vec<EnrichedMeasurement>, u64) {
    let mut out = Vec::with_capacity(records.len());
    ruru_bench::take_hits();
    ruru_bench::arm();
    for m in records {
        out.push(enricher.enrich(m));
    }
    ruru_bench::disarm();
    (out, ruru_bench::take_hits())
}

#[test]
fn enrichment_allocates_one_city_per_known_endpoint() {
    let world = SynthWorld::generate(2);
    let db = Arc::new(world.db().clone());
    let known = |a: [u8; 4]| {
        db.lookup_key(IpAddress::V4(ipv4::Address(a)).as_u128())
            .is_some()
    };
    let mut rng = StdRng::seed_from_u64(11);
    let covered = distinct_addresses(
        &mut rng,
        |r| {
            let city = r.gen_range(0..world.city_count());
            world.sample_v4(city, r)
        },
        known,
    );
    let uncovered = distinct_addresses(&mut rng, |r| r.gen::<u32>().to_be_bytes(), |a| !known(a));
    let pairs = |addrs: &[[u8; 4]]| -> Vec<LatencyMeasurement> {
        addrs
            .chunks_exact(2)
            .enumerate()
            .map(|(i, p)| measurement(p[0], p[1], i))
            .collect()
    };
    let mut enricher = Enricher::new(Arc::clone(&db), 0);

    let (enriched, hits) = audited_pass(&mut enricher, &pairs(&covered));
    assert!(enriched
        .iter()
        .all(|em| !em.src.is_unknown() && !em.dst.is_unknown() && !em.src.city.is_empty()));
    assert_eq!(
        hits,
        2 * RECORDS as u64,
        "one city String per covered endpoint, nothing else"
    );

    let (enriched, hits) = audited_pass(&mut enricher, &pairs(&uncovered));
    assert!(enriched
        .iter()
        .all(|em| em.src.is_unknown() && em.dst.is_unknown()));
    assert_eq!(hits, 0, "an uncovered endpoint touches no heap");

    assert_eq!(
        enricher.stats(),
        (4 * RECORDS as u64, 2 * RECORDS as u64),
        "every endpoint looked up once; the uncovered ones missed"
    );
}
