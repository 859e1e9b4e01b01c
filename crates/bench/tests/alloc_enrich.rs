//! Allocation audit of the enrichment worker's per-record work:
//!
//! * the lookup: enriching a record whose two endpoints the geo database
//!   covers makes exactly **two** heap allocations, the owned city
//!   `String` of each endpoint, and a record whose endpoints it does not
//!   cover makes **none**. Every endpoint is a distinct address, so no
//!   reuse of an earlier lookup can hide a per-endpoint cost;
//! * the render that follows it: refilling the worker's reused `latency`
//!   point, writing it to the tsdb stripe, and writing the PUB line into
//!   the scratch block makes **none**, once the stripe holds the records'
//!   series, except in the few renders that report reserving a fresh
//!   scratch block, which make exactly what one block reservation makes.
//!
//! The counting allocator is process-wide, so this audit is a test binary
//! of its own with one test that runs the lookup audit, then the render
//! audit: the harness's own bookkeeping for a second test, finishing or
//! starting, would count in an armed window.

// Miri has its own allocator machinery, and the property is
// native-allocator behaviour anyway.
#![cfg(not(miri))]

use bytes::BytesMut;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruru_analytics::{EnrichedMeasurement, Enricher, Rendered, Renderer};
use ruru_flow::LatencyMeasurement;
use ruru_geo::SynthWorld;
use ruru_nic::Timestamp;
use ruru_tsdb::TsDb;
use ruru_wire::{ipv4, ipv6, IpAddress};
use std::collections::{HashMap, HashSet};
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
fn enrichment_allocates_one_city_per_known_endpoint_and_renders_with_none() {
    enrichment_allocates_one_city_per_known_endpoint();
    rendering_into_known_series_allocates_nothing();
}

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
    assert!(
        enriched
            .iter()
            .all(|em| !em.src.is_unknown() && !em.dst.is_unknown() && !em.src.city.is_empty()),
        "lookup audit: every covered endpoint resolves"
    );
    assert_eq!(
        hits,
        2 * RECORDS as u64,
        "lookup audit: one city String per covered endpoint, nothing else"
    );

    let (enriched, hits) = audited_pass(&mut enricher, &pairs(&uncovered));
    assert!(
        enriched
            .iter()
            .all(|em| em.src.is_unknown() && em.dst.is_unknown()),
        "lookup audit: every uncovered endpoint misses"
    );
    assert_eq!(
        hits, 0,
        "lookup audit: an uncovered endpoint touches no heap"
    );

    assert_eq!(
        enricher.stats(),
        (4 * RECORDS as u64, 2 * RECORDS as u64),
        "lookup audit: every endpoint looked up once; the uncovered ones missed"
    );
}

fn rendering_into_known_series_allocates_nothing() {
    let world = SynthWorld::generate(2);
    let db = Arc::new(world.db().clone());
    let mut enricher = Enricher::new(Arc::clone(&db), 0);
    let mut rng = StdRng::seed_from_u64(12);
    // Covered IPv4 and IPv6 endpoints and uncovered ones, enriched before
    // the audit: the lookup's own cost is the test above.
    let records: Vec<EnrichedMeasurement> = (0..RECORDS)
        .map(|i| {
            let endpoint = |r: &mut StdRng| {
                let city = r.gen_range(0..world.city_count());
                match r.gen_range(0..3u8) {
                    0 => IpAddress::V4(ipv4::Address(world.sample_v4(city, r))),
                    1 => IpAddress::V6(ipv6::Address(world.sample_v6(city, r))),
                    _ => IpAddress::V4(ipv4::Address(r.gen::<u32>().to_be_bytes())),
                }
            };
            let mut m = measurement([0; 4], [0; 4], i);
            m.src = endpoint(&mut rng);
            m.dst = endpoint(&mut rng);
            m.queue_id = rng.gen_range(0..4);
            enricher.enrich(&m)
        })
        .collect();

    // Warm-up, outside the audit: render each series' first record until
    // its columns have room for all of its audited rows. Columns grow by
    // doubling, so a series first written P + 1 times, P a power of two
    // of at least 4, holds P - 1 more rows without growing. Rendering
    // every series also sizes the reused point's tag strings for every
    // value.
    let mut series: HashMap<Vec<(String, String)>, (usize, usize)> = HashMap::new();
    for (i, em) in records.iter().enumerate() {
        series.entry(em.to_point().tags).or_insert((i, 0)).1 += 1;
    }
    let tsdb = Arc::new(TsDb::new());
    let mut renderer = Renderer::new(tsdb.stripe(u64::MAX));
    for &(first, rows) in series.values() {
        let p = (rows + 1).next_power_of_two().max(4);
        for _ in 0..=p {
            renderer.render(&records[first]);
        }
    }

    // What reserving one scratch block costs the allocator.
    let mut block = BytesMut::new();
    ruru_bench::take_hits();
    ruru_bench::arm();
    block.reserve(1);
    ruru_bench::disarm();
    let block_hits = ruru_bench::take_hits();
    drop(block);
    assert!(
        block_hits > 0,
        "render audit: a block reservation allocates"
    );

    // Each render audited on its own, so every hit is pinned to a record.
    let mut rendered: Vec<Rendered> = Vec::with_capacity(RECORDS);
    let mut hits: Vec<u64> = Vec::with_capacity(RECORDS);
    for em in &records {
        ruru_bench::take_hits();
        ruru_bench::arm();
        let out = renderer.render(em);
        ruru_bench::disarm();
        hits.push(ruru_bench::take_hits());
        rendered.push(out);
    }
    for (i, (out, &hits)) in rendered.iter().zip(&hits).enumerate() {
        let expected = if out.fresh_block { block_hits } else { 0 };
        assert_eq!(
            hits, expected,
            "render audit, record {i}: refill, stripe write and line allocate \
             nothing beyond a reported block reservation"
        );
    }
    let fresh = rendered.iter().filter(|out| out.fresh_block).count();
    assert!(
        (1..=RECORDS / 100).contains(&fresh),
        "render audit: one scratch block per many records, not per record: {fresh}"
    );

    // The audited renders are the real output.
    for (em, out) in records.iter().zip(&rendered) {
        assert_eq!(out.merged, 0, "the stripe never flushed");
        assert_eq!(&out.line[..], em.to_line().as_bytes());
    }
    assert!(
        series.len() > 100 && records.iter().any(|em| em.src.is_unknown()),
        "many series, some endpoints unknown: {} series",
        series.len()
    );
    assert_eq!(tsdb.points_ingested(), 0, "nothing merged yet");
}
