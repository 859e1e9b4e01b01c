//! Allocation audit of the enrichment worker's per-record work:
//!
//! * the lookup: enriching a record makes **no** heap allocation, whether
//!   the geo database covers its endpoints or not: a covered endpoint
//!   shares its location's city, and a missed one the enricher's unknown
//!   endpoint. Every endpoint is a distinct address, so no reuse of an
//!   earlier lookup can hide a per-endpoint cost;
//! * the render that follows it: appending the record's row to its
//!   stripe series and writing its PUB line into the scratch block makes
//!   **none** once the renderer has seen the records' locations and
//!   series, over several stripe rotations, the merges included, except
//!   in the few renders that report reserving a fresh scratch block,
//!   which make exactly what one block reservation makes. The audited
//!   rotations seal no chunk.
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
use ruru_analytics::{EnrichedMeasurement, Enricher, LocationPair, Rendered, Renderer};
use ruru_flow::LatencyMeasurement;
use ruru_geo::SynthWorld;
use ruru_nic::Timestamp;
use ruru_tsdb::TsDb;
use ruru_wire::{ipv4, ipv6, IpAddress};
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
) -> (Vec<(EnrichedMeasurement, LocationPair)>, u64) {
    let mut out = Vec::with_capacity(records.len());
    ruru_bench::take_hits();
    ruru_bench::arm();
    for m in records {
        out.push(enricher.locate(m));
    }
    ruru_bench::disarm();
    (out, ruru_bench::take_hits())
}

#[test]
fn enrichment_and_rendering_allocate_nothing() {
    enrichment_allocates_nothing();
    rendering_across_rotations_allocates_nothing();
}

fn enrichment_allocates_nothing() {
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
        enriched.iter().all(|(em, at)| {
            at.src.is_some() && at.dst.is_some() && !em.src.is_unknown() && !em.src.city.is_empty()
        }),
        "lookup audit: every covered endpoint resolves"
    );
    assert_eq!(hits, 0, "lookup audit: a covered endpoint shares its city");

    let (enriched, hits) = audited_pass(&mut enricher, &pairs(&uncovered));
    assert!(
        enriched.iter().all(|(em, at)| {
            *at == LocationPair { src: None, dst: None } && em.src.is_unknown() && em.dst.is_unknown()
        }),
        "lookup audit: every uncovered endpoint misses"
    );
    assert_eq!(hits, 0, "lookup audit: an uncovered endpoint touches no heap");

    assert_eq!(
        enricher.stats(),
        (4 * RECORDS as u64, 2 * RECORDS as u64),
        "lookup audit: every endpoint looked up once; the uncovered ones missed"
    );
}

/// Stripe rotations rendered before the audit, and audited.
const WARM_ROTATIONS: u64 = 5;
const AUDITED_ROTATIONS: u64 = 3;

fn rendering_across_rotations_allocates_nothing() {
    let world = SynthWorld::generate(2);
    let db = Arc::new(world.db().clone());
    let mut enricher = Enricher::new(Arc::clone(&db), 0);
    let mut rng = StdRng::seed_from_u64(12);
    // One rotation's records: covered IPv4 and IPv6 endpoints and
    // uncovered ones, enriched before the audit (the lookup's own cost is
    // the audit above).
    let cycle: Vec<(EnrichedMeasurement, LocationPair)> = (0..RECORDS)
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
            enricher.locate(&m)
        })
        .collect();
    let series: HashSet<Vec<(String, String)>> =
        cycle.iter().map(|(em, _)| em.to_point().tags).collect();
    let most_rows = series
        .iter()
        .map(|tags| cycle.iter().filter(|(em, _)| em.to_point().tags == *tags).count())
        .max()
        .unwrap_or(0);

    // Every rotation renders the cycle once, in time order, so each
    // series takes the same rows in each: its stripe buffers keep their
    // room, and its stored tail, which grows by doubling, last grew in
    // rotation 5 to 8 rotations' rows. That stays under a chunk, so no
    // rotation seals.
    assert!(8 * most_rows < 1024, "no seal: {most_rows} rows per series per rotation");
    let rotations = WARM_ROTATIONS + AUDITED_ROTATIONS;
    let records: Vec<(EnrichedMeasurement, LocationPair)> = (0..rotations)
        .flat_map(|r| {
            cycle.iter().enumerate().map(move |(i, (em, at))| {
                let mut em = em.clone();
                em.completed_at = Timestamp::from_nanos(1 + r * RECORDS as u64 + i as u64);
                (em, *at)
            })
        })
        .collect();
    let (warm, audited) = records.split_at((WARM_ROTATIONS * RECORDS as u64) as usize);
    let tsdb = Arc::new(TsDb::new());
    let mut renderer = Renderer::new(tsdb.stripe(RECORDS as u64));
    for (em, at) in warm {
        renderer.render(em, *at);
    }
    assert_eq!(tsdb.points_ingested(), warm.len() as u64, "every warm rotation merged");

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
    let sealed = tsdb.storage_stats().sealed_points;
    let mut rendered: Vec<Rendered> = Vec::with_capacity(audited.len());
    let mut hits: Vec<u64> = Vec::with_capacity(audited.len());
    for (em, at) in audited {
        ruru_bench::take_hits();
        ruru_bench::arm();
        let out = renderer.render(em, *at);
        ruru_bench::disarm();
        hits.push(ruru_bench::take_hits());
        rendered.push(out);
    }
    for (i, (out, &hits)) in rendered.iter().zip(&hits).enumerate() {
        let expected = if out.fresh_block { block_hits } else { 0 };
        assert_eq!(
            hits, expected,
            "render audit, record {i}: row append, merge and line allocate \
             nothing beyond a reported block reservation"
        );
    }
    let fresh = rendered.iter().filter(|out| out.fresh_block).count();
    assert!(
        (1..=audited.len() / 100).contains(&fresh),
        "render audit: one scratch block per many records, not per record: {fresh}"
    );
    assert_eq!(tsdb.storage_stats().sealed_points, sealed, "the audited rotations seal nothing");

    // The audited renders are the real output: every rotation merged,
    // and the lines and the store hold what the records' points say.
    let flushes = rendered.iter().filter(|out| out.merged > 0).count() as u64;
    assert_eq!(flushes, AUDITED_ROTATIONS, "one merge per audited rotation");
    assert_eq!(tsdb.points_ingested(), records.len() as u64);
    for ((em, _), out) in audited.iter().zip(&rendered) {
        assert_eq!(&out.line[..], em.to_line().as_bytes());
    }
    let reference = TsDb::new();
    reference.write_batch(records.iter().map(|(em, _)| em.to_point()).collect());
    assert_eq!(tsdb.to_snapshot(), reference.to_snapshot());
    assert!(
        series.len() > 100 && cycle.iter().any(|(em, _)| em.src.is_unknown()),
        "many series, some endpoints unknown: {} series",
        series.len()
    );
}
