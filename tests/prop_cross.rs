//! Cross-crate property tests: invariants that must hold for *any* traffic,
//! fault pattern or parameterization.

use ruru::flow::classify::{classify, ChecksumMode};
use ruru::flow::{FlowKey, HandshakeTracker, TrackerConfig};
use ruru::gen::packet::{AddrPair, TcpPacketSpec};
use ruru::gen::{GenConfig, TrafficGen};
use ruru::nic::fault::{FaultConfig, FaultInjector};
use ruru::nic::rss::RssHasher;
use ruru::nic::Timestamp;
use ruru::wire::tcp::Flags;
use ruru::wire::{ipv4, IpAddress};
use ruru_prop::{check, vec, Rng, StdRng};

/// Cases per property: most of them drive a whole generated traffic mix.
const CASES: u32 = 24;

/// For any seed and rate, every generated flow is measured exactly once
/// and the measured components equal ground truth.
#[test]
fn tracker_matches_truth_for_any_traffic() {
    let gen = |rng: &mut StdRng| (rng.gen_range(0..1000), rng.gen_range(20.0..400.0));
    check("tracker_matches_truth_for_any_traffic", CASES, gen, |(seed, fps)| {
        let mut gen = TrafficGen::new(GenConfig {
            seed,
            flows_per_sec: fps,
            duration: Timestamp::from_millis(1500),
            data_exchanges: (0, 2),
            ..GenConfig::default()
        });
        let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
        let mut measured = 0u64;
        let mut sum_ext = 0u128;
        for ev in gen.by_ref() {
            let meta = classify(&ev.frame, ev.at, ChecksumMode::Validate).unwrap();
            if let Some(m) = tracker.process(&meta) {
                measured += 1;
                sum_ext += m.external_ns as u128;
            }
        }
        assert_eq!(measured, gen.truths().len() as u64);
        let truth_sum: u128 = gen.truths().iter().map(|t| t.external_ns as u128).sum();
        assert_eq!(sum_ext, truth_sum);
    });
}

/// Symmetric RSS is direction-invariant for arbitrary tuples.
#[test]
fn symmetric_rss_invariant() {
    let gen = |r: &mut StdRng| ([r.gen(), r.gen()], [r.gen(), r.gen()], r.gen_range(1..64));
    check("symmetric_rss_invariant", CASES, gen, |([src, dst], [sp, dp], queues)| {
        let h = RssHasher::symmetric(queues);
        let a = ipv4::Address::from_u32(src);
        let b = ipv4::Address::from_u32(dst);
        let fwd = h.hash_v4(a, b, sp, dp);
        let rev = h.hash_v4(b, a, dp, sp);
        assert_eq!(fwd, rev);
        assert!(h.queue_for(fwd) < queues);
    });
}

/// Both directions of any IPv4 or IPv6 tuple classify to one flow key and
/// one table hash, so the SYN and the SYN-ACK reach the same table entry.
#[test]
fn both_directions_classify_to_one_key_and_hash() {
    let gen = |r: &mut StdRng| {
        let pair = if r.gen() {
            AddrPair::V4(r.gen::<u32>().to_be_bytes(), r.gen::<u32>().to_be_bytes())
        } else {
            AddrPair::V6(r.gen::<u128>().to_be_bytes(), r.gen::<u128>().to_be_bytes())
        };
        (pair, [r.gen(), r.gen()])
    };
    // Two frames per case: cheap enough for the harness's full case count.
    let cases = ruru_prop::CASES;
    check("both_directions_classify_to_one_key_and_hash", cases, gen, |(pair, [sp, dp])| {
        let key_of = |pair: AddrPair, sp, dp| {
            let frame = TcpPacketSpec::control_pair(pair, sp, dp, 1, 0, Flags::SYN).build();
            let meta = classify(&frame, Timestamp::ZERO, ChecksumMode::Validate).unwrap();
            let (key, _) = FlowKey::from_tuple(meta.src, meta.dst, meta.src_port, meta.dst_port);
            key
        };
        let fwd = key_of(pair, sp, dp);
        let rev = key_of(pair.flipped(), dp, sp);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.table_hash(), rev.table_hash());
    });
}

/// Under arbitrary fault probabilities the tracker never measures more
/// flows than were generated, never crashes, and never emits a
/// negative/overflowed latency.
#[test]
fn faults_never_fabricate_flows() {
    let gen = |rng: &mut StdRng| {
        let seed = rng.gen_range(0u64..500);
        let faults = FaultConfig {
            drop: rng.gen_range(0.0..0.3),
            corrupt: rng.gen_range(0.0..0.2),
            duplicate: rng.gen_range(0.0..0.2),
            reorder: rng.gen_range(0.0..0.2),
        };
        (seed, faults)
    };
    check("faults_never_fabricate_flows", CASES, gen, |(seed, faults)| {
        let mut gen = TrafficGen::new(GenConfig {
            seed,
            flows_per_sec: 100.0,
            duration: Timestamp::from_millis(800),
            data_exchanges: (0, 1),
            ..GenConfig::default()
        });
        let mut injector = FaultInjector::new(faults, seed ^ 0xabcdef);
        let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
        let mut measured = 0u64;
        for ev in gen.by_ref() {
            for frame in injector.apply(ev.frame) {
                if let Ok(meta) = classify(&frame, ev.at, ChecksumMode::Validate) {
                    if let Some(m) = tracker.process(&meta) {
                        measured += 1;
                        assert!(m.total_ns() < 3_600_000_000_000, "sane latency");
                    }
                }
            }
        }
        assert!(measured <= gen.truths().len() as u64);
    });
}

/// Measurement wire-format roundtrip for arbitrary field values.
#[test]
fn measurement_codec_roundtrip() {
    let gen = |rng: &mut StdRng| ruru::flow::LatencyMeasurement {
        src: IpAddress::V4(ipv4::Address::from_u32(rng.gen())),
        dst: IpAddress::V4(ipv4::Address::from_u32(rng.gen())),
        src_port: rng.gen(),
        dst_port: rng.gen(),
        internal_ns: rng.gen(),
        external_ns: rng.gen(),
        completed_at: Timestamp::from_nanos(rng.gen()),
        queue_id: rng.gen(),
        syn_retransmissions: rng.gen(),
    };
    check("measurement_codec_roundtrip", CASES, gen, |m| {
        let mut wire = bytes::BytesMut::new();
        m.encode_into(&mut wire);
        assert_eq!(ruru::flow::LatencyMeasurement::decode(&wire), Some(m));
    });
}

/// The enriched line-protocol roundtrip holds for every city pair in
/// the synthetic world.
#[test]
fn enriched_line_roundtrip() {
    use ruru::analytics::{EndpointInfo, EnrichedMeasurement};
    let gen = |r: &mut StdRng| {
        let cities: [usize; 2] = [r.gen_range(0..42), r.gen_range(0..42)];
        (cities, [r.gen_range(0u64..10_000), r.gen_range(0u64..10_000)])
    };
    check("enriched_line_roundtrip", CASES, gen, |([city_a, city_b], [int_ms, ext_ms])| {
        let world = ruru::geo::SynthWorld::generate(1);
        let loc = |c: usize| {
            let l = world.city_location(c);
            EndpointInfo {
                country_code: l.country_code,
                city: l.city.clone(),
                lat: l.lat,
                lon: l.lon,
                asn: l.asn,
            }
        };
        let em = EnrichedMeasurement {
            src: loc(city_a),
            dst: loc(city_b),
            internal_ns: int_ms * 1_000_000,
            external_ns: ext_ms * 1_000_000,
            completed_at: Timestamp::from_millis(77),
            queue_id: 0,
        };
        let back = EnrichedMeasurement::from_line(&em.to_line()).unwrap();
        assert_eq!(back.src.city, em.src.city);
        assert_eq!(back.dst.asn, em.dst.asn);
        assert_eq!(back.internal_ns, em.internal_ns);
        assert_eq!(back.external_ns, em.external_ns);
    });
}

/// tsdb bucket counts always sum to the number of in-range points.
#[test]
fn tsdb_buckets_conserve_points() {
    use ruru::tsdb::{Point, Query, TsDb};
    let gen = |r: &mut StdRng| (vec(r, 1..200, |r| r.gen_range(0..10_000)), r.gen_range(1..5_000));
    check("tsdb_buckets_conserve_points", CASES, gen, |(timestamps, bucket_ns)| {
        let db = TsDb::new();
        for &ts in &timestamps {
            db.write(&Point::new("m", vec![], vec![("v".into(), 1.0)], ts));
        }
        let buckets = db.query(&Query::range("m", "v", 0, 10_000).with_buckets(bucket_ns));
        let total: usize = buckets.iter().filter_map(|b| b.agg.map(|a| a.count)).sum();
        assert_eq!(total, timestamps.len());
    });
}
