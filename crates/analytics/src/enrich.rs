//! Geo/AS enrichment and privacy scrubbing.
//!
//! An [`EnrichedMeasurement`] carries *no IP addresses* — once the geo and
//! AS lookups are done, the original addresses are dropped, as the paper
//! requires. What remains is exactly what the tsdb indexes and the frontend
//! draws: locations, AS numbers, and the three latency components.

use crate::render::LatencyLine;
use bytes::{BufMut, BytesMut};
use core::fmt::{self, Write};
use ruru_flow::LatencyMeasurement;
use ruru_geo::GeoDb;
use ruru_nic::Timestamp;
use ruru_tsdb::Point;
use std::sync::Arc;

/// Wire length of the fixed binary enriched record.
pub const ENRICHED_WIRE_LEN: usize = 122;

/// Longest city name the binary form carries; longer names are truncated
/// at a UTF-8 character boundary.
pub const MAX_CITY_BYTES: usize = 32;

const ENRICHED_VERSION: u8 = 1;
/// cc(2) + asn(4) + lat(4) + lon(4) + city_len(1) + city(32)
const ENDPOINT_WIRE_LEN: usize = 47;

/// The measurement every enriched record is stored and published under.
const LATENCY: &str = "latency";

/// Tag names of a `latency` point, in the sorted order a normalized point
/// keeps. With [`LATENCY_FIELDS`], the one name table behind
/// [`EnrichedMeasurement::to_point`], its in-place refill and its line.
pub(crate) const LATENCY_TAGS: [&str; 7] = [
    "dst_asn", "dst_cc", "dst_city", "queue", "src_asn", "src_cc", "src_city",
];

/// Field names of a `latency` point, in the order they are written.
pub(crate) const LATENCY_FIELDS: [&str; 7] = [
    "internal_ms",
    "external_ms",
    "total_ms",
    "src_lat",
    "src_lon",
    "dst_lat",
    "dst_lon",
];

/// An empty `latency` point, named from [`LATENCY_TAGS`] and
/// [`LATENCY_FIELDS`]: what [`EnrichedMeasurement::refill`] fills.
pub(crate) fn latency_template() -> Point {
    Point::new(
        LATENCY,
        LATENCY_TAGS.map(|k| (k.into(), String::new())).into(),
        LATENCY_FIELDS.map(|k| (k.into(), 0.0)).into(),
        0,
    )
}

/// One `latency` tag value, written without building a `String` first.
enum TagValue<'a> {
    Text(&'a str),
    Number(u32),
}

impl fmt::Display for TagValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TagValue::Text(s) => f.write_str(s),
            TagValue::Number(n) => fmt::Display::fmt(n, f),
        }
    }
}

/// Geographic summary of one endpoint (IP removed).
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointInfo {
    /// ISO country code (`"??"` when the lookup missed).
    pub country_code: [u8; 2],
    /// City name (empty when unknown), shared with the geo database's
    /// location row.
    pub city: Arc<str>,
    /// Latitude.
    pub lat: f32,
    /// Longitude.
    pub lon: f32,
    /// AS number (0 when unknown).
    pub asn: u32,
}

impl EndpointInfo {
    /// The placeholder for addresses the database does not cover.
    fn unknown() -> EndpointInfo {
        EndpointInfo {
            country_code: *b"??",
            city: "".into(),
            lat: 0.0,
            lon: 0.0,
            asn: 0,
        }
    }

    /// True if the lookup failed.
    pub fn is_unknown(&self) -> bool {
        self.country_code == *b"??"
    }

    /// Country code as `&str`.
    pub(crate) fn cc_str(&self) -> &str {
        core::str::from_utf8(&self.country_code).unwrap_or("??")
    }
}

/// A geo-enriched, IP-free latency measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrichedMeasurement {
    /// The initiator's location.
    pub src: EndpointInfo,
    /// The responder's location.
    pub dst: EndpointInfo,
    /// Internal latency (ns).
    pub internal_ns: u64,
    /// External latency (ns).
    pub external_ns: u64,
    /// Handshake completion time.
    pub completed_at: Timestamp,
    /// Measuring queue.
    pub queue_id: u16,
}

impl EnrichedMeasurement {
    /// Total latency in ns.
    pub fn total_ns(&self) -> u64 {
        self.internal_ns + self.external_ns
    }

    /// Tag values in [`LATENCY_TAGS`] order.
    fn tag_values(&self) -> [TagValue<'_>; 7] {
        use TagValue::{Number, Text};
        [
            Number(self.dst.asn),
            Text(self.dst.cc_str()),
            Text(&self.dst.city),
            Number(self.queue_id.into()),
            Number(self.src.asn),
            Text(self.src.cc_str()),
            Text(&self.src.city),
        ]
    }

    /// Field values in [`LATENCY_FIELDS`] order.
    pub(crate) fn field_values(&self) -> [f64; 7] {
        [
            self.internal_ns as f64 / 1e6,
            self.external_ns as f64 / 1e6,
            self.total_ns() as f64 / 1e6,
            self.src.lat as f64,
            self.src.lon as f64,
            self.dst.lat as f64,
            self.dst.lon as f64,
        ]
    }

    /// Convert to a tsdb point on the `latency` measurement, tagged by
    /// country / city / ASN of both sides.
    pub fn to_point(&self) -> Point {
        let mut p = latency_template();
        self.refill(&mut p);
        p
    }

    /// Overwrite the values of `p`, a [`latency_template`] or a point an
    /// earlier refill filled, so that it equals
    /// [`EnrichedMeasurement::to_point`]. The names stay, and the tag
    /// strings keep their capacity, so a refill allocates only when a tag
    /// value outgrows every earlier value of its tag.
    pub(crate) fn refill(&self, p: &mut Point) {
        debug_assert!(
            p.measurement == LATENCY
                && p.tags.iter().map(|(k, _)| k.as_str()).eq(LATENCY_TAGS)
                && p.fields.iter().map(|(k, _)| k.as_str()).eq(LATENCY_FIELDS),
            "refill needs a latency_template: {p:?}"
        );
        for ((_, slot), value) in p.tags.iter_mut().zip(self.tag_values()) {
            slot.clear();
            // Writing into a `String` cannot fail.
            let _ = write!(slot, "{value}");
        }
        for ((_, slot), value) in p.fields.iter_mut().zip(self.field_values()) {
            *slot = value;
        }
        p.timestamp_ns = self.completed_at.as_nanos();
    }

    /// Encode as a line-protocol string: the PUB edge's payload, which
    /// external subscribers parse. Byte for byte
    /// `line::encode(&self.to_point())`, written by the renderer's line
    /// layout from endpoint text formatted on the spot.
    pub fn to_line(&self) -> String {
        // Room for a typical line (about 280 bytes) in one allocation.
        let mut out = String::with_capacity(384);
        // Writing into a `String` cannot fail.
        let _ = LatencyLine::new(self, &self.src, &self.dst).write(&mut out);
        out
    }

    /// Append the fixed binary wire form to `buf` (exactly
    /// [`ENRICHED_WIRE_LEN`] bytes). The pipeline hands records to its
    /// detector as values; this form is what the traced benchmark replay
    /// and experiment E8 move as bytes. Capacity management is the
    /// caller's.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.reserve(ENRICHED_WIRE_LEN);
        buf.put_u8(ENRICHED_VERSION);
        buf.put_u8(0); // reserved
        buf.put_u16_le(self.queue_id);
        buf.put_u64_le(self.internal_ns);
        buf.put_u64_le(self.external_ns);
        buf.put_u64_le(self.completed_at.as_nanos());
        encode_endpoint(&self.src, buf);
        encode_endpoint(&self.dst, buf);
        debug_assert_eq!(buf.len() - start, ENRICHED_WIRE_LEN);
    }

    /// Decode from the binary wire form; `None` on wrong length, wrong
    /// version, an out-of-range city length, or non-UTF-8 city bytes.
    pub fn decode(data: &[u8]) -> Option<EnrichedMeasurement> {
        if data.len() != ENRICHED_WIRE_LEN || data[0] != ENRICHED_VERSION {
            return None;
        }
        let rd16 = |at: usize| u16::from_le_bytes(data[at..at + 2].try_into().unwrap());
        let rd64 = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().unwrap());
        Some(EnrichedMeasurement {
            src: decode_endpoint(&data[28..28 + ENDPOINT_WIRE_LEN])?,
            dst: decode_endpoint(&data[28 + ENDPOINT_WIRE_LEN..])?,
            internal_ns: rd64(4),
            external_ns: rd64(12),
            completed_at: Timestamp::from_nanos(rd64(20)),
            queue_id: rd16(2),
        })
    }

    /// Decode from the line-protocol form.
    #[allow(clippy::disallowed_methods)] // sanctioned: legacy text ingest, off the capture loop
    pub fn from_line(line: &str) -> Option<EnrichedMeasurement> {
        let p = ruru_tsdb::line::parse(line).ok()?;
        if p.measurement != "latency" {
            return None;
        }
        let cc = |t: Option<&str>| -> [u8; 2] {
            t.and_then(|s| s.as_bytes().try_into().ok()).unwrap_or(*b"??")
        };
        Some(EnrichedMeasurement {
            src: EndpointInfo {
                country_code: cc(p.tag("src_cc")),
                city: p.tag("src_city").unwrap_or("").into(),
                lat: p.field("src_lat")? as f32,
                lon: p.field("src_lon")? as f32,
                asn: p.tag("src_asn")?.parse().ok()?,
            },
            dst: EndpointInfo {
                country_code: cc(p.tag("dst_cc")),
                city: p.tag("dst_city").unwrap_or("").into(),
                lat: p.field("dst_lat")? as f32,
                lon: p.field("dst_lon")? as f32,
                asn: p.tag("dst_asn")?.parse().ok()?,
            },
            internal_ns: (p.field("internal_ms")? * 1e6).round() as u64,
            external_ns: (p.field("external_ms")? * 1e6).round() as u64,
            completed_at: Timestamp::from_nanos(p.timestamp_ns),
            queue_id: p.tag("queue").and_then(|q| q.parse().ok()).unwrap_or(0),
        })
    }
}

fn encode_endpoint(ep: &EndpointInfo, buf: &mut BytesMut) {
    buf.put_slice(&ep.country_code);
    buf.put_u32_le(ep.asn);
    buf.put_f32_le(ep.lat);
    buf.put_f32_le(ep.lon);
    // Truncate over-long city names at a char boundary so the fixed field
    // always holds valid UTF-8.
    let city = ep.city.as_bytes();
    let mut end = city.len().min(MAX_CITY_BYTES);
    while !ep.city.is_char_boundary(end) {
        end -= 1;
    }
    buf.put_u8(end as u8);
    buf.put_slice(&city[..end]);
    buf.put_bytes(0, MAX_CITY_BYTES - end);
}

fn decode_endpoint(data: &[u8]) -> Option<EndpointInfo> {
    debug_assert_eq!(data.len(), ENDPOINT_WIRE_LEN);
    let city_len = data[14] as usize;
    if city_len > MAX_CITY_BYTES {
        return None;
    }
    let city = core::str::from_utf8(&data[15..15 + city_len]).ok()?;
    Some(EndpointInfo {
        country_code: data[..2].try_into().unwrap(),
        asn: u32::from_le_bytes(data[2..6].try_into().unwrap()),
        lat: f32::from_le_bytes(data[6..10].try_into().unwrap()),
        lon: f32::from_le_bytes(data[10..14].try_into().unwrap()),
        // One shared city per decoded record.
        city: city.into(),
    })
}

/// Where an enriched record's endpoints are in the geo database's
/// location table, `None` for an endpoint it does not cover: what the
/// [`crate::Renderer`] keeps per-location text under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationPair {
    /// The initiator's location index.
    pub src: Option<u32>,
    /// The responder's location index.
    pub dst: Option<u32>,
}

/// One worker's enricher: a lookup in the shared database per endpoint.
pub struct Enricher {
    db: Arc<GeoDb>,
    lookups: u64,
    misses: u64,
    /// What every missed endpoint becomes; cloning it shares its city.
    unknown: EndpointInfo,
}

impl Enricher {
    /// Create an enricher over `db`. The `usize` is ignored; the argument
    /// is kept only for perfbench's traced replay, and ROADMAP item 2's
    /// benchmark change removes it.
    pub fn new(db: Arc<GeoDb>, _unused: usize) -> Enricher {
        Enricher {
            db,
            lookups: 0,
            misses: 0,
            unknown: EndpointInfo::unknown(),
        }
    }

    /// Look up one address, returning its endpoint and location index;
    /// the shared unknown endpoint when the database does not cover it.
    /// Either way the city is shared, not copied: no allocation.
    fn lookup(&mut self, key: u128) -> (EndpointInfo, Option<u32>) {
        self.lookups += 1;
        match self.db.lookup(key) {
            Some((at, loc)) => {
                let endpoint = EndpointInfo {
                    country_code: loc.country_code,
                    city: Arc::clone(&loc.city),
                    lat: loc.lat,
                    lon: loc.lon,
                    asn: loc.asn,
                };
                (endpoint, Some(at))
            }
            None => {
                self.misses += 1;
                (self.unknown.clone(), None)
            }
        }
    }

    /// Enrich one measurement, discarding its IP addresses.
    pub fn enrich(&mut self, m: &LatencyMeasurement) -> EnrichedMeasurement {
        self.locate(m).0
    }

    /// Enrich one measurement, discarding its IP addresses, and say where
    /// its endpoints are in the location table.
    pub fn locate(&mut self, m: &LatencyMeasurement) -> (EnrichedMeasurement, LocationPair) {
        let (src, src_at) = self.lookup(m.src.as_u128());
        let (dst, dst_at) = self.lookup(m.dst.as_u128());
        let em = EnrichedMeasurement {
            src,
            dst,
            internal_ns: m.internal_ns,
            external_ns: m.external_ns,
            completed_at: m.completed_at,
            queue_id: m.queue_id,
        };
        (em, LocationPair { src: src_at, dst: dst_at })
    }

    /// `(lookups, db_misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }

    /// Always `(0, lookups)`: there is no cache. Kept only for perfbench's
    /// traced replay; ROADMAP item 2's benchmark change removes it.
    pub fn cache_stats(&self) -> (u64, u64) {
        (0, self.lookups)
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ruru_geo::synth::{SynthWorld, AUCKLAND, LOS_ANGELES};
    use ruru_wire::{ipv4, ipv6, IpAddress};

    fn world_enricher() -> (SynthWorld, Enricher) {
        let w = SynthWorld::generate(2);
        let db = Arc::new(w.db().clone());
        (w, Enricher::new(db, 128))
    }

    fn measurement(src: [u8; 4], dst: [u8; 4]) -> LatencyMeasurement {
        LatencyMeasurement {
            src: IpAddress::V4(ipv4::Address(src)),
            dst: IpAddress::V4(ipv4::Address(dst)),
            src_port: 51000,
            dst_port: 443,
            internal_ns: 1_200_000,
            external_ns: 128_700_000,
            completed_at: Timestamp::from_millis(42),
            queue_id: 1,
            syn_retransmissions: 0,
        }
    }

    #[test]
    fn enrichment_resolves_both_sides() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(1);
        let src = w.sample_v4(AUCKLAND, &mut rng);
        let dst = w.sample_v4(LOS_ANGELES, &mut rng);
        let em = e.enrich(&measurement(src, dst));
        assert_eq!(&*em.src.city, "Auckland");
        assert_eq!(em.src.cc_str(), "NZ");
        assert_eq!(&*em.dst.city, "Los Angeles");
        assert_eq!(em.dst.cc_str(), "US");
        assert!(em.src.asn >= 64000);
        assert_eq!(em.total_ns(), 129_900_000);
    }

    #[test]
    fn unknown_addresses_become_placeholder() {
        let (_w, mut e) = world_enricher();
        let em = e.enrich(&measurement([9, 9, 9, 9], [8, 8, 8, 8]));
        assert!(em.src.is_unknown());
        assert!(em.dst.is_unknown());
        assert_eq!(e.stats().1, 2);
    }

    /// A random endpoint: a sampled address of a random city (v4 or v6),
    /// or a random IPv4 address the database may not cover.
    fn random_address(w: &SynthWorld, rng: &mut StdRng) -> IpAddress {
        let city = rng.gen_range(0..w.city_count());
        match rng.gen_range(0..3u8) {
            0 => IpAddress::V4(ipv4::Address(w.sample_v4(city, rng))),
            1 => IpAddress::V6(ipv6::Address(w.sample_v6(city, rng))),
            _ => IpAddress::V4(ipv4::Address(rng.gen::<u32>().to_be_bytes())),
        }
    }

    #[test]
    fn enrich_matches_direct_database_lookups() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(2);
        let mut misses = 0u64;
        for _ in 0..500 {
            let mut m = measurement([0; 4], [0; 4]);
            m.src = random_address(&w, &mut rng);
            m.dst = random_address(&w, &mut rng);
            let em = e.enrich(&m);
            for (ip, info) in [(m.src, &em.src), (m.dst, &em.dst)] {
                match w.db().lookup_key(ip.as_u128()) {
                    Some(loc) => {
                        assert_eq!(info.country_code, loc.country_code, "{ip}");
                        assert_eq!(info.city, loc.city, "{ip}");
                        assert_eq!(info.asn, loc.asn, "{ip}");
                        assert_eq!(info.lat, loc.lat, "{ip}");
                        assert_eq!(info.lon, loc.lon, "{ip}");
                    }
                    None => {
                        assert_eq!(*info, EndpointInfo::unknown(), "{ip}");
                        misses += 1;
                    }
                }
            }
        }
        assert!(
            misses > 0 && misses < 1000,
            "both outcomes exercised: {misses}"
        );
        assert_eq!(e.stats(), (1000, misses));
    }

    /// A city name of characters the line protocol escapes, multibyte
    /// characters and plain ones, possibly empty.
    fn random_city(rng: &mut StdRng) -> String {
        const CHARS: [char; 12] = ['a', 'Z', '0', '-', ' ', ',', '=', '\\', 'é', 'Ā', '北', '😀'];
        (0..rng.gen_range(0..12))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect()
    }

    /// A finite `f32` from random bits: subnormal, huge and everything
    /// between.
    fn random_coordinate(rng: &mut StdRng) -> f32 {
        let x = f32::from_bits(rng.gen());
        if x.is_finite() {
            x
        } else {
            0.0
        }
    }

    /// The `latency` point as built field by field, with owned strings and
    /// a tag sort: the reference `to_point` and its refill must match.
    fn reference_point(em: &EnrichedMeasurement) -> Point {
        let tag = |k: &str, v: String| (k.to_string(), v);
        Point::new(
            "latency",
            vec![
                tag("queue", em.queue_id.to_string()),
                tag("src_cc", em.src.cc_str().to_string()),
                tag("src_city", em.src.city.to_string()),
                tag("src_asn", em.src.asn.to_string()),
                tag("dst_cc", em.dst.cc_str().to_string()),
                tag("dst_city", em.dst.city.to_string()),
                tag("dst_asn", em.dst.asn.to_string()),
            ],
            vec![
                ("internal_ms".into(), em.internal_ns as f64 / 1e6),
                ("external_ms".into(), em.external_ns as f64 / 1e6),
                ("total_ms".into(), em.total_ns() as f64 / 1e6),
                ("src_lat".into(), em.src.lat as f64),
                ("src_lon".into(), em.src.lon as f64),
                ("dst_lat".into(), em.dst.lat as f64),
                ("dst_lon".into(), em.dst.lon as f64),
            ],
            em.completed_at.as_nanos(),
        )
    }

    /// Differential: over random records (covered and unknown endpoints,
    /// IPv4 and IPv6, cities that need escaping or are multibyte, odd
    /// country codes and coordinates, latencies up to 2^62 ns), the line
    /// written without a point is byte for byte `line::encode` of
    /// `to_point()`, and `to_point()` and a refill of one reused point
    /// both equal the reference point.
    #[test]
    fn line_and_refill_match_the_point_byte_for_byte() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(8);
        let mut reused = latency_template();
        let codes: [[u8; 2]; 5] = [*b"NZ", *b"??", *b",=", *b"\\ ", [0xff, 0]];
        let (mut unknown, mut v6, mut escaped) = (0, 0, 0);
        for i in 0..4000 {
            let mut m = measurement([0; 4], [0; 4]);
            m.src = random_address(&w, &mut rng);
            m.dst = random_address(&w, &mut rng);
            let bits = rng.gen_range(0..=62);
            m.internal_ns = rng.gen_range(0..=1u64 << bits);
            m.external_ns = rng.gen_range(0..=1u64 << 62);
            m.completed_at = Timestamp::from_nanos(rng.gen());
            m.queue_id = rng.gen();
            v6 += usize::from(matches!(m.src, IpAddress::V6(_)));
            let mut em = e.enrich(&m);
            unknown += usize::from(em.src.is_unknown() || em.dst.is_unknown());
            if i % 2 == 0 {
                em.src.city = random_city(&mut rng).into();
                em.dst.city = random_city(&mut rng).into();
                em.dst.country_code = codes[rng.gen_range(0..codes.len())];
                em.src.lat = random_coordinate(&mut rng);
                em.dst.lon = random_coordinate(&mut rng);
            }
            let point = em.to_point();
            assert_eq!(point, reference_point(&em), "{em:?}");
            let line = em.to_line();
            escaped += usize::from(line.contains('\\'));
            assert_eq!(line, ruru_tsdb::line::encode(&point), "{em:?}");
            em.refill(&mut reused);
            assert_eq!(reused, point, "{em:?}");
        }
        assert!(
            unknown > 100 && v6 > 100 && escaped > 1000,
            "every kind exercised: {unknown} unknown, {v6} IPv6, {escaped} escaped"
        );
    }

    #[test]
    fn line_roundtrip_preserves_fields() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(3);
        let src = w.sample_v4(AUCKLAND, &mut rng);
        let dst = w.sample_v4(LOS_ANGELES, &mut rng);
        let em = e.enrich(&measurement(src, dst));
        let line = em.to_line();
        let back = EnrichedMeasurement::from_line(&line).unwrap();
        assert_eq!(back.src.city, em.src.city);
        assert_eq!(back.dst.asn, em.dst.asn);
        assert_eq!(back.internal_ns, em.internal_ns);
        assert_eq!(back.external_ns, em.external_ns);
        assert_eq!(back.completed_at, em.completed_at);
        assert_eq!(back.queue_id, em.queue_id, "queue survives the line");
    }

    #[test]
    fn privacy_no_ip_in_wire_form() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(4);
        let src = w.sample_v4(AUCKLAND, &mut rng);
        let dst = w.sample_v4(LOS_ANGELES, &mut rng);
        let em = e.enrich(&measurement(src, dst));
        let line = em.to_line();
        let src_str = format!("{}.{}.{}.{}", src[0], src[1], src[2], src[3]);
        let dst_str = format!("{}.{}.{}.{}", dst[0], dst[1], dst[2], dst[3]);
        assert!(!line.contains(&src_str), "line leaks src IP: {line}");
        assert!(!line.contains(&dst_str), "line leaks dst IP: {line}");
    }

    /// The binary wire form of `em`.
    fn wire(em: &EnrichedMeasurement) -> BytesMut {
        let mut buf = BytesMut::new();
        em.encode_into(&mut buf);
        buf
    }

    fn enriched(src_city: &str, dst_city: &str) -> EnrichedMeasurement {
        EnrichedMeasurement {
            src: EndpointInfo {
                country_code: *b"NZ",
                city: src_city.into(),
                lat: -36.8485,
                lon: 174.7633,
                asn: 64010,
            },
            dst: EndpointInfo {
                country_code: *b"US",
                city: dst_city.into(),
                lat: 34.0522,
                lon: -118.2437,
                asn: 64020,
            },
            internal_ns: 1_200_000,
            external_ns: 128_700_000,
            completed_at: Timestamp::from_millis(42),
            queue_id: 3,
        }
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let em = enriched("Auckland", "Los Angeles");
        let wire = wire(&em);
        assert_eq!(wire.len(), ENRICHED_WIRE_LEN);
        assert_eq!(EnrichedMeasurement::decode(&wire), Some(em));
    }

    #[test]
    fn binary_roundtrip_empty_and_max_length_city() {
        let max = "m".repeat(MAX_CITY_BYTES);
        for (s, d) in [("", ""), (max.as_str(), "x")] {
            let em = enriched(s, d);
            let back = EnrichedMeasurement::decode(&wire(&em)).unwrap();
            assert_eq!(back, em);
        }
    }

    #[test]
    fn binary_truncates_long_city_at_char_boundary() {
        // 12 × 'Ā' = 24 bytes, + "city" = 28; 3 more 'Ā's would cross the
        // 32-byte cap mid-character.
        let long = format!("{}city{}", "Ā".repeat(12), "Ā".repeat(8));
        let em = enriched(&long, "ok");
        let back = EnrichedMeasurement::decode(&wire(&em)).unwrap();
        assert!(back.src.city.len() <= MAX_CITY_BYTES);
        assert!(long.starts_with(&*back.src.city));
        assert_eq!(&*back.src.city, format!("{}city{}", "Ā".repeat(12), "Ā".repeat(2)));
        assert_eq!(&*back.dst.city, "ok");

        // "x" + 20×'Ā' puts every boundary on an odd offset, so the 32-byte
        // cap lands mid-character and must back off to 31.
        let awkward = format!("x{}", "Ā".repeat(20));
        let em = enriched(&awkward, "ok");
        let back = EnrichedMeasurement::decode(&wire(&em)).unwrap();
        assert_eq!(back.src.city.len(), 31);
        assert!(awkward.starts_with(&*back.src.city));
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        let em = enriched("Auckland", "Los Angeles");
        let wire = wire(&em);
        assert_eq!(EnrichedMeasurement::decode(&wire[..wire.len() - 1]), None);
        assert_eq!(EnrichedMeasurement::decode(&[]), None);
        assert_eq!(EnrichedMeasurement::decode(&[0u8; ENRICHED_WIRE_LEN]), None);
        let mut bad_ver = wire.to_vec();
        bad_ver[0] = 7;
        assert_eq!(EnrichedMeasurement::decode(&bad_ver), None);
        let mut bad_city_len = wire.to_vec();
        bad_city_len[28 + 14] = (MAX_CITY_BYTES + 1) as u8;
        assert_eq!(EnrichedMeasurement::decode(&bad_city_len), None);
        let mut bad_utf8 = wire.to_vec();
        bad_utf8[28 + 15] = 0xFF;
        assert_eq!(EnrichedMeasurement::decode(&bad_utf8), None);
    }

    #[test]
    fn binary_and_line_decodes_agree() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(6);
        let src = w.sample_v4(AUCKLAND, &mut rng);
        let dst = w.sample_v4(LOS_ANGELES, &mut rng);
        let em = e.enrich(&measurement(src, dst));
        let from_bin = EnrichedMeasurement::decode(&wire(&em)).unwrap();
        let from_line = EnrichedMeasurement::from_line(&em.to_line()).unwrap();
        assert_eq!(from_bin, em, "binary is lossless");
        assert_eq!(from_bin.src.city, from_line.src.city);
        assert_eq!(from_bin.dst.asn, from_line.dst.asn);
        assert_eq!(from_bin.internal_ns, from_line.internal_ns);
        assert_eq!(from_bin.external_ns, from_line.external_ns);
        assert_eq!(from_bin.completed_at, from_line.completed_at);
        assert_eq!(from_bin.queue_id, from_line.queue_id);
    }

    #[test]
    fn to_point_has_indexable_tags() {
        let (w, mut e) = world_enricher();
        let mut rng = StdRng::seed_from_u64(5);
        let m = measurement(
            w.sample_v4(AUCKLAND, &mut rng),
            w.sample_v4(LOS_ANGELES, &mut rng),
        );
        let p = e.enrich(&m).to_point();
        assert_eq!(p.tag("src_city"), Some("Auckland"));
        assert_eq!(p.tag("dst_cc"), Some("US"));
        assert!(p.field("total_ms").unwrap() > 100.0);
        assert_eq!(p.timestamp_ns, Timestamp::from_millis(42).as_nanos());
    }
}
