//! Rendering an enriched record for its two sinks: a row of the tsdb
//! stripe and the line-protocol line the PUB edge publishes.
//!
//! Most of a `latency` line depends only on the two locations: their AS
//! numbers, country codes and city names (escaped), and their
//! coordinates. The enrichment worker's [`Renderer`] builds that text once
//! per location, on the location's first sight, and resolves the stripe
//! series once per (source, destination, queue) triple. After that a
//! record costs its three latencies, written from integers, its
//! timestamp, and one typed row append. The one line layout,
//! [`LatencyLine`], also writes [`EnrichedMeasurement::to_line`] from
//! parts built on the spot, and both are byte for byte
//! `line::encode(&em.to_point())`.

use crate::enrich::{
    latency_template, EndpointInfo, EnrichedMeasurement, LocationPair, LATENCY_FIELDS, LATENCY_TAGS,
};
use bytes::{Bytes, BytesMut};
use core::fmt::{self, Write};
use core::hash::{BuildHasherDefault, Hasher};
use ruru_tsdb::{line, Point, SeriesHandle, StripeWriter};
use std::collections::HashMap;

/// Scratch-block size for the per-worker PUB line buffer.
const SCRATCH_CHUNK: usize = 64 * 1024;

/// The location key of an endpoint the geo database does not cover.
const UNKNOWN: u32 = u32::MAX;

/// Which end of the record an endpoint is: its tags and coordinates are
/// named for it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    Src,
    Dst,
}

impl Side {
    /// The names of this side's AS, country and city tags.
    fn tags(self) -> [&'static str; 3] {
        let [dst_asn, dst_cc, dst_city, _, src_asn, src_cc, src_city] = LATENCY_TAGS;
        match self {
            Side::Src => [src_asn, src_cc, src_city],
            Side::Dst => [dst_asn, dst_cc, dst_city],
        }
    }

    /// The names of this side's latitude and longitude fields.
    fn coords(self) -> [&'static str; 2] {
        let [.., src_lat, src_lon, dst_lat, dst_lon] = LATENCY_FIELDS;
        match self {
            Side::Src => [src_lat, src_lon],
            Side::Dst => [dst_lat, dst_lon],
        }
    }
}

/// One endpoint's text in a `latency` line: its `name=value` pairs for
/// one side, tags (`asn`, escaped `cc` and `city`) and coordinates
/// (`f64`'s `Display` of the `f32`s).
pub(crate) trait EndpointText {
    /// Write the endpoint's three tag pairs, comma-separated.
    fn write_tags<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result;
    /// Write the endpoint's two coordinate pairs, comma-separated.
    fn write_coords<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result;
}

/// An endpoint formats its text on the spot.
impl EndpointText for EndpointInfo {
    fn write_tags<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result {
        let [asn, cc, city] = side.tags();
        write!(out, "{asn}={},{cc}=", self.asn)?;
        line::write_escaped(out, self.cc_str())?;
        write!(out, ",{city}=")?;
        line::write_escaped(out, &self.city)
    }

    fn write_coords<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result {
        let [lat, lon] = side.coords();
        write!(out, "{lat}={},{lon}={}", f64::from(self.lat), f64::from(self.lon))
    }
}

/// One location's endpoint text, built once: its tags and coordinates
/// for either side, one after the other in one string.
struct LocationText {
    text: String,
    /// Where the source tags, destination tags, source coordinates and
    /// destination coordinates end in `text`.
    ends: [usize; 4],
}

impl LocationText {
    fn new(endpoint: &EndpointInfo) -> LocationText {
        let mut text = String::new();
        let mut ends = [0; 4];
        // Writing into a `String` cannot fail.
        let _ = endpoint.write_tags(Side::Src, &mut text);
        ends[0] = text.len();
        let _ = endpoint.write_tags(Side::Dst, &mut text);
        ends[1] = text.len();
        let _ = endpoint.write_coords(Side::Src, &mut text);
        ends[2] = text.len();
        let _ = endpoint.write_coords(Side::Dst, &mut text);
        ends[3] = text.len();
        LocationText { text, ends }
    }

    /// Segment `at` of `text`.
    fn segment(&self, at: usize) -> &str {
        let start = at.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.text[start..self.ends[at]]
    }
}

impl EndpointText for LocationText {
    fn write_tags<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result {
        out.write_str(self.segment(side as usize))
    }

    fn write_coords<W: Write + ?Sized>(&self, side: Side, out: &mut W) -> fmt::Result {
        out.write_str(self.segment(2 + side as usize))
    }
}

/// A `u64` in decimal, written into a stack buffer.
struct Digits {
    buf: [u8; 20],
    start: usize,
}

impl Digits {
    fn new(mut n: u64) -> Digits {
        let mut buf = [0; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                return Digits { buf, start };
            }
        }
    }

    fn as_str(&self) -> &str {
        // Only ASCII digits were written.
        core::str::from_utf8(&self.buf[self.start..]).unwrap_or_default()
    }
}

/// A latency of `ns` nanoseconds as the line writes it in milliseconds:
/// byte for byte `f64`'s `Display` of `ns as f64 / 1e6`, in a stack
/// buffer.
///
/// Below 10^15 ns it is written from integers: the exact decimal
/// ns/10^6 with its trailing zeros dropped. That is what `Display`
/// writes there. `ns` is below 2^53, so it converts exactly, and the
/// division by 1e6 (also exact) rounds correctly to the nearest `f64`.
/// The quotient has at most 15 significant digits, and a decimal of at
/// most 15 significant digits round-trips through `f64`, so no other
/// decimal as short maps to the same `f64`: the quotient is the shortest
/// round-trip form `Display` writes. From 10^15 on it is `Display`.
struct Millis {
    buf: [u8; 32],
    len: usize,
}

impl Millis {
    /// Below this many ns the integer form is exact.
    const EXACT_BELOW: u64 = 1_000_000_000_000_000;

    fn new(ns: u64) -> Millis {
        let mut ms = Millis {
            buf: [0; 32],
            len: 0,
        };
        if ns < Millis::EXACT_BELOW {
            let (whole, frac) = (ns / 1_000_000, ns % 1_000_000);
            ms.push(Digits::new(whole).as_str().as_bytes());
            if frac != 0 {
                let digits = Digits::new(1_000_000 + frac);
                // Skip the leading 1; keep the six digits up to the
                // last non-zero one.
                let six = &digits.as_str().as_bytes()[1..];
                let kept = six.iter().rposition(|&d| d != b'0').map_or(0, |at| at + 1);
                ms.push(b".");
                ms.push(&six[..kept]);
            }
        } else {
            // The longest such value, 2^64 - 1 ns, takes 18 bytes.
            let _ = write!(ms, "{}", ns as f64 / 1e6);
        }
        ms
    }

    fn push(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn as_str(&self) -> &str {
        // Only ASCII digits and a point were written.
        core::str::from_utf8(&self.buf[..self.len]).unwrap_or_default()
    }
}

impl Write for Millis {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if self.len + s.len() > self.buf.len() {
            return Err(fmt::Error);
        }
        self.push(s.as_bytes());
        Ok(())
    }
}

/// One `latency` line, ready to write from its two endpoints' text: the
/// one layout of the line. The names between the parts are literals, in
/// the order of the tables behind [`EnrichedMeasurement::to_point`];
/// none needs escaping, and the differential tests hold the line to
/// `line::encode` of the point.
pub(crate) struct LatencyLine<'a, E> {
    src: &'a E,
    dst: &'a E,
    queue: u16,
    /// Internal, external and total latency.
    ms: [Millis; 3],
    ts: u64,
}

impl<'a, E: EndpointText> LatencyLine<'a, E> {
    /// The line of `em`, with endpoint text `src` and `dst`.
    pub(crate) fn new(em: &EnrichedMeasurement, src: &'a E, dst: &'a E) -> LatencyLine<'a, E> {
        LatencyLine {
            src,
            dst,
            queue: em.queue_id,
            ms: [em.internal_ns, em.external_ns, em.total_ns()].map(Millis::new),
            ts: em.completed_at.as_nanos(),
        }
    }

    /// Write the line into `out`.
    pub(crate) fn write<W: Write + ?Sized>(&self, out: &mut W) -> fmt::Result {
        let [internal, external, total] = &self.ms;
        out.write_str("latency,")?;
        self.dst.write_tags(Side::Dst, out)?;
        out.write_str(",queue=")?;
        out.write_str(Digits::new(self.queue.into()).as_str())?;
        out.write_char(',')?;
        self.src.write_tags(Side::Src, out)?;
        out.write_str(" internal_ms=")?;
        out.write_str(internal.as_str())?;
        out.write_str(",external_ms=")?;
        out.write_str(external.as_str())?;
        out.write_str(",total_ms=")?;
        out.write_str(total.as_str())?;
        out.write_char(',')?;
        self.src.write_coords(Side::Src, out)?;
        out.write_char(',')?;
        self.dst.write_coords(Side::Dst, out)?;
        out.write_char(' ')?;
        out.write_str(Digits::new(self.ts).as_str())
    }
}

/// A hasher for the renderer's integer keys (location indices and queue
/// ids): one rotate, xor and multiply per word. The keys are bounded by
/// the geo table and the queue count, so SipHash's defence against
/// chosen keys buys nothing here.
#[derive(Default)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// One worker's per-record output path: the tsdb stripe, the scratch
/// block the PUB lines are written into, and what it keeps per location
/// and per series. Each record is rendered once: one typed row appended
/// to its stripe series, and its PUB line written straight into the
/// block and split off as a zero-copy view.
pub struct Renderer {
    /// A `latency` point, refilled on a series' first sight to resolve
    /// its stripe series.
    point: Point,
    stripe: StripeWriter,
    scratch: BytesMut,
    /// The line being rendered, before it moves into `scratch`.
    line: String,
    /// Location index ([`UNKNOWN`] for a missed endpoint) → its text in
    /// `texts`. Filled on each location's first sight, never up front: a
    /// real geo table has millions of rows.
    slots: IdMap<u32, usize>,
    texts: Vec<LocationText>,
    /// (source location, destination location, queue) → stripe series.
    series: IdMap<(u32, u32, u16), SeriesHandle>,
}

/// What rendering one record produced.
pub struct Rendered {
    /// The line-protocol line, for the PUB edge.
    pub line: Bytes,
    /// Points the stripe merged into the store on this write (0 unless it
    /// flushed).
    pub merged: u64,
    /// The scratch block ran short, so a fresh one was reserved.
    pub fresh_block: bool,
}

impl Renderer {
    /// A renderer writing rows to `stripe` and PUB lines into scratch
    /// blocks of 64 KiB.
    pub fn new(stripe: StripeWriter) -> Renderer {
        Renderer {
            point: latency_template(),
            stripe,
            scratch: BytesMut::new(),
            line: String::new(),
            slots: IdMap::default(),
            texts: Vec::new(),
            series: IdMap::default(),
        }
    }

    /// Render one record whose endpoints are at `at` in the geo database
    /// (see [`crate::Enricher::locate`]): append its row to its stripe
    /// series, then write its PUB line into the scratch block.
    pub fn render(&mut self, em: &EnrichedMeasurement, at: LocationPair) -> Rendered {
        let src_at = at.src.unwrap_or(UNKNOWN);
        let dst_at = at.dst.unwrap_or(UNKNOWN);
        let src = self.text_slot(src_at, &em.src);
        let dst = self.text_slot(dst_at, &em.dst);
        let key = (src_at, dst_at, em.queue_id);
        let series = match self.series.get(&key) {
            Some(&series) => series,
            None => {
                em.refill(&mut self.point);
                let series = self.stripe.resolve(&self.point);
                // A series' handle, built on its first sight only.
                self.series.insert(key, series);
                series
            }
        };
        let ts = em.completed_at.as_nanos();
        let merged = self.stripe.append(series, ts, em.field_values());
        self.line.clear();
        let line = LatencyLine::new(em, &self.texts[src], &self.texts[dst]);
        // Writing into a `String` cannot fail.
        let _ = line.write(&mut self.line);
        // The exact room first: a line that crossed the end of the block
        // would move to a fresh block only its own size, and every record
        // after it would allocate again.
        let need = self.line.len();
        let fresh_block = self.scratch.capacity() < need;
        if fresh_block {
            self.scratch.reserve(SCRATCH_CHUNK.max(need));
        }
        self.scratch.extend_from_slice(self.line.as_bytes());
        Rendered {
            line: self.scratch.split().freeze(),
            merged,
            fresh_block,
        }
    }

    /// Where the text of the location at `at` is in `texts`, built from
    /// `endpoint` on the location's first sight.
    fn text_slot(&mut self, at: u32, endpoint: &EndpointInfo) -> usize {
        let texts = &mut self.texts;
        *self.slots.entry(at).or_insert_with(|| {
            // A location's text, built on its first sight only.
            texts.push(LocationText::new(endpoint));
            texts.len() - 1
        })
    }

    /// Fold the stripe's buffered rows into the store; returns how many.
    pub(crate) fn flush(&mut self) -> u64 {
        self.stripe.flush()
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::enrich::Enricher;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use ruru_flow::LatencyMeasurement;
    use ruru_geo::db::Range;
    use ruru_geo::{GeoDb, Location};
    use ruru_nic::Timestamp;
    use ruru_tsdb::TsDb;
    use ruru_wire::{ipv4, IpAddress};
    use std::sync::Arc;

    /// `Display` of `ns as f64 / 1e6`: what `Millis` must write.
    fn reference(ns: u64) -> String {
        format!("{}", ns as f64 / 1e6)
    }

    #[test]
    fn millis_match_display_at_the_edges() {
        let mut edges = vec![0, 1, 999_999, 1_000_001, u64::MAX, u64::MAX - 1];
        edges.extend((0..20).map(|k| 10u64.pow(k)));
        edges.extend([Millis::EXACT_BELOW - 1, Millis::EXACT_BELOW, Millis::EXACT_BELOW + 1]);
        edges.extend([(1 << 53) - 1, 1 << 53, (1 << 53) + 1]);
        for ns in edges {
            assert_eq!(Millis::new(ns).as_str(), reference(ns), "{ns} ns");
        }
    }

    #[test]
    fn millis_match_display_on_random_values() {
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..1_000_000 {
            // Every magnitude, from a few ns to 2^64.
            let ns = rng.gen::<u64>() >> rng.gen_range(0..64);
            assert_eq!(Millis::new(ns).as_str(), reference(ns), "{ns} ns");
        }
    }

    #[test]
    fn digits_match_display() {
        for n in [0, 7, 10, 65_535, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(Digits::new(n).as_str(), n.to_string());
        }
    }

    /// A location with an awkward city: characters the line protocol
    /// escapes, multibyte ones, or none at all.
    fn location(i: usize, rng: &mut StdRng) -> Location {
        const CHARS: [char; 12] = ['a', 'Z', '0', '-', ' ', ',', '=', '\\', 'é', 'Ā', '北', '😀'];
        let city: String = (0..rng.gen_range(0..12))
            .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
            .collect();
        let codes: [[u8; 2]; 4] = [*b"NZ", *b",=", *b"\\ ", [0xff, 0]];
        let coordinate = |rng: &mut StdRng| {
            let x = f32::from_bits(rng.gen());
            if x.is_finite() {
                x
            } else {
                -0.0
            }
        };
        Location {
            country_code: codes[i % codes.len()],
            country: String::new(),
            region: String::new(),
            city: city.into(),
            lat: coordinate(rng),
            lon: coordinate(rng),
            asn: rng.gen(),
            as_name: String::new(),
        }
    }

    /// Differential: over random records whose endpoints revisit a few
    /// dozen locations (escaped, multibyte and empty cities, odd country
    /// codes, subnormal and huge coordinates) or miss the database, every
    /// rendered line is byte for byte `line::encode(&em.to_point())`, and
    /// so is `to_line()`, on the first sight of a location and on every
    /// reuse of its text; the stripe holds `to_point()` of each record.
    #[test]
    fn rendered_lines_match_the_encoded_point() {
        let mut rng = StdRng::seed_from_u64(22);
        const LOCATIONS: u32 = 40;
        let locations = (0..LOCATIONS as usize).map(|i| location(i, &mut rng)).collect();
        // Location i covers IPv4 addresses 1000 i ..= 1000 i + 499.
        let key = |n: u32| IpAddress::V4(ipv4::Address(n.to_be_bytes())).as_u128();
        let ranges = (0..LOCATIONS)
            .map(|i| Range {
                start: key(i * 1000),
                end: key(i * 1000 + 499),
                location: i,
            })
            .collect();
        let db = Arc::new(GeoDb::new(locations, ranges).unwrap());
        let mut enricher = Enricher::new(db, 0);
        let tsdb = Arc::new(TsDb::new());
        let mut renderer = Renderer::new(tsdb.stripe(97));
        let reference = TsDb::new();
        let address = |rng: &mut StdRng| {
            let at = rng.gen_range(0..LOCATIONS * 1000);
            IpAddress::V4(ipv4::Address(at.to_be_bytes()))
        };
        let (mut unknown, mut escaped, mut reused) = (0, 0, 0);
        for i in 0..20_000u64 {
            let m = LatencyMeasurement {
                src: address(&mut rng),
                dst: address(&mut rng),
                src_port: 1,
                dst_port: 2,
                internal_ns: rng.gen::<u64>() >> rng.gen_range(1..64),
                external_ns: rng.gen::<u64>() >> rng.gen_range(1..64),
                completed_at: Timestamp::from_nanos(if i % 7 == 0 { rng.gen() } else { i }),
                queue_id: rng.gen_range(0..3),
                syn_retransmissions: 0,
            };
            let (em, at) = enricher.locate(&m);
            let expected = line::encode(&em.to_point());
            let texts = renderer.texts.len();
            let out = renderer.render(&em, at);
            assert_eq!(&out.line[..], expected.as_bytes(), "{em:?}");
            assert_eq!(em.to_line(), expected, "{em:?}");
            reference.write(&em.to_point());
            unknown += usize::from(em.src.is_unknown() || em.dst.is_unknown());
            escaped += usize::from(expected.contains('\\'));
            reused += usize::from(renderer.texts.len() == texts);
        }
        renderer.flush();
        assert!(
            unknown > 1000 && escaped > 1000 && reused > 19_000,
            "every kind exercised: {unknown} unknown, {escaped} escaped, {reused} reused"
        );
        assert_eq!(tsdb.to_snapshot(), reference.to_snapshot());
    }
}
