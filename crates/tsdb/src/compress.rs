//! Gorilla-style chunk compression for sealed blocks (DESIGN.md §16).
//!
//! A sealed [`Chunk`] holds a run of rows of one block — one timestamp
//! column shared by every field column — as byte streams in one buffer:
//!
//! * **Timestamps**, once per row — delta-of-delta coded. The first
//!   timestamp is a LEB128 varint, the first delta a varint, every later
//!   row a zigzag varint of `delta[i] - delta[i-1]`. Monitoring cadences
//!   are near-constant, so the common delta-of-delta is `0` and costs one
//!   byte.
//! * **Values**, one stream per column — XOR coded at bit granularity.
//!   Each value is XORed with its predecessor in the column; a zero XOR
//!   costs one bit, a XOR whose meaningful bits fit the previous
//!   (leading, trailing)-zero window costs `2 + len(window)` bits, and a
//!   window change re-states 6 bits of leading-zero count and 6 bits of
//!   window length. Each stream starts on a byte boundary.
//!
//! Decoding is cursor-based: [`Chunk::iter`] walks the timestamp stream
//! and one column's stream in place and yields `(timestamp, value)`
//! pairs without materialising an intermediate `Vec`. Value bits
//! round-trip exactly — NaN payloads, signed zeros and infinities
//! included — which the `prop_compress` differential suite pins against
//! the uncompressed store.

use std::ops::Range;

/// One stored sample: timestamp and value.
pub(crate) type Sample = (u64, f64);

/// An immutable compressed run of rows of one block, time-ordered within
/// itself. A block's chunks are cut from the front of its sorted tail, so
/// they follow each other in time unless a straggler arrived after newer
/// rows were sealed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Chunk {
    rows: u32,
    start_ns: u64,
    end_ns: u64,
    /// The timestamp stream, then each column's value stream.
    bytes: Box<[u8]>,
    /// Offset in `bytes` where each column's value stream starts.
    col_starts: Box<[u32]>,
}

impl Chunk {
    /// Compress rows `rows` of a sorted timestamp column and of every
    /// value column in `cols` (each at least as long as `ts`). Returns
    /// `None` for an empty range — an empty chunk has no first timestamp
    /// and is never stored.
    pub(crate) fn compress(ts: &[u64], cols: &[Vec<f64>], rows: Range<usize>) -> Option<Chunk> {
        let stamps = ts.get(rows.clone())?;
        let (&start_ns, &end_ns) = (stamps.first()?, stamps.last()?);
        let n = stamps.len();
        let mut bytes = Vec::with_capacity(n * (1 + 2 * cols.len()));
        put_timestamps(&mut bytes, stamps);
        let mut col_starts = Vec::with_capacity(cols.len());
        for col in cols {
            col_starts.push(bytes.len() as u32);
            put_values(&mut bytes, col.get(rows.clone()).unwrap_or(&[]));
        }
        Some(Chunk {
            rows: n as u32,
            start_ns,
            end_ns,
            bytes: bytes.into_boxed_slice(),
            col_starts: col_starts.into_boxed_slice(),
        })
    }

    /// Number of rows in the chunk.
    pub(crate) fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Timestamp of the first row.
    pub(crate) fn start_ns(&self) -> u64 {
        self.start_ns
    }

    /// Timestamp of the last row.
    pub(crate) fn end_ns(&self) -> u64 {
        self.end_ns
    }

    /// Compressed payload size (all streams), excluding the fixed header
    /// fields.
    pub(crate) fn encoded_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The byte range of column `col`'s value stream (empty past the
    /// last column).
    fn column(&self, col: usize) -> &[u8] {
        let start = self.col_starts.get(col).map_or(self.bytes.len(), |&s| s as usize);
        let end = self
            .col_starts
            .get(col + 1)
            .map_or(self.bytes.len(), |&e| e as usize);
        self.bytes.get(start..end).unwrap_or(&[])
    }

    /// In-place decoding cursor over the timestamps and column `col`.
    pub(crate) fn iter(&self, col: usize) -> ChunkIter<'_> {
        let ts_end = self.col_starts.first().map_or(self.bytes.len(), |&s| s as usize);
        ChunkIter {
            ts: TimestampDecoder::new(self.bytes.get(..ts_end).unwrap_or(&[])),
            vals: ValueDecoder::new(self.column(col)),
            remaining: self.rows,
        }
    }

    /// Decode the whole chunk, appending its timestamps to `ts` and each
    /// column to the matching entry of `cols` — used by the cold
    /// retention rewrite and the snapshot dump, never by queries.
    pub(crate) fn decompress_into(&self, ts: &mut Vec<u64>, cols: &mut [Vec<f64>]) {
        ts.extend(self.iter(0).map(|(t, _)| t));
        for (col, out) in cols.iter_mut().enumerate() {
            out.extend(self.iter(col).map(|(_, v)| v));
        }
    }
}

/// Streaming decoder; yields exactly [`Chunk::rows`] samples. The
/// streams are produced by [`Chunk::compress`] in the same process, so a
/// short read is unreachable; the cursor still stops cleanly (yielding
/// `None`) rather than panicking if it ever happens.
pub(crate) struct ChunkIter<'a> {
    ts: TimestampDecoder<'a>,
    vals: ValueDecoder<'a>,
    remaining: u32,
}

impl Iterator for ChunkIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some((self.ts.next()?, self.vals.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// Append the delta-of-delta varint stream of a sorted timestamp run.
fn put_timestamps(out: &mut Vec<u8>, ts: &[u64]) {
    let Some((&first, rest)) = ts.split_first() else {
        return;
    };
    put_uvarint(out, first);
    let mut prev_ts = first;
    let mut prev_delta: Option<u64> = None;
    for &t in rest {
        let delta = t.saturating_sub(prev_ts);
        match prev_delta {
            None => put_uvarint(out, delta),
            Some(pd) => put_ivarint(out, delta as i128 - pd as i128),
        }
        prev_delta = Some(delta);
        prev_ts = t;
    }
}

/// Append the XOR bit stream of one value column, padded to a byte.
fn put_values(out: &mut Vec<u8>, vals: &[f64]) {
    let Some((&first, rest)) = vals.split_first() else {
        return;
    };
    let mut w = BitWriter { out, cur: 0, used: 0 };
    w.push_bits(first.to_bits(), 64);
    let mut prev_bits = first.to_bits();
    // (leading, trailing) zero window; 64+64 marks "no window yet" so the
    // first non-zero XOR always re-states one.
    let mut window = (64u32, 64u32);
    for &v in rest {
        let bits = v.to_bits();
        let xor = prev_bits ^ bits;
        prev_bits = bits;
        if xor == 0 {
            w.push_bit(false);
            continue;
        }
        w.push_bit(true);
        let lead = xor.leading_zeros();
        let trail = xor.trailing_zeros();
        let (wlead, wtrail) = window;
        if lead >= wlead && trail >= wtrail {
            // Meaningful bits fit the previous window: reuse it.
            w.push_bit(false);
            w.push_bits(xor >> wtrail, 64 - wlead - wtrail);
        } else {
            w.push_bit(true);
            let mlen = 64 - lead - trail;
            w.push_bits(u64::from(lead), 6);
            w.push_bits(u64::from(mlen - 1), 6);
            w.push_bits(xor >> trail, mlen);
            window = (lead, trail);
        }
    }
    w.pad_to_byte();
}

/// Cursor over a timestamp stream.
struct TimestampDecoder<'a> {
    reader: VarintReader<'a>,
    prev_ts: u64,
    prev_delta: Option<u64>,
    first: bool,
}

impl<'a> TimestampDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        TimestampDecoder {
            reader: VarintReader { bytes, pos: 0 },
            prev_ts: 0,
            prev_delta: None,
            first: true,
        }
    }

    fn next(&mut self) -> Option<u64> {
        if self.first {
            self.first = false;
            self.prev_ts = self.reader.read_uvarint()?;
            return Some(self.prev_ts);
        }
        let delta = match self.prev_delta {
            None => self.reader.read_uvarint()?,
            Some(pd) => (pd as i128 + self.reader.read_ivarint()?).max(0) as u64,
        };
        self.prev_delta = Some(delta);
        self.prev_ts = self.prev_ts.saturating_add(delta);
        Some(self.prev_ts)
    }
}

/// Cursor over one column's value stream.
struct ValueDecoder<'a> {
    reader: BitReader<'a>,
    prev_bits: u64,
    window: (u32, u32),
    first: bool,
}

impl<'a> ValueDecoder<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        ValueDecoder {
            reader: BitReader { bytes, bit: 0 },
            prev_bits: 0,
            window: (64, 64),
            first: true,
        }
    }

    fn next(&mut self) -> Option<f64> {
        if self.first {
            self.first = false;
            self.prev_bits = self.reader.read_bits(64)?;
        } else if self.reader.read_bit()? {
            if self.reader.read_bit()? {
                let lead = self.reader.read_bits(6)? as u32;
                let mlen = self.reader.read_bits(6)? as u32 + 1;
                self.window = (lead, 64 - lead - mlen);
            }
            let (wlead, wtrail) = self.window;
            let meaningful = self.reader.read_bits(64 - wlead - wtrail)?;
            self.prev_bits ^= meaningful << wtrail;
        }
        // A zero XOR bit leaves `prev_bits` as is: the value repeats.
        Some(f64::from_bits(self.prev_bits))
    }
}

// ---------------------------------------------------------------------------
// Varint streams (timestamps)

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Zigzag + LEB128 over `i128` — a delta-of-delta of two `u64` deltas
/// needs the wider type at the extremes.
fn put_ivarint(out: &mut Vec<u8>, v: i128) {
    let mut z = ((v << 1) ^ (v >> 127)) as u128;
    while z >= 0x80 {
        out.push((z as u8) | 0x80);
        z >>= 7;
    }
    out.push(z as u8);
}

struct VarintReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl VarintReader<'_> {
    fn read_uvarint(&mut self) -> Option<u64> {
        Some(self.read_raw()? as u64)
    }

    fn read_ivarint(&mut self) -> Option<i128> {
        let z = self.read_raw()?;
        Some(((z >> 1) as i128) ^ -((z & 1) as i128))
    }

    fn read_raw(&mut self) -> Option<u128> {
        let mut v: u128 = 0;
        let mut shift = 0u32;
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            v |= u128::from(b & 0x7f) << shift;
            if b < 0x80 {
                return Some(v);
            }
            shift += 7;
            if shift >= 128 {
                return None;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bit streams (values), MSB-first within each byte

/// Appends bits MSB-first to a byte buffer shared with other streams.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    cur: u8,
    used: u32,
}

impl BitWriter<'_> {
    fn push_bit(&mut self, bit: bool) {
        self.cur = (self.cur << 1) | u8::from(bit);
        self.used += 1;
        if self.used == 8 {
            self.out.push(self.cur);
            self.cur = 0;
            self.used = 0;
        }
    }

    /// Push the low `n` bits of `value`, MSB first. `n` may be 64.
    fn push_bits(&mut self, value: u64, n: u32) {
        for i in (0..n).rev() {
            self.push_bit((value >> i) & 1 == 1);
        }
    }

    /// Flush the partial last byte, zero-padded.
    fn pad_to_byte(self) {
        if self.used > 0 {
            self.out.push(self.cur << (8 - self.used));
        }
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    bit: usize,
}

impl BitReader<'_> {
    fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.bytes.get(self.bit / 8)?;
        let bit = (byte >> (7 - (self.bit % 8))) & 1 == 1;
        self.bit += 1;
        Some(bit)
    }

    fn read_bits(&mut self, n: u32) -> Option<u64> {
        let mut v: u64 = 0;
        for _ in 0..n {
            v = (v << 1) | u64::from(self.read_bit()?);
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Compress one sample run as a single-column chunk.
    fn compress(samples: &[Sample]) -> Option<Chunk> {
        let ts: Vec<u64> = samples.iter().map(|&(t, _)| t).collect();
        let vals: Vec<f64> = samples.iter().map(|&(_, v)| v).collect();
        Chunk::compress(&ts, &[vals], 0..samples.len())
    }

    fn roundtrip(samples: &[Sample]) {
        let chunk = match compress(samples) {
            Some(c) => c,
            None => {
                assert!(samples.is_empty());
                return;
            }
        };
        assert_eq!(chunk.rows(), samples.len());
        let decoded: Vec<Sample> = chunk.iter(0).collect();
        assert_eq!(decoded.len(), samples.len());
        for (i, (&(t0, v0), &(t1, v1))) in samples.iter().zip(&decoded).enumerate() {
            assert_eq!(t0, t1, "timestamp {i}");
            assert_eq!(v0.to_bits(), v1.to_bits(), "value bits {i}");
        }
    }

    #[test]
    fn empty_run_has_no_chunk() {
        assert!(compress(&[]).is_none());
    }

    #[test]
    fn single_sample_roundtrip() {
        roundtrip(&[(123_456_789, 42.5)]);
        roundtrip(&[(0, f64::NAN)]);
        roundtrip(&[(u64::MAX, -0.0)]);
    }

    #[test]
    fn regular_cadence_roundtrip() {
        let samples: Vec<Sample> = (0..1000u64)
            .map(|i| (i * 1_000_000_000, 130.0 + (i % 7) as f64))
            .collect();
        roundtrip(&samples);
        // The whole point: a regular cadence with small value jitter must
        // compress far below the 16 raw bytes per sample.
        let chunk = compress(&samples).unwrap_or_else(|| unreachable!());
        let bpp = chunk.encoded_bytes() as f64 / samples.len() as f64;
        assert!(bpp < 4.0, "bytes/point {bpp:.2} not < 4.0");
    }

    #[test]
    fn constant_value_costs_one_bit() {
        let samples: Vec<Sample> = (0..8000u64).map(|i| (i * 1000, 1.5)).collect();
        let chunk = compress(&samples).unwrap_or_else(|| unreachable!());
        roundtrip(&samples);
        // ~1 byte/pt timestamps (dod = 0) + ~1 bit/pt values.
        let bpp = chunk.encoded_bytes() as f64 / samples.len() as f64;
        assert!(bpp < 1.5, "bytes/point {bpp:.2} not < 1.5");
    }

    #[test]
    fn special_values_roundtrip_bit_exact() {
        roundtrip(&[
            (0, f64::INFINITY),
            (1, f64::NEG_INFINITY),
            (2, f64::NAN),
            (3, -f64::NAN),
            (4, 0.0),
            (5, -0.0),
            (6, f64::MIN_POSITIVE),
            (7, f64::MAX),
            (8, f64::MIN),
            (9, f64::EPSILON),
        ]);
    }

    #[test]
    fn duplicate_and_jittery_timestamps_roundtrip() {
        roundtrip(&[(10, 1.0), (10, 2.0), (10, 3.0), (11, 4.0), (100, 5.0)]);
        let samples: Vec<Sample> = (0..500u64)
            .map(|i| (i * 1000 + (i * 37) % 113, (i as f64).sin()))
            .collect();
        roundtrip(&samples);
    }

    #[test]
    fn extreme_timestamp_gaps_roundtrip() {
        roundtrip(&[(0, 1.0), (u64::MAX, 2.0)]);
        roundtrip(&[(0, 1.0), (u64::MAX - 1, 2.0), (u64::MAX, 3.0)]);
        roundtrip(&[(5, 1.0), (5, 1.0), (u64::MAX, 1.0)]);
    }

    #[test]
    fn window_change_paths_roundtrip() {
        // Force window widen/narrow transitions: alternate tiny and huge
        // mantissa changes.
        let mut samples = Vec::new();
        let mut v = 1.0f64;
        for i in 0..200u64 {
            v = if i % 3 == 0 { v * 1.0000001 } else { -v + i as f64 };
            samples.push((i * 10, v));
        }
        roundtrip(&samples);
    }

    #[test]
    fn size_hint_is_exact() {
        let samples: Vec<Sample> = (0..10u64).map(|i| (i, i as f64)).collect();
        let chunk = compress(&samples).unwrap_or_else(|| unreachable!());
        let mut it = chunk.iter(0);
        assert_eq!(it.size_hint(), (10, Some(10)));
        it.next();
        assert_eq!(it.size_hint(), (9, Some(9)));
    }

    #[test]
    fn columns_share_one_timestamp_stream() {
        let ts: Vec<u64> = (0..1000u64).map(|i| i * 1_000_000 + (i * 37) % 113).collect();
        let cols: Vec<Vec<f64>> = vec![
            (0..1000).map(|i| 100.0 + (i % 7) as f64 * 0.1).collect(),
            vec![f64::NAN; 1000],
            (0..1000).map(|i| if i % 2 == 0 { 0.0 } else { -0.0 }).collect(),
        ];
        let chunk = Chunk::compress(&ts, &cols, 0..1000).unwrap_or_else(|| unreachable!());
        assert_eq!((chunk.start_ns(), chunk.end_ns()), (ts[0], ts[999]));
        for (c, col) in cols.iter().enumerate() {
            let decoded: Vec<Sample> = chunk.iter(c).collect();
            let want: Vec<Sample> = ts.iter().copied().zip(col.iter().copied()).collect();
            assert_eq!(decoded.len(), want.len());
            for (&(t0, v0), &(t1, v1)) in want.iter().zip(&decoded) {
                assert_eq!((t0, v0.to_bits()), (t1, v1.to_bits()), "column {c}");
            }
        }
        // The timestamps cost the same as in a one-column chunk: adding
        // columns adds only their value streams.
        let one = Chunk::compress(&ts, &cols[..1], 0..1000).unwrap_or_else(|| unreachable!());
        let constant = Chunk::compress(&ts, &cols[..2], 0..1000).unwrap_or_else(|| unreachable!());
        assert!(constant.encoded_bytes() - one.encoded_bytes() <= 8 + 1000 / 8 + 1);
        let (mut dts, mut dcols) = (Vec::new(), vec![Vec::new(); 3]);
        chunk.decompress_into(&mut dts, &mut dcols);
        assert_eq!(dts, ts);
        assert_eq!(dcols[0], cols[0]);
        // Past the last column the cursor yields nothing.
        assert_eq!(chunk.iter(3).count(), 0);
    }

    #[test]
    fn sub_range_compresses_only_its_rows() {
        let ts: Vec<u64> = (0..100u64).collect();
        let cols = vec![(0..100).map(f64::from).collect::<Vec<f64>>()];
        let chunk = Chunk::compress(&ts, &cols, 40..60).unwrap_or_else(|| unreachable!());
        let decoded: Vec<Sample> = chunk.iter(0).collect();
        let want: Vec<Sample> = (40..60u64).map(|i| (i, i as f64)).collect();
        assert_eq!(decoded, want);
        assert!(Chunk::compress(&ts, &cols, 60..60).is_none());
    }
}
