//! The latency measurement record and its wire form.
//!
//! One [`LatencyMeasurement`] is produced per completed TCP handshake and
//! handed to the analytics stage. Inside the pipeline it travels as a
//! value (it is `Copy`); the binary encoding, a fixed 66-byte
//! little-endian record that decodes without allocation, is what the
//! traced benchmark replay moves as bytes.

use bytes::{BufMut, BytesMut};
use ruru_nic::Timestamp;
use ruru_wire::{ipv4, ipv6, IpAddress};

/// Wire length of an encoded measurement.
pub const WIRE_LEN: usize = 66;
const VERSION: u8 = 1;

/// Scratch-block size for callers of [`LatencyMeasurement::encode_into`]
/// that freeze records out of one buffer: one heap allocation amortizes
/// over ~1000 encoded records.
pub const SCRATCH_CHUNK: usize = 64 * 1024;

/// A completed-handshake latency measurement (the paper's Figure 1 output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyMeasurement {
    /// The connection initiator (the side that sent the SYN).
    pub src: IpAddress,
    /// The responder (the side that sent the SYN-ACK).
    pub dst: IpAddress,
    /// Initiator's port.
    pub src_port: u16,
    /// Responder's port.
    pub dst_port: u16,
    /// Internal latency: tap → source → tap (`t_ACK − t_SYNACK`), ns.
    pub internal_ns: u64,
    /// External latency: tap → destination → tap (`t_SYNACK − t_SYN`), ns.
    pub external_ns: u64,
    /// When the handshake completed (the ACK arrival), tap clock.
    pub completed_at: Timestamp,
    /// RX queue (= worker core) that measured the flow.
    pub queue_id: u16,
    /// SYN retransmissions observed before the handshake completed.
    pub syn_retransmissions: u8,
}

impl LatencyMeasurement {
    /// Total end-to-end latency: internal + external.
    pub fn total_ns(&self) -> u64 {
        self.internal_ns.saturating_add(self.external_ns)
    }

    /// Total latency in (fractional) milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns() as f64 / 1e6
    }

    /// Append the fixed binary wire form to `buf` (exactly [`WIRE_LEN`]
    /// bytes). The caller is responsible for capacity management; combined
    /// with `split().freeze()` this gives an allocation-free encode path.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        let start = buf.len();
        // alloc-ok: no-op whenever the caller pre-sizes the scratch block
        // (the documented contract above); allocates only on a cold buffer.
        buf.reserve(WIRE_LEN);
        buf.put_u8(VERSION);
        buf.put_u8(if self.src.is_v4() { 4 } else { 6 });
        buf.put_u8(self.syn_retransmissions);
        buf.put_u8(0); // reserved
        buf.put_u16_le(self.queue_id);
        buf.put_u16_le(self.src_port);
        buf.put_u16_le(self.dst_port);
        buf.put_u128_le(self.src.as_u128());
        buf.put_u128_le(self.dst.as_u128());
        buf.put_u64_le(self.internal_ns);
        buf.put_u64_le(self.external_ns);
        buf.put_u64_le(self.completed_at.as_nanos());
        debug_assert_eq!(buf.len().saturating_sub(start), WIRE_LEN);
    }

    /// Decode from the binary wire form.
    pub fn decode(data: &[u8]) -> Option<LatencyMeasurement> {
        // Total little-endian readers: 0 past the end (unreachable once the
        // length is checked, but no read below can abort the dataplane).
        fn chunk<const N: usize>(d: &[u8], at: usize) -> Option<&[u8; N]> {
            d.get(at..).and_then(|rest| rest.first_chunk::<N>())
        }
        if data.len() != WIRE_LEN || data.first() != Some(&VERSION) {
            return None;
        }
        let family = data.get(1).copied().unwrap_or(0);
        let rd16 = |at: usize| chunk::<2>(data, at).map_or(0, |c| u16::from_le_bytes(*c));
        let rd64 = |at: usize| chunk::<8>(data, at).map_or(0, |c| u64::from_le_bytes(*c));
        let rd128 = |at: usize| chunk::<16>(data, at).map_or(0, |c| u128::from_le_bytes(*c));
        let addr = |v: u128| -> Option<IpAddress> {
            match family {
                4 => Some(IpAddress::V4(ipv4::Address(
                    (v as u32).to_be_bytes(),
                ))),
                6 => Some(IpAddress::V6(ipv6::Address(v.to_be_bytes()))),
                _ => None,
            }
        };
        Some(LatencyMeasurement {
            src: addr(rd128(10))?,
            dst: addr(rd128(26))?,
            src_port: rd16(6),
            dst_port: rd16(8),
            internal_ns: rd64(42),
            external_ns: rd64(50),
            completed_at: Timestamp::from_nanos(rd64(58)),
            queue_id: rd16(4),
            syn_retransmissions: data.get(2).copied().unwrap_or(0),
        })
    }
}

impl core::fmt::Display for LatencyMeasurement {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} int={:.3}ms ext={:.3}ms total={:.3}ms",
            self.src,
            self.src_port,
            self.dst,
            self.dst_port,
            self.internal_ns as f64 / 1e6,
            self.external_ns as f64 / 1e6,
            self.total_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn sample_v4() -> LatencyMeasurement {
        LatencyMeasurement {
            src: IpAddress::V4(ipv4::Address([130, 216, 1, 2])),
            dst: IpAddress::V4(ipv4::Address([128, 9, 160, 1])),
            src_port: 51000,
            dst_port: 443,
            internal_ns: 1_200_000,
            external_ns: 128_700_000,
            completed_at: Timestamp::from_millis(1234),
            queue_id: 3,
            syn_retransmissions: 1,
        }
    }

    #[test]
    fn totals() {
        let m = sample_v4();
        assert_eq!(m.total_ns(), 129_900_000);
        assert!((m.total_ms() - 129.9).abs() < 1e-9);
    }

    fn encode(m: &LatencyMeasurement) -> BytesMut {
        let mut buf = BytesMut::new();
        m.encode_into(&mut buf);
        buf
    }

    #[test]
    fn encode_decode_roundtrip_v4() {
        let m = sample_v4();
        let wire = encode(&m);
        assert_eq!(wire.len(), WIRE_LEN);
        assert_eq!(LatencyMeasurement::decode(&wire), Some(m));
    }

    #[test]
    fn encode_decode_roundtrip_v6() {
        let m = LatencyMeasurement {
            src: IpAddress::V6(ipv6::Address::from_groups([0x2404, 1, 2, 3, 4, 5, 6, 7])),
            dst: IpAddress::V6(ipv6::Address::from_groups([0x2607, 7, 6, 5, 4, 3, 2, 1])),
            ..sample_v4()
        };
        let wire = encode(&m);
        assert_eq!(LatencyMeasurement::decode(&wire), Some(m));
    }

    #[test]
    fn decode_rejects_bad_input() {
        let m = sample_v4();
        let wire = encode(&m);
        assert_eq!(LatencyMeasurement::decode(&wire[..WIRE_LEN - 1]), None);
        let mut bad_ver = wire.to_vec();
        bad_ver[0] = 99;
        assert_eq!(LatencyMeasurement::decode(&bad_ver), None);
        let mut bad_family = wire.to_vec();
        bad_family[1] = 5;
        assert_eq!(LatencyMeasurement::decode(&bad_family), None);
        assert_eq!(LatencyMeasurement::decode(&[]), None);
    }

    #[test]
    fn encode_into_appends_without_disturbing_prefix() {
        let m = sample_v4();
        let mut buf = BytesMut::new();
        buf.put_slice(b"prefix");
        m.encode_into(&mut buf);
        assert_eq!(buf.len(), 6 + WIRE_LEN);
        assert_eq!(&buf[..6], b"prefix");
        assert_eq!(LatencyMeasurement::decode(&buf[6..]), Some(m));
    }

    #[test]
    fn scratch_encode_yields_independent_records() {
        // Consecutive encodes slice the same scratch block; each frozen
        // record must still be a correct, independent view.
        let mut scratch = BytesMut::with_capacity(SCRATCH_CHUNK);
        let records: Vec<(LatencyMeasurement, bytes::Bytes)> = (0..100u16)
            .map(|i| {
                let m = LatencyMeasurement {
                    queue_id: i,
                    src_port: 50_000 + i,
                    ..sample_v4()
                };
                m.encode_into(&mut scratch);
                (m, scratch.split().freeze())
            })
            .collect();
        for (m, wire) in &records {
            assert_eq!(LatencyMeasurement::decode(wire), Some(*m));
        }
    }

    #[test]
    fn display_shows_milliseconds() {
        let s = sample_v4().to_string();
        assert!(s.contains("130.216.1.2:51000"), "{s}");
        assert!(s.contains("total=129.900ms"), "{s}");
    }
}
