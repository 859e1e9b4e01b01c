//! RFC 6455 WebSocket server-side framing.
//!
//! The deployed frontend feed pushes frames to browsers over WebSockets.
//! This module implements the server half from scratch: the handshake
//! accept-key derivation (SHA-1 and Base64 included — the sanctioned crate
//! set has neither) and frame encode/decode. Client→server frames are
//! masked per the RFC; server→client frames are not.

/// The GUID from RFC 6455 §1.3.
const WS_GUID: &str = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";

/// Compute the SHA-1 digest of `data` (RFC 3174).
fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h: [u32; 5] = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0];
    let ml = (data.len() as u64) * 8;
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&ml.to_be_bytes());
    for chunk in msg.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in chunk.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
    }
    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Standard Base64 (with padding).
fn base64(data: &[u8]) -> String {
    const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let b = [chunk[0], *chunk.get(1).unwrap_or(&0), *chunk.get(2).unwrap_or(&0)];
        let n = u32::from_be_bytes([0, b[0], b[1], b[2]]);
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Derive the `Sec-WebSocket-Accept` value from the client's key.
#[allow(clippy::disallowed_methods)] // sanctioned: one handshake per websocket connection
pub fn accept_key(client_key: &str) -> String {
    let mut input = client_key.trim().to_string();
    input.push_str(WS_GUID);
    base64(&sha1(input.as_bytes()))
}

/// WebSocket frame opcodes used by the feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Text (JSON frames).
    Text,
    /// Binary.
    Binary,
    /// Connection close.
    Close,
    /// Ping.
    Ping,
    /// Pong.
    Pong,
}

impl Opcode {
    fn to_u8(self) -> u8 {
        match self {
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xa,
        }
    }

    fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            0x1 => Some(Opcode::Text),
            0x2 => Some(Opcode::Binary),
            0x8 => Some(Opcode::Close),
            0x9 => Some(Opcode::Ping),
            0xa => Some(Opcode::Pong),
            _ => None,
        }
    }
}

/// Encode a single unfragmented server→client frame (unmasked).
pub fn encode_frame(opcode: Opcode, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 10);
    out.push(0x80 | opcode.to_u8()); // FIN + opcode
    match payload.len() {
        0..=125 => out.push(payload.len() as u8),
        126..=65535 => {
            out.push(126);
            out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
        }
        _ => {
            out.push(127);
            out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
        }
    }
    out.extend_from_slice(payload);
    out
}

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WsFrame {
    /// Frame opcode.
    pub opcode: Opcode,
    /// Unmasked payload.
    pub payload: Vec<u8>,
    /// FIN bit.
    pub fin: bool,
}

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WsError {
    /// More bytes needed.
    Incomplete,
    /// Reserved/unknown opcode.
    BadOpcode,
    /// A client frame was not masked (protocol violation).
    Unmasked,
}

/// Decode one client→server frame from `data`. Returns the frame and how
/// many bytes it consumed.
pub fn decode_client_frame(data: &[u8]) -> Result<(WsFrame, usize), WsError> {
    if data.len() < 2 {
        return Err(WsError::Incomplete);
    }
    let fin = data[0] & 0x80 != 0;
    let opcode = Opcode::from_u8(data[0] & 0x0f).ok_or(WsError::BadOpcode)?;
    let masked = data[1] & 0x80 != 0;
    if !masked {
        return Err(WsError::Unmasked);
    }
    let (len, mut at) = match data[1] & 0x7f {
        126 => {
            if data.len() < 4 {
                return Err(WsError::Incomplete);
            }
            (u16::from_be_bytes([data[2], data[3]]) as usize, 4)
        }
        127 => {
            if data.len() < 10 {
                return Err(WsError::Incomplete);
            }
            (u64::from_be_bytes(data[2..10].try_into().unwrap()) as usize, 10)
        }
        n => (n as usize, 2),
    };
    if data.len() < at + 4 + len {
        return Err(WsError::Incomplete);
    }
    let mask: [u8; 4] = data[at..at + 4].try_into().unwrap();
    at += 4;
    let payload: Vec<u8> = data[at..at + len]
        .iter()
        .enumerate()
        .map(|(i, b)| b ^ mask[i % 4])
        .collect();
    Ok((
        WsFrame {
            opcode,
            payload,
            fin,
        },
        at + len,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha1_test_vectors() {
        // FIPS 180-1 examples.
        assert_eq!(
            sha1(b"abc"),
            [
                0xA9, 0x99, 0x3E, 0x36, 0x47, 0x06, 0x81, 0x6A, 0xBA, 0x3E, 0x25, 0x71, 0x78,
                0x50, 0xC2, 0x6C, 0x9C, 0xD0, 0xD8, 0x9D
            ]
        );
        assert_eq!(
            sha1(b""),
            [
                0xda, 0x39, 0xa3, 0xee, 0x5e, 0x6b, 0x4b, 0x0d, 0x32, 0x55, 0xbf, 0xef, 0x95,
                0x60, 0x18, 0x90, 0xaf, 0xd8, 0x07, 0x09
            ]
        );
    }

    #[test]
    fn sha1_long_input() {
        // FIPS 180-1: one million 'a's.
        let million = vec![b'a'; 1_000_000];
        assert_eq!(
            sha1(&million)[..4],
            [0x34, 0xaa, 0x97, 0x3c],
            "first bytes of the million-a digest"
        );
    }

    #[test]
    fn base64_test_vectors() {
        // RFC 4648 §10.
        assert_eq!(base64(b""), "");
        assert_eq!(base64(b"f"), "Zg==");
        assert_eq!(base64(b"fo"), "Zm8=");
        assert_eq!(base64(b"foo"), "Zm9v");
        assert_eq!(base64(b"foob"), "Zm9vYg==");
        assert_eq!(base64(b"fooba"), "Zm9vYmE=");
        assert_eq!(base64(b"foobar"), "Zm9vYmFy");
    }

    #[test]
    fn rfc6455_accept_key_example() {
        // The worked example from RFC 6455 §1.3.
        assert_eq!(
            accept_key("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        );
    }

    #[test]
    fn encode_small_text_frame() {
        let f = encode_frame(Opcode::Text, b"Hello");
        // The RFC's own example: a single-frame unmasked "Hello".
        assert_eq!(f, vec![0x81, 0x05, b'H', b'e', b'l', b'l', b'o']);
    }

    #[test]
    fn encode_length_encodings() {
        let medium = encode_frame(Opcode::Binary, &vec![0u8; 300]);
        assert_eq!(medium[1], 126);
        assert_eq!(u16::from_be_bytes([medium[2], medium[3]]), 300);
        assert_eq!(medium.len(), 4 + 300);

        let large = encode_frame(Opcode::Binary, &vec![0u8; 70_000]);
        assert_eq!(large[1], 127);
        assert_eq!(
            u64::from_be_bytes(large[2..10].try_into().unwrap()),
            70_000
        );
    }

    #[test]
    fn decode_masked_client_frame() {
        // The RFC's masked "Hello" example.
        let data = [
            0x81u8, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58,
        ];
        let (frame, used) = decode_client_frame(&data).unwrap();
        assert_eq!(used, data.len());
        assert_eq!(frame.opcode, Opcode::Text);
        assert!(frame.fin);
        assert_eq!(frame.payload, b"Hello");
    }

    #[test]
    fn decode_rejects_unmasked_client_frame() {
        let server_frame = encode_frame(Opcode::Text, b"x");
        assert_eq!(
            decode_client_frame(&server_frame).unwrap_err(),
            WsError::Unmasked
        );
    }

    #[test]
    fn decode_incomplete_frames() {
        assert_eq!(decode_client_frame(&[0x81]).unwrap_err(), WsError::Incomplete);
        let data = [0x81u8, 0x85, 0x37, 0xfa]; // header promises more
        assert_eq!(decode_client_frame(&data).unwrap_err(), WsError::Incomplete);
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let data = [0x83u8, 0x80, 0, 0, 0, 0]; // opcode 3 reserved
        assert_eq!(decode_client_frame(&data).unwrap_err(), WsError::BadOpcode);
    }

    #[test]
    fn mask_roundtrip() {
        // Hand-mask a payload and check the decoder recovers it.
        let payload = b"ruru latency frame";
        let mask = [0xde, 0xad, 0xbe, 0xef];
        let mut data = vec![0x82u8, 0x80 | payload.len() as u8];
        data.extend_from_slice(&mask);
        data.extend(
            payload
                .iter()
                .enumerate()
                .map(|(i, b)| b ^ mask[i % 4]),
        );
        let (frame, _) = decode_client_frame(&data).unwrap();
        assert_eq!(frame.payload, payload);
        assert_eq!(frame.opcode, Opcode::Binary);
    }
}
