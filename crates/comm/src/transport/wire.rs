//! Length-prefixed little-endian framing for typed [`Payload`]s.
//!
//! ## Header layout (16 bytes, all little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic     0xA25D_0002 — "A2SD" + format version 2
//! 4       4     kind_len  bits 31..29: payload kind (PayloadKind)
//!                         bits 28..0:  payload length in BYTES
//! 8       8     tag       collective/op tag (top bit = transport-internal)
//! 16      —     payload   `kind_len & LEN_MASK` raw payload bytes
//! ```
//!
//! The payload length counts *bytes*, not elements, so every encoding —
//! dense f32 frames, packed 64-bit words, opaque compressed byte streams —
//! is measured in the same unit the socket moves. The kind field makes the
//! frame self-describing: a receiver can check that the bytes it got carry
//! the element type the collective expects, and a desynchronized stream
//! fails loudly on the magic/kind/length checks instead of reinterpreting
//! garbage.
//!
//! Payload bytes are raw little-endian IEEE-754/integer bit patterns (NaN
//! payloads round-trip bit-exactly). The 16-byte header is the entire
//! framing overhead the TCP transport adds on top of the application
//! payload — what [`TrafficStats::wire_bytes`](crate::TrafficStats)
//! measures on top of `bytes_sent`.

use std::io::{self, Read, Write};

/// Frame preamble: "A2SD" + format version 2 (version 1 moved untyped f32
/// frames). A mismatch means the stream desynchronized (or the peer speaks
/// a different protocol revision).
pub const FRAME_MAGIC: u32 = 0xA25D_0002;

/// Fixed per-frame framing overhead in bytes (magic + kind/len + tag).
pub const FRAME_HEADER_BYTES: u64 = 16;

/// Upper bound on payload bytes per frame: the 29-bit length field's
/// capacity less a page of guard, so garbage lengths near the field
/// maximum (e.g. an all-ones word from a desynchronized stream) are
/// rejected before any allocation. ~512 MiB covers a recursive-doubling
/// frame of a 130M-parameter dense gradient; larger payloads belong on the
/// chunking ring path.
pub const MAX_FRAME_BYTES: usize = (1 << 29) - 4096;

/// Bytes of the buffer a TCP link encodes its outgoing frames through
/// ([`write_frame`]): a dense gradient bucket crosses the socket in 64 KiB
/// writes.
pub const LINK_BUF_BYTES: usize = 64 * 1024;

/// Bytes of the fixed buffer [`read_frame`] decodes typed lanes through.
const RECV_CHUNK_BYTES: usize = 32 * 1024;

/// The most payload bytes [`read_frame`] allocates before any arrive: a
/// header's claim up to this is allocated once, at its final size, and
/// past it the payload grows as its bytes arrive, doubling, so a damaged
/// or hostile length word costs at most this much, not the
/// [`MAX_FRAME_BYTES`] it may claim. Every frame the benchmark's TCP
/// workloads receive is under it: a bucket is never split, so recursive
/// doubling sends FNN-3's fc1 weight (206 × 784) as one 646 016 B frame
/// each step, and the closing resync sends the whole 199 210-float model
/// as one 796 840 B frame, 1.3× under the cap. The price is a few
/// reallocating copies for a genuine frame past it (a larger model's
/// resync, or a bucket over 1 MiB).
pub const RECV_PREALLOC_BYTES: usize = 1 << 20;

/// Bits 28..0 of `kind_len` carry the payload byte length.
const LEN_MASK: u32 = (1 << 29) - 1;

/// How the raw payload bytes of a frame are to be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Opaque encoded bytes (compressed gradients: Elias streams, sparse
    /// index+value records, sign/ternary bit-packs).
    Bytes = 0,
    /// Dense little-endian `f32` lanes (4 bytes each) — the reducible path.
    F32Dense = 1,
    /// Little-endian `u64` words (8 bytes each) — e.g. A2SGD's single
    /// two-means packet.
    PackedU64 = 2,
}

impl PayloadKind {
    fn from_code(code: u32) -> Option<PayloadKind> {
        match code {
            0 => Some(PayloadKind::Bytes),
            1 => Some(PayloadKind::F32Dense),
            2 => Some(PayloadKind::PackedU64),
            _ => None,
        }
    }

    /// Bytes per element (1 for opaque byte streams).
    pub fn elem_bytes(&self) -> usize {
        match self {
            PayloadKind::Bytes => 1,
            PayloadKind::F32Dense => 4,
            PayloadKind::PackedU64 => 8,
        }
    }
}

/// A borrowed typed wire payload: what one point-to-point frame carries,
/// viewed over the sender's buffers. Sends take this so the hot path
/// (e.g. a ring allreduce chunk) streams straight from the gradient slice
/// with no intermediate allocation; [`Payload`] is its owned counterpart
/// on the receive side.
#[derive(Debug, Clone, Copy)]
pub enum PayloadRef<'a> {
    /// Dense `f32` lanes — what allreduce reduces.
    F32Dense(&'a [f32]),
    /// Packed 64-bit words.
    PackedU64(&'a [u64]),
    /// Opaque encoded bytes.
    Bytes(&'a [u8]),
}

impl PayloadRef<'_> {
    /// The payload's kind tag.
    pub fn kind(&self) -> PayloadKind {
        match self {
            PayloadRef::F32Dense(_) => PayloadKind::F32Dense,
            PayloadRef::PackedU64(_) => PayloadKind::PackedU64,
            PayloadRef::Bytes(_) => PayloadKind::Bytes,
        }
    }

    /// Payload bytes on the wire (excluding the fixed frame header):
    /// element count × the kind's width, from the one `elem_bytes` table.
    pub fn byte_len(&self) -> usize {
        let elems = match self {
            PayloadRef::F32Dense(v) => v.len(),
            PayloadRef::PackedU64(v) => v.len(),
            PayloadRef::Bytes(v) => v.len(),
        };
        self.kind().elem_bytes() * elems
    }

    /// Payload size in bits — the logical wire size of this encoding.
    pub fn bits(&self) -> u64 {
        8 * self.byte_len() as u64
    }

    /// Copies into an owned [`Payload`].
    pub fn to_owned(self) -> Payload {
        match self {
            PayloadRef::F32Dense(v) => Payload::F32Dense(v.to_vec()),
            PayloadRef::PackedU64(v) => Payload::PackedU64(v.to_vec()),
            PayloadRef::Bytes(v) => Payload::Bytes(v.to_vec()),
        }
    }

    /// Appends the raw little-endian payload bytes to `buf`.
    pub fn extend_bytes_into(&self, buf: &mut Vec<u8>) {
        match self {
            PayloadRef::F32Dense(v) => {
                for x in *v {
                    buf.extend_from_slice(&x.to_bits().to_le_bytes());
                }
            }
            PayloadRef::PackedU64(v) => {
                for x in *v {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
            }
            PayloadRef::Bytes(v) => buf.extend_from_slice(v),
        }
    }
}

/// An owned typed wire payload (the receive-side counterpart of
/// [`PayloadRef`]).
///
/// The variants are the three element encodings the collectives move; the
/// byte length of a payload *is* its wire size (plus the fixed frame
/// header), so traffic accounting needs no out-of-band overrides.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Dense `f32` lanes — what allreduce reduces.
    F32Dense(Vec<f32>),
    /// Packed 64-bit words.
    PackedU64(Vec<u64>),
    /// Opaque encoded bytes.
    Bytes(Vec<u8>),
}

impl Payload {
    /// Borrows this payload as a [`PayloadRef`].
    pub fn as_ref(&self) -> PayloadRef<'_> {
        match self {
            Payload::F32Dense(v) => PayloadRef::F32Dense(v),
            Payload::PackedU64(v) => PayloadRef::PackedU64(v),
            Payload::Bytes(v) => PayloadRef::Bytes(v),
        }
    }

    /// The payload's kind tag.
    pub fn kind(&self) -> PayloadKind {
        self.as_ref().kind()
    }

    /// Payload bytes on the wire (excluding the fixed frame header).
    pub fn byte_len(&self) -> usize {
        self.as_ref().byte_len()
    }

    /// Payload size in bits — the logical wire size of this encoding.
    pub fn bits(&self) -> u64 {
        self.as_ref().bits()
    }

    /// Consumes an `F32Dense` payload; panics (frame-kind mismatch ⇒ peer
    /// bug or desync) on any other kind.
    pub fn expect_f32(self) -> Vec<f32> {
        match self {
            Payload::F32Dense(v) => v,
            other => panic!("expected F32Dense frame, got {:?}", other.kind()),
        }
    }

    /// Consumes a `PackedU64` payload; panics on any other kind.
    pub fn expect_u64(self) -> Vec<u64> {
        match self {
            Payload::PackedU64(v) => v,
            other => panic!("expected PackedU64 frame, got {:?}", other.kind()),
        }
    }

    /// Consumes a `Bytes` payload; panics on any other kind.
    pub fn expect_bytes(self) -> Vec<u8> {
        match self {
            Payload::Bytes(v) => v,
            other => panic!("expected Bytes frame, got {:?}", other.kind()),
        }
    }
}

/// Total bytes a frame with `byte_len` payload bytes occupies on the wire.
pub fn frame_wire_bytes(byte_len: usize) -> u64 {
    FRAME_HEADER_BYTES + byte_len as u64
}

fn header_bytes(tag: u64, payload: PayloadRef<'_>) -> [u8; FRAME_HEADER_BYTES as usize] {
    let byte_len = payload.byte_len();
    assert!(byte_len <= MAX_FRAME_BYTES, "frame payload {byte_len} B exceeds {MAX_FRAME_BYTES}");
    let kind_len = ((payload.kind() as u32) << 29) | byte_len as u32;
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..8].copy_from_slice(&kind_len.to_le_bytes());
    header[8..16].copy_from_slice(&tag.to_le_bytes());
    header
}

/// Encodes one frame into a fresh buffer.
pub fn encode_frame(tag: u64, payload: PayloadRef<'_>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame_wire_bytes(payload.byte_len()) as usize);
    buf.extend_from_slice(&header_bytes(tag, payload));
    payload.extend_bytes_into(&mut buf);
    buf
}

/// Writes one frame to `w` through the link buffer `buf`, returning the
/// bytes put on the wire. The header and the payload's little-endian lanes
/// are encoded into `buf` and every full buffer goes to `w` in one
/// `write_all`, so a frame is one copy on this side of the socket. Through
/// the TCP link's [`LINK_BUF_BYTES`] buffer that is ⌈frame bytes ÷ 64 KiB⌉
/// writes, and a frame that fits (the A2SGD packet, a barrier token) is
/// one. `buf` must hold at least the 16-byte header.
pub fn write_frame<W: Write>(
    w: &mut W,
    buf: &mut [u8],
    tag: u64,
    payload: PayloadRef<'_>,
) -> io::Result<u64> {
    let header = header_bytes(tag, payload);
    buf[..header.len()].copy_from_slice(&header);
    let fill = match payload {
        PayloadRef::F32Dense(v) => put_lanes(w, buf, header.len(), v, 4, |dst, src| {
            for (slot, x) in dst.chunks_exact_mut(4).zip(src) {
                slot.copy_from_slice(&x.to_bits().to_le_bytes());
            }
        })?,
        PayloadRef::PackedU64(v) => put_lanes(w, buf, header.len(), v, 8, |dst, src| {
            for (slot, x) in dst.chunks_exact_mut(8).zip(src) {
                slot.copy_from_slice(&x.to_le_bytes());
            }
        })?,
        PayloadRef::Bytes(v) => {
            put_lanes(w, buf, header.len(), v, 1, |dst, src| dst.copy_from_slice(src))?
        }
    };
    w.write_all(&buf[..fill])?;
    Ok(frame_wire_bytes(payload.byte_len()))
}

/// Encodes `lanes` (`width` bytes each) into `buf` after its first `fill`
/// bytes, writing the buffer to `w` whenever no further lane fits. Returns
/// how much of `buf` is filled and not yet written.
fn put_lanes<W: Write, T>(
    w: &mut W,
    buf: &mut [u8],
    mut fill: usize,
    mut lanes: &[T],
    width: usize,
    encode: impl Fn(&mut [u8], &[T]),
) -> io::Result<usize> {
    while !lanes.is_empty() {
        let room = (buf.len() - fill) / width;
        if room == 0 {
            w.write_all(&buf[..fill])?;
            fill = 0;
            continue;
        }
        let (now, rest) = lanes.split_at(room.min(lanes.len()));
        encode(&mut buf[fill..fill + width * now.len()], now);
        fill += width * now.len();
        lanes = rest;
    }
    Ok(fill)
}

/// Reads one complete frame from `r` (blocking until the whole payload
/// arrived). Returns the tag and the decoded typed payload. The header is
/// checked — magic, kind, the [`MAX_FRAME_BYTES`] cap, a whole number of
/// elements — before anything is allocated; then the typed payload is
/// allocated at its final size, up to [`RECV_PREALLOC_BYTES`], and filled:
/// opaque bytes straight from `r`, typed lanes through one fixed 32 KiB
/// buffer. A longer claim grows the payload as bytes arrive (at most
/// doubling it), so a short stream is an `UnexpectedEof` that allocated
/// about what it read.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<(u64, Payload)> {
    let mut header = [0u8; FRAME_HEADER_BYTES as usize];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != FRAME_MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad frame magic {magic:#010x} (stream desynchronized?)"),
        ));
    }
    let kind_len = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let tag = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let kind = PayloadKind::from_code(kind_len >> 29).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unknown payload kind {} (stream desynchronized?)", kind_len >> 29),
        )
    })?;
    let byte_len = (kind_len & LEN_MASK) as usize;
    if byte_len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {byte_len} B exceeds {MAX_FRAME_BYTES} (stream desynchronized?)"),
        ));
    }
    if byte_len % kind.elem_bytes() != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{byte_len} payload bytes not a multiple of {kind:?} width"),
        ));
    }
    let payload = match kind {
        PayloadKind::Bytes => {
            let mut v = Vec::with_capacity(byte_len.min(RECV_PREALLOC_BYTES));
            r.by_ref().take(byte_len as u64).read_to_end(&mut v)?;
            if v.len() < byte_len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("frame ended after {} of {byte_len} payload bytes", v.len()),
                ));
            }
            Payload::Bytes(v)
        }
        PayloadKind::F32Dense => {
            Payload::F32Dense(read_lanes(r, byte_len / 4, f32::from_le_bytes)?)
        }
        PayloadKind::PackedU64 => {
            Payload::PackedU64(read_lanes(r, byte_len / 8, u64::from_le_bytes)?)
        }
    };
    Ok((tag, payload))
}

/// Reads `n` lanes of `N` bytes each from `r`, decoding each lane with
/// `from_le`, into one vector allocated at its final size up to
/// [`RECV_PREALLOC_BYTES`] and grown past it as lanes arrive.
fn read_lanes<R: Read, T, const N: usize>(
    r: &mut R,
    n: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(n.min(RECV_PREALLOC_BYTES / N));
    let mut chunk = [0u8; RECV_CHUNK_BYTES];
    while out.len() < n {
        let bytes = &mut chunk[..N * (n - out.len()).min(RECV_CHUNK_BYTES / N)];
        r.read_exact(bytes)?;
        let lane = |c: &[u8]| from_le(c.try_into().expect("chunks_exact yields N-byte lanes"));
        out.extend(bytes.chunks_exact(N).map(lane));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn f32_roundtrip_preserves_bits() {
        let payload = vec![1.0f32, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-45];
        let buf = encode_frame(0xDEAD_BEEF_0042, PayloadRef::F32Dense(&payload));
        assert_eq!(buf.len() as u64, frame_wire_bytes(4 * payload.len()));
        let (tag, got) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(tag, 0xDEAD_BEEF_0042);
        assert_eq!(f32_bits(&got.expect_f32()), f32_bits(&payload));
    }

    #[test]
    fn u64_and_bytes_roundtrip() {
        let words = vec![0u64, u64::MAX, 0x0123_4567_89AB_CDEF];
        let buf = encode_frame(1, PayloadRef::PackedU64(&words));
        assert_eq!(buf.len() as u64, frame_wire_bytes(8 * words.len()));
        let (_, got) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.expect_u64(), words);

        let bytes: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let buf = encode_frame(2, PayloadRef::Bytes(&bytes));
        assert_eq!(buf.len() as u64, frame_wire_bytes(bytes.len()));
        let (_, got) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.expect_bytes(), bytes);
    }

    #[test]
    fn write_frame_matches_encode_frame() {
        // The buffered writer and the allocating encoder must agree
        // byte-for-byte, including across the link buffer's edge — here
        // made small (and not a multiple of a lane) so short payloads cross
        // it many times.
        let f: Vec<f32> = (0..5000).map(|i| f32::from_bits(i as u32 * 0x9E37)).collect();
        let u: Vec<u64> =
            (0..2000).map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let b: Vec<u8> = (0..9000u32).map(|i| (i % 255) as u8).collect();
        for buf_len in [16usize, 27, 4096, LINK_BUF_BYTES] {
            let mut link = vec![0u8; buf_len];
            for len in [0usize, 1, 1023, 1024, 1025, 2000] {
                for payload in [
                    Payload::F32Dense(f[..len].to_vec()),
                    Payload::PackedU64(u[..len].to_vec()),
                    Payload::Bytes(b[..len].to_vec()),
                ] {
                    let mut streamed = Vec::new();
                    let n =
                        write_frame(&mut streamed, &mut link, 0xABCD, payload.as_ref()).unwrap();
                    assert_eq!(streamed, encode_frame(0xABCD, payload.as_ref()));
                    assert_eq!(n, streamed.len() as u64);
                }
            }
        }
    }

    /// Counts the `write` calls a frame costs.
    struct CountingSink(Vec<usize>);

    impl Write for CountingSink {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.push(bytes.len());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_per_link_buffer() {
        let mut link = vec![0u8; LINK_BUF_BYTES];
        let mut sink = CountingSink(Vec::new());
        // The A2SGD packet: header and word share one write.
        write_frame(&mut sink, &mut link, 1, PayloadRef::PackedU64(&[7])).unwrap();
        assert_eq!(sink.0, vec![24]);
        // FNN-3's 646 KB fc1 bucket: ten full buffers and the rest.
        sink.0.clear();
        let lanes = vec![0.5f32; 161_504];
        write_frame(&mut sink, &mut link, 2, PayloadRef::F32Dense(&lanes)).unwrap();
        let total = 16 + 4 * lanes.len();
        assert_eq!(sink.0.len(), total.div_ceil(LINK_BUF_BYTES));
        assert!(sink.0[..sink.0.len() - 1].iter().all(|&n| n == LINK_BUF_BYTES));
        assert_eq!(sink.0.iter().sum::<usize>(), total);
    }

    #[test]
    fn empty_frames_are_header_only() {
        for payload in
            [Payload::F32Dense(vec![]), Payload::PackedU64(vec![]), Payload::Bytes(vec![])]
        {
            let kind = payload.kind();
            let buf = encode_frame(7, payload.as_ref());
            assert_eq!(buf.len() as u64, FRAME_HEADER_BYTES);
            let (tag, got) = read_frame(&mut &buf[..]).unwrap();
            assert_eq!(tag, 7);
            assert_eq!(got.kind(), kind);
            assert_eq!(got.byte_len(), 0);
        }
    }

    #[test]
    fn kind_survives_the_header() {
        let buf = encode_frame(3, Payload::PackedU64(vec![42]).as_ref());
        let (_, got) = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(got.kind(), PayloadKind::PackedU64);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = encode_frame(1, Payload::F32Dense(vec![1.0, 2.0]).as_ref());
        buf[0] ^= 0xFF;
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let mut buf = encode_frame(1, Payload::Bytes(vec![1, 2, 3]).as_ref());
        buf[7] |= 0b1110_0000; // kind code 7: unassigned
        let e = read_frame(&mut &buf[..]).unwrap_err();
        assert!(e.to_string().contains("kind"), "{e}");
    }

    #[test]
    fn misaligned_typed_length_is_rejected() {
        // 5 payload bytes under the F32Dense kind: not a lane multiple.
        let mut buf = encode_frame(1, Payload::Bytes(vec![0; 5]).as_ref());
        buf[7] = (buf[7] & 0b0001_1111) | ((PayloadKind::F32Dense as u8) << 5);
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn truncated_payload_is_an_error() {
        let buf = encode_frame(1, Payload::F32Dense(vec![1.0, 2.0, 3.0]).as_ref());
        assert!(read_frame(&mut &buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn absurd_length_is_rejected_without_allocating() {
        let mut buf = encode_frame(1, Payload::Bytes(vec![]).as_ref());
        let kind_len = LEN_MASK; // max 29-bit length, kind Bytes
        buf[4..8].copy_from_slice(&kind_len.to_le_bytes());
        let e = read_frame(&mut &buf[..]).unwrap_err();
        assert!(e.to_string().contains("exceeds"), "{e}");
    }
}
