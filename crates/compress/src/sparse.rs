//! Shared sparse-payload machinery for the k-selection family.
//!
//! A sparse contribution is `(index, value)` pairs, encoded as an opaque
//! byte frame ([`Payload::Bytes`]): per pair a little-endian `u32` index
//! followed by the value's raw little-endian IEEE-754 bits — 64 bits per
//! kept coordinate, which is exactly what the transport puts on the wire
//! (plus fixed framing).

use cluster_comm::{CommHandle, Payload, TransportError};
use std::ops::Range;

/// Bits one `(index, value)` record occupies on the wire.
pub const PAIR_BITS: u64 = 64;

/// Encodes `(idx, val)` pairs into the sparse wire frame.
pub fn encode(idx: &[u32], val: &[f32]) -> Payload {
    assert_eq!(idx.len(), val.len());
    let mut bytes = Vec::with_capacity(8 * idx.len());
    for (&i, &v) in idx.iter().zip(val) {
        bytes.extend_from_slice(&i.to_le_bytes());
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    Payload::Bytes(bytes)
}

/// Decodes a sparse wire frame back into `(idx, val)` pairs.
pub fn decode(payload: &Payload) -> (Vec<u32>, Vec<f32>) {
    let bytes = payload.as_bytes();
    assert!(bytes.len() % 8 == 0, "sparse frame must be (u32 idx, f32 val) records");
    let mut idx = Vec::with_capacity(bytes.len() / 8);
    let mut val = Vec::with_capacity(bytes.len() / 8);
    for rec in bytes.chunks_exact(8) {
        idx.push(u32::from_le_bytes(rec[0..4].try_into().unwrap()));
        val.push(f32::from_bits(u32::from_le_bytes(rec[4..8].try_into().unwrap())));
    }
    (idx, val)
}

/// Scatters one worker's sparse contribution into a dense buffer.
pub fn scatter_into(dense: &mut [f32], idx: &[u32], val: &[f32], scale: f32) {
    for (&i, &v) in idx.iter().zip(val) {
        dense[i as usize] += v * scale;
    }
}

/// Averages all gathered sparse frames into `out` (zeroed first):
/// `out = (1/P) Σ_p scatter(frame_p)` — the sparse analogue of
/// allreduce-average used by Top-K/Gaussian-K/Rand-K.
pub fn average_gathered(out: &mut [f32], gathered: &[Payload]) {
    out.fill(0.0);
    let inv = 1.0 / gathered.len() as f32;
    for payload in gathered {
        let (idx, val) = decode(payload);
        scatter_into(out, &idx, &val, inv);
    }
}

/// Sub-range of a sorted index list whose coordinates fall inside the
/// bucket `r` — how a global selection is cut into per-bucket wire frames.
pub fn records_in(idx: &[u32], r: &Range<usize>) -> Range<usize> {
    let lo = idx.partition_point(|&i| (i as usize) < r.start);
    let hi = idx.partition_point(|&i| (i as usize) < r.end);
    lo..hi
}

/// The k-selection family's shared bucketed exchange: the globally
/// selected `(idx, val)` records (indices sorted ascending) are cut at the
/// bucket boundaries, each bucket's records become one sparse frame
/// launched as a nonblocking allgather (in flight while the next bucket
/// encodes), and each bucket of `grad` is rebuilt as the world average of
/// the frames that land in it. Record order and per-coordinate
/// accumulation order (rank 0..P within each coordinate's only bucket) are
/// the same as the whole-model exchange, so the result is bit-identical
/// for every partition. Returns `(wire_bits, exchange_seconds)`, or the
/// typed transport error when a peer is lost mid-exchange.
pub fn exchange_selected(
    grad: &mut [f32],
    bounds: &[Range<usize>],
    comm: &mut CommHandle,
    idx: &[u32],
    val: &[f32],
) -> Result<(u64, f64), TransportError> {
    crate::session::pipeline_allgather(
        comm,
        bounds,
        |r| {
            let recs = records_in(idx, r);
            encode(&idx[recs.clone()], &val[recs])
        },
        |r, frames| {
            grad[r.clone()].fill(0.0);
            let inv = 1.0 / frames.len() as f32;
            for payload in &frames {
                let (fidx, fval) = decode(payload);
                scatter_into(grad, &fidx, &fval, inv);
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip_exact_indices() {
        let idx = vec![0u32, 1, 65_537, 4_000_000_000];
        let val = vec![0.5f32, -1.25, 3.0, f32::MIN_POSITIVE];
        let payload = encode(&idx, &val);
        assert_eq!(payload.bits(), PAIR_BITS * idx.len() as u64);
        let (i2, v2) = decode(&payload);
        assert_eq!(i2, idx);
        assert_eq!(v2, val);
    }

    #[test]
    fn empty_selection_is_an_empty_frame() {
        let payload = encode(&[], &[]);
        assert_eq!(payload.byte_len(), 0);
        let (i, v) = decode(&payload);
        assert!(i.is_empty() && v.is_empty());
    }

    #[test]
    fn average_gathered_matches_dense_average() {
        // Two workers with overlapping sparse supports.
        let w0 = encode(&[0, 2], &[2.0, 4.0]);
        let w1 = encode(&[2, 3], &[6.0, 8.0]);
        let mut out = vec![0.0f32; 5];
        average_gathered(&mut out, &[w0, w1]);
        assert_eq!(out, vec![1.0, 0.0, 5.0, 4.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn misaligned_frame_rejected() {
        let _ = decode(&Payload::Bytes(vec![0u8; 12]));
    }

    #[test]
    fn records_in_cuts_sorted_indices_at_bucket_bounds() {
        let idx = vec![0u32, 3, 7, 8, 100];
        assert_eq!(records_in(&idx, &(0..4)), 0..2);
        assert_eq!(records_in(&idx, &(4..8)), 2..3);
        assert_eq!(records_in(&idx, &(8..101)), 3..5);
        assert_eq!(records_in(&idx, &(101..200)), 5..5);
    }
}
