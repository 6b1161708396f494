//! The k-selection family: one sparsifier parameterised by its selection
//! rule, and the sparse wire format its frames use.
//!
//! A sparse contribution is `(index, value)` pairs, encoded as an opaque
//! byte frame ([`Payload::Bytes`]): per pair a little-endian `u32` index
//! followed by the value's raw little-endian IEEE-754 bits — 64 bits per
//! kept coordinate, which is exactly what the transport puts on the wire
//! (plus fixed framing).

use crate::ef::ErrorFeedback;
use crate::Codec;
use cluster_comm::Payload;
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

/// Sub-range of a sorted index list whose coordinates fall inside the
/// bucket `r` — how a global selection is cut into per-bucket wire frames.
pub fn records_in(idx: &[u32], r: &Range<usize>) -> Range<usize> {
    let lo = idx.partition_point(|&i| (i as usize) < r.start);
    let hi = idx.partition_point(|&i| (i as usize) < r.end);
    lo..hi
}

/// The selection count k of an `n`-parameter model at density
/// `ratio = k/n`: what every [`Sparsifier`] selects and what the registry
/// prices its frames by.
pub fn k_of(n: usize, ratio: f32) -> usize {
    ((n as f64 * ratio as f64).round() as usize).clamp(1, n)
}

/// How a [`Sparsifier`] picks the coordinates it transmits.
pub trait Select: Send {
    /// The coordinates of the accumulated gradient `acc` to transmit, as
    /// ascending indices; `k` is the target count.
    fn select(&mut self, acc: &[f32], k: usize) -> Vec<u32>;
}

/// Sparsification with error feedback (Stich et al., the paper's ref. 27):
/// each step the rule `S` selects about `k` coordinates of the
/// error-compensated gradient, those are allgathered as sparse records and
/// averaged, and everything not selected stays in the memory. Top-K,
/// Gaussian-K and Rand-K are this struct under their three rules.
pub struct Sparsifier<S> {
    k: usize,
    ef: ErrorFeedback,
    rule: S,
    /// This step's transmitted records, ascending by index.
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl<S: Select> Sparsifier<S> {
    /// A sparsifier for an `n`-parameter model with density `ratio = k/n`
    /// (the paper's appendix uses 0.001).
    pub fn with_rule(n: usize, ratio: f32, rule: S) -> Self {
        let k = k_of(n, ratio);
        Sparsifier { k, ef: ErrorFeedback::new(n), rule, idx: Vec::new(), val: Vec::new() }
    }

    /// The selection count k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The last step's transmitted `(idx, val)` records, ascending by index.
    pub fn selected(&self) -> (&[u32], &[f32]) {
        (&self.idx, &self.val)
    }

    /// The error-feedback memory: everything not transmitted so far.
    pub fn residual(&self) -> &[f32] {
        self.ef.residual()
    }
}

impl<S: Select> Codec for Sparsifier<S> {
    /// Error compensation and selection are global — the selected set is a
    /// property of the whole gradient, not of any bucket.
    fn prepare(&mut self, grad: &mut [f32]) {
        self.idx = self.rule.select(self.ef.accumulate(grad), self.k);
        self.val = self.idx.iter().map(|&i| self.ef.take(i as usize)).collect();
    }

    fn encode(&self, range: &Range<usize>, _bucket: &[f32]) -> Payload {
        let recs = records_in(&self.idx, range);
        encode(&self.idx[recs.clone()], &self.val[recs])
    }

    fn accumulate(
        &self,
        range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String> {
        let recs = match frame {
            Payload::Bytes(bytes) if bytes.len() % 8 == 0 => bytes.chunks_exact(8),
            _ => return Err("not whole 8-byte (index, value) records".to_string()),
        };
        for b in recs {
            let word = |at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
            let i = word(0) as usize;
            let slot = i.checked_sub(range.start).and_then(|at| bucket.get_mut(at));
            *slot.ok_or_else(|| format!("index {i} outside the bucket {range:?}"))? +=
                f32::from_bits(word(4)) * weight;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Last step's transmitted records added back onto the residual: the
    /// error-feedback invariant says this is the accumulated gradient.
    pub(crate) fn transmitted_plus_residual<S: Select>(s: &Sparsifier<S>) -> Vec<f32> {
        let mut rebuilt = s.residual().to_vec();
        for (&i, &v) in s.idx.iter().zip(&s.val) {
            rebuilt[i as usize] += v;
        }
        rebuilt
    }

    #[test]
    fn encode_decode_roundtrip_exact_indices() {
        // Two frames, each read back into its own bucket: the indices are
        // exact up to the top of u32.
        let codec = crate::TopK::new(4, 1.0);
        for (idx, bucket) in [
            ([0u32, 1, 2], 0..3),
            ([4_000_000_000, 4_000_000_002, 4_000_000_003], 4_000_000_000..4_000_000_004),
        ] {
            let val = [0.5f32, -1.25, f32::MIN_POSITIVE];
            let payload = encode(&idx, &val);
            assert_eq!(payload.bits(), PAIR_BITS * idx.len() as u64);
            let mut got = vec![0.0f32; bucket.len()];
            codec.accumulate(&bucket, &payload, &mut got, 1.0).unwrap();
            let mut want = vec![0.0f32; bucket.len()];
            for (&i, &v) in idx.iter().zip(&val) {
                want[i as usize - bucket.start] = v;
            }
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_selection_is_an_empty_frame() {
        let payload = encode(&[], &[]);
        assert_eq!(payload.byte_len(), 0);
        let mut bucket = [1.0f32; 3];
        crate::TopK::new(3, 1.0).accumulate(&(0..3), &payload, &mut bucket, 1.0).unwrap();
        assert_eq!(bucket, [1.0; 3]);
    }

    #[test]
    fn average_gathered_matches_dense_average() {
        // Two workers with overlapping sparse supports, in a bucket that
        // starts at coordinate 10.
        let w0 = encode(&[10, 12], &[2.0, 4.0]);
        let w1 = encode(&[12, 13], &[6.0, 8.0]);
        let codec = crate::TopK::new(15, 0.2);
        let mut out = vec![0.0f32; 5];
        for frame in [w0, w1] {
            codec.accumulate(&(10..15), &frame, &mut out, 0.5).unwrap();
        }
        assert_eq!(out, vec![1.0, 0.0, 5.0, 4.0, 0.0]);
    }

    #[test]
    fn misaligned_frame_rejected() {
        // 12 bytes: one record and a half; and one record under another
        // payload kind.
        let codec = crate::TopK::new(4, 1.0);
        for frame in [Payload::Bytes(vec![0u8; 12]), Payload::PackedU64(vec![0])] {
            let err = codec.accumulate(&(0..4), &frame, &mut [0.0; 4], 1.0).unwrap_err();
            assert!(err.contains("not whole 8-byte"), "{err}");
        }
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
