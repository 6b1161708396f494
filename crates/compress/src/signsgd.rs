//! EF-SignSGD (Karimireddy et al., paper ref [22]).

use crate::ef::ErrorFeedback;
use crate::elias::{BitReader, BitWriter};
use crate::{GradientSynchronizer, SyncStats};
use cluster_comm::{CommHandle, Payload, TransportError};
use std::ops::Range;
use std::time::Instant;

/// Transmits `sign(g + m) · ‖g + m‖₁/n` (one bit per coordinate plus a
/// 32-bit scale) with error feedback — the fix that makes 1-bit SGD
/// convergent. The wire frame is literally that: 4 bytes of scale + a
/// 1-bit-per-coordinate sign pack.
pub struct SignSgdEf {
    ef: ErrorFeedback,
    acc: Vec<f32>,
}

impl SignSgdEf {
    /// Creates EF-SignSGD for an `n`-parameter model.
    pub fn new(n: usize) -> Self {
        SignSgdEf { ef: ErrorFeedback::new(n), acc: vec![0.0; n] }
    }

    /// Encodes the wire frame: 4 bytes of scale + one sign bit per
    /// coordinate (1 = negative), final byte zero-padded.
    pub fn encode_payload(scale: f32, acc: &[f32]) -> Payload {
        let mut w = BitWriter::new();
        for &a in acc {
            w.push_bit(a.is_sign_negative());
        }
        crate::elias::scaled_stream_payload(scale, &w)
    }

    /// Folds a peer's frame into `acc`: `acc[i] += (±scale) · weight` —
    /// the decode-and-average step without materialising a temporary
    /// vector.
    pub fn accumulate_payload(payload: &Payload, acc: &mut [f32], weight: f32) {
        let (scale, stream) = crate::elias::split_scaled_stream(payload);
        let mut r = BitReader::new(stream, 8 * stream.len());
        for a in acc.iter_mut() {
            let v = if r.read_bit().expect("truncated sign stream") { -scale } else { scale };
            *a += v * weight;
        }
    }

    /// Decodes a peer's frame back to `±scale` values.
    pub fn decode_payload(payload: &Payload, n: usize) -> Vec<f32> {
        let (scale, stream) = crate::elias::split_scaled_stream(payload);
        let mut r = BitReader::new(stream, 8 * stream.len());
        (0..n)
            .map(|_| if r.read_bit().expect("truncated sign stream") { -scale } else { scale })
            .collect()
    }
}

impl GradientSynchronizer for SignSgdEf {
    fn name(&self) -> &'static str {
        "SignSGD-EF"
    }

    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        // Scale (global ℓ₁ mean) and error feedback run over the whole
        // accumulated gradient; only the sign pack is cut per bucket.
        self.acc.copy_from_slice(grad);
        self.ef.apply(&mut self.acc);
        let n = grad.len();
        let scale = (self.acc.iter().map(|v| v.abs() as f64).sum::<f64>() / n as f64) as f32;
        // Decoded local contribution (what error feedback absorbs).
        let decoded: Vec<f32> = self.acc.iter().map(|&a| scale * a.signum()).collect();
        self.ef.absorb(&self.acc, &decoded);
        let compress_seconds = t0.elapsed().as_secs_f64();
        comm.advance_compute(compress_seconds);

        // Per-bucket sign packs (each with the 32-bit scale prefix);
        // decode every peer's frame straight into the accumulating
        // gradient slice (no per-peer temporaries).
        let acc = &self.acc;
        let (wire_bits, exchange_seconds) = crate::session::pipeline_allgather(
            comm,
            bounds,
            |r| Self::encode_payload(scale, &acc[r.clone()]),
            |r, frames| {
                let out = &mut grad[r.clone()];
                out.fill(0.0);
                let inv = 1.0 / frames.len() as f32;
                for frame in &frames {
                    Self::accumulate_payload(frame, out, inv);
                }
            },
        )?;
        Ok(SyncStats { compress_seconds, exchange_seconds, wire_bits, ..SyncStats::default() })
    }

    fn wire_bits_formula(&self, n: usize) -> u64 {
        // 1-bit sign pack + 32-bit scale, padded to whole bytes.
        8 * (n as u64).div_ceil(8) + 32
    }

    fn complexity(&self) -> &'static str {
        "O(n)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn transmits_scaled_signs() {
        let out = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
            let mut s = SignSgdEf::new(4);
            let mut g = vec![2.0f32, -1.0, 0.5, -0.5];
            s.synchronize(&mut g, h);
            g
        });
        // scale = (2+1+0.5+0.5)/4 = 1.0 → ±1
        assert_eq!(out[0], vec![1.0, -1.0, 1.0, -1.0]);
    }

    #[test]
    fn error_feedback_tracks_quantization_error() {
        let out = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
            let mut s = SignSgdEf::new(2);
            let mut g = vec![3.0f32, -1.0];
            s.synchronize(&mut g, h); // scale = 2 → decoded [2, -2]
            s.ef.residual().to_vec()
        });
        assert_eq!(out[0], vec![1.0, 1.0]); // [3-2, -1-(-2)]
    }

    #[test]
    fn wire_bits_are_one_per_coordinate() {
        let s = SignSgdEf::new(10);
        assert_eq!(s.wire_bits_formula(1000), 1032);
    }
}
