//! EF-SignSGD (Karimireddy et al., paper ref [22]).

use crate::ef::ErrorFeedback;
use crate::elias::{read_scaled, BitWriter};
use crate::Codec;
use cluster_comm::Payload;
use std::ops::Range;

/// Transmits `sign(g + m) · ‖g + m‖₁/n` (one bit per coordinate plus a
/// 32-bit scale) with error feedback — the fix that makes 1-bit SGD
/// convergent. The wire frame is literally that: 4 bytes of scale + a
/// 1-bit-per-coordinate sign pack.
pub struct SignSgdEf {
    ef: ErrorFeedback,
    /// This step's scale, shipped with every bucket's frame.
    scale: f32,
}

impl SignSgdEf {
    /// Creates EF-SignSGD for an `n`-parameter model.
    pub fn new(n: usize) -> Self {
        SignSgdEf { ef: ErrorFeedback::new(n), scale: 0.0 }
    }

    /// The error-feedback memory: the quantization error carried so far.
    pub fn residual(&self) -> &[f32] {
        self.ef.residual()
    }
}

impl Codec for SignSgdEf {
    /// Scale (global ℓ₁ mean) and error feedback run over the whole
    /// accumulated gradient. `grad` is left holding this worker's decoded
    /// contribution `±scale` — what the memory gives up, and what each
    /// bucket's sign pack is cut from.
    fn prepare(&mut self, grad: &mut [f32]) {
        let acc = self.ef.accumulate(grad);
        let scale = (acc.iter().map(|v| v.abs() as f64).sum::<f64>() / acc.len() as f64) as f32;
        for (g, a) in grad.iter_mut().zip(acc) {
            *g = scale * a.signum();
            *a -= *g;
        }
        self.scale = scale;
    }

    /// 4 bytes of scale + one sign bit per coordinate (1 = negative),
    /// final byte zero-padded.
    fn encode(&self, _range: &Range<usize>, bucket: &[f32]) -> Payload {
        let mut w = BitWriter::scaled(self.scale, bucket.len());
        for &v in bucket {
            w.put(v.is_sign_negative() as u32, 1);
        }
        w.finish()
    }

    fn accumulate(
        &self,
        _range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String> {
        read_scaled(frame, bucket.len(), "sign bits", |scale, mut r| {
            for a in bucket.iter_mut() {
                let v = if r.take(1)? == 1 { -scale } else { scale };
                *a += v * weight;
            }
            Some(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;
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
            s.residual().to_vec()
        });
        assert_eq!(out[0], vec![1.0, 1.0]); // [3-2, -1-(-2)]
    }

    #[test]
    fn wire_bits_are_one_per_coordinate() {
        // A sign bit per coordinate, padded to whole bytes, plus the scale:
        // the registry's closed form is what a whole-model sync ships.
        let sign = a2sgd::registry::AlgoKind::SignSgd;
        assert_eq!(sign.wire_bits(1000), 1032);
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            SignSgdEf::new(1003).synchronize(&mut vec![0.5; 1003], h).wire_bits
        });
        assert!(out.into_iter().all(|bits| bits == sign.wire_bits(1003)));
    }
}
