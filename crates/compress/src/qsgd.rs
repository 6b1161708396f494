//! QSGD stochastic quantization (Alistarh et al., paper ref [21]).
//!
//! Each coordinate is quantized to one of `s` levels of `‖g‖₂` with
//! unbiased stochastic rounding, then entropy-coded (sign bit + Elias
//! gamma level). Two implementations are provided:
//!
//! * [`QsgdImpl::Fast`] — single-pass vectorizable quantization, `O(n)`;
//! * [`QsgdImpl::Reference`] — mirrors the computation pattern of the
//!   numpy implementation the paper benchmarked (its §4.3 attributes
//!   `O(n²)` cost to recomputing the norm while quantizing each gradient);
//!   used by the Figure 2 regenerator so the *shape* of the paper's
//!   computation-time comparison is reproducible.

use crate::elias::{gamma_decode, gamma_encode, gamma_len, BitReader, BitWriter};
use crate::Codec;
use cluster_comm::Payload;
use mini_tensor::rng::SeedRng;
use std::ops::Range;

/// Implementation flavour (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QsgdImpl {
    /// O(n) single pass.
    Fast,
    /// Paper-faithful O(n²) reference (norm recomputed per coordinate).
    Reference,
}

/// One worker's quantized gradient: norm scale + per-coordinate signed
/// levels, plus the exact entropy-coded size.
#[derive(Default)]
pub struct QuantizedGrad {
    /// ‖g‖₂ scale.
    pub norm: f32,
    /// Signed levels in `[-s, s]`.
    pub levels: Vec<i8>,
    /// Elias-coded size in bits, exact: 32 for the norm + per-coordinate
    /// sign + gamma(level+1). The wire frame pads it to whole bytes.
    pub encoded_bits: u64,
}

/// QSGD synchronizer. The paper's appendix evaluates quantization level 4.
pub struct Qsgd {
    s: u8,
    imp: QsgdImpl,
    rng: SeedRng,
    /// This step's quantized gradient — what `encode` cuts per bucket.
    q: QuantizedGrad,
}

impl Qsgd {
    /// Creates QSGD with `s` quantization levels.
    pub fn new(s: u8, imp: QsgdImpl, seed: u64) -> Self {
        assert!(s >= 1);
        Qsgd { s, imp, rng: SeedRng::new(seed), q: QuantizedGrad::default() }
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        self.s
    }

    /// Quantizes `g`, returning levels + measured encoded size.
    pub fn quantize(&mut self, g: &[f32]) -> QuantizedGrad {
        match self.imp {
            QsgdImpl::Fast => self.quantize_fast(g),
            QsgdImpl::Reference => self.quantize_reference(g),
        }
    }

    /// Closed-form size of the Elias stream — no bit buffer is built, so
    /// quantization can report its encoded size without paying for the
    /// encoding twice ([`Self::encode_payload`] builds the real stream).
    fn encode_bits(levels: &[i8]) -> u64 {
        let stream: usize =
            levels.iter().map(|&l| 1 + gamma_len(l.unsigned_abs() as u64 + 1)).sum();
        32 + stream as u64
    }

    fn quantize_fast(&mut self, g: &[f32]) -> QuantizedGrad {
        let norm = (g.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()).sqrt() as f32;
        let mut levels = vec![0i8; g.len()];
        if norm > 0.0 {
            let s = self.s as f32;
            for (i, &v) in g.iter().enumerate() {
                let l = v.abs() / norm * s;
                let lower = l.floor();
                let p = l - lower;
                let q = lower + if self.rng.flip(p) { 1.0 } else { 0.0 };
                levels[i] = (q as i8).min(self.s as i8) * if v < 0.0 { -1 } else { 1 };
            }
        }
        let encoded_bits = Self::encode_bits(&levels);
        QuantizedGrad { norm, levels, encoded_bits }
    }

    /// Reference path: recomputes ‖g‖₂ for every coordinate, reproducing
    /// the quadratic compute profile the paper measured for the numpy
    /// implementation. Semantically identical to the fast path.
    fn quantize_reference(&mut self, g: &[f32]) -> QuantizedGrad {
        let mut levels = vec![0i8; g.len()];
        let mut norm = 0.0f32;
        let s = self.s as f32;
        for (i, &v) in g.iter().enumerate() {
            // O(n) norm inside the O(n) loop — deliberately quadratic.
            let n2 = (g.iter().map(|x| (*x as f64).powi(2)).sum::<f64>()).sqrt() as f32;
            norm = n2;
            if n2 > 0.0 {
                let l = v.abs() / n2 * s;
                let lower = l.floor();
                let p = l - lower;
                let q = lower + if self.rng.flip(p) { 1.0 } else { 0.0 };
                levels[i] = (q as i8).min(self.s as i8) * if v < 0.0 { -1 } else { 1 };
            }
        }
        let encoded_bits = Self::encode_bits(&levels);
        QuantizedGrad { norm, levels, encoded_bits }
    }

    /// Decodes a quantized gradient back to dense values.
    pub fn dequantize(q: &QuantizedGrad, s: u8, out: &mut [f32]) {
        let scale = q.norm / s as f32;
        for (o, &l) in out.iter_mut().zip(&q.levels) {
            *o = l as f32 * scale;
        }
    }

    /// Encodes a slice of the level stream into its wire frame: 4 bytes of
    /// norm followed by the Elias stream (sign bit + gamma(|level|+1) per
    /// coordinate, final byte zero-padded). This is the *actual* byte
    /// stream the transport moves — for the whole model,
    /// `ceil(encoded_bits / 8)` bytes; a bucket's frame is the same cut of
    /// the levels under the same norm, so each frame stays self-describing.
    pub fn encode_payload(norm: f32, levels: &[i8]) -> Payload {
        let mut w = BitWriter::new();
        for &l in levels {
            w.push_bit(l < 0);
            gamma_encode(&mut w, l.unsigned_abs() as u64 + 1);
        }
        crate::elias::scaled_stream_payload(norm, &w)
    }
}

impl Codec for Qsgd {
    fn name(&self) -> &'static str {
        "QSGD"
    }

    fn wire_bits_formula(&self, n: usize) -> u64 {
        // The paper quotes Alistarh et al.'s expected size: 2.8n + 32.
        (2.8 * n as f64).round() as u64 + 32
    }

    fn complexity(&self) -> &'static str {
        "O(n²)"
    }

    /// Quantizes the whole gradient once: the ℓ₂ norm and the stochastic
    /// rounding stream are global, so levels never depend on the bucket
    /// partition — only the frame cuts do.
    fn prepare(&mut self, grad: &mut [f32]) {
        self.q = self.quantize(grad);
    }

    fn encode(&self, range: &Range<usize>, _bucket: &[f32]) -> Payload {
        Self::encode_payload(self.q.norm, &self.q.levels[range.clone()])
    }

    /// Elias-decodes one level per coordinate and adds its dequantized
    /// value — the arithmetic of [`Qsgd::dequantize`] — at `weight`.
    fn accumulate(&self, _range: &Range<usize>, frame: &Payload, bucket: &mut [f32], weight: f32) {
        let (norm, stream) = crate::elias::split_scaled_stream(frame);
        let scale = norm / self.s as f32;
        let mut r = BitReader::new(stream, 8 * stream.len());
        for g in bucket.iter_mut() {
            let neg = r.read_bit().expect("sign bit");
            let mag = gamma_decode(&mut r).expect("gamma level") - 1;
            let level = if neg { -(mag as i8) } else { mag as i8 };
            *g += level as f32 * scale * weight;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn quantization_is_unbiased() {
        // E[decode(quantize(g))] = g: average many stochastic draws.
        let g = vec![0.3f32, -0.7, 0.05, 0.9, -0.2];
        let mut acc = vec![0.0f64; g.len()];
        let trials = 4000;
        let mut q = Qsgd::new(4, QsgdImpl::Fast, 9);
        let mut out = vec![0.0f32; g.len()];
        for _ in 0..trials {
            let qg = q.quantize(&g);
            Qsgd::dequantize(&qg, 4, &mut out);
            for (a, &v) in acc.iter_mut().zip(&out) {
                *a += v as f64;
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!((mean - g[i] as f64).abs() < 0.02, "coord {i}: E = {mean}, g = {}", g[i]);
        }
    }

    #[test]
    fn reference_and_fast_agree_given_same_seed() {
        let mut rng = SeedRng::new(10);
        let g: Vec<f32> = (0..64).map(|_| rng.randn()).collect();
        let qf = Qsgd::new(4, QsgdImpl::Fast, 77).quantize(&g);
        let qr = Qsgd::new(4, QsgdImpl::Reference, 77).quantize(&g);
        assert_eq!(qf.levels, qr.levels);
        assert!((qf.norm - qr.norm).abs() < 1e-5);
    }

    #[test]
    fn encoded_bits_match_real_stream() {
        let mut q = Qsgd::new(4, QsgdImpl::Fast, 3);
        let g = vec![0.5f32, -0.5, 0.0, 1.0, -1.0, 0.25];
        let qg = q.quantize(&g);
        // The closed form against the actual bit stream, and the frame
        // against both: 4 norm bytes + the stream padded to whole bytes.
        let mut w = BitWriter::new();
        for &l in &qg.levels {
            w.push_bit(l < 0);
            gamma_encode(&mut w, l.unsigned_abs() as u64 + 1);
        }
        assert_eq!(qg.encoded_bits, 32 + w.bit_len() as u64);
        let frame = Qsgd::encode_payload(qg.norm, &qg.levels);
        assert_eq!(frame.as_bytes()[4..], *w.as_bytes());
        assert_eq!(frame.byte_len() as u64, qg.encoded_bits.div_ceil(8));
    }

    #[test]
    fn zero_gradient_stays_zero() {
        let mut q = Qsgd::new(4, QsgdImpl::Fast, 3);
        let g = vec![0.0f32; 10];
        let qg = q.quantize(&g);
        assert!(qg.levels.iter().all(|&l| l == 0));
        assert_eq!(qg.norm, 0.0);
    }

    #[test]
    fn sync_replicas_agree() {
        let out = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let mut rng = SeedRng::new(50 + h.rank() as u64);
            let mut g: Vec<f32> = (0..200).map(|_| rng.randn() * 0.1).collect();
            let mut q = Qsgd::new(4, QsgdImpl::Fast, h.rank() as u64);
            q.synchronize(&mut g, h);
            g
        });
        for g in &out[1..] {
            assert_eq!(g, &out[0]);
        }
    }

    #[test]
    fn measured_bits_beat_dense_encoding() {
        // At s=4 on typical gradients the Elias stream must be well under
        // 32 bits/coordinate (the paper's motivation for quantization).
        let mut rng = SeedRng::new(11);
        let g: Vec<f32> = (0..10_000).map(|_| rng.randn() * 0.01).collect();
        let qg = Qsgd::new(4, QsgdImpl::Fast, 12).quantize(&g);
        let bits_per_coord = (qg.encoded_bits - 32) as f64 / g.len() as f64;
        assert!(bits_per_coord < 8.0, "bits/coord {bits_per_coord}");
    }
}
