//! QSGD stochastic quantization (Alistarh et al., paper ref [21]).
//!
//! Each coordinate is quantized to one of `s` levels of `‖g‖₂` with
//! unbiased stochastic rounding, then entropy-coded (sign bit + Elias
//! gamma level, the crate's `elias` coder). Two implementations are provided:
//!
//! * [`QsgdImpl::Fast`] — one pass, `O(n)`: each coordinate is rounded
//!   into a buffer reused across steps (the encoded size is the frame's,
//!   counted by the writer that builds it);
//! * [`QsgdImpl::Reference`] — mirrors the computation pattern of the
//!   numpy implementation the paper benchmarked (its §4.3 attributes
//!   `O(n²)` cost to recomputing the norm while quantizing each gradient);
//!   used by the Figure 2 regenerator so the *shape* of the paper's
//!   computation-time comparison is reproducible.
//!
//! Both draw one `flip` per coordinate, in index order, so they give the
//! same levels. Frames are encoded by table lookup into a word-level
//! writer and decoded up to four levels per table lookup; a frame holding
//! a code that is not a level in `[−s, s]`, or too few codes, is refused.

use crate::elias::{level_code, read_scaled, BitWriter, LevelDecoder};
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
/// levels.
#[derive(Default)]
pub struct QuantizedGrad {
    /// ‖g‖₂ scale.
    pub norm: f32,
    /// Signed levels in `[-s, s]`.
    pub levels: Vec<i8>,
}

/// QSGD synchronizer. The paper's appendix evaluates quantization level 4.
pub struct Qsgd {
    s: u8,
    imp: QsgdImpl,
    rng: SeedRng,
    /// This step's quantized gradient — what `encode` cuts per bucket.
    q: QuantizedGrad,
    decoder: LevelDecoder,
}

/// 1.5·2²³: adding it rounds any |x| < 2²² to the nearest integer, which
/// then sits in the low mantissa bits.
const ROUND: f32 = 12_582_912.0;

/// One coordinate's stochastically rounded level: up one step with
/// probability `p` = the fraction past the lower level, as `round_up(p)`
/// decides. Branch-free with no float-to-int `as` (nor a libm `floorf`),
/// so the batch loop vectorises: `x = |v|/‖g‖·s` is in [0, s] (a NaN is
/// taken as 0, which rounds to level 0 as it always did), so its floor and
/// the level's integer value are both exact through [`ROUND`].
#[inline(always)]
fn level(v: f32, norm: f32, s: u8, round_up: impl FnOnce(f32) -> bool) -> i8 {
    let x = (v.abs() / norm * s as f32).max(0.0);
    let nearest = (x + ROUND) - ROUND;
    let lower = if nearest > x { nearest - 1.0 } else { nearest };
    let q = (lower + if round_up(x - lower) { 1.0 } else { 0.0 }).min(s as f32);
    let q = (q + ROUND).to_bits() as i32 - ROUND.to_bits() as i32;
    (if v < 0.0 { -q } else { q }) as i8
}

/// Coordinates quantized per batch of uniforms drawn ahead.
const DRAWS: usize = 256;

impl Qsgd {
    /// Creates QSGD with `s` quantization levels, `s` in `1..=127`.
    pub fn new(s: u8, imp: QsgdImpl, seed: u64) -> Self {
        let decoder = LevelDecoder::new(s);
        Qsgd { s, imp, rng: SeedRng::new(seed), q: QuantizedGrad::default(), decoder }
    }

    /// Quantizes `g` into the codec's buffer, returning norm + levels.
    pub fn quantize(&mut self, g: &[f32]) -> &QuantizedGrad {
        self.q.levels.clear();
        self.q.levels.resize(g.len(), 0);
        match self.imp {
            QsgdImpl::Fast => self.quantize_fast(g),
            QsgdImpl::Reference => self.quantize_reference(g),
        }
        &self.q
    }

    fn quantize_fast(&mut self, g: &[f32]) {
        let norm = (g.iter().map(|v| (*v as f64).powi(2)).sum::<f64>()).sqrt() as f32;
        let (s, rng, q) = (self.s, &mut self.rng, &mut self.q);
        if norm > 0.0 {
            // One flip per coordinate in index order, drawn a batch ahead
            // so the rounding loop runs free of the generator's chain.
            let mut u = [0.0f32; DRAWS];
            for (ls, vs) in q.levels.chunks_mut(DRAWS).zip(g.chunks(DRAWS)) {
                let u = &mut u[..vs.len()];
                rng.fill_unit(u);
                for ((l, &v), &u) in ls.iter_mut().zip(vs).zip(&*u) {
                    *l = level(v, norm, s, |p| u < p);
                }
            }
        }
        q.norm = norm;
    }

    /// Reference path: recomputes ‖g‖₂ for every coordinate, reproducing
    /// the quadratic compute profile the paper measured for the numpy
    /// implementation. Semantically identical to the fast path.
    fn quantize_reference(&mut self, g: &[f32]) {
        let q = &mut self.q;
        q.norm = 0.0;
        for (i, &v) in g.iter().enumerate() {
            // O(n) norm inside the O(n) loop — deliberately quadratic.
            let n2 = (g.iter().map(|x| (*x as f64).powi(2)).sum::<f64>()).sqrt() as f32;
            q.norm = n2;
            if n2 > 0.0 {
                q.levels[i] = level(v, n2, self.s, |p| self.rng.flip(p));
            }
        }
    }

    /// Encodes a slice of the level stream into its wire frame: 4 bytes of
    /// norm followed by the Elias stream (sign bit + gamma(|level|+1) per
    /// coordinate, final byte zero-padded). This is the *actual* byte
    /// stream the transport moves; a bucket's frame is the same cut of the
    /// levels under the same norm, so each frame stays self-describing.
    pub fn encode_payload(norm: f32, levels: &[i8]) -> Payload {
        // ≈ 2.8 bits a level at s = 4 (the paper's expected size).
        let mut w = BitWriter::scaled(norm, 3 * levels.len());
        for &l in levels {
            let (code, len) = level_code(l);
            w.put(code, len);
        }
        w.finish()
    }
}

impl Codec for Qsgd {
    /// Quantizes the whole gradient once: the ℓ₂ norm and the stochastic
    /// rounding stream are global, so levels never depend on the bucket
    /// partition — only the frame cuts do.
    fn prepare(&mut self, grad: &mut [f32]) {
        self.quantize(grad);
    }

    fn encode(&self, range: &Range<usize>, _bucket: &[f32]) -> Payload {
        Self::encode_payload(self.q.norm, &self.q.levels[range.clone()])
    }

    fn accumulate(
        &self,
        _range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String> {
        read_scaled(frame, bucket.len(), "levels in [−s, s]", |norm, r| {
            let scale = norm / self.s as f32;
            self.decoder.decode(r, bucket, |g, level| *g += level as f32 * scale * weight)
        })
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
        for _ in 0..trials {
            q.prepare(&mut g.clone());
            let mut out = vec![0.0f32; g.len()];
            q.accumulate(&(0..g.len()), &q.encode(&(0..g.len()), &g), &mut out, 1.0).unwrap();
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
        let (mut fast, mut reference) =
            (Qsgd::new(4, QsgdImpl::Fast, 77), Qsgd::new(4, QsgdImpl::Reference, 77));
        let (qf, qr) = (fast.quantize(&g), reference.quantize(&g));
        assert_eq!(qf.levels, qr.levels);
        assert!((qf.norm - qr.norm).abs() < 1e-5);
    }

    #[test]
    fn encoded_bits_match_real_stream() {
        let mut q = Qsgd::new(4, QsgdImpl::Fast, 3);
        let g = vec![0.5f32, -0.5, 0.0, 1.0, -1.0, 0.25];
        let qg = q.quantize(&g);
        // The frame against the code's definition (sign + gamma(|l| + 1)
        // per level): 4 norm bytes + the stream padded to whole bytes,
        // decoding back to the levels.
        let stream: u32 =
            qg.levels.iter().map(|&l| 2 + 2 * (l.unsigned_abs() as u32 + 1).ilog2()).sum();
        let (norm, levels) = (qg.norm, qg.levels.clone());
        let frame = Qsgd::encode_payload(norm, &levels);
        assert_eq!(frame.byte_len() as u32, (32 + stream).div_ceil(8));
        let mut out = vec![0.0f32; levels.len()];
        q.accumulate(&(0..levels.len()), &frame, &mut out, 1.0).unwrap();
        let want: Vec<f32> = levels.iter().map(|&l| 0.0 + l as f32 * (norm / 4.0) * 1.0).collect();
        assert_eq!(out, want);
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
        let mut q = Qsgd::new(4, QsgdImpl::Fast, 12);
        let qg = q.quantize(&g);
        let frame = Qsgd::encode_payload(qg.norm, &qg.levels);
        let bits_per_coord = (8 * frame.byte_len() - 32) as f64 / g.len() as f64;
        assert!(bits_per_coord < 8.0, "bits/coord {bits_per_coord}");
    }
}
