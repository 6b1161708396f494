//! TernGrad ternary quantization (Wen et al., paper ref [20]).

use crate::elias::{read_scaled, BitWriter};
use crate::Codec;
use cluster_comm::Payload;
use mini_tensor::rng::SeedRng;
use std::ops::Range;

/// Quantizes each coordinate to `{−s, 0, +s}` with `s = max|g|` and
/// `P(±s) = |g_i|/s` — unbiased. The wire frame bit-packs each ternary
/// digit into 2 bits next to the 32-bit scale (the information-theoretic
/// log₂3 ≈ 1.585 bits/coordinate would need arithmetic coding; the fixed
/// 2-bit pack is what actually crosses the socket).
pub struct TernGrad {
    rng: SeedRng,
    /// This step's scale `s`, shipped with every bucket's frame.
    scale: f32,
}

/// The ternary digits in stream order (first bit in bit 0): written
/// first-bit-first they read `00` = 0, `01` = +s, `10` = −s. `11` is not
/// a digit.
const ZERO: u32 = 0b00;
const PLUS: u32 = 0b10;
const MINUS: u32 = 0b01;

impl TernGrad {
    /// Creates TernGrad with a seeded dithering stream.
    pub fn new(seed: u64) -> Self {
        TernGrad { rng: SeedRng::new(seed), scale: 0.0 }
    }

    /// Quantizes in place, returning the scale `s`.
    pub fn ternarize(&mut self, g: &mut [f32]) -> f32 {
        let s = g.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        if s == 0.0 {
            return 0.0;
        }
        for v in g.iter_mut() {
            let p = v.abs() / s;
            *v = if self.rng.flip(p) { s * v.signum() } else { 0.0 };
        }
        s
    }
}

impl Codec for TernGrad {
    /// The scale (max |g|) and the dithering stream are global: `grad` is
    /// ternarized in place before any bucket is cut, and every bucket
    /// encodes from its own slice of it.
    fn prepare(&mut self, grad: &mut [f32]) {
        self.scale = self.ternarize(grad);
    }

    /// 4 bytes of scale, then 2 bits per coordinate, final byte
    /// zero-padded.
    fn encode(&self, _range: &Range<usize>, bucket: &[f32]) -> Payload {
        let mut w = BitWriter::scaled(self.scale, 2 * bucket.len());
        for &v in bucket {
            let digit = if v > 0.0 {
                PLUS
            } else if v < 0.0 {
                MINUS
            } else {
                ZERO
            };
            w.put(digit, 2);
        }
        w.finish()
    }

    /// Refuses a short frame and the non-digit `11`.
    fn accumulate(
        &self,
        _range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String> {
        read_scaled(frame, bucket.len(), "ternary digits", |scale, mut r| {
            for a in bucket.iter_mut() {
                match r.take(2)? {
                    PLUS => *a += scale * weight,
                    MINUS => *a -= scale * weight,
                    ZERO => {}
                    _ => return None,
                }
            }
            Some(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn output_is_ternary() {
        let mut tg = TernGrad::new(1);
        let mut rng = SeedRng::new(2);
        let mut g: Vec<f32> = (0..500).map(|_| rng.randn()).collect();
        let s = tg.ternarize(&mut g);
        assert!(s > 0.0);
        for v in &g {
            assert!(*v == 0.0 || (v.abs() - s).abs() < 1e-6, "non-ternary {v}");
        }
    }

    #[test]
    fn ternarization_is_unbiased() {
        let g0 = vec![0.4f32, -0.8, 0.1, 1.0];
        let mut acc = [0.0f64; 4];
        let trials = 6000;
        let mut tg = TernGrad::new(7);
        for _ in 0..trials {
            let mut g = g0.clone();
            tg.ternarize(&mut g);
            for (a, v) in acc.iter_mut().zip(&g) {
                *a += *v as f64;
            }
        }
        for (i, a) in acc.iter().enumerate() {
            let mean = a / trials as f64;
            assert!((mean - g0[i] as f64).abs() < 0.03, "coord {i}: {mean} vs {}", g0[i]);
        }
    }

    #[test]
    fn zero_input_zero_output() {
        let mut tg = TernGrad::new(3);
        let mut g = vec![0.0f32; 8];
        assert_eq!(tg.ternarize(&mut g), 0.0);
        assert!(g.iter().all(|&v| v == 0.0));
    }
}
