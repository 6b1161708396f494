//! TernGrad ternary quantization (Wen et al., paper ref [20]).

use crate::elias::{BitReader, BitWriter};
use crate::{GradientSynchronizer, SyncStats};
use cluster_comm::{CommHandle, Payload, TransportError};
use mini_tensor::rng::SeedRng;
use std::ops::Range;
use std::time::Instant;

/// Quantizes each coordinate to `{−s, 0, +s}` with `s = max|g|` and
/// `P(±s) = |g_i|/s` — unbiased. The wire frame bit-packs each ternary
/// digit into 2 bits next to the 32-bit scale (the information-theoretic
/// log₂3 ≈ 1.585 bits/coordinate would need arithmetic coding; the fixed
/// 2-bit pack is what actually crosses the socket).
pub struct TernGrad {
    rng: SeedRng,
}

impl TernGrad {
    /// Creates TernGrad with a seeded dithering stream.
    pub fn new(seed: u64) -> Self {
        TernGrad { rng: SeedRng::new(seed) }
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

    /// Encodes a ternarized gradient into its wire frame: 4 bytes of
    /// scale, then 2 bits per coordinate (`00` = 0, `01` = +s, `10` = −s),
    /// final byte zero-padded.
    pub fn encode_payload(scale: f32, tern: &[f32]) -> Payload {
        let mut w = BitWriter::new();
        for &v in tern {
            let code: u64 = if v > 0.0 {
                0b01
            } else if v < 0.0 {
                0b10
            } else {
                0b00
            };
            w.push_bits(code, 2);
        }
        crate::elias::scaled_stream_payload(scale, &w)
    }

    /// Folds a peer's frame into `acc`: `acc[i] += decode(i) · weight` —
    /// the decode-and-average step without materialising a temporary
    /// vector.
    pub fn accumulate_payload(payload: &Payload, acc: &mut [f32], weight: f32) {
        let (scale, stream) = crate::elias::split_scaled_stream(payload);
        let mut r = BitReader::new(stream, 8 * stream.len());
        for a in acc.iter_mut() {
            match r.read_bits(2).expect("truncated ternary stream") {
                0b01 => *a += scale * weight,
                0b10 => *a -= scale * weight,
                _ => {}
            }
        }
    }

    /// Decodes a peer's frame back to `{−s, 0, +s}` values (`n` = model
    /// size, known identically on every SPMD rank).
    pub fn decode_payload(payload: &Payload, n: usize) -> Vec<f32> {
        let (scale, stream) = crate::elias::split_scaled_stream(payload);
        let mut r = BitReader::new(stream, 8 * stream.len());
        (0..n)
            .map(|_| match r.read_bits(2).expect("truncated ternary stream") {
                0b01 => scale,
                0b10 => -scale,
                _ => 0.0,
            })
            .collect()
    }
}

impl GradientSynchronizer for TernGrad {
    fn name(&self) -> &'static str {
        "TernGrad"
    }

    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        // The scale (max |g|) and the dithering stream are global: the
        // ternarized vector is fixed before any bucket is cut. With
        // multiple buckets, decode overwrites `grad` while later buckets
        // still encode from the original ternary values, so those need a
        // snapshot; the whole-model default encodes its single frame up
        // front instead and skips the O(n) copy.
        let s = self.ternarize(grad);
        let mut single = (bounds.len() == 1).then(|| Self::encode_payload(s, grad));
        let tern = if single.is_some() { Vec::new() } else { grad.to_vec() };
        let compress_seconds = t0.elapsed().as_secs_f64();
        comm.advance_compute(compress_seconds);

        // Per-bucket 2-bit packs (each with the 32-bit scale prefix);
        // decode every peer's frame straight into the accumulating
        // gradient slice (no per-peer temporaries).
        let (wire_bits, exchange_seconds) = crate::session::pipeline_allgather(
            comm,
            bounds,
            |r| match single.take() {
                Some(frame) => frame,
                None => Self::encode_payload(s, &tern[r.clone()]),
            },
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
        // 2-bit pack + 32-bit scale, padded to whole bytes on the wire.
        8 * (2 * n as u64).div_ceil(8) + 32
    }

    fn complexity(&self) -> &'static str {
        "O(n)"
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
    fn wire_payload_roundtrips_exactly() {
        let mut tg = TernGrad::new(5);
        let mut rng = SeedRng::new(6);
        let mut g: Vec<f32> = (0..777).map(|_| rng.randn()).collect();
        let s = tg.ternarize(&mut g);
        let payload = TernGrad::encode_payload(s, &g);
        assert_eq!(payload.byte_len() as u64, 4 + (2 * g.len() as u64).div_ceil(8));
        let back = TernGrad::decode_payload(&payload, g.len());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&g), "2-bit pack must be lossless on ternary data");
    }

    #[test]
    fn zero_input_zero_output() {
        let mut tg = TernGrad::new(3);
        let mut g = vec![0.0f32; 8];
        assert_eq!(tg.ternarize(&mut g), 0.0);
        assert!(g.iter().all(|&v| v == 0.0));
    }
}
