//! Seeded random number utilities.
//!
//! Every stochastic component in the workspace (init, data synthesis, QSGD
//! dithering, Rand-K selection) derives from an explicit seed so that whole
//! training runs are bit-reproducible — a requirement for the determinism
//! integration tests.

use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seedable RNG wrapper with tensor-producing helpers.
pub struct SeedRng {
    rng: StdRng,
}

impl SeedRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedRng { rng: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child stream; `tag` distinguishes purposes
    /// (e.g. per-worker, per-layer) without correlated streams.
    pub fn fork(&mut self, tag: u64) -> SeedRng {
        let s: u64 = self.rng.gen::<u64>() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeedRng::new(s)
    }

    /// Standard normal sample (Box–Muller on two uniforms).
    pub fn randn(&mut self) -> f32 {
        let u1: f32 = self.rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = self.rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Bernoulli with probability `p`.
    pub fn flip(&mut self, p: f32) -> bool {
        self.rng.gen::<f32>() < p
    }

    /// The next `out.len()` uniforms in `[0, 1)`, in order: the draws
    /// [`Self::flip`] compares against, so `flip(p)` ≡ `u < p` on the same
    /// stream.
    pub fn fill_unit(&mut self, out: &mut [f32]) {
        for u in out {
            *u = self.rng.gen::<f32>();
        }
    }

    /// Raw u64.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Tensor of i.i.d. N(0, σ²) samples.
    pub fn randn_tensor(&mut self, dims: &[usize], sigma: f32) -> Tensor {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| self.randn() * sigma).collect();
        Tensor::from_vec(data, shape)
    }

    /// Tensor of i.i.d. U(lo, hi) samples.
    pub fn uniform_tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| self.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f32> = {
            let mut r = SeedRng::new(42);
            (0..100).map(|_| r.randn()).collect()
        };
        let b: Vec<f32> = {
            let mut r = SeedRng::new(42);
            (0..100).map(|_| r.randn()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = SeedRng::new(1);
        let mut r2 = SeedRng::new(2);
        let a: Vec<f32> = (0..32).map(|_| r1.randn()).collect();
        let b: Vec<f32> = (0..32).map(|_| r2.randn()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut r = SeedRng::new(123);
        let n = 200_000;
        let xs: Vec<f32> = (0..n).map(|_| r.randn()).collect();
        let mean: f64 = xs.iter().map(|v| *v as f64).sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = SeedRng::new(9);
        let mut parent2 = SeedRng::new(9);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(4);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeedRng::new(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
