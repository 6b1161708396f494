//! Gaussian-K sparsification (Shi et al., paper ref [25]).
//!
//! Exploits the empirical normality of gradients (the paper's Figure 1):
//! instead of sorting for the exact top k, estimate the magnitude
//! threshold `t` with `P(|g| > t) = k/n` under a fitted N(µ, σ²) and keep
//! everything above it — a constant number of O(n) passes, no sort.

use crate::sparse::{Select, Sparsifier};
use crate::special::erfinv;

/// Gaussian-threshold selection with error feedback and an allgather
/// exchange (the implementation detail the paper credits for Gaussian-K's
/// speed advantage over Allreduce in §4.4).
pub type GaussianK = Sparsifier<Threshold>;

/// The Gaussian-K selection rule: everything above a fitted magnitude
/// threshold, capped at 2k records.
pub struct Threshold;

impl GaussianK {
    /// Creates Gaussian-K with target density `ratio = k/n`.
    pub fn new(n: usize, ratio: f32) -> Self {
        Sparsifier::with_rule(n, ratio, Threshold)
    }

    /// Estimates the |g| threshold with P(|X| > t) = k/n for X ~ N(µ, σ²)
    /// fitted to `acc`, then adjusts it at most twice so the actual count
    /// lands within [k/2, 4k] (Shi et al.'s refinement loop).
    pub fn estimate_threshold(acc: &[f32], k: usize) -> f32 {
        let n = acc.len();
        let (mut mean, mut m2) = (0.0f64, 0.0f64);
        for (i, &v) in acc.iter().enumerate() {
            let d = v as f64 - mean;
            mean += d / (i + 1) as f64;
            m2 += d * (v as f64 - mean);
        }
        let sigma = (m2 / n.max(1) as f64).sqrt().max(1e-30);
        // Symmetric two-sided tail: t = µ_abs-adjusted quantile. Gradients
        // are near zero-mean (Fig. 1), so use |X − µ| ~ half-normal(σ):
        // P(|X − µ| > t) = k/n → t = σ·√2·erfinv(1 − k/n).
        let q = 1.0 - (k as f64 / n as f64).min(1.0);
        let mut t = (sigma * std::f64::consts::SQRT_2 * erfinv(q)) as f32 + mean.abs() as f32;

        for _ in 0..2 {
            let count = acc.iter().filter(|v| v.abs() > t).count();
            if count > 4 * k {
                t *= 1.5;
            } else if count < k / 2 {
                t *= 0.6;
            } else {
                break;
            }
        }
        t
    }
}

impl Select for Threshold {
    fn select(&mut self, acc: &[f32], k: usize) -> Vec<u32> {
        // The threshold is fitted to the whole accumulated gradient —
        // bucket-independent by construction.
        let t = GaussianK::estimate_threshold(acc, k);
        let mut idx = Vec::with_capacity(2 * k);
        for (i, &v) in acc.iter().enumerate() {
            if v.abs() > t {
                idx.push(i as u32);
            }
        }
        // Threshold selection is approximate; cap at 2k by magnitude to
        // bound the payload (cheap partial selection over the candidates).
        if idx.len() > 2 * k {
            let mag = |o: usize| acc[idx[o] as usize].abs();
            let mut order: Vec<usize> = (0..idx.len()).collect();
            order.sort_unstable_by(|&a, &b| mag(b).total_cmp(&mag(a)));
            order.truncate(2 * k);
            order.sort_unstable();
            idx = order.iter().map(|&o| idx[o]).collect();
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;
    use cluster_comm::{run_cluster, NetworkProfile};
    use mini_tensor::rng::SeedRng;

    #[test]
    fn threshold_selects_roughly_k_on_gaussian_data() {
        let mut rng = SeedRng::new(5);
        let n = 50_000;
        let acc: Vec<f32> = (0..n).map(|_| rng.randn() * 0.3).collect();
        let k = 500;
        let t = GaussianK::estimate_threshold(&acc, k);
        let count = acc.iter().filter(|v| v.abs() > t).count();
        assert!(count >= k / 2 && count <= 2 * k, "selected {count}, wanted ≈ {k}");
    }

    #[test]
    fn threshold_adapts_on_non_gaussian_data() {
        // Heavy two-point mass distribution breaks the normal fit; the
        // refinement loop must still land within the [k/2, 4k] band.
        let mut acc = vec![0.01f32; 10_000];
        for v in acc.iter_mut().take(400) {
            *v = 5.0;
        }
        let k = 100;
        let t = GaussianK::estimate_threshold(&acc, k);
        let count = acc.iter().filter(|v| v.abs() > t).count();
        assert!(count <= 4 * k, "selected {count} ≫ {k}");
    }

    #[test]
    fn sync_produces_sparse_average_and_conserves_mass() {
        let n = 2_000;
        let out = run_cluster(4, NetworkProfile::infiniband_100g(), move |h| {
            let mut rng = SeedRng::new(100 + h.rank() as u64);
            let mut gk = GaussianK::new(n, 0.01);
            let g: Vec<f32> = (0..n).map(|_| rng.randn()).collect();
            let orig = g.clone();
            let mut g2 = g;
            gk.synchronize(&mut g2, h);
            // transmitted + residual == original
            assert_eq!(crate::sparse::tests::transmitted_plus_residual(&gk), orig);
            g2
        });
        // All ranks agree on the averaged sparse gradient.
        for g in &out[1..] {
            assert_eq!(g, &out[0]);
        }
    }
}
