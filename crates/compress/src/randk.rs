//! Rand-K sparsification with error feedback (Stich et al., paper ref [27]).

use crate::sparse::{Select, Sparsifier};
use mini_tensor::rng::SeedRng;

/// Keeps k uniformly random coordinates per iteration (worker-local
/// streams), with error feedback carrying the rest. Selection is O(k) —
/// cheaper than Top-K — at the price of noisier updates.
pub type RandK = Sparsifier<Uniform>;

/// The Rand-K selection rule: k distinct coordinates drawn uniformly from
/// a worker-local stream — one draw per step, whatever the bucket
/// partition.
pub struct Uniform {
    rng: SeedRng,
}

impl RandK {
    /// Creates Rand-K with density `ratio = k/n`.
    pub fn new(n: usize, ratio: f32, seed: u64) -> Self {
        Sparsifier::with_rule(n, ratio, Uniform { rng: SeedRng::new(seed) })
    }

    /// Floyd's algorithm: `k` distinct uniform indices below `n`, ascending,
    /// in O(k) expected time.
    pub fn pick_indices(rng: &mut SeedRng, n: usize, k: usize) -> Vec<u32> {
        let k = k.min(n);
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in n - k..n {
            let t = rng.below(j + 1);
            let pick = if chosen.contains(&(t as u32)) { j as u32 } else { t as u32 };
            chosen.insert(pick);
            out.push(pick);
        }
        out.sort_unstable();
        out
    }
}

impl Select for Uniform {
    fn select(&mut self, acc: &[f32], k: usize) -> Vec<u32> {
        RandK::pick_indices(&mut self.rng, acc.len(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn picks_k_distinct_indices() {
        let mut rng = SeedRng::new(3);
        for _ in 0..20 {
            let idx = RandK::pick_indices(&mut rng, 100, 10);
            assert_eq!(idx.len(), 10);
            let mut d = idx.clone();
            d.dedup();
            assert_eq!(d.len(), 10, "duplicate index picked");
            assert!(idx.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn selection_covers_space_over_time() {
        let mut rng = SeedRng::new(4);
        let mut seen = [false; 50];
        for _ in 0..200 {
            for i in RandK::pick_indices(&mut rng, 50, 10) {
                seen[i as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some coordinate never selected");
    }

    #[test]
    fn error_feedback_conserves_mass() {
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let n = 64;
            let mut rk = RandK::new(n, 0.125, h.rank() as u64);
            let g: Vec<f32> = (0..n).map(|i| (i as f32 - 32.0) / 7.0).collect();
            let mut g2 = g.clone();
            rk.synchronize(&mut g2, h);
            assert_eq!(crate::sparse::tests::transmitted_plus_residual(&rk), g);
            g2
        });
        assert_eq!(out[0], out[1]);
    }
}
