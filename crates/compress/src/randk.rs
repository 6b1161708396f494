//! Rand-K sparsification with error feedback (Stich et al., paper ref [27]).

use crate::ef::ErrorFeedback;
use crate::{sparse, GradientSynchronizer, SyncStats};
use cluster_comm::{CommHandle, TransportError};
use mini_tensor::rng::SeedRng;
use std::ops::Range;
use std::time::Instant;

/// Keeps k uniformly random coordinates per iteration (worker-local
/// streams), with error feedback carrying the rest. Selection is O(k) —
/// cheaper than Top-K — at the price of noisier updates.
pub struct RandK {
    k: usize,
    ef: ErrorFeedback,
    rng: SeedRng,
    acc: Vec<f32>,
    kept: Vec<f32>,
}

impl RandK {
    /// Creates Rand-K with density `ratio = k/n`.
    pub fn new(n: usize, ratio: f32, seed: u64) -> Self {
        let k = ((n as f64 * ratio as f64).round() as usize).clamp(1, n);
        RandK {
            k,
            ef: ErrorFeedback::new(n),
            rng: SeedRng::new(seed),
            acc: vec![0.0; n],
            kept: vec![0.0; n],
        }
    }

    /// Selection count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Floyd's algorithm: k distinct uniform indices in O(k) expected time.
    fn pick_indices(&mut self, n: usize) -> Vec<u32> {
        let k = self.k.min(n);
        let mut chosen = std::collections::HashSet::with_capacity(k);
        let mut out = Vec::with_capacity(k);
        for j in n - k..n {
            let t = self.rng.below(j + 1);
            let pick = if chosen.contains(&(t as u32)) { j as u32 } else { t as u32 };
            chosen.insert(pick);
            out.push(pick);
        }
        out.sort_unstable();
        out
    }
}

impl GradientSynchronizer for RandK {
    fn name(&self) -> &'static str {
        "RandK"
    }

    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        // One global RNG draw per step — the selected set (and hence the
        // worker's RNG stream) is independent of the bucket partition.
        self.acc.copy_from_slice(grad);
        self.ef.apply(&mut self.acc);
        let idx = self.pick_indices(grad.len());
        let val: Vec<f32> = idx.iter().map(|&i| self.acc[i as usize]).collect();
        self.kept.fill(0.0);
        sparse::scatter_into(&mut self.kept, &idx, &val, 1.0);
        self.ef.absorb(&self.acc, &self.kept);
        let compress_seconds = t0.elapsed().as_secs_f64();
        comm.advance_compute(compress_seconds);

        let (wire_bits, exchange_seconds) =
            sparse::exchange_selected(grad, bounds, comm, &idx, &val)?;
        Ok(SyncStats { compress_seconds, exchange_seconds, wire_bits, ..SyncStats::default() })
    }

    fn wire_bits_formula(&self, _n: usize) -> u64 {
        sparse::PAIR_BITS * self.k as u64
    }

    fn complexity(&self) -> &'static str {
        "O(k)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn picks_k_distinct_indices() {
        let mut rk = RandK::new(100, 0.1, 3);
        for _ in 0..20 {
            let idx = rk.pick_indices(100);
            assert_eq!(idx.len(), 10);
            let mut d = idx.clone();
            d.dedup();
            assert_eq!(d.len(), 10, "duplicate index picked");
            assert!(idx.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn selection_covers_space_over_time() {
        let mut rk = RandK::new(50, 0.2, 4);
        let mut seen = [false; 50];
        for _ in 0..200 {
            for i in rk.pick_indices(50) {
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
            for (i, o) in g.iter().enumerate() {
                let rebuilt = rk.kept[i] + rk.ef.residual()[i];
                assert!((rebuilt - o).abs() < 1e-6);
            }
            g2
        });
        assert_eq!(out[0], out[1]);
    }
}
