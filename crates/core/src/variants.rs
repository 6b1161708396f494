//! A2SGD variants and extensions. Both exchange their means as Algorithm 1
//! line 5 writes it — a recursive-doubling allreduce; the shipped
//! [`A2sgd`](crate::algorithm::A2sgd) is the §4.4 gather formulation of the
//! same exchange.
//!
//! * [`A2sgdCarry`] — ablation: carries the residual to the *next*
//!   iteration (classic error feedback) instead of adding it back in the
//!   same iteration. Useful for studying why Algorithm 1's same-iteration
//!   restore preserves variance.
//! * [`KLevelSgd`] — generalization: L magnitude-bucketed means per sign
//!   (L = 1 reduces to A2SGD). Communication is `2·L` floats — still O(1)
//!   in n — trading a little bandwidth for lower encoding distortion.

use crate::mean2::{enc_into, shift_by_sign, split_means, TwoMeans};
use cluster_comm::{CollectiveAlgo, CommHandle, TransportError};
use gradcomp::ef::ErrorFeedback;
use gradcomp::{GradientSynchronizer, Ledger, SyncStats};
use std::ops::Range;
use std::time::Instant;

/// Carried-error ablation: residual goes into classic EF memory instead of
/// the same-iteration restore.
pub struct A2sgdCarry {
    ef: ErrorFeedback,
}

impl A2sgdCarry {
    /// Creates the ablation for an `n`-parameter model.
    pub fn new(n: usize) -> Self {
        A2sgdCarry { ef: ErrorFeedback::new(n) }
    }

    /// The error-feedback memory: `acc − enc(acc)` of the last step.
    pub fn residual(&self) -> &[f32] {
        self.ef.residual()
    }
}

impl GradientSynchronizer for A2sgdCarry {
    fn name(&self) -> &'static str {
        "A2SGD-carry"
    }

    /// O(1) exchange — `bounds` is ignored (see
    /// [`A2sgd`](crate::algorithm::A2sgd)).
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        _bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        let acc = self.ef.accumulate(grad);
        let means = split_means(acc);
        let compress_head = t0.elapsed().as_secs_f64();

        // The reducible f32 path: two means over the recursive-doubling
        // allreduce — their 8 payload bytes are the wire encoding, no
        // override needed.
        let before = Ledger::read(comm);
        let tx = Instant::now();
        let mut sums = [means.mu_pos, means.mu_neg];
        comm.try_allreduce_sum_with(&mut sums, CollectiveAlgo::RecursiveDoubling)?;
        let exchange_seconds = tx.elapsed().as_secs_f64();
        let spent = before.spent(comm);
        let inv = 1.0 / comm.world() as f32;

        // The update this worker applies is enc with global means, using
        // its own sign pattern — no ε added back this iteration. It
        // transmitted enc(acc) under its local means, so that is what the
        // memory gives up: one per-class shift leaves acc − enc(acc).
        let t1 = Instant::now();
        let global = TwoMeans { mu_pos: sums[0] * inv, mu_neg: sums[1] * inv, ..means };
        enc_into(acc, &global, grad);
        shift_by_sign(acc, -means.mu_pos, means.mu_neg);
        let compress_tail = t1.elapsed().as_secs_f64();
        Ok(SyncStats { compress_seconds: compress_head + compress_tail, exchange_seconds, ..spent })
    }

    fn wire_bits_formula(&self, _n: usize) -> u64 {
        64
    }

    fn complexity(&self) -> &'static str {
        "O(n)"
    }
}

/// Generalized L-level bucketed means (per sign class).
///
/// Coordinates are bucketed by |g| quantile within their sign class; each
/// bucket transmits its mean. `levels = 1` is exactly A2SGD. The bucket
/// boundaries derive from each worker's own magnitude distribution, so no
/// extra coordination is needed — communication stays `2·levels` floats.
pub struct KLevelSgd {
    levels: usize,
}

impl KLevelSgd {
    /// Creates an L-level synchronizer (`levels ≥ 1`).
    pub fn new(levels: usize) -> Self {
        assert!(levels >= 1);
        KLevelSgd { levels }
    }

    /// Assigns each coordinate a bucket id in `[0, 2·levels)`:
    /// sign class × magnitude tier (tiers are |g|-quantile slices).
    fn bucketize(&self, g: &[f32]) -> (Vec<u16>, Vec<f32>) {
        let l = self.levels;
        // Magnitude thresholds per sign class from sorted samples: for
        // efficiency sample up to 4096 coordinates.
        let mut mags: Vec<f32> = if g.len() <= 4096 {
            g.iter().map(|v| v.abs()).collect()
        } else {
            let step = g.len() / 4096;
            g.iter().step_by(step).map(|v| v.abs()).collect()
        };
        mags.sort_unstable_by(f32::total_cmp);
        let tier_of = |mag: f32| -> usize {
            if l == 1 {
                return 0;
            }
            let pos = mags.partition_point(|&m| m < mag);
            ((pos * l) / mags.len().max(1)).min(l - 1)
        };
        let mut bucket = vec![0u16; g.len()];
        let mut sums = vec![0.0f64; 2 * l];
        let mut counts = vec![0usize; 2 * l];
        for (i, &v) in g.iter().enumerate() {
            let t = tier_of(v.abs());
            let b = if v >= 0.0 { t } else { l + t };
            bucket[i] = b as u16;
            sums[b] += v.abs() as f64;
            counts[b] += 1;
        }
        let means: Vec<f32> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| if c > 0 { (s / c as f64) as f32 } else { 0.0 })
            .collect();
        (bucket, means)
    }
}

impl GradientSynchronizer for KLevelSgd {
    fn name(&self) -> &'static str {
        "KLevel"
    }

    /// O(1)-in-n exchange (`2·levels` floats) — `bounds` is ignored; the
    /// residual pass overlaps the in-flight allreduce.
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        _bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        let (bucket, means) = self.bucketize(grad);
        let compress_head = t0.elapsed().as_secs_f64();

        let before = Ledger::read(comm);
        let tx = Instant::now();
        let handle = comm.start_allreduce(means.clone());
        let mut exchange_seconds = tx.elapsed().as_secs_f64();

        // Residual: g − enc_bucket(g), while the means frame is in flight.
        let l = self.levels;
        let t1 = Instant::now();
        for (i, v) in grad.iter_mut().enumerate() {
            let b = bucket[i] as usize;
            let enc = if b < l { means[b] } else { -means[b] };
            *v -= enc;
        }
        let residual_seconds = t1.elapsed().as_secs_f64();

        let tx = Instant::now();
        let mut gmeans = handle.wait(comm)?.expect_reduced();
        exchange_seconds += tx.elapsed().as_secs_f64();
        let spent = before.spent(comm);
        let inv = 1.0 / comm.world() as f32;
        for m in gmeans.iter_mut() {
            *m *= inv;
        }
        for (i, v) in grad.iter_mut().enumerate() {
            let b = bucket[i] as usize;
            *v += if b < l { gmeans[b] } else { -gmeans[b] };
        }
        Ok(SyncStats {
            compress_seconds: compress_head + residual_seconds,
            exchange_seconds,
            ..spent
        })
    }

    fn wire_bits_formula(&self, _n: usize) -> u64 {
        64 * self.levels as u64
    }

    fn complexity(&self) -> &'static str {
        "O(n)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::A2sgd;
    use crate::mean2::shift_by_sign;
    use cluster_comm::{run_cluster, NetworkProfile};
    use mini_tensor::rng::SeedRng;

    #[test]
    fn klevel_one_equals_a2sgd() {
        let world = 2;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = SeedRng::new(50 + r as u64);
                (0..128).map(|_| rng.randn()).collect()
            })
            .collect();
        let i1 = inputs.clone();
        let a = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = i1[h.rank()].clone();
            A2sgd::new().synchronize(&mut g, h);
            g
        });
        let i2 = inputs.clone();
        let b = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = i2[h.rank()].clone();
            KLevelSgd::new(1).synchronize(&mut g, h);
            g
        });
        for (x, y) in a.iter().zip(&b) {
            for (u, v) in x.iter().zip(y) {
                assert!((u - v).abs() < 1e-4, "{u} vs {v}");
            }
        }
    }

    #[test]
    fn klevel_distortion_decreases_with_levels() {
        // Encoding error ‖g − enc(g)‖ shrinks as L grows.
        let mut rng = SeedRng::new(60);
        let g: Vec<f32> = (0..4096).map(|_| rng.randn()).collect();
        let err_at = |l: usize| -> f64 {
            let k = KLevelSgd::new(l);
            let (bucket, means) = k.bucketize(&g);
            g.iter()
                .enumerate()
                .map(|(i, &v)| {
                    let b = bucket[i] as usize;
                    let enc = if b < l { means[b] } else { -means[b] };
                    ((v - enc) as f64).powi(2)
                })
                .sum::<f64>()
                .sqrt()
        };
        let e1 = err_at(1);
        let e4 = err_at(4);
        let e16 = err_at(16);
        assert!(e4 < e1, "L=4 ({e4}) should beat L=1 ({e1})");
        assert!(e16 < e4, "L=16 ({e16}) should beat L=4 ({e4})");
    }

    #[test]
    fn compress_seconds_cover_split_and_apply() {
        // A2SGD and the carry ablation report the whole compress cost: the
        // split sweep *and* the final apply/reconstruct sweep. The floor is
        // the apply kernel's own best-of-5 time on the same 1 M-element
        // gradient.
        let n = 1 << 20;
        let mut rng = SeedRng::new(70);
        let g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.02).collect();
        let best_of_5 = |f: &mut dyn FnMut()| {
            (0..5).fold(f64::INFINITY, |best, _| {
                let t = Instant::now();
                f();
                best.min(t.elapsed().as_secs_f64())
            })
        };
        let mut scratch = g.clone();
        let shift_floor = best_of_5(&mut || shift_by_sign(&mut scratch, 1e-9, -1e-9));
        let means = split_means(&g);
        let enc_floor = best_of_5(&mut || enc_into(&g, &means, &mut scratch));
        assert!(shift_floor > 0.0 && enc_floor > 0.0);

        for (carry, floor) in [(false, shift_floor), (true, enc_floor)] {
            let input = g.clone();
            let out = run_cluster(1, NetworkProfile::infiniband_100g(), move |h| {
                let mut sync: Box<dyn GradientSynchronizer> =
                    if carry { Box::new(A2sgdCarry::new(n)) } else { Box::new(A2sgd::new()) };
                let mut g = input.clone();
                let stats = sync.synchronize(&mut g, h);
                (sync.name(), stats.compress_seconds)
            });
            let (name, compress) = out[0];
            assert!(compress > 0.0 && compress >= floor, "{name}: {compress} < apply {floor}");
        }
    }

    #[test]
    fn carry_variant_transmits_only_means() {
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let mut c = A2sgdCarry::new(8);
            let mut g = vec![1.0f32, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0];
            let stats = c.synchronize(&mut g, h);
            // Same-sign coordinates all receive the same (global-mean)
            // magnitude — the residual was NOT added back.
            assert!((g[0] - g[2]).abs() < 1e-6);
            assert!((g[1] - g[3]).abs() < 1e-6);
            stats.wire_bits
        });
        assert!(out.iter().all(|&b| b == 64));
    }

    #[test]
    fn carry_residual_preserved_for_next_iteration() {
        let _ = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
            let mut c = A2sgdCarry::new(4);
            let mut g = vec![1.0f32, 3.0, -1.0, -3.0]; // µ+ = 2, µ− = 2
            c.synchronize(&mut g, h);
            // residual = acc − enc = [−1, 1, 1, −1]
            assert_eq!(c.residual(), &[-1.0, 1.0, 1.0, -1.0]);
            0
        });
    }
}
