//! Algorithm 1 — the A2SGD gradient synchronizer — and its carried-error
//! ablation: two synchronizers that differ only in what they do with the
//! residual, over one exchange ([`exchange_means`]).

use crate::mean2::{enc_into, shift_by_sign, split_means, TwoMeans};
use cluster_comm::{CommHandle, TransportError};
use gradcomp::ef::ErrorFeedback;
use gradcomp::{GradientSynchronizer, Ledger, SyncStats};
use std::ops::Range;
use std::time::Instant;

/// Two-level gradient averaging (paper Algorithm 1) as
/// **split → exchange → shift**.
///
/// The paper states the iteration at worker p as
/// 1. `µ+, µ− ← split_means(g)`                          (line 3)
/// 2. `ε ← g − enc(g)` kept locally                      (line 4)
/// 3. `(µ̄+, µ̄−) ← Allreduce((µ+, µ−), average)` — **64 bits per worker,
///    the O(1) communication step**                       (line 5)
/// 4. `g ← ε + pos(g)·µ̄+ − neg(g)·µ̄−`                    (line 6)
///
/// Lines 4 and 6 read the same sign pattern of the same untouched g, so
/// together they are `g ← g + sign(g)·(µ̄± − µ±)`: ε is never materialised
/// and no mask is kept. The round is two sweeps over g —
/// [`split_means`], then one [`shift_by_sign`] once the global means are
/// known — with the exchange between them.
///
/// Line 5 is realized as the exchange of one **packed 64-bit word** per
/// worker — both means bit-packed into a single `u64`
/// ([`A2sgd::encode_means`]) gathered across ranks and averaged locally
/// (the paper's §4.4 gather formulation; identical result, and the packet
/// that crosses a real socket is *measurably* 64 payload bits).
///
/// The residual never leaves the iteration, so no cross-iteration memory
/// exists; worker replicas drift only by their private residuals and are
/// re-synchronized once at the end of training (Algorithm 1 lines 9–10
/// — see [`crate::trainer`]).
#[derive(Debug, Default)]
pub struct A2sgd;

impl A2sgd {
    /// Creates the synchronizer (stateless between iterations).
    pub fn new() -> Self {
        A2sgd
    }

    /// Wire size of the per-worker payload: two f32 means in one u64.
    pub const WIRE_BITS: u64 = 64;

    /// Packs the two class means into the algorithm's single 64-bit wire
    /// word: `µ+` in the high 32 bits, `µ−` in the low 32.
    pub fn encode_means(mu_pos: f32, mu_neg: f32) -> u64 {
        ((mu_pos.to_bits() as u64) << 32) | mu_neg.to_bits() as u64
    }

    /// Unpacks a peer's 64-bit word back into `(µ+, µ−)`.
    pub fn decode_means(word: u64) -> (f32, f32) {
        (f32::from_bits((word >> 32) as u32), f32::from_bits(word as u32))
    }
}

/// Population variance of the per-rank summaries normalized by the squared
/// mean (scale-free, so adaptive controllers can ratio observations across
/// a run regardless of gradient magnitude). Deterministic f64 left-to-right
/// accumulation in gather order.
fn dispersion_of(per_rank: &[f64]) -> f64 {
    let n = per_rank.len() as f64;
    let mean = per_rank.iter().sum::<f64>() / n;
    let var = per_rank.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
    var / (mean * mean + 1e-24)
}

/// Line 5, written once for the family: the entire inter-worker exchange
/// — one packed u64 per worker, gathered, summed in gather order and
/// averaged. Returns the global pair (on this rank's classes: the counts
/// are the local ones) and the exchange's stats — the ledgers' spend and
/// the free dispersion.
fn exchange_means(
    means: &TwoMeans,
    comm: &mut CommHandle,
) -> Result<(TwoMeans, SyncStats), TransportError> {
    let before = Ledger::read(comm);
    let packet = [A2sgd::encode_means(means.mu_pos, means.mu_neg)];
    let gathered = comm.try_allgather(&packet)?;
    let spent = before.spent(comm);
    let inv = 1.0 / gathered.len() as f32;
    let (mut gmu_pos, mut gmu_neg) = (0.0f32, 0.0f32);
    // Free dispersion statistic for adaptive sync schedules: every rank
    // holds the identical gathered packet sequence, so the normalized
    // variance of the per-rank mean magnitudes (µ+ + µ−, the scale of
    // each worker's contribution) is rank-agreed by construction and
    // costs zero extra wire bits. Accumulated in f64, in gather order —
    // bit-identical on every rank and backend.
    let mut magnitudes = Vec::with_capacity(gathered.len());
    for packet in gathered {
        let (p, n) = A2sgd::decode_means(packet[0]);
        gmu_pos += p;
        gmu_neg += n;
        magnitudes.push(p as f64 + n as f64);
    }
    debug_assert_eq!(spent.wire_bits, A2sgd::WIRE_BITS);
    let global = TwoMeans { mu_pos: gmu_pos * inv, mu_neg: gmu_neg * inv, ..*means };
    let dispersion = Some(dispersion_of(&magnitudes));
    Ok((global, SyncStats { dispersion, ..spent }))
}

impl GradientSynchronizer for A2sgd {
    /// A2SGD's exchange is already a single 64-bit packet for the whole
    /// model — there is nothing to cut at bucket boundaries, so `bounds`
    /// is ignored. Results are trivially identical for every partition;
    /// the degenerate bucketing is the honest statement of the paper's
    /// O(1) claim, not a missed optimization.
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        _bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        let means = split_means(grad);
        let split_seconds = t0.elapsed().as_secs_f64();

        let (global, stats) = exchange_means(&means, comm)?;

        let t1 = Instant::now();
        let (d_pos, d_neg) = means.shift_to(global.mu_pos, global.mu_neg);
        shift_by_sign(grad, d_pos, d_neg);
        let shift_seconds = t1.elapsed().as_secs_f64();
        Ok(SyncStats { compress_seconds: split_seconds + shift_seconds, ..stats })
    }
}

/// Carried-error ablation: the residual goes into classic error-feedback
/// memory for the *next* iteration instead of being restored in this one.
/// Split and exchange are [`A2sgd`]'s — the same packet, the same free
/// dispersion — so the residual policy is the only difference, which is
/// what the ablation is for: it shows why Algorithm 1 restores ε in the
/// same iteration.
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
    /// O(1) exchange — `bounds` is ignored (see [`A2sgd`]).
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        _bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let t0 = Instant::now();
        let acc = self.ef.accumulate(grad);
        let means = split_means(acc);
        let split_seconds = t0.elapsed().as_secs_f64();

        let (global, stats) = exchange_means(&means, comm)?;

        // The update this worker applies is enc with global means, using
        // its own sign pattern — no ε added back this iteration. It
        // transmitted enc(acc) under its local means, so that is what the
        // memory gives up: one per-class shift leaves acc − enc(acc).
        let t1 = Instant::now();
        enc_into(acc, &global, grad);
        shift_by_sign(acc, -means.mu_pos, means.mu_neg);
        let shift_seconds = t1.elapsed().as_secs_f64();
        Ok(SyncStats { compress_seconds: split_seconds + shift_seconds, ..stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AlgoKind;
    use cluster_comm::{run_cluster, NetworkProfile};
    use mini_tensor::rng::SeedRng;

    /// Hand-computed two-worker case exercising every line of Algorithm 1.
    #[test]
    fn two_worker_hand_case() {
        // Worker 0: g = [ 2, -4]  → µ+ = 2, µ− = 4, ε = [0, 0]
        // Worker 1: g = [ 6, -2]  → µ+ = 6, µ− = 2, ε = [0, 0]
        // Global:  µ̄+ = 4, µ̄− = 3.
        // Worker 0 result: [0 + 4, 0 − 3] = [4, −3]; same for worker 1.
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let mut g = if h.rank() == 0 { vec![2.0f32, -4.0] } else { vec![6.0f32, -2.0] };
            let mut a = A2sgd::new();
            let stats = a.synchronize(&mut g, h);
            (g, stats)
        });
        for (g, stats) in &out {
            assert!((g[0] - 4.0).abs() < 1e-6, "{g:?}");
            assert!((g[1] + 3.0).abs() < 1e-6, "{g:?}");
            assert_eq!(stats.wire_bits, 64);
        }
    }

    #[test]
    fn residuals_stay_local_and_differ_across_workers() {
        // With asymmetric gradients, each worker's output = its own ε plus
        // the shared global means → outputs differ by the ε difference.
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let mut rng = SeedRng::new(100 + h.rank() as u64);
            let mut g: Vec<f32> = (0..64).map(|_| rng.randn()).collect();
            let mut a = A2sgd::new();
            a.synchronize(&mut g, h);
            g
        });
        assert_ne!(out[0], out[1], "worker outputs should retain local residuals");
    }

    #[test]
    fn identical_inputs_and_lone_worker_round_trip_value_exact() {
        // With identical inputs on every worker (or no peer at all) the
        // global means equal the local ones bit for bit — a power-of-two
        // world sums and rescales exactly — so both shifts are 0.0 and the
        // synchronized gradient equals the input value for value.
        let mut rng = SeedRng::new(21);
        let mut base: Vec<f32> = (0..40_000).map(|_| rng.randn() * 0.02).collect();
        base.extend([0.5, -1.5, 2.5, -0.25, 0.0, -0.0, 3.0]);
        for world in [1, 4] {
            let input = base.clone();
            let out = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
                let mut g = input.clone();
                A2sgd::new().synchronize(&mut g, h);
                g
            });
            for g in out {
                assert!(g == base, "world {world}: identical inputs must round-trip exactly");
            }
        }
    }

    #[test]
    fn mean_of_synchronized_gradients_matches_dense_average_in_expectation() {
        // Averaging the outputs across workers recovers the dense average
        // of enc parts plus average ε — i.e. exactly the dense average.
        let world = 4;
        let n = 1000;
        let inputs: Vec<Vec<f32>> = (0..world)
            .map(|r| {
                let mut rng = SeedRng::new(7 + r as u64);
                (0..n).map(|_| rng.randn()).collect()
            })
            .collect();
        // Dense average reference.
        let mut dense = vec![0.0f32; n];
        for v in &inputs {
            for i in 0..n {
                dense[i] += v[i] / world as f32;
            }
        }
        let inputs2 = inputs.clone();
        let outs = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = inputs2[h.rank()].clone();
            A2sgd::new().synchronize(&mut g, h);
            g
        });
        // Per-worker coordinate means: mean(ε_p) = 0 exactly, so the mean
        // of worker p's output is (n_pos·µ̄+ − n_neg·µ̄−)/n — statistically
        // equal to the dense average's global mean (the two-level scheme
        // conserves gradient mass up to the µ/count covariance, which is
        // O(1/n) here).
        let avg = |xs: &[f32]| xs.iter().map(|v| *v as f64).sum::<f64>() / xs.len() as f64;
        let mut worker_mean = 0.0f64;
        for o in &outs {
            worker_mean += avg(o) / world as f64;
        }
        assert!(
            (worker_mean - avg(&dense)).abs() < 5e-3,
            "global mass: {worker_mean} vs {}",
            avg(&dense)
        );
    }

    #[test]
    fn wire_bits_are_constant_in_model_size() {
        assert_eq!(A2sgd::WIRE_BITS, 64);
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = vec![0.25f32; 100_000];
            A2sgd::new().synchronize(&mut g, h);
            h.stats().logical_wire_bits
        });
        assert!(out.iter().all(|&b| b == A2sgd::WIRE_BITS));
    }

    #[test]
    fn means_pack_into_one_word_losslessly() {
        for (p, n) in [(0.0f32, -0.0f32), (1.5, 2.5), (f32::MIN_POSITIVE, 1e30), (f32::NAN, 0.25)] {
            let (p2, n2) = A2sgd::decode_means(A2sgd::encode_means(p, n));
            assert_eq!(p2.to_bits(), p.to_bits());
            assert_eq!(n2.to_bits(), n.to_bits());
        }
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

        for (kind, floor) in [(AlgoKind::A2sgd, shift_floor), (AlgoKind::A2sgdCarry, enc_floor)] {
            let input = g.clone();
            let out = run_cluster(1, NetworkProfile::infiniband_100g(), move |h| {
                let mut g = input.clone();
                kind.build(n, 0, 0).synchronize(&mut g, h).compress_seconds
            });
            let (name, compress) = (kind.name(), out[0]);
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
            // The packet gather's free dispersion comes with it.
            assert!(stats.dispersion.is_some());
            stats.wire_bits
        });
        assert!(out.iter().all(|&b| b == A2sgd::WIRE_BITS));
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
