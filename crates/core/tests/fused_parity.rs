//! The fused split → shift round against the three-pass formulation it
//! replaced.
//!
//! [`reference`] keeps the old path — branchy f64 `split_means`, a packed
//! sign mask, `g ← g − enc(g)`, then `g ← ε + enc̄(g)` by mask lookup —
//! as a test-only oracle. The library now computes `g + (µ̄ − µ)` where it
//! computed `(g − µ) + µ̄`; per coordinate the two differ by at most
//! `4·ε_f32·(|g_i| + |µ| + |µ̄|)`, and classification (`v >= 0.0`: `-0.0`
//! positive, NaN negative) is identical in both sweeps.
//!
//! [`reference::carry_round`] does the same for the carry ablation's error
//! feedback: the two-buffer `acc` / `memory = acc − enc(acc)` step against
//! the single buffer the library now updates in place, both exchanging by
//! the §4.4 packet gather — there the two are bit-identical.

use a2sgd::algorithm::A2sgd;
use a2sgd::algorithm::A2sgdCarry;
use a2sgd::mean2::{shift_by_sign, split_means};
use cluster_comm::{run_cluster, NetworkProfile};
use gradcomp::GradientSynchronizer;
use mini_tensor::rng::SeedRng;
use proptest::prelude::*;

/// The pre-fusion kernels, verbatim in their arithmetic.
mod reference {
    use a2sgd::algorithm::A2sgd;
    use a2sgd::mean2::{enc_into, TwoMeans};
    use cluster_comm::{CommHandle, Payload};

    pub fn split_means(g: &[f32]) -> TwoMeans {
        let (mut pos_sum, mut neg_sum, mut n_pos, mut n_neg) = (0.0f64, 0.0f64, 0usize, 0usize);
        for &v in g {
            if v >= 0.0 {
                pos_sum += v as f64;
                n_pos += 1;
            } else {
                neg_sum += (-v) as f64;
                n_neg += 1;
            }
        }
        TwoMeans {
            mu_pos: if n_pos > 0 { (pos_sum / n_pos as f64) as f32 } else { 0.0 },
            mu_neg: if n_neg > 0 { (neg_sum / n_neg as f64) as f32 } else { 0.0 },
            n_pos,
            n_neg,
        }
    }

    /// Packed sign bitset: bit i set ⇔ `g[i] ≥ 0`.
    pub struct SignMask(Vec<u64>);

    impl SignMask {
        pub fn capture(g: &[f32]) -> Self {
            let mut words = vec![0u64; g.len().div_ceil(64)];
            for (i, &v) in g.iter().enumerate() {
                if v >= 0.0 {
                    words[i / 64] |= 1 << (i % 64);
                }
            }
            SignMask(words)
        }

        pub fn is_pos(&self, i: usize) -> bool {
            (self.0[i / 64] >> (i % 64)) & 1 == 1
        }
    }

    /// `g ← g − enc(g)` (Algorithm 1 line 4), returning the sign mask.
    pub fn residual_in_place(g: &mut [f32], means: &TwoMeans) -> SignMask {
        let mask = SignMask::capture(g);
        for v in g.iter_mut() {
            *v -= if *v >= 0.0 { means.mu_pos } else { -means.mu_neg };
        }
        mask
    }

    /// `g ← ε + pos·µ̄+ − neg·µ̄−` (line 6) with ε currently in `g`.
    pub fn restore_with_global_means(g: &mut [f32], mask: &SignMask, mu_pos: f32, mu_neg: f32) {
        for (i, v) in g.iter_mut().enumerate() {
            *v += if mask.is_pos(i) { mu_pos } else { -mu_neg };
        }
    }

    /// One whole old-style round from given local and global means.
    pub fn round(g: &mut [f32], local: &TwoMeans, gmu_pos: f32, gmu_neg: f32) {
        let mask = residual_in_place(g, local);
        restore_with_global_means(g, &mask, gmu_pos, gmu_neg);
    }

    /// One old-style A2SGD-carry step: the accumulated gradient in a buffer
    /// of its own, `enc(acc)` materialised in `grad` so the memory can
    /// store `acc − enc(acc)`, then `grad ← enc̄(acc)` with the means of
    /// every rank's packet, summed in gather order.
    pub fn carry_round(memory: &mut [f32], grad: &mut [f32], comm: &mut CommHandle) {
        let mut acc = grad.to_vec();
        for (a, m) in acc.iter_mut().zip(memory.iter()) {
            *a += *m;
        }
        let means = a2sgd::mean2::split_means(&acc);
        let packet = Payload::PackedU64(vec![A2sgd::encode_means(means.mu_pos, means.mu_neg)]);
        let gathered = comm.try_allgather_bytes(packet).expect("oracle gather");
        enc_into(&acc, &means, grad);
        for i in 0..acc.len() {
            memory[i] = acc[i] - grad[i];
        }
        let inv = 1.0 / gathered.len() as f32;
        let (mut sum_pos, mut sum_neg) = (0.0f32, 0.0f32);
        for frame in gathered {
            let (p, n) = A2sgd::decode_means(frame.expect_u64()[0]);
            sum_pos += p;
            sum_neg += n;
        }
        let global = TwoMeans { mu_pos: sum_pos * inv, mu_neg: sum_neg * inv, ..means };
        enc_into(&acc, &global, grad);
    }
}

/// The lengths the issue names: empty, around one lane row / one block,
/// around `PAR_CHUNK` and `PAR_THRESHOLD`, and the paper's FNN-3.
const LENGTHS: [usize; 13] = [
    0,
    1,
    7,
    8,
    9,
    255,
    256,
    257,
    (1 << 14) - 1,
    (1 << 14) + 1,
    (1 << 15) - 1,
    (1 << 15) + 1,
    199_210,
];

const SPECIALS: [f32; 6] = [0.0, -0.0, 1e-42, -1e-42, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];

/// Gaussian gradient with every `stride`-th coordinate replaced by a
/// value from `specials` (none when `stride` is 0).
fn gradient(n: usize, seed: u64, stride: usize, specials: &[f32]) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    let mut g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.05 + 0.002).collect();
    if stride > 0 {
        for (k, v) in g.iter_mut().step_by(stride).enumerate() {
            *v = specials[k % specials.len()];
        }
    }
    g
}

/// `got` against the oracle: NaN only where the oracle is NaN, infinities
/// equal, finite values within `bound`.
fn assert_close(got: f32, want: f32, bound: f32, ctx: &str) {
    if got.is_nan() || want.is_nan() {
        assert!(got.is_nan() && want.is_nan(), "{ctx}: {got} vs {want}");
    } else if got.is_infinite() || want.is_infinite() {
        assert_eq!(got, want, "{ctx}");
    } else {
        assert!((got - want).abs() <= bound, "{ctx}: {got} vs {want} (bound {bound})");
    }
}

/// Fused round vs reference round from the *same* means, coordinate by
/// coordinate within the documented bound.
fn assert_round_parity(g: &[f32], gmu_pos: f32, gmu_neg: f32, ctx: &str) {
    let local = split_means(g);
    let mut fused = g.to_vec();
    let (d_pos, d_neg) = local.shift_to(gmu_pos, gmu_neg);
    shift_by_sign(&mut fused, d_pos, d_neg);
    let mut old = g.to_vec();
    reference::round(&mut old, &local, gmu_pos, gmu_neg);
    for (i, ((&f, &o), &v)) in fused.iter().zip(&old).zip(g).enumerate() {
        let (mu, gmu) = if v >= 0.0 { (local.mu_pos, gmu_pos) } else { (local.mu_neg, gmu_neg) };
        let bound = 4.0 * f32::EPSILON * (v.abs() + mu.abs() + gmu.abs());
        assert_close(f, o, bound, &format!("{ctx} i={i} g={v}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_round_matches_three_pass_reference(
        len_idx in 0usize..LENGTHS.len(),
        seed in any::<u64>(),
        stride in 0usize..40,
        scale in (0.0f32..2.0, 0.0f32..2.0),
    ) {
        let n = LENGTHS[len_idx];
        let g = gradient(n, seed, stride, &SPECIALS);
        let local = split_means(&g);
        // Split parity: counts exact, means within 1e-6 relative.
        let old = reference::split_means(&g);
        prop_assert_eq!((local.n_pos, local.n_neg), (old.n_pos, old.n_neg));
        prop_assert_eq!(local.n_pos + local.n_neg, n);
        prop_assert!((local.mu_pos - old.mu_pos).abs() <= 1e-6 * old.mu_pos);
        prop_assert!((local.mu_neg - old.mu_neg).abs() <= 1e-6 * old.mu_neg);
        // Round parity for arbitrary global means near the local ones.
        assert_round_parity(&g, local.mu_pos * scale.0, local.mu_neg * scale.1, &format!("n={n}"));
    }
}

#[test]
fn infinities_follow_the_reference() {
    // ±inf make a class mean infinite; every coordinate must still land
    // where the three-pass arithmetic put it (NaN, ±inf or finite).
    for (k, specials) in [[f32::INFINITY], [f32::NEG_INFINITY]].iter().enumerate() {
        for n in [9usize, 257, (1 << 15) + 1] {
            let g = gradient(n, 90 + k as u64, 5, specials);
            let local = split_means(&g);
            let old = reference::split_means(&g);
            for (new, old) in [(local.mu_pos, old.mu_pos), (local.mu_neg, old.mu_neg)] {
                assert_close(new, old, 1e-6 * old, &format!("means, n={n}"));
            }
            for (gp, gn) in [(0.03, 0.04), (f32::INFINITY, 0.04), (0.03, f32::INFINITY)] {
                assert_round_parity(
                    &g,
                    gp,
                    gn,
                    &format!("specials {specials:?} n={n} µ̄=({gp},{gn})"),
                );
            }
        }
    }
}

#[test]
fn nan_poisons_the_negative_class_only() {
    // `NaN >= 0.0` is false in both sweeps: the NaN lands in the negative
    // class, µ− becomes NaN, µ+ stays clean — and after a round with
    // finite global means the positive coordinates are still finite.
    for n in [9usize, 257, (1 << 15) + 1, 199_210] {
        let mut g = gradient(n, 31, 0, &[]);
        g[n / 2] = f32::NAN;
        let local = split_means(&g);
        let old = reference::split_means(&g);
        assert_eq!((local.n_pos, local.n_neg), (old.n_pos, old.n_neg), "n = {n}");
        assert!(local.mu_neg.is_nan() && old.mu_neg.is_nan(), "n = {n}");
        assert!(local.mu_pos.is_finite());
        assert!((local.mu_pos - old.mu_pos).abs() <= 1e-6 * old.mu_pos);
        assert_round_parity(&g, 0.03, 0.04, &format!("n={n}"));
        let (d_pos, d_neg) = local.shift_to(0.03, 0.04);
        let mut out = g.clone();
        shift_by_sign(&mut out, d_pos, d_neg);
        for (o, v) in out.iter().zip(&g) {
            let positive = *v >= 0.0;
            assert_eq!(o.is_nan(), !positive, "NaN must cover exactly the negative class");
        }
    }
}

/// Runs `op` with the calling thread's `par_*` calls `threads` lanes wide.
fn at_width<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap().install(op)
}

/// Four ranks' A2SGD outputs as bit patterns, for one gradient length, each
/// rank's kernels `threads` lanes wide.
fn synchronized_bits(n: usize, threads: usize) -> Vec<Vec<u32>> {
    run_cluster(4, NetworkProfile::infiniband_100g(), move |h| {
        at_width(threads, || {
            let mut g = gradient(n, 500 + h.rank() as u64, 17, &SPECIALS);
            A2sgd::new().synchronize(&mut g, h);
            g.iter().map(|v| v.to_bits()).collect()
        })
    })
}

#[test]
fn split_and_round_are_bit_identical_across_thread_counts() {
    // Partials are per fixed PAR_CHUNK window and combined in window
    // order; the shift is element-wise. Neither may depend on pool width.
    let lengths = [(1usize << 15) + 1, 199_210];
    let run_with = |threads: usize| -> Vec<_> {
        lengths
            .iter()
            .map(|&n| {
                let m = at_width(threads, || split_means(&gradient(n, 77, 13, &SPECIALS)));
                let means = (m.mu_pos.to_bits(), m.mu_neg.to_bits(), m.n_pos, m.n_neg);
                (means, synchronized_bits(n, threads))
            })
            .collect()
    };
    let one = run_with(1);
    // 8: four ranks × eight lanes on the runner's two cores.
    for threads in [2, 4, 8] {
        assert_eq!(one, run_with(threads), "1-thread vs {threads}-thread results differ in bits");
    }
}

#[test]
fn lone_worker_and_identical_inputs_return_the_gradient_value_exact() {
    // Global = local means bit for bit (one worker, or a power-of-two
    // world of equal inputs), so both shifts are exactly 0.
    for n in [9usize, (1 << 15) + 1, 199_210] {
        let input = gradient(n, 123, 11, &SPECIALS);
        for world in [1, 4] {
            let base = input.clone();
            let out = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
                let mut g = base.clone();
                A2sgd::new().synchronize(&mut g, h);
                g
            });
            for g in out {
                assert!(g == input, "n = {n}, world {world}");
            }
        }
    }
}

#[test]
fn carry_matches_the_two_buffer_oracle() {
    // Four consecutive rounds, so the memory is exercised empty and full;
    // signed zeros sprinkled in. Synchronized gradient and residual must
    // equal the oracle's bit for bit, every round, on every rank.
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for world in [1, 2, 3, 4] {
        for n in [1usize, 7, 64, 257, 4_099] {
            let per_rank = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
                let mut carry = A2sgdCarry::new(n);
                let mut memory = vec![0.0f32; n];
                let mut rounds = Vec::new();
                for round in 0..4 {
                    let g = gradient(n, (100 * round + h.rank()) as u64, 5, &[0.0, -0.0]);
                    let (mut got, mut want) = (g.clone(), g);
                    carry.synchronize(&mut got, h);
                    reference::carry_round(&mut memory, &mut want, h);
                    rounds
                        .push(((bits(&got), bits(carry.residual())), (bits(&want), bits(&memory))));
                }
                rounds
            });
            for (rank, rounds) in per_rank.into_iter().enumerate() {
                for (round, (got, want)) in rounds.into_iter().enumerate() {
                    assert!(got == want, "world {world} n {n} rank {rank} round {round}");
                }
            }
        }
    }
}
