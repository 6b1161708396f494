//! Parity, determinism and non-finite regression tests for the packed
//! [`Gemm`] core.
//!
//! * Property tests drive all four transpose combos against a naive
//!   ascending-k triple loop over a dimension menu of tiny, odd and prime
//!   sizes — including zeros (`m·k·n = 0` edges), sizes straddling the
//!   `MC`/`MR`/`NR` tile edges, and `k > KC` so multi-slab accumulation is
//!   exercised.
//! * The bit-determinism test asserts the documented contract: results are
//!   bit-identical across pool widths {1, 2, 4, 8}.
//! * The non-finite regression pins the bugfix for the old kernels'
//!   `aik == 0.0` skip, which silently dropped `0·inf = NaN`.

use mini_tensor::gemm::{Gemm, KC, MC, MR, NR};
use mini_tensor::rng::SeedRng;
use proptest::prelude::*;

/// Naive reference: ascending-k accumulation, same operand indexing rules
/// as the descriptor documents.
fn naive(g: &Gemm, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; g.c_len()];
    for i in 0..g.m {
        for j in 0..g.n {
            let mut acc = 0.0f32;
            for p in 0..g.k {
                let av = if g.trans_a { a[p * g.m + i] } else { a[i * g.k + p] };
                let bv = if g.trans_b { b[j * g.k + p] } else { b[p * g.n + j] };
                acc += av * bv;
            }
            c[i * g.n + j] = acc;
        }
    }
    c
}

fn descriptor(trans_a: bool, trans_b: bool, m: usize, k: usize, n: usize) -> Gemm {
    match (trans_a, trans_b) {
        (false, false) => Gemm::nn(m, k, n),
        (false, true) => Gemm::nt(m, k, n),
        (true, false) => Gemm::tn(m, k, n),
        (true, true) => Gemm::tt(m, k, n),
    }
}

/// Tiny, odd, prime and tile-edge sizes for the output dims. 49/53/97
/// straddle `MC = 48` (so the stripe loop and its ragged tail both run);
/// 5/7/13 are not multiples of `MR = 6` or `NR = 16`.
const OUT_DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 8, 13, 16, 17, 31, 47, 48, 49, 53, 64, 97];
/// Depth menu: includes `k > KC = 256` so the multi-slab (block-sum)
/// accumulation path runs, plus 0 for the `c = 0` edge.
const K_DIMS: &[usize] = &[0, 1, 2, 3, 5, 7, 16, 31, 64, 127, 255, 256, 257, 300];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_matches_naive_all_transpose_combos(
        mi in 0usize..17, ki in 0usize..14, ni in 0usize..17, seed in 0u64..10_000,
    ) {
        let (m, k, n) = (OUT_DIMS[mi], K_DIMS[ki], OUT_DIMS[ni]);
        let mut rng = SeedRng::new(seed);
        for (ta, tb) in [(false, false), (false, true), (true, false), (true, true)] {
            let g = descriptor(ta, tb, m, k, n);
            let a = rng.randn_tensor(&[g.a_len().max(1)], 1.0).into_vec();
            let b = rng.randn_tensor(&[g.b_len().max(1)], 1.0).into_vec();
            let mut c = vec![f32::NAN; g.c_len()]; // poisoned: overwrite must be total
            g.run(&a[..g.a_len()], &b[..g.b_len()], &mut c);
            let want = naive(&g, &a[..g.a_len()], &b[..g.b_len()]);
            // FMA vs separate mul+add and slab-grouped sums differ from the
            // naive loop by rounding only.
            let tol = 1e-4 * (k as f32 + 1.0).sqrt() * 10.0;
            for (idx, (x, y)) in c.iter().zip(&want).enumerate() {
                prop_assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "({m},{k},{n}) ta={ta} tb={tb} c[{idx}]: packed {x} vs naive {y}"
                );
            }
        }
    }
}

#[test]
fn bit_identical_across_thread_counts() {
    // Large enough that Gemm::run takes the parallel path (m·k·n ≥
    // PAR_FLOPS and m > MC) and spans several stripes with a ragged tail.
    let (m, k, n) = (3 * MC + MR - 1, KC + 9, 2 * NR + 3);
    let g = Gemm::nn(m, k, n);
    let mut rng = SeedRng::new(4242);
    let a = rng.randn_tensor(&[g.a_len()], 1.0).into_vec();
    let b = rng.randn_tensor(&[g.b_len()], 1.0).into_vec();

    let run_with = |threads: usize| {
        let mut c = vec![0.0f32; g.c_len()];
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        pool.install(|| g.run(&a, &b, &mut c));
        c.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let c1 = run_with(1);
    // 8: more lanes than stripes, and than cores on the CI runner.
    for threads in [2, 4, 8] {
        assert_eq!(c1, run_with(threads), "1-thread vs {threads}-thread results differ in bits");
    }
}

/// The pre-packed-core kernels skipped the inner loop when `aik == 0.0`,
/// silently producing finite output where IEEE arithmetic demands NaN
/// (0·inf) or ±inf propagation. Every transpose combo of the packed core
/// must propagate non-finite values.
#[test]
fn zero_times_inf_propagates_nan() {
    // c = 0·inf + 1·2 → NaN.
    let a = [0.0f32, 1.0];
    let b = [f32::INFINITY, 2.0];
    let mut c = [0.0f32; 1];
    Gemm::nn(1, 2, 1).run(&a, &b, &mut c);
    assert!(c[0].is_nan(), "nn: 0·inf must poison the dot product, got {}", c[0]);

    // a[1×2]·b[1×2]ᵀ with b = [inf, 2]: 0·inf + 1·2 → NaN.
    let mut c = [0.0f32; 1];
    Gemm::nt(1, 2, 1).run(&a, &b, &mut c);
    assert!(c[0].is_nan(), "nt dropped 0·inf");

    // aᵀ[2×1]·b[1×1] with a = [0, 1], b = [inf]: row 0 is 0·inf → NaN,
    // row 1 is 1·inf → inf.
    let bb = [f32::INFINITY];
    let mut c = [0.0f32; 2];
    Gemm::tn(2, 1, 1).run(&a, &bb, &mut c);
    assert!(c[0].is_nan(), "tn dropped 0·inf");
    assert_eq!(c[1], f32::INFINITY, "tn must propagate inf");
}

/// NaN in either operand must reach every affected output element.
#[test]
fn nan_operand_poisons_whole_row_and_column() {
    let (m, k, n) = (5, 9, 7);
    let g = Gemm::nn(m, k, n);
    let mut rng = SeedRng::new(99);
    let mut a = rng.randn_tensor(&[g.a_len()], 1.0).into_vec();
    let b = rng.randn_tensor(&[g.b_len()], 1.0).into_vec();
    a[2 * k + 4] = f32::NAN; // A[2, 4]
    let mut c = vec![0.0f32; g.c_len()];
    g.run(&a, &b, &mut c);
    for j in 0..n {
        assert!(c[2 * n + j].is_nan(), "C[2,{j}] must be NaN");
    }
    for i in [0usize, 1, 3, 4] {
        for j in 0..n {
            assert!(c[i * n + j].is_finite(), "C[{i},{j}] must stay finite");
        }
    }
}
