//! Property-based tests for the tensor substrate.

use mini_tensor::conv::{self, Conv2dSpec};
use mini_tensor::{gemm::Gemm, gemm::KC, ops, rng::SeedRng, stats, Tensor};
use proptest::prelude::*;

mod direct;

/// `|got − want| ≤ 1e-5·(1 + |want|)` elementwise: the bound the direct
/// backward-data product (one FMA reduction per `dx` element) is held to
/// against the `f64` direct-loop oracle; `dW`/`db` are held to it too.
fn within_bound(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape().dims(), want.shape().dims(), "{what} shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!((g - w).abs() <= 1e-5 * (1.0 + w.abs()), "{what}[{i}]: {g} vs {w}");
    }
}

/// Forward against `conv2d_reference`, backward against
/// `conv2d_backward_reference`, on one seeded geometry.
fn check_conv(spec: Conv2dSpec, n: usize, h: usize, w: usize, seed: u64) {
    let mut rng = SeedRng::new(seed);
    let (oh, ow) = spec.out_hw(h, w);
    let x = rng.randn_tensor(&[n, spec.in_c, h, w], 1.0);
    let wt = rng.randn_tensor(&[spec.out_c, spec.in_c, spec.k, spec.k], 0.5);
    let b = rng.randn_tensor(&[spec.out_c], 0.1);
    let dout = rng.randn_tensor(&[n, spec.out_c, oh, ow], 1.0);
    let y = conv::conv2d_forward(&x, &wt, Some(&b), &spec);
    let y_ref = direct::conv2d_reference(&x, &wt, Some(&b), &spec);
    for (a, r) in y.as_slice().iter().zip(y_ref.as_slice()) {
        assert!((a - r).abs() < 1e-3, "{spec:?} {h}x{w}: y {a} vs {r}");
    }
    let (dx, dw, db) = conv::conv2d_backward(&x, &wt, &dout, &spec);
    let (dx_ref, dw_ref, db_ref) = direct::conv2d_backward_reference(&x, &wt, &dout, &spec);
    within_bound(&dx, &dx_ref, "dx");
    within_bound(&dw, &dw_ref, "dW");
    within_bound(&db, &db_ref, "db");
    // Input rows and columns past the last window get no gradient at all.
    let (reach_y, reach_x) = ((oh - 1) * spec.stride + spec.k, (ow - 1) * spec.stride + spec.k);
    for (i, v) in dx.as_slice().iter().enumerate() {
        if i / w % h + spec.pad >= reach_y || i % w + spec.pad >= reach_x {
            assert_eq!(*v, 0.0, "{spec:?} {h}x{w}: dx[{i}] is untouched by every output");
        }
    }
}

#[test]
fn conv_matches_direct_loops_when_a_slab_starts_mid_channel() {
    // 32 channels × 3×3 = 288 patch rows: the second KC slab starts inside
    // channel 28. Odd sizes at stride 2 leave the last input column unread.
    let spec = Conv2dSpec { in_c: 32, out_c: 3, k: 3, stride: 2, pad: 0 };
    assert!(spec.in_c * spec.k * spec.k > KC);
    check_conv(spec, 2, 7, 10, 41);
}

fn finite_vec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(r in 1usize..12, c in 1usize..12, seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let t = rng.randn_tensor(&[r, c], 1.0);
        prop_assert_eq!(t.clone(), t.transpose2().transpose2());
    }

    #[test]
    fn matmul_left_distributive(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        // A(B + C) == AB + AC
        let mut rng = SeedRng::new(seed);
        let a = rng.randn_tensor(&[m, k], 1.0);
        let b = rng.randn_tensor(&[k, n], 1.0);
        let c = rng.randn_tensor(&[k, n], 1.0);
        let g = Gemm::nn(m, k, n);
        let lhs = g.run_tensor(&a, &ops::add(&b, &c));
        let rhs = ops::add(&g.run_tensor(&a, &b), &g.run_tensor(&a, &c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_scalar_commutes(m in 1usize..6, k in 1usize..6, n in 1usize..6, s in -3.0f32..3.0, seed in 0u64..1000) {
        // (sA)B == s(AB)
        let mut rng = SeedRng::new(seed);
        let a = rng.randn_tensor(&[m, k], 1.0);
        let b = rng.randn_tensor(&[k, n], 1.0);
        let g = Gemm::nn(m, k, n);
        let lhs = g.run_tensor(&ops::scale(&a, s), &b);
        let rhs = ops::scale(&g.run_tensor(&a, &b), s);
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2);
        }
    }

    #[test]
    fn histogram_mass_conservation(xs in finite_vec(200), bins in 1usize..32) {
        let mut h = stats::Histogram::new(-1.0, 1.0, bins);
        h.add_all(&xs);
        prop_assert_eq!(h.total(), xs.len() as u64);
        let freq_sum: f64 = h.frequencies().iter().sum();
        prop_assert!((freq_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_mean_within_bounds(xs in finite_vec(64)) {
        let s = stats::summary(&xs);
        prop_assert!(s.mean >= s.min as f64 - 1e-6 && s.mean <= s.max as f64 + 1e-6);
        prop_assert!(s.var >= 0.0);
    }

    #[test]
    fn softmax_rows_is_distribution(r in 1usize..6, c in 1usize..10, seed in 0u64..1000) {
        let mut rng = SeedRng::new(seed);
        let t = rng.randn_tensor(&[r, c], 5.0);
        let s = ops::softmax_rows(&t);
        for i in 0..r {
            let row = &s.as_slice()[i * c..(i + 1) * c];
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let total: f32 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn conv_matches_direct_loops_over_the_geometry_menu(
        in_c in 1usize..=5, out_c in 1usize..=7, ki in 0usize..3, stride in 1usize..=3,
        pad in 0usize..=2, n in 1usize..=3, h in 5usize..=11, dw in 1usize..=9, seed in 0u64..1000,
    ) {
        // k ∈ {1, 3, 5}, non-square inputs up to 11×20: output rows shorter
        // than, not dividing and longer than NR, strides that leave input
        // rows unread, padding wider than the kernel.
        let spec = Conv2dSpec { in_c, out_c, k: 2 * ki + 1, stride, pad };
        check_conv(spec, n, h, h + dw, seed);
    }

    #[test]
    fn conv_linearity_in_input(seed in 0u64..500) {
        // conv(x1 + x2) == conv(x1) + conv(x2) with zero bias.
        let spec = Conv2dSpec { in_c: 1, out_c: 2, k: 3, stride: 1, pad: 1 };
        let mut rng = SeedRng::new(seed);
        let x1 = rng.randn_tensor(&[1, 1, 6, 6], 1.0);
        let x2 = rng.randn_tensor(&[1, 1, 6, 6], 1.0);
        let w = rng.randn_tensor(&[2, 1, 3, 3], 0.5);
        let lhs = conv::conv2d_forward(&ops::add(&x1, &x2), &w, None, &spec);
        let rhs = ops::add(
            &conv::conv2d_forward(&x1, &w, None, &spec),
            &conv::conv2d_forward(&x2, &w, None, &spec),
        );
        for (a, b) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((a - b).abs() < 1e-3);
        }
    }
}
