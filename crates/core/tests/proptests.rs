//! Property-based tests for the two-level averaging kernels — the paper's
//! §3.1 identities must hold for *arbitrary* gradients, not just Gaussian
//! ones.

use a2sgd::mean2::{enc_into, shift_by_sign, split_means, TwoMeans};
use proptest::prelude::*;

fn grad() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 1..256)
}

/// ε = g − enc(g): the residual a round keeps local. The library never
/// materialises it (the round shifts g in place); the §3.1 identities
/// about it are checked through `enc_into`.
fn residual(g: &[f32], m: &TwoMeans) -> Vec<f32> {
    let mut enc = vec![0.0f32; g.len()];
    enc_into(g, m, &mut enc);
    g.iter().zip(&enc).map(|(v, e)| v - e).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn means_are_class_averages(g in grad()) {
        let m = split_means(&g);
        let pos: Vec<f64> = g.iter().filter(|v| **v >= 0.0).map(|v| *v as f64).collect();
        let neg: Vec<f64> = g.iter().filter(|v| **v < 0.0).map(|v| -*v as f64).collect();
        prop_assert_eq!(m.n_pos, pos.len());
        prop_assert_eq!(m.n_neg, neg.len());
        if !pos.is_empty() {
            let mean = pos.iter().sum::<f64>() / pos.len() as f64;
            prop_assert!((m.mu_pos as f64 - mean).abs() < 1e-4 * (1.0 + mean.abs()));
        }
        if !neg.is_empty() {
            let mean = neg.iter().sum::<f64>() / neg.len() as f64;
            prop_assert!((m.mu_neg as f64 - mean).abs() < 1e-4 * (1.0 + mean.abs()));
        }
        // µ− is an absolute mean: always non-negative.
        prop_assert!(m.mu_neg >= 0.0 && m.mu_pos >= 0.0);
    }

    #[test]
    fn enc_plus_residual_is_identity(g in grad()) {
        // g == enc(g) + ε, coordinate-wise.
        let m = split_means(&g);
        let mut enc = vec![0.0f32; g.len()];
        enc_into(&g, &m, &mut enc);
        let eps = residual(&g, &m);
        for i in 0..g.len() {
            prop_assert!((enc[i] + eps[i] - g[i]).abs() < 1e-3 * (1.0 + g[i].abs()));
        }
    }

    #[test]
    fn shift_to_local_means_round_trips(g in grad()) {
        // Global = local means is a zero shift: g comes back value-exact.
        let m = split_means(&g);
        let (dp, dn) = m.shift_to(m.mu_pos, m.mu_neg);
        let mut work = g.clone();
        shift_by_sign(&mut work, dp, dn);
        prop_assert_eq!(work, g);
    }

    #[test]
    fn global_means_shift_by_class(g in grad(), dp in 0.0f32..5.0, dn in 0.0f32..5.0) {
        // Replacing local means with (µ+ + dp, µ− + dn) shifts positive
        // coordinates by +dp and negative ones by −dn exactly.
        let m = split_means(&g);
        let (d_pos, d_neg) = m.shift_to(m.mu_pos + dp, m.mu_neg + dn);
        let mut work = g.clone();
        shift_by_sign(&mut work, d_pos, d_neg);
        for i in 0..g.len() {
            let expect = if g[i] >= 0.0 { g[i] + dp } else { g[i] - dn };
            prop_assert!((work[i] - expect).abs() < 1e-3 * (1.0 + expect.abs()));
        }
    }

    #[test]
    fn residual_l2_never_exceeds_gradient_l2(g in grad()) {
        // Subtracting the class means is a projection-like contraction:
        // ‖ε‖² = ‖g‖² − (n₊µ₊² + n₋µ₋²) ≤ ‖g‖².
        let m = split_means(&g);
        let norm_g: f64 = g.iter().map(|v| (*v as f64).powi(2)).sum();
        let eps = residual(&g, &m);
        let norm_e: f64 = eps.iter().map(|v| (*v as f64).powi(2)).sum();
        prop_assert!(norm_e <= norm_g + 1e-3 * (1.0 + norm_g));
    }
}
