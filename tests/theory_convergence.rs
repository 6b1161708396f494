//! Theorem-1 probes on the analytically-solvable distributed quadratic:
//! the A2SGD update converges to w* under Assumption-2 learning rates, and
//! Assumption 3's affine gradient bound holds along the trajectory.

use a2sgd::mean2::{shift_by_sign, split_means};
use a2sgd::theory::{affine_bound_fit, assumption2_probe, DistributedQuadratic};
use mini_tensor::rng::SeedRng;

/// One A2SGD step on the quadratic; returns worker 0's applied gradient.
fn a2sgd_step(q: &DistributedQuadratic, w: &[f32], rng: &mut SeedRng) -> Vec<f32> {
    let workers = q.centers.len();
    let mut grads: Vec<Vec<f32>> = (0..workers).map(|p| q.grad(p, w, rng)).collect();
    let means: Vec<_> = grads.iter().map(|g| split_means(g)).collect();
    let gp = means.iter().map(|m| m.mu_pos).sum::<f32>() / workers as f32;
    let gn = means.iter().map(|m| m.mu_neg).sum::<f32>() / workers as f32;
    let (d_pos, d_neg) = means[0].shift_to(gp, gn);
    shift_by_sign(&mut grads[0], d_pos, d_neg);
    grads.swap_remove(0)
}

#[test]
fn a2sgd_update_converges_on_homogeneous_quadratic() {
    // The paper's regime: IID workers (same objective, noisy gradients).
    let q = DistributedQuadratic::homogeneous(4, 32, 0.02, 11);
    let mut rng = SeedRng::new(12);
    let mut w = vec![0.0f32; 32];
    let h0 = q.h(&w);
    for t in 1..=6000usize {
        let eta = 0.5 / (1.0 + 0.01 * t as f32);
        let g = a2sgd_step(&q, &w, &mut rng);
        for (wi, gi) in w.iter_mut().zip(&g) {
            *wi -= eta * gi;
        }
    }
    let hf = q.h(&w);
    assert!(hf < h0 * 0.01, "h did not shrink: {h0} → {hf}");
    assert!(hf < 0.05, "final h too large: {hf}");
}

#[test]
fn heterogeneous_objectives_reveal_client_drift() {
    // Reproduction finding: with NON-IID workers (distinct local optima),
    // the A2SGD trajectory of worker 0 converges toward worker 0's own
    // optimum c_0, not the global w* — two scalar means per iteration
    // cannot carry the inter-worker directional disagreement. Theorem 1's
    // premise ∇C(w) = g + ∇µ only holds when shards are IID, which the
    // trainer guarantees via globally-permuted sharding.
    let q = DistributedQuadratic::new(4, 32, 0.0, 11);
    let mut rng = SeedRng::new(12);
    let mut w = vec![0.0f32; 32];
    for t in 1..=6000usize {
        let eta = 0.5 / (1.0 + 0.01 * t as f32);
        let g = a2sgd_step(&q, &w, &mut rng);
        for (wi, gi) in w.iter_mut().zip(&g) {
            *wi -= eta * gi;
        }
    }
    // Distance from worker 0's own optimum (should be small-ish)...
    let d0: f64 = w.iter().zip(&q.centers[0]).map(|(a, b)| ((a - b) as f64).powi(2)).sum();
    // ...versus distance from the global optimum (stays macroscopic).
    let hstar = q.h(&w);
    assert!(hstar > 1.0, "expected client drift away from w*: h = {hstar}");
    assert!(d0 < hstar, "trajectory should sit nearer c_0 ({d0}) than w* ({hstar})");
}

#[test]
fn dense_and_a2sgd_reach_similar_neighborhoods() {
    let q = DistributedQuadratic::homogeneous(4, 32, 0.02, 13);
    let run = |a2: bool| -> f64 {
        let mut rng = SeedRng::new(14);
        let mut w = vec![0.0f32; 32];
        for t in 1..=6000usize {
            let eta = 0.5 / (1.0 + 0.01 * t as f32);
            let g = if a2 {
                a2sgd_step(&q, &w, &mut rng)
            } else {
                let workers = q.centers.len();
                let gs: Vec<Vec<f32>> = (0..workers).map(|p| q.grad(p, &w, &mut rng)).collect();
                let mut avg = vec![0.0f32; 32];
                for g in &gs {
                    for i in 0..32 {
                        avg[i] += g[i] / workers as f32;
                    }
                }
                avg
            };
            for (wi, gi) in w.iter_mut().zip(&g) {
                *wi -= eta * gi;
            }
        }
        q.h(&w)
    };
    let hd = run(false);
    let ha = run(true);
    // Both in a small neighbourhood of w*; A2SGD within an order of
    // magnitude of dense (its update keeps the local residual).
    assert!(hd < 0.05, "dense h {hd}");
    assert!(ha < 10.0 * hd.max(1e-3), "a2sgd h {ha} vs dense {hd}");
}

#[test]
fn assumption3_affine_bound_holds_on_trajectory() {
    let q = DistributedQuadratic::homogeneous(4, 16, 0.05, 15);
    let mut rng = SeedRng::new(16);
    let mut w: Vec<f32> = (0..16).map(|_| rng.randn() * 3.0).collect();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for t in 1..=2000usize {
        let eta = 0.3 / (1.0 + 0.01 * t as f32);
        let g = a2sgd_step(&q, &w, &mut rng);
        xs.push(q.h(&w));
        ys.push(g.iter().map(|v| (*v as f64).powi(2)).sum::<f64>());
        for (wi, gi) in w.iter_mut().zip(&g) {
            *wi -= eta * gi;
        }
    }
    let (a, b, violation) = affine_bound_fit(&xs, &ys);
    assert!(a.is_finite() && b.is_finite());
    assert!(violation < 1e-9, "affine bound violated by {violation}");
    // The bound must be non-trivial: B > 0 because the quadratic's
    // gradient grows with distance from w*.
    assert!(b > 0.0);
}

#[test]
fn assumption2_schedule_used_in_probes_is_valid() {
    let (tail, sq_tail) = assumption2_probe(|t| 0.5 / (1.0 + 0.01 * t as f64), 200_000);
    assert!(tail > 1.0, "Ση tail {tail}");
    assert!(sq_tail < 0.05, "Ση² tail {sq_tail}");
}
