//! Empirical probe of the paper's §3.2 convergence analysis on an
//! analytically-solvable distributed quadratic: tracks the Lyapunov
//! sequence h_t = ‖w_t − w*‖² under the A2SGD update and fits
//! Assumption 3's affine bound E‖g + ∇µ‖² ≤ A + B·h.
//!
//! Run: `cargo run --release --example convergence_theory`

use a2sgd::mean2::{shift_by_sign, split_means};
use a2sgd::theory::{affine_bound_fit, DistributedQuadratic};
use mini_tensor::rng::SeedRng;

fn main() {
    let workers = 4;
    let dim = 64;
    // Homogeneous (IID-shard) regime — the one the paper's Theorem 1
    // addresses. Swap in `DistributedQuadratic::new` to watch the
    // heterogeneous client-drift failure mode instead.
    let q = DistributedQuadratic::homogeneous(workers, dim, 0.05, 9);
    let mut rng = SeedRng::new(10);

    let mut w = vec![0.0f32; dim];
    let mut hs = Vec::new();
    let mut xs = Vec::new(); // h_t samples
    let mut ys = Vec::new(); // ‖g + ∇µ‖² samples

    println!("Distributed quadratic, {workers} workers, dim {dim}, A2SGD update\n");
    println!("{:>6} {:>14} {:>12}", "iter", "h_t = ‖w−w*‖²", "η_t");
    for t in 1..=4000usize {
        let eta = 0.5 / (1.0 + t as f32 * 0.01); // satisfies Assumption 2

        // Each worker: local gradient → two means; exchange averages them.
        let mut grads: Vec<Vec<f32>> = (0..workers).map(|p| q.grad(p, &w, &mut rng)).collect();
        let means: Vec<_> = grads.iter().map(|g| split_means(g)).collect();
        let gp = means.iter().map(|m| m.mu_pos).sum::<f32>() / workers as f32;
        let gn = means.iter().map(|m| m.mu_neg).sum::<f32>() / workers as f32;
        // Every worker shifts its sign classes to the global means (ε stays
        // put); the *model state* follows worker 0 (replicas differ only
        // by their residuals).
        for (g, m) in grads.iter_mut().zip(&means) {
            let (d_pos, d_neg) = m.shift_to(gp, gn);
            shift_by_sign(g, d_pos, d_neg);
        }
        let gnorm2: f64 = grads[0].iter().map(|v| (*v as f64).powi(2)).sum();
        let h = q.h(&w);
        xs.push(h);
        ys.push(gnorm2);
        for (wi, gi) in w.iter_mut().zip(&grads[0]) {
            *wi -= eta * gi;
        }
        if t.is_power_of_two() || t == 4000 {
            println!("{t:>6} {:>14.6} {:>12.5}", h, eta);
        }
        hs.push(h);
    }

    let (a, b, violation) = affine_bound_fit(&xs, &ys);
    println!("\nAssumption 3 probe: E‖g + ∇µ‖² ≤ A + B·h with A = {a:.4}, B = {b:.4}");
    println!(
        "max bound violation: {:.2e} (≈ 0 ⇒ the affine bound holds on this trajectory)",
        violation
    );
    let final_h = *hs.last().unwrap();
    println!(
        "\nfinal h_t = {final_h:.6} (started at {:.4}) — converged toward w* as Theorem 1 predicts",
        hs[0]
    );
}
