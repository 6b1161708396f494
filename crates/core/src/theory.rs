//! Convergence-analysis probes (paper §3.2).
//!
//! The paper proves Theorem 1 (almost-sure convergence of the A2SGD update
//! `w ← w − η(g + ∇µ)`) in Bottou's GOGA framework under Assumptions 1–3.
//! We cannot prove theorems in code, but we can *instrument* them: this
//! module provides an analytically-solvable distributed quadratic problem
//! and probes that measure the quantities the assumptions bound —
//! `h_t = ‖w_t − w*‖²` (the Lyapunov sequence) and
//! `E‖g_t + ∇µ_t‖²` against `A + B·h_t` (Assumption 3).

use mini_tensor::rng::SeedRng;

/// A distributed least-squares problem: worker p owns
/// `f_p(w) = ½‖w − c_p‖²_{D}` with a shared positive-diagonal metric `D`,
/// so the global objective `F(w) = (1/P)Σ f_p(w)` has the closed-form
/// minimum `w* = mean(c_p)`.
pub struct DistributedQuadratic {
    /// Per-worker centres.
    pub centers: Vec<Vec<f32>>,
    /// Diagonal metric (curvatures), shared by all workers.
    pub diag: Vec<f32>,
    /// Gradient-noise σ (mini-batch stochasticity stand-in).
    pub noise: f32,
}

impl DistributedQuadratic {
    /// Builds a **heterogeneous** instance: every worker has its own
    /// centre. This is the regime where A2SGD's residual-retaining update
    /// exhibits *client drift* — each replica is pulled toward its own
    /// `c_p` and the two scalar means cannot communicate the directional
    /// disagreement (see the `theory_convergence` integration tests).
    pub fn new(workers: usize, dim: usize, noise: f32, seed: u64) -> Self {
        let mut rng = SeedRng::new(seed);
        let centers =
            (0..workers).map(|_| (0..dim).map(|_| rng.randn()).collect::<Vec<f32>>()).collect();
        let diag = (0..dim).map(|_| rng.uniform(0.5, 1.5)).collect();
        DistributedQuadratic { centers, diag, noise }
    }

    /// Builds a **homogeneous (IID)** instance: all workers share one
    /// centre and differ only through gradient noise — the data-parallel
    /// deep-learning regime the paper evaluates, and the one where
    /// Theorem 1's premise `∇C(w) = g + ∇µ` (in expectation) holds.
    pub fn homogeneous(workers: usize, dim: usize, noise: f32, seed: u64) -> Self {
        let mut rng = SeedRng::new(seed);
        let center: Vec<f32> = (0..dim).map(|_| rng.randn()).collect();
        let centers = (0..workers).map(|_| center.clone()).collect();
        let diag = (0..dim).map(|_| rng.uniform(0.5, 1.5)).collect();
        DistributedQuadratic { centers, diag, noise }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The unique global minimiser `w* = mean_p(c_p)`.
    pub fn optimum(&self) -> Vec<f32> {
        let dim = self.dim();
        let mut w = vec![0.0f32; dim];
        for c in &self.centers {
            for i in 0..dim {
                w[i] += c[i] / self.centers.len() as f32;
            }
        }
        w
    }

    /// Stochastic gradient of worker `p` at `w`:
    /// `D·(w − c_p) + noise`.
    pub fn grad(&self, p: usize, w: &[f32], rng: &mut SeedRng) -> Vec<f32> {
        let c = &self.centers[p];
        w.iter()
            .zip(c)
            .zip(&self.diag)
            .map(|((wi, ci), di)| di * (wi - ci) + self.noise * rng.randn())
            .collect()
    }

    /// Squared distance to optimum — the Lyapunov quantity `h_t`.
    pub fn h(&self, w: &[f32]) -> f64 {
        let wstar = self.optimum();
        w.iter().zip(&wstar).map(|(a, b)| ((a - b) as f64).powi(2)).sum()
    }
}

/// Checks Assumption 2 on a learning-rate sequence sampled at `t = 1..T`:
/// Ση_t should keep growing while Ση_t² converges. Returns
/// `(sum_lr_last_tenth, sum_sq_tail)` so callers can assert divergence of
/// the former and smallness of the latter.
pub fn assumption2_probe(lr_at: impl Fn(usize) -> f64, t_max: usize) -> (f64, f64) {
    let mut sum_tail = 0.0;
    let mut sum_sq_tail = 0.0;
    for t in 1..=t_max {
        let lr = lr_at(t);
        if t > t_max * 9 / 10 {
            sum_tail += lr;
        }
        if t > t_max / 2 {
            sum_sq_tail += lr * lr;
        }
    }
    (sum_tail, sum_sq_tail)
}

/// Least-squares fit of `y ≈ A + B·x` (Assumption 3's affine bound probe):
/// returns `(A, B, max_residual_over_bound)` where the last value is
/// `max_i (y_i − (A + B·x_i))⁺ / (A + B·x_i)` — how much the fitted bound
/// is violated. For data genuinely bounded affinely this is ~0 once A, B
/// are inflated to cover the samples.
pub fn affine_bound_fit(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len() as f64;
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    let b = if denom.abs() < 1e-12 { 0.0 } else { (n * sxy - sx * sy) / denom };
    let a = (sy - b * sx) / n;
    // Inflate to a true upper bound: shift A so every sample is covered.
    let mut a_up = a;
    for (x, y) in xs.iter().zip(ys) {
        a_up = a_up.max(y - b * x);
    }
    let mut worst = 0.0f64;
    for (x, y) in xs.iter().zip(ys) {
        let bound = a_up + b * x;
        if bound > 0.0 {
            worst = worst.max((y - bound) / bound);
        }
    }
    (a_up, b.max(0.0), worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimum_is_center_mean() {
        let q = DistributedQuadratic::new(4, 3, 0.0, 1);
        let w = q.optimum();
        // Gradient of the average objective vanishes at w*.
        let mut rng = SeedRng::new(2);
        let mut g = vec![0.0f32; 3];
        for p in 0..4 {
            let gp = q.grad(p, &w, &mut rng);
            for i in 0..3 {
                g[i] += gp[i] / 4.0;
            }
        }
        assert!(g.iter().all(|v| v.abs() < 1e-5), "{g:?}");
    }

    #[test]
    fn h_is_zero_at_optimum() {
        let q = DistributedQuadratic::new(3, 5, 0.0, 7);
        assert!(q.h(&q.optimum()) < 1e-12);
        let mut w = q.optimum();
        w[0] += 1.0;
        assert!((q.h(&w) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn assumption2_holds_for_one_over_t() {
        // η_t = c/t satisfies both conditions.
        let (tail, sq_tail) = assumption2_probe(|t| 1.0 / t as f64, 100_000);
        assert!(tail > 0.09, "Ση must diverge: tail {tail}"); // ~ln(10/9)
        assert!(sq_tail < 2e-5, "Ση² must converge: {sq_tail}");
    }

    #[test]
    fn assumption2_fails_for_constant_squares() {
        // η_t = 0.1 violates Ση² < ∞: the tail of squares stays large.
        let (_, sq_tail) = assumption2_probe(|_| 0.1, 100_000);
        assert!(sq_tail > 100.0);
    }

    #[test]
    fn affine_fit_covers_samples() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let (a, b, worst) = affine_bound_fit(&xs, &ys);
        assert!((b - 3.0).abs() < 1e-9);
        assert!(a >= 2.0 - 1e-9);
        assert!(worst <= 1e-12);
    }
}
