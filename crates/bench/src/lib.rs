//! Shared helpers for the figure/table regenerators and criterion benches.
//!
//! Each paper figure or table has a dedicated binary in `src/bin/`
//! (`fig1_grad_distribution`, `fig2_compression_time`, `fig3_convergence`,
//! `fig4_iteration_time`, `fig5_total_time`, `table1_setup`,
//! `table2_complexity`, `ablation_allgather`). Every binary prints the
//! same rows/series the paper reports and writes CSVs under `results/`.

use a2sgd::registry::AlgoKind;
use mini_tensor::rng::SeedRng;

/// Deterministic pseudo-gradient with the bell-shaped, near-zero-centred
/// distribution real gradients exhibit (paper Fig. 1).
pub fn synthetic_gradient(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = SeedRng::new(seed);
    (0..n).map(|_| rng.randn() * 0.02).collect()
}

/// Measures wall seconds of `f`, best of `reps` (cold-start insensitive).
pub fn time_best<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Compression compute time (selection/quantization, or for A2SGD both
/// O(n) sweeps of the round; no exchange) for one algorithm on an
/// `n`-element gradient — the quantity Figure 2 plots. QSGD here uses
/// the *fast* O(n) path; the deliberately paper-faithful O(n²) reference
/// path is exercised separately by the fig2 binary at bounded n.
pub fn compression_compute_seconds(algo: AlgoKind, g: &mut [f32], reps: usize) -> f64 {
    let n = g.len();
    match algo {
        // Both sweeps of the round: split, then the sign shift (a zero
        // shift costs the same — the kernel is branch-free — and leaves
        // `g` intact across reps).
        AlgoKind::A2sgd => time_best(reps, || {
            let m = a2sgd::split_means(g);
            let (d_pos, d_neg) = m.shift_to(m.mu_pos, m.mu_neg);
            a2sgd::shift_by_sign(g, d_pos, d_neg);
            std::hint::black_box(g[0]);
        }),
        AlgoKind::TopK(r) => {
            let k = gradcomp::sparse::k_of(n, r);
            time_best(reps, || {
                let idx = gradcomp::topk::TopK::select(g, k);
                std::hint::black_box(idx.len());
            })
        }
        AlgoKind::GaussianK(r) => {
            let k = gradcomp::sparse::k_of(n, r);
            time_best(reps, || {
                let t = gradcomp::gaussiank::GaussianK::estimate_threshold(g, k);
                let count = g.iter().filter(|v| v.abs() > t).count();
                std::hint::black_box(count);
            })
        }
        AlgoKind::Qsgd(s) => {
            let mut q = gradcomp::Qsgd::new(s, gradcomp::QsgdImpl::Fast, 7);
            time_best(reps, || {
                let out = q.quantize(g);
                std::hint::black_box(out.norm);
            })
        }
        AlgoKind::TernGrad => {
            let mut t = gradcomp::TernGrad::new(7);
            time_best(reps, || {
                let mut tmp = g.to_vec();
                let s = t.ternarize(&mut tmp);
                std::hint::black_box(s);
            })
        }
        _ => f64::NAN,
    }
}

/// Modeled communication seconds per iteration for `algo` on a model of
/// `n` parameters across `p` workers (the T_comm term of Figures 4/5):
/// the registry's `wire_bits(n) / 8` bytes per worker — the whole records
/// and whole bytes the typed encodings move, what the runtime's ledger
/// charges (tested below) — allreduced for Dense and ring-allgathered for
/// every encoded frame (A2SGD's packet by the paper's §4.4 formulation).
pub fn comm_seconds(algo: AlgoKind, n: usize, p: usize, m: &cluster_comm::CostModel) -> f64 {
    let bytes = algo.wire_bits(n) as f64 / 8.0;
    match algo {
        AlgoKind::Dense => m.allreduce(bytes, p),
        _ => m.ring_allgather(bytes, p),
    }
}

/// Fixed forward+backward constants (seconds) per model — stand-ins for the
/// V100 compute the paper measured; identical across algorithms so they
/// never change algorithm ordering (calibrated to the paper's Figure 4
/// dense levels).
pub fn fwd_bwd_seconds(model: mini_nn::models::ModelKind) -> f64 {
    use mini_nn::models::ModelKind;
    match model {
        ModelKind::Fnn3 => 0.010,
        ModelKind::ResNet20 => 0.040,
        ModelKind::Vgg16 => 0.090,
        ModelKind::LstmPtb => 0.250,
    }
}

/// Parses `--key value` style CLI arguments (no external deps).
pub struct Args {
    argv: Vec<String>,
}

impl Args {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        Args { argv: std::env::args().skip(1).collect() }
    }

    /// String value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        let flag = format!("--{key}");
        self.argv
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.argv.get(i + 1))
            .map(|s| s.as_str())
    }

    /// Parsed value of `--key` or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.get(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// True when the bare flag `--key` is present.
    pub fn has(&self, key: &str) -> bool {
        let flag = format!("--{key}");
        self.argv.iter().any(|a| a == &flag)
    }
}

/// Directory for CSV outputs.
pub fn results_dir() -> std::path::PathBuf {
    let p = std::path::PathBuf::from("results");
    let _ = std::fs::create_dir_all(&p);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_gradient_is_bell_shaped() {
        let g = synthetic_gradient(50_000, 1);
        let s = mini_tensor::stats::summary(&g);
        assert!(s.mean.abs() < 1e-3);
        assert!((s.std() - 0.02).abs() < 2e-3);
    }

    #[test]
    fn compression_timings_are_finite_and_positive() {
        let mut g = synthetic_gradient(100_000, 2);
        for algo in
            [AlgoKind::A2sgd, AlgoKind::TopK(0.001), AlgoKind::GaussianK(0.001), AlgoKind::Qsgd(4)]
        {
            let t = compression_compute_seconds(algo, &mut g, 2);
            assert!(t.is_finite() && t > 0.0, "{algo:?}: {t}");
        }
    }

    /// The two price lists check each other: what the communicator's ledger
    /// charges one real `synchronize` (`SyncStats::comm_seconds`, and the
    /// `wire_bits` it moved) is what the figures' closed form quotes (the
    /// registry's `wire_bits`), on every rank, for every encoding
    /// whose size is deterministic (Gaussian-K's count and QSGD's
    /// entropy-coded length are data dependent). Dense is checked against
    /// recursive doubling, what the runtime runs (bucketed ≡ single-shot
    /// needs it); `comm_seconds(Dense)` quoting the cheaper of ring and RD
    /// stays the figures' deliberate choice.
    #[test]
    fn runtime_ledger_matches_the_figures_price_list() {
        use cluster_comm::{run_cluster, CostModel, NetworkProfile};
        // Not a round size: k = 10.03 records, and neither n nor 2n bits
        // fill whole bytes — the frames that cross the wire are whole.
        let n = 1003;
        let algos = [
            AlgoKind::A2sgd,
            AlgoKind::A2sgdCarry,
            AlgoKind::TopK(0.01),
            AlgoKind::RandK(0.01),
            AlgoKind::TernGrad,
            AlgoKind::SignSgd,
            AlgoKind::Dense,
        ];
        for profile in [NetworkProfile::infiniband_100g(), NetworkProfile::ethernet_1g()] {
            let m = CostModel::new(profile);
            for algo in algos {
                let quoted = match algo {
                    AlgoKind::Dense => m.recursive_doubling_allreduce(4.0 * n as f64, 4),
                    _ => comm_seconds(algo, n, 4, &m),
                };
                let charged = run_cluster(4, profile, |h| {
                    let mut g = synthetic_gradient(n, 3 + h.rank() as u64);
                    let stats = algo.build(n, 11, h.rank()).synchronize(&mut g, h);
                    (stats.comm_seconds, stats.wire_bits)
                });
                for (rank, (got, bits)) in charged.into_iter().enumerate() {
                    assert_eq!(bits, algo.wire_bits(n), "{} rank {rank}", algo.name());
                    assert!(
                        (got - quoted).abs() <= 1e-12 * quoted,
                        "{} on {}, rank {rank}: ledger {got} vs price list {quoted}",
                        algo.name(),
                        profile.name
                    );
                }
            }
        }
    }
}
