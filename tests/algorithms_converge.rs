//! The paper's central convergence claim, as an integration test: on the
//! same workload, A2SGD's accuracy stays close to Dense's, and every
//! compression baseline still learns.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::train;
use mini_nn::models::ModelKind;

fn run(algo: AlgoKind, workers: usize) -> f64 {
    let mut cfg = scaled_convergence_config(ModelKind::Fnn3, algo, workers, 21);
    cfg.epochs = 3;
    cfg.train_size = 960;
    cfg.eval_size = 320;
    train(&cfg).final_metric
}

#[test]
fn a2sgd_matches_dense_within_tolerance() {
    let dense = run(AlgoKind::Dense, 4);
    let a2 = run(AlgoKind::A2sgd, 4);
    assert!(dense > 80.0, "dense baseline degenerate: {dense}");
    assert!(a2 >= dense - 10.0, "A2SGD ({a2}) fell more than 10 points below Dense ({dense})");
}

#[test]
fn all_paper_algorithms_beat_chance() {
    for algo in AlgoKind::paper_five() {
        let acc = run(algo, 4);
        assert!(acc > 30.0, "{} final accuracy {acc} ≤ chance+", algo.name());
    }
}

#[test]
fn extensions_also_learn() {
    for algo in [AlgoKind::A2sgdCarry, AlgoKind::SignSgd] {
        let acc = run(algo, 2);
        assert!(acc > 30.0, "{} final accuracy {acc}", algo.name());
    }
}
