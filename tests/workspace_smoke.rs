//! Workspace smoke test: the umbrella re-exports resolve and the core
//! A2SGD pipeline pieces compose — tensor construction, the two-level
//! means round-trip, and one allreduce on the simulated cluster.

use a2sgd_repro::a2sgd::{shift_by_sign, split_means};
use a2sgd_repro::cluster_comm::{run_cluster, NetworkProfile};
use a2sgd_repro::mini_tensor::Tensor;

#[test]
fn umbrella_reexports_resolve_and_compose() {
    // 1. Tensor construction through the umbrella path.
    let t = Tensor::from_vec(vec![1.0f32, -2.0, 3.0, -4.0], [2, 2]);
    assert_eq!(t.shape().numel(), 4);

    // 2. split_means + a shift to the local means round-trips a small
    //    gradient exactly (the shift is 0).
    let g = vec![0.5f32, -1.5, 2.0, -0.25, 0.0, 3.5];
    let means = split_means(&g);
    assert_eq!(means.n_pos + means.n_neg, g.len());
    let mut work = g.clone();
    let (d_pos, d_neg) = means.shift_to(means.mu_pos, means.mu_neg);
    shift_by_sign(&mut work, d_pos, d_neg);
    assert_eq!(work, g, "round-trip mismatch");

    // 3. One allreduce across a 4-rank simulated cluster.
    let sums = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
        let mut v = vec![(h.rank() + 1) as f32];
        h.allreduce_sum(&mut v);
        v[0]
    });
    assert_eq!(sums.len(), 4);
    for s in sums {
        assert!((s - 10.0).abs() < 1e-6, "allreduce sum {s} != 10");
    }
}

#[test]
fn two_means_travel_as_64_bits() {
    // The paper's headline claim in miniature: the exchanged state is two
    // f32 scalars regardless of gradient size.
    let g: Vec<f32> = (0..10_000).map(|i| ((i as f32) * 0.37).sin() * 0.01).collect();
    let m = split_means(&g);
    let wire = [m.mu_pos, m.mu_neg];
    assert_eq!(std::mem::size_of_val(&wire) * 8, 64);
}
