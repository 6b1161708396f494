//! Flatten/scatter between per-layer parameters and the single contiguous
//! vectors the gradient-synchronization algorithms operate on.
//!
//! The paper (and every baseline it compares against) treats the model as
//! one `n`-element gradient vector per iteration; these helpers are the
//! bridge. Ordering is the module's `visit_params` order, which is stable.

use crate::module::Module;

/// Total number of trainable scalars in `model`.
pub fn param_count(model: &mut dyn Module) -> usize {
    let mut n = 0;
    model.visit_params(&mut |p| n += p.numel());
    n
}

/// Per-parameter segment sizes in `visit_params` order — the layer layout
/// of the flat gradient. This is what `gradcomp::bucket_bounds` aligns
/// size-capped buckets to, so bucket boundaries never split a parameter tensor and are a pure
/// function of the architecture (identical on every rank and backend).
pub fn param_sizes(model: &mut dyn Module) -> Vec<usize> {
    let mut sizes = Vec::new();
    model.visit_params(&mut |p| sizes.push(p.numel()));
    sizes
}

/// Copies all gradients into one contiguous vector.
pub fn flatten_grads(model: &mut dyn Module, out: &mut Vec<f32>) {
    out.clear();
    model.visit_params(&mut |p| out.extend_from_slice(p.grad.as_slice()));
}

/// Copies `flat` back into per-parameter gradients. Panics when the length
/// does not match the model's parameter count.
pub fn scatter_grads(model: &mut dyn Module, flat: &[f32]) {
    let mut off = 0;
    model.visit_params(&mut |p| {
        let n = p.numel();
        p.grad.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    assert_eq!(off, flat.len(), "flat gradient length mismatch");
}

/// Copies all parameter *values* into one contiguous vector.
pub fn flatten_params(model: &mut dyn Module, out: &mut Vec<f32>) {
    out.clear();
    model.visit_params(&mut |p| out.extend_from_slice(p.data.as_slice()));
}

/// Loads parameter values from a contiguous vector (replica sync).
pub fn load_params(model: &mut dyn Module, flat: &[f32]) {
    let mut off = 0;
    model.visit_params(&mut |p| {
        let n = p.numel();
        p.data.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    });
    assert_eq!(off, flat.len(), "flat parameter length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu, Sequential};
    use mini_tensor::rng::SeedRng;

    fn mlp() -> Sequential {
        let mut rng = SeedRng::new(111);
        Sequential::new("mlp")
            .push(Box::new(Linear::new("fc1", 4, 3, &mut rng)))
            .push(Box::new(Relu::new()))
            .push(Box::new(Linear::new("fc2", 3, 2, &mut rng)))
    }

    #[test]
    fn count_matches_architecture() {
        let mut m = mlp();
        assert_eq!(param_count(&mut m), 4 * 3 + 3 + 3 * 2 + 2);
    }

    #[test]
    fn sizes_follow_visit_order_and_sum_to_count() {
        let mut m = mlp();
        let sizes = param_sizes(&mut m);
        assert_eq!(sizes, vec![4 * 3, 3, 3 * 2, 2]);
        assert_eq!(sizes.iter().sum::<usize>(), param_count(&mut m));
    }

    #[test]
    fn grad_roundtrip() {
        let mut m = mlp();
        let n = param_count(&mut m);
        let flat: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        scatter_grads(&mut m, &flat);
        let mut back = Vec::new();
        flatten_grads(&mut m, &mut back);
        assert_eq!(back, flat);
    }

    #[test]
    fn param_roundtrip_syncs_replicas() {
        let mut a = mlp();
        let mut b = mlp(); // same seed → same init, but perturb b
        b.visit_params(&mut |p| p.data.as_mut_slice().iter_mut().for_each(|v| *v += 1.0));
        let mut flat = Vec::new();
        flatten_params(&mut a, &mut flat);
        load_params(&mut b, &flat);
        let mut fa = Vec::new();
        let mut fb = Vec::new();
        flatten_params(&mut a, &mut fa);
        flatten_params(&mut b, &mut fb);
        assert_eq!(fa, fb);
    }

    #[test]
    #[should_panic]
    fn scatter_wrong_length_panics() {
        let mut m = mlp();
        scatter_grads(&mut m, &[0.0; 3]);
    }
}
