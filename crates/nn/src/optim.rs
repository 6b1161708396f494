//! The optimizer: momentum SGD with weight decay, optionally under LARS's
//! layer-wise trust ratio.
//!
//! The distributed trainer synchronizes *gradients* (possibly compressed)
//! as one flat vector and hands it straight to [`Sgd::step_flat`] — so the
//! optimizer state stays strictly worker-local, as in the paper's Horovod
//! setup.

use crate::flat::param_count;
use crate::module::Module;
use mini_tensor::ops;

/// Classic SGD: `v ← m·v + g + wd·w ; w ← w − lr·v`. Built with
/// [`Sgd::lars`] it is LARS (You et al., the paper's ref [11], used for the
/// VGG-16 large-batch configuration in Table 1): each parameter tensor's
/// `g + wd·w` is first scaled by its local rate `η‖w‖ / (‖g‖ + wd‖w‖)`.
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    /// LARS trust coefficient (η in the LARS paper, typically 1e-3);
    /// `None` for plain SGD, whose update then does no extra multiply.
    trust: Option<f32>,
    /// One value per trainable scalar, in `visit_params` order.
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer. `momentum = 0` disables the velocity buffer
    /// (pure SGD).
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd { momentum, weight_decay, trust: None, velocity: Vec::new() }
    }

    /// Creates a LARS optimizer with trust coefficient `trust`. Its update
    /// always runs through the velocity buffer, momentum or not.
    pub fn lars(momentum: f32, weight_decay: f32, trust: f32) -> Self {
        Sgd { trust: Some(trust), ..Sgd::new(momentum, weight_decay) }
    }

    /// The flat velocity in `visit_params` order — empty until the first
    /// step, and for momentum-free plain SGD. Checkpointing reads it so a
    /// resumed run replays the exact same momentum trajectory.
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Restores a velocity captured by [`Self::velocity`]. The next step
    /// that uses it asserts it still has one value per parameter.
    pub fn set_velocity(&mut self, velocity: Vec<f32>) {
        self.velocity = velocity;
    }

    /// Applies one update with learning rate `lr` using the gradients
    /// currently stored in `Param::grad`: collects them in `visit_params`
    /// order and runs [`Self::step_flat`].
    pub fn step(&mut self, model: &mut dyn Module, lr: f32) {
        let mut grad = Vec::new();
        model.visit_params(&mut |p| {
            assert_eq!(p.grad.numel(), p.numel(), "{}: gradient length vs parameter", p.name);
            grad.extend_from_slice(p.grad.as_slice());
        });
        self.step_flat(model, &grad, lr);
    }

    /// Applies one update with learning rate `lr` to every parameter of
    /// `model`, reading each parameter's gradient at its `visit_params`
    /// offset in the flat `grad`.
    pub fn step_flat(&mut self, model: &mut dyn Module, grad: &[f32], lr: f32) {
        let n = param_count(model);
        assert_eq!(grad.len(), n, "flat gradient of {} values for {n} parameters", grad.len());
        let (momentum, wd, trust) = (self.momentum, self.weight_decay, self.trust);
        let with_velocity = trust.is_some() || momentum != 0.0;
        if with_velocity && self.velocity.is_empty() {
            self.velocity = vec![0.0f32; n];
        }
        assert!(!with_velocity || self.velocity.len() == n, "parameter set changed between steps");
        let velocity = &mut self.velocity;
        let mut off = 0usize;
        model.visit_params(&mut |p| {
            let w = p.data.as_mut_slice();
            let len = w.len();
            let g = &grad[off..off + len];
            match trust {
                None if momentum == 0.0 => {
                    for (wi, &gi) in w.iter_mut().zip(g) {
                        let grad = gi + wd * *wi;
                        *wi -= lr * grad;
                    }
                }
                None => {
                    for ((wi, vi), &gi) in w.iter_mut().zip(&mut velocity[off..off + len]).zip(g) {
                        let grad = gi + wd * *wi;
                        *vi = momentum * *vi + grad;
                        *wi -= lr * *vi;
                    }
                }
                Some(trust) => {
                    let w_norm = ops::norm2(w) as f32;
                    let g_norm = ops::norm2(g) as f32;
                    // Local rate: η‖w‖ / (‖g‖ + wd‖w‖); falls back to 1 for
                    // fresh (zero-norm) parameters such as biases at init.
                    let local = if w_norm > 0.0 && g_norm > 0.0 {
                        trust * w_norm / (g_norm + wd * w_norm + 1e-12)
                    } else {
                        1.0
                    };
                    for ((wi, vi), &gi) in w.iter_mut().zip(&mut velocity[off..off + len]).zip(g) {
                        let grad = local * (gi + wd * *wi);
                        *vi = momentum * *vi + grad;
                        *wi -= lr * *vi;
                    }
                }
            }
            off += len;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::module::Mode;
    use mini_tensor::rng::SeedRng;
    use mini_tensor::Tensor;

    fn quadratic_grad(lin: &mut Linear) {
        // Loss = ½‖y‖² for input = ones → gradient via backward(y).
        let x = Tensor::ones([1, 2]);
        let y = lin.forward(&x, Mode::Train);
        let _ = lin.backward(&y);
    }

    #[test]
    fn sgd_reduces_quadratic_loss() {
        let mut rng = SeedRng::new(101);
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        let mut opt = Sgd::new(0.0, 0.0);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            use crate::module::ModuleExt;
            lin.zero_grad();
            quadratic_grad(&mut lin);
            let x = Tensor::ones([1, 2]);
            let loss = 0.5 * lin.forward(&x, Mode::Train).norm2().powi(2);
            assert!(loss <= last + 1e-5, "loss increased: {last} → {loss}");
            last = loss;
            opt.step(&mut lin, 0.1);
        }
        assert!(last < 1e-3, "did not converge: {last}");
    }

    #[test]
    fn sgd_momentum_math() {
        // Single scalar parameter w=1, fixed gradient 1, momentum 0.9,
        // lr 0.1: v1=1, w=0.9; v2=1.9, w=0.71.
        struct One(crate::param::Param);
        impl Module for One {
            fn forward(&mut self, x: &Tensor, _m: Mode) -> Tensor {
                x.clone()
            }
            fn backward(&mut self, d: &Tensor) -> Tensor {
                d.clone()
            }
            fn visit_params(&mut self, f: &mut dyn FnMut(&mut crate::param::Param)) {
                f(&mut self.0);
            }
        }
        let mut m = One(crate::param::Param::new("w", Tensor::scalar(1.0)));
        m.0.grad = Tensor::scalar(1.0);
        let mut opt = Sgd::new(0.9, 0.0);
        opt.step(&mut m, 0.1);
        assert!((m.0.data.item() - 0.9).abs() < 1e-6);
        m.0.grad = Tensor::scalar(1.0);
        opt.step(&mut m, 0.1);
        assert!((m.0.data.item() - 0.71).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradient() {
        let mut rng = SeedRng::new(102);
        let mut lin = Linear::new("fc", 3, 3, &mut rng);
        let before = ops::norm2({
            let mut v = Vec::new();
            lin.visit_params(&mut |p| v.extend_from_slice(p.data.as_slice()));
            &v.clone()
        });
        let mut opt = Sgd::new(0.0, 0.1);
        opt.step(&mut lin, 0.5); // grads are zero → pure decay
        let after = ops::norm2({
            let mut v = Vec::new();
            lin.visit_params(&mut |p| v.extend_from_slice(p.data.as_slice()));
            &v.clone()
        });
        assert!(after < before, "{after} !< {before}");
    }

    /// A `Linear` whose weight gradient is one element longer than the
    /// weight: the zipped update would stop short of it silently.
    fn linear_with_a_long_gradient() -> Linear {
        let mut m = Linear::new("fc", 2, 2, &mut SeedRng::new(104));
        m.visit_params(&mut |p| {
            if p.name == "fc.weight" {
                p.grad = Tensor::zeros([p.numel() + 1]);
            }
        });
        m
    }

    #[test]
    #[should_panic(expected = "fc.weight: gradient length vs parameter")]
    fn sgd_rejects_a_mis_sized_gradient() {
        Sgd::new(0.9, 0.0).step(&mut linear_with_a_long_gradient(), 0.1);
    }

    #[test]
    #[should_panic(expected = "fc.weight: gradient length vs parameter")]
    fn lars_rejects_a_mis_sized_gradient() {
        Sgd::lars(0.9, 0.0, 1e-2).step(&mut linear_with_a_long_gradient(), 0.1);
    }

    #[test]
    fn lars_converges_on_quadratic() {
        let mut rng = SeedRng::new(103);
        let mut lin = Linear::new("fc", 2, 2, &mut rng);
        let mut opt = Sgd::lars(0.9, 1e-4, 1e-2);
        for _ in 0..300 {
            use crate::module::ModuleExt;
            lin.zero_grad();
            quadratic_grad(&mut lin);
            opt.step(&mut lin, 1.0);
        }
        let x = Tensor::ones([1, 2]);
        let loss = 0.5 * lin.forward(&x, Mode::Train).norm2().powi(2);
        assert!(loss < 1e-2, "LARS did not converge: {loss}");
    }

    /// The update body as it was before the flat gradient: one velocity
    /// lane per parameter tensor, always allocated, each parameter's
    /// gradient read from `Param::grad` — the parity oracle for
    /// [`Sgd::step_flat`] on all three shapes (plain, momentum, LARS).
    fn oracle_step(
        velocity: &mut Vec<Vec<f32>>,
        (momentum, wd, trust): (f32, f32, Option<f32>),
        model: &mut dyn Module,
        lr: f32,
    ) {
        let mut idx = 0usize;
        model.visit_params(&mut |p| {
            if velocity.len() == idx {
                velocity.push(vec![0.0f32; p.numel()]);
            }
            let v = &mut velocity[idx];
            let w = p.data.as_mut_slice();
            let g = p.grad.as_slice();
            match trust {
                None if momentum == 0.0 => {
                    for (wi, &gi) in w.iter_mut().zip(g) {
                        let grad = gi + wd * *wi;
                        *wi -= lr * grad;
                    }
                }
                None => {
                    for ((wi, vi), &gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        let grad = gi + wd * *wi;
                        *vi = momentum * *vi + grad;
                        *wi -= lr * *vi;
                    }
                }
                Some(trust) => {
                    let w_norm = ops::norm2(w) as f32;
                    let g_norm = ops::norm2(g) as f32;
                    let local = if w_norm > 0.0 && g_norm > 0.0 {
                        trust * w_norm / (g_norm + wd * w_norm + 1e-12)
                    } else {
                        1.0
                    };
                    for ((wi, vi), &gi) in w.iter_mut().zip(v.iter_mut()).zip(g) {
                        let grad = local * (gi + wd * *wi);
                        *vi = momentum * *vi + grad;
                        *wi -= lr * *vi;
                    }
                }
            }
            idx += 1;
        });
    }

    /// Twenty steps of the oracle, of [`Sgd::step_flat`] on the flattened
    /// gradient and of the [`Sgd::step`] adapter, on three replicas of one
    /// `Linear`: weights and velocity must agree bit for bit after every
    /// step. The bias starts at zero norm, so LARS's step 1 takes the
    /// `local = 1` fallback on it.
    fn matches_the_per_lane_oracle(hyper: (f32, f32, Option<f32>)) {
        use crate::flat::flatten_grads;
        use crate::module::ModuleExt;
        let bits = |m: &mut Linear| {
            let mut v = Vec::new();
            m.visit_params(&mut |p| v.extend(p.data.as_slice().iter().map(|x| x.to_bits())));
            v
        };
        let to_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let make = || match hyper {
            (m, wd, None) => Sgd::new(m, wd),
            (m, wd, Some(trust)) => Sgd::lars(m, wd, trust),
        };
        let mut models: [Linear; 3] =
            std::array::from_fn(|_| Linear::new("fc", 3, 2, &mut SeedRng::new(105)));
        models[0].visit_params(&mut |p| {
            if p.name == "fc.bias" {
                assert!(p.data.as_slice().iter().all(|&x| x == 0.0));
            }
        });
        let mut oracle_lanes = Vec::new();
        let (mut flat_opt, mut adapter_opt) = (make(), make());
        let mut grad = Vec::new();
        for t in 0..20 {
            let x = Tensor::from_vec(
                (0..6).map(|i| ((i * 7 + t * 3) % 11) as f32 * 0.2 - 1.0).collect(),
                [2, 3],
            );
            for m in &mut models {
                m.zero_grad();
                let y = m.forward(&x, Mode::Train);
                let _ = m.backward(&y);
            }
            let [a, b, c] = &mut models;
            oracle_step(&mut oracle_lanes, hyper, a, 0.5);
            flatten_grads(b, &mut grad);
            flat_opt.step_flat(b, &grad, 0.5);
            adapter_opt.step(c, 0.5);
            let want = bits(a);
            assert_eq!(want, bits(b), "{hyper:?}: step_flat weights at step {t}");
            assert_eq!(want, bits(c), "{hyper:?}: step weights at step {t}");
            let lanes: Vec<f32> = oracle_lanes.iter().flatten().copied().collect();
            let want = if hyper.0 == 0.0 && hyper.2.is_none() { vec![] } else { to_bits(&lanes) };
            assert_eq!(want, to_bits(flat_opt.velocity()), "{hyper:?}: step_flat velocity at {t}");
            assert_eq!(want, to_bits(adapter_opt.velocity()), "{hyper:?}: step velocity at {t}");
        }
    }

    #[test]
    fn lars_is_bit_identical_to_the_separate_lars_type() {
        matches_the_per_lane_oracle((0.9, 5e-4, Some(1e-2)));
    }

    #[test]
    fn plain_and_momentum_sgd_are_bit_identical_to_the_per_lane_oracle() {
        matches_the_per_lane_oracle((0.0, 5e-4, None));
        matches_the_per_lane_oracle((0.9, 5e-4, None));
    }

    /// A flat gradient one value short or long is refused before any
    /// parameter moves, with both lengths in the message.
    #[test]
    fn step_flat_rejects_a_mis_sized_flat_gradient() {
        for len in [5, 7] {
            let mut m = Linear::new("fc", 2, 2, &mut SeedRng::new(106));
            let grad = vec![0.0f32; len];
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Sgd::new(0.9, 0.0).step_flat(&mut m, &grad, 0.1)
            }))
            .expect_err("a mis-sized flat gradient must panic");
            let msg = err.downcast_ref::<String>().expect("formatted panic message");
            assert!(
                msg.contains(&format!("flat gradient of {len} values for 6 parameters")),
                "{msg}"
            );
        }
    }
}
