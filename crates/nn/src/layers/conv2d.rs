//! 2-D convolution layer: parameters and the cached input around
//! `mini_tensor::conv`'s implicit-GEMM forward and backward products.

use crate::hook::GradHook;
use crate::init;
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::conv::{conv2d_backward, conv2d_backward_weight, conv2d_forward, Conv2dSpec};
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Square-kernel 2-D convolution over `[N, C, H, W]` activations.
pub struct Conv2d {
    name: String,
    spec: Conv2dSpec,
    weight: Param,
    bias: Option<Param>,
    cached_x: Option<Tensor>,
}

impl Conv2d {
    /// Creates a Kaiming-initialised convolution with the given geometry.
    /// `bias=false` is the usual choice directly before batch norm.
    pub fn new(name: &str, spec: Conv2dSpec, bias: bool, rng: &mut SeedRng) -> Self {
        let Conv2dSpec { in_c, out_c, k, .. } = spec;
        let fan_in = in_c * k * k;
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_normal(rng, &[out_c, in_c, k, k], fan_in),
        );
        let bias = bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros([out_c])));
        Conv2d { name: name.to_string(), spec, weight, bias, cached_x: None }
    }

    /// Convolution geometry.
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    fn accumulate_grads(&mut self, dw: &Tensor, db: &Tensor) {
        for (g, d) in self.weight.grad.as_mut_slice().iter_mut().zip(dw.as_slice()) {
            *g += *d;
        }
        if let Some(b) = &mut self.bias {
            for (g, d) in b.grad.as_mut_slice().iter_mut().zip(db.as_slice()) {
                *g += *d;
            }
        }
    }
}

impl Module for Conv2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let y =
            conv2d_forward(x, &self.weight.data, self.bias.as_ref().map(|b| &b.data), &self.spec);
        self.cached_x = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let (dx, dw, db) = conv2d_backward(x, &self.weight.data, dout, &self.spec);
        self.accumulate_grads(&dw, &db);
        dx
    }

    fn backward_params(&mut self, dout: &Tensor, hook: &mut dyn GradHook) {
        let x = self.cached_x.as_ref().expect("backward before forward");
        let (dw, db) = conv2d_backward_weight(x, &self.weight.data, dout, &self.spec);
        self.accumulate_grads(&dw, &db);
        self.visit_params(&mut |p| hook.grad_ready(p));
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    #[test]
    fn gradcheck_conv_with_bias() {
        let mut rng = SeedRng::new(21);
        let conv = Conv2d::new(
            "c",
            Conv2dSpec { in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1 },
            true,
            &mut rng,
        );
        gradcheck::check_module(Box::new(conv), &[2, 2, 5, 5], 31, 3e-2);
    }

    #[test]
    fn gradcheck_strided_conv_no_bias() {
        let mut rng = SeedRng::new(22);
        let conv = Conv2d::new(
            "c",
            Conv2dSpec { in_c: 1, out_c: 2, k: 3, stride: 2, pad: 1 },
            false,
            &mut rng,
        );
        gradcheck::check_module(Box::new(conv), &[1, 1, 8, 8], 32, 3e-2);
    }

    #[test]
    fn output_shape() {
        let mut rng = SeedRng::new(23);
        let mut conv = Conv2d::new(
            "c",
            Conv2dSpec { in_c: 3, out_c: 16, k: 3, stride: 1, pad: 1 },
            false,
            &mut rng,
        );
        let y = conv.forward(&Tensor::zeros([4, 3, 32, 32]), Mode::Train);
        assert_eq!(y.shape().dims(), &[4, 16, 32, 32]);
    }
}
