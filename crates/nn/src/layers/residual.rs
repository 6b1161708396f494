//! Basic residual block (ResNet-20 style).

use crate::hook::{GradHook, NullHook};
use crate::layers::{relu, BatchNorm2d, Conv2d, Relu};
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::conv::Conv2dSpec;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Shortcut flavour when a block changes shape (He et al. §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortcutKind {
    /// Option A: strided identity with zero-padded channels — parameter
    /// free. The paper's 269,722-parameter ResNet-20 uses this.
    IdentityPad,
    /// Option B: strided 1×1 convolution + batch norm.
    Projection,
}

enum Shortcut {
    /// Shapes match; plain identity.
    Same,
    /// Option A with cached input geometry `[N, C_in, H, W]`.
    Pad { stride: usize, out_c: usize, in_dims: Vec<usize> },
    /// Option B (boxed: the conv + bn pair dwarfs the other variants).
    Proj(Box<(Conv2d, BatchNorm2d)>),
}

/// `y = relu( bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x) )`
///
/// The shortcut is the identity when shape is preserved, and otherwise
/// either option A (zero-padded strided identity) or option B (1×1
/// convolution + batch norm) per [`ShortcutKind`].
pub struct ResidualBlock {
    name: String,
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Shortcut,
    out_mask: Vec<bool>,
}

impl ResidualBlock {
    /// Creates a basic block `in_c → out_c` with the given stride on the
    /// first convolution and option-B (projection) shortcuts.
    pub fn new(name: &str, in_c: usize, out_c: usize, stride: usize, rng: &mut SeedRng) -> Self {
        Self::with_shortcut(name, in_c, out_c, stride, ShortcutKind::Projection, rng)
    }

    /// Creates a basic block with an explicit shortcut flavour.
    pub fn with_shortcut(
        name: &str,
        in_c: usize,
        out_c: usize,
        stride: usize,
        kind: ShortcutKind,
        rng: &mut SeedRng,
    ) -> Self {
        let conv1 = Conv2d::new(
            &format!("{name}.conv1"),
            Conv2dSpec { in_c, out_c, k: 3, stride, pad: 1 },
            false,
            rng,
        );
        let bn1 = BatchNorm2d::new(&format!("{name}.bn1"), out_c);
        let conv2 = Conv2d::new(
            &format!("{name}.conv2"),
            Conv2dSpec { in_c: out_c, out_c, k: 3, stride: 1, pad: 1 },
            false,
            rng,
        );
        let bn2 = BatchNorm2d::new(&format!("{name}.bn2"), out_c);
        let shortcut = if stride == 1 && in_c == out_c {
            Shortcut::Same
        } else {
            match kind {
                ShortcutKind::IdentityPad => Shortcut::Pad { stride, out_c, in_dims: Vec::new() },
                ShortcutKind::Projection => Shortcut::Proj(Box::new((
                    Conv2d::new(
                        &format!("{name}.down"),
                        Conv2dSpec { in_c, out_c, k: 1, stride, pad: 0 },
                        false,
                        rng,
                    ),
                    BatchNorm2d::new(&format!("{name}.down_bn"), out_c),
                ))),
            }
        };
        ResidualBlock {
            name: name.to_string(),
            conv1,
            bn1,
            relu1: Relu::new(),
            conv2,
            bn2,
            shortcut,
            out_mask: Vec::new(),
        }
    }
}

/// Option-A forward: subsample spatially by `stride`, copy the first
/// `in_c` channels, zero-fill the rest.
fn pad_shortcut_forward(x: &Tensor, stride: usize, out_c: usize) -> Tensor {
    let d = x.shape().dims();
    let (n, in_c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
    let mut out = Tensor::zeros([n, out_c, oh, ow]);
    let xs = x.as_slice();
    let os = out.as_mut_slice();
    for i in 0..n {
        for c in 0..in_c.min(out_c) {
            for oy in 0..oh {
                for ox in 0..ow {
                    os[((i * out_c + c) * oh + oy) * ow + ox] =
                        xs[((i * in_c + c) * h + oy * stride) * w + ox * stride];
                }
            }
        }
    }
    out
}

/// Adjoint of [`pad_shortcut_forward`].
fn pad_shortcut_backward(dout: &Tensor, stride: usize, in_dims: &[usize]) -> Tensor {
    let (n, in_c, h, w) = (in_dims[0], in_dims[1], in_dims[2], in_dims[3]);
    let d = dout.shape().dims();
    let (out_c, oh, ow) = (d[1], d[2], d[3]);
    let mut dx = Tensor::zeros(in_dims);
    let ds = dout.as_slice();
    let dxs = dx.as_mut_slice();
    for i in 0..n {
        for c in 0..in_c.min(out_c) {
            for oy in 0..oh {
                for ox in 0..ow {
                    dxs[((i * in_c + c) * h + oy * stride) * w + ox * stride] +=
                        ds[((i * out_c + c) * oh + oy) * ow + ox];
                }
            }
        }
    }
    dx
}

impl Module for ResidualBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let main = self.conv1.forward(x, mode);
        let main = self.bn1.forward(&main, mode);
        let main = self.relu1.forward(&main, mode);
        let main = self.conv2.forward(&main, mode);
        let main = self.bn2.forward(&main, mode);

        let skip = match &mut self.shortcut {
            Shortcut::Same => x.clone(),
            Shortcut::Pad { stride, out_c, in_dims } => {
                *in_dims = x.shape().dims().to_vec();
                pad_shortcut_forward(x, *stride, *out_c)
            }
            Shortcut::Proj(p) => {
                let (c, bn) = p.as_mut();
                let s = c.forward(x, mode);
                bn.forward(&s, mode)
            }
        };

        let mut out = mini_tensor::ops::add(&main, &skip);
        relu::clamp(out.as_mut_slice(), &mut self.out_mask);
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        self.backward_hooked(dout, &mut NullHook)
    }

    fn backward_hooked(&mut self, dout: &Tensor, hook: &mut dyn GradHook) -> Tensor {
        // Through the output ReLU.
        let mut d = dout.clone();
        relu::gate(d.as_mut_slice(), &self.out_mask);
        // Main branch: gradients become final in backward-execution order
        // (bn2 first, conv1 last), each announced as it lands.
        let dm = self.bn2.backward_hooked(&d, hook);
        let dm = self.conv2.backward_hooked(&dm, hook);
        let dm = self.relu1.backward(&dm);
        let dm = self.bn1.backward_hooked(&dm, hook);
        let dx_main = self.conv1.backward_hooked(&dm, hook);
        // Skip branch runs after the main branch, so projection-shortcut
        // parameters are the block's last to report.
        let dx_skip = match &mut self.shortcut {
            Shortcut::Same => d,
            Shortcut::Pad { stride, in_dims, .. } => pad_shortcut_backward(&d, *stride, in_dims),
            Shortcut::Proj(p) => {
                let (c, bn) = p.as_mut();
                let ds = bn.backward_hooked(&d, hook);
                c.backward_hooked(&ds, hook)
            }
        };
        mini_tensor::ops::add(&dx_main, &dx_skip)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Shortcut::Proj(p) = &mut self.shortcut {
            let (c, bn) = p.as_mut();
            c.visit_params(f);
            bn.visit_params(f);
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
    fn identity_block_shape() {
        let mut rng = SeedRng::new(81);
        let mut blk = ResidualBlock::new("b", 4, 4, 1, &mut rng);
        let y = blk.forward(&rng.randn_tensor(&[2, 4, 8, 8], 1.0), Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 4, 8, 8]);
    }

    #[test]
    fn downsample_block_shape() {
        let mut rng = SeedRng::new(82);
        let mut blk = ResidualBlock::new("b", 4, 8, 2, &mut rng);
        let y = blk.forward(&rng.randn_tensor(&[2, 4, 8, 8], 1.0), Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn gradcheck_identity_block() {
        let mut rng = SeedRng::new(83);
        let blk = ResidualBlock::new("b", 2, 2, 1, &mut rng);
        gradcheck::check_module(Box::new(blk), &[2, 2, 4, 4], 84, 4e-2);
    }

    #[test]
    fn gradcheck_downsample_block() {
        let mut rng = SeedRng::new(85);
        let blk = ResidualBlock::new("b", 2, 4, 2, &mut rng);
        gradcheck::check_module(Box::new(blk), &[2, 2, 4, 4], 86, 4e-2);
    }

    #[test]
    fn gradcheck_identity_pad_block() {
        let mut rng = SeedRng::new(87);
        let blk = ResidualBlock::with_shortcut("b", 2, 4, 2, ShortcutKind::IdentityPad, &mut rng);
        gradcheck::check_module(Box::new(blk), &[2, 2, 4, 4], 88, 4e-2);
    }

    #[test]
    fn pad_shortcut_copies_and_zero_fills() {
        let x = Tensor::from_vec((0..16).map(|v| v as f32).collect(), [1, 1, 4, 4]);
        let y = pad_shortcut_forward(&x, 2, 3);
        assert_eq!(y.shape().dims(), &[1, 3, 2, 2]);
        // Channel 0: strided copy; channels 1–2: zeros.
        assert_eq!(&y.as_slice()[0..4], &[0.0, 2.0, 8.0, 10.0]);
        assert!(y.as_slice()[4..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pad_shortcut_adjoint_property() {
        let mut rng = SeedRng::new(89);
        let x = rng.randn_tensor(&[2, 3, 4, 4], 1.0);
        let y = rng.randn_tensor(&[2, 5, 2, 2], 1.0);
        let fx = pad_shortcut_forward(&x, 2, 5);
        let by = pad_shortcut_backward(&y, 2, &[2, 3, 4, 4]);
        let lhs: f64 = fx.as_slice().iter().zip(y.as_slice()).map(|(a, b)| (*a * *b) as f64).sum();
        let rhs: f64 = x.as_slice().iter().zip(by.as_slice()).map(|(a, b)| (*a * *b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }
}
