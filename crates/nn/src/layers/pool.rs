//! Pooling layers.

use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::Tensor;

/// Max pooling with square window `k` and stride `k` (non-overlapping),
/// the configuration VGG uses.
pub struct MaxPool2d {
    k: usize,
    argmax: Vec<usize>,
    in_dims: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a `k×k` max-pool with stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1);
        MaxPool2d { k, argmax: Vec::new(), in_dims: Vec::new() }
    }
}

impl Module for MaxPool2d {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 4, "MaxPool2d expects [N,C,H,W]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let k = self.k;
        assert!(h % k == 0 && w % k == 0, "pool window must divide spatial dims");
        let (oh, ow) = (h / k, w / k);
        self.in_dims = d.to_vec();
        self.argmax.clear();
        self.argmax.reserve(n * c * oh * ow);
        let xs = x.as_slice();
        let mut out = Tensor::zeros([n, c, oh, ow]);
        let os = out.as_mut_slice();
        let mut oi = 0usize;
        for i in 0..n {
            for cc in 0..c {
                let base = (i * c + cc) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        // The window's first element is the start, and a
                        // NaN wins and stays: a poisoned activation reaches
                        // the loss, and every gradient stays in its window.
                        let mut besti = base + oy * k * w + ox * k;
                        let mut best = xs[besti];
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = base + (oy * k + ky) * w + ox * k + kx;
                                if !best.is_nan() && (xs[idx] > best || xs[idx].is_nan()) {
                                    best = xs[idx];
                                    besti = idx;
                                }
                            }
                        }
                        os[oi] = best;
                        self.argmax.push(besti);
                        oi += 1;
                    }
                }
            }
        }
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        assert_eq!(dout.numel(), self.argmax.len(), "backward before forward");
        let mut dx = Tensor::zeros(&self.in_dims[..]);
        let dxs = dx.as_mut_slice();
        for (g, &idx) in dout.as_slice().iter().zip(&self.argmax) {
            dxs[idx] += *g;
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "maxpool2d"
    }
}

/// Global average pooling: `[N, C, H, W] → [N, C]` (ResNet head).
pub struct GlobalAvgPool {
    in_dims: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates the layer.
    pub fn new() -> Self {
        GlobalAvgPool { in_dims: Vec::new() }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Module for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 4, "GlobalAvgPool expects [N,C,H,W]");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        self.in_dims = d.to_vec();
        let plane = h * w;
        let xs = x.as_slice();
        let mut out = Tensor::zeros([n, c]);
        let os = out.as_mut_slice();
        for i in 0..n {
            for cc in 0..c {
                let base = (i * c + cc) * plane;
                let s: f32 = xs[base..base + plane].iter().sum();
                os[i * c + cc] = s / plane as f32;
            }
        }
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let d = &self.in_dims;
        assert!(!d.is_empty(), "backward before forward");
        let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
        let plane = h * w;
        let inv = 1.0 / plane as f32;
        let mut dx = Tensor::zeros(&d[..]);
        let dxs = dx.as_mut_slice();
        for i in 0..n {
            for cc in 0..c {
                let g = dout.as_slice()[i * c + cc] * inv;
                let base = (i * c + cc) * plane;
                for v in &mut dxs[base..base + plane] {
                    *v = g;
                }
            }
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "global_avg_pool"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    #[test]
    fn maxpool_forward_values() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0,
                16.0,
            ],
            [1, 1, 4, 4],
        );
        let y = mp.forward(&x, Mode::Train);
        assert_eq!(y.shape().dims(), &[1, 1, 2, 2]);
        assert_eq!(y.as_slice(), &[6.0, 8.0, 14.0, 16.0]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut mp = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let _ = mp.forward(&x, Mode::Train);
        let dx = mp.backward(&Tensor::from_vec(vec![5.0], [1, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 0.0, 5.0]);
    }

    /// A window of −∞ routes its gradient inside itself, not to element 0
    /// of the tensor; a NaN is the window's max, not skipped.
    #[test]
    fn maxpool_keeps_non_finite_windows_in_place() {
        let mut mp = MaxPool2d::new(2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(vec![1.0, 2.0, ninf, ninf, 3.0, 4.0, ninf, ninf], [1, 1, 2, 4]);
        assert_eq!(mp.forward(&x, Mode::Train).as_slice(), &[4.0, ninf]);
        let dx = mp.backward(&Tensor::from_vec(vec![10.0, 20.0], [1, 1, 1, 2]));
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 20.0, 0.0, 0.0, 10.0, 0.0, 0.0]);

        let nan = f32::NAN;
        let x = Tensor::from_vec(vec![1.0, nan, 0.5, 0.0, nan, nan, nan, nan], [2, 1, 2, 2]);
        let y = mp.forward(&x, Mode::Train);
        assert!(y.as_slice().iter().all(|v| v.is_nan()), "{:?}", y.as_slice());
        let dx = mp.backward(&Tensor::from_vec(vec![10.0, 20.0], [2, 1, 1, 1]));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn gradcheck_gap() {
        gradcheck::check_module(Box::new(GlobalAvgPool::new()), &[2, 3, 4, 4], 51, 1e-2);
    }

    #[test]
    fn gap_forward_is_mean() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], [1, 1, 2, 2]);
        let y = gap.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[4.0]);
    }
}
