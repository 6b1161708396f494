//! Batch normalisation over `[N, C, H, W]` activations.

use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::Tensor;

/// Per-channel batch normalisation with affine parameters and running
/// statistics (exponential moving average, momentum 0.1).
pub struct BatchNorm2d {
    name: String,
    c: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // caches for backward
    cached_xhat: Option<Tensor>,
    cached_invstd: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `c` channels.
    pub fn new(name: &str, c: usize) -> Self {
        BatchNorm2d {
            name: name.to_string(),
            c,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(format!("{name}.gamma"), Tensor::ones([c])),
            beta: Param::new(format!("{name}.beta"), Tensor::zeros([c])),
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            cached_xhat: None,
            cached_invstd: vec![0.0; c],
        }
    }

    /// Per-channel batch mean and (biased) variance in f64: every `[H, W]`
    /// plane is reduced by [`lane_sums`], and a channel's plane sums are
    /// added in image order.
    fn channel_stats(x: &Tensor, c: usize) -> (Vec<f64>, Vec<f64>) {
        let &[n, ch, h, w] = x.shape().dims() else {
            panic!("BatchNorm2d expects [N,C,H,W], got {}", x.shape());
        };
        assert_eq!(ch, c);
        let count = (n * h * w) as f64;
        let planes = || x.as_slice().chunks_exact(h * w).enumerate().map(|(p, xp)| (p % c, xp));
        let mut mean = vec![0.0f64; c];
        for (cc, xp) in planes() {
            mean[cc] += lane_sums(xp, xp, |v, _| [v])[0];
        }
        for m in &mut mean {
            *m /= count;
        }
        let mut var = vec![0.0f64; c];
        for (cc, xp) in planes() {
            let mu = mean[cc];
            var[cc] += lane_sums(xp, xp, |v, _| [(v - mu) * (v - mu)])[0];
        }
        for v in &mut var {
            *v /= count;
        }
        (mean, var)
    }
}

/// Independent f64 accumulator chains per plane reduction (four AVX
/// vectors of f64).
const LANES: usize = 16;

/// `Σ term(a_j, b_j)` over one plane, f32 widened to f64, in [`LANES`]
/// independent chains combined in lane order: a fixed grouping, so the
/// sums are a pure function of the plane, and no addition waits on the one
/// before it as it does in a single chain.
fn lane_sums<const K: usize>(
    a: &[f32],
    b: &[f32],
    term: impl Fn(f64, f64) -> [f64; K],
) -> [f64; K] {
    let mut acc = [[0.0f64; LANES]; K];
    let mut add = |l: usize, x: f32, y: f32| {
        for (sum, t) in acc.iter_mut().zip(term(x as f64, y as f64)) {
            sum[l] += t;
        }
    };
    let (rows_a, rows_b) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (rest_a, rest_b) = (rows_a.remainder(), rows_b.remainder());
    for (ra, rb) in rows_a.zip(rows_b) {
        for l in 0..LANES {
            add(l, ra[l], rb[l]);
        }
    }
    for (l, (x, y)) in rest_a.iter().zip(rest_b).enumerate() {
        add(l, *x, *y);
    }
    acc.map(|lanes| lanes.iter().sum())
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 4, "BatchNorm2d expects [N,C,H,W]");
        let (c, plane) = (d[1], d[2] * d[3]);
        assert_eq!(c, self.c);

        let (mean, var): (Vec<f64>, Vec<f64>) = match mode {
            Mode::Train => {
                let (m, v) = Self::channel_stats(x, c);
                for cc in 0..c {
                    self.running_mean[cc] = (1.0 - self.momentum) * self.running_mean[cc]
                        + self.momentum * m[cc] as f32;
                    self.running_var[cc] =
                        (1.0 - self.momentum) * self.running_var[cc] + self.momentum * v[cc] as f32;
                }
                (m, v)
            }
            Mode::Eval => (
                self.running_mean.iter().map(|&v| v as f64).collect(),
                self.running_var.iter().map(|&v| v as f64).collect(),
            ),
        };

        for (istd, v) in self.cached_invstd.iter_mut().zip(&var) {
            *istd = (1.0 / (v + self.eps as f64).sqrt()) as f32;
        }
        // x̂ and y in one pass over x, each written once.
        let (gs, bs) = (self.gamma.data.as_slice(), self.beta.data.as_slice());
        let mut xhat = Vec::with_capacity(x.numel());
        let mut out = Vec::with_capacity(x.numel());
        for (p, xp) in x.as_slice().chunks_exact(plane).enumerate() {
            let cc = p % c;
            let (mu, istd, g, b) = (mean[cc] as f32, self.cached_invstd[cc], gs[cc], bs[cc]);
            let start = xhat.len();
            xhat.extend(xp.iter().map(|&v| (v - mu) * istd));
            out.extend(xhat[start..].iter().map(|&xn| g * xn + b));
        }
        self.cached_xhat = Some(Tensor::from_vec(xhat, x.shape().clone()));
        Tensor::from_vec(out, x.shape().clone())
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let xhat = self.cached_xhat.as_ref().expect("backward before forward");
        assert_eq!(
            dout.shape().dims(),
            xhat.shape().dims(),
            "batch-norm dout shape vs cached x̂ shape [N,C,H,W]"
        );
        let d = xhat.shape().dims();
        let (c, plane) = (d[1], d[2] * d[3]);
        let m = (d[0] * plane) as f64;
        let planes =
            || dout.as_slice().chunks_exact(plane).zip(xhat.as_slice().chunks_exact(plane));

        // Per-channel reductions: Σdy and Σ dy·x̂.
        let mut sum_dy = vec![0.0f64; c];
        let mut sum_dy_xhat = vec![0.0f64; c];
        for (p, (dp, xp)) in planes().enumerate() {
            let [s, sx] = lane_sums(dp, xp, |dy, xn| [dy, dy * xn]);
            sum_dy[p % c] += s;
            sum_dy_xhat[p % c] += sx;
        }
        // Parameter grads.
        {
            let gg = self.gamma.grad.as_mut_slice();
            let gb = self.beta.grad.as_mut_slice();
            for cc in 0..c {
                gg[cc] += sum_dy_xhat[cc] as f32;
                gb[cc] += sum_dy[cc] as f32;
            }
        }
        // Input grad (batch statistics path):
        // dx = γ·istd/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
        let gs = self.gamma.data.as_slice();
        let mut dx = Vec::with_capacity(dout.numel());
        for (p, (dp, xp)) in planes().enumerate() {
            let cc = p % c;
            let k = gs[cc] * self.cached_invstd[cc] / m as f32;
            let (mf, sdy, sdx) = (m as f32, sum_dy[cc] as f32, sum_dy_xhat[cc] as f32);
            dx.extend(dp.iter().zip(xp).map(|(&dy, &xn)| k * (mf * dy - sdy - xn * sdx)));
        }
        Tensor::from_vec(dx, dout.shape().clone())
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn train_output_is_normalised() {
        let mut rng = SeedRng::new(41);
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = rng.randn_tensor(&[8, 3, 4, 4], 3.0);
        let y = bn.forward(&x, Mode::Train);
        // Per channel: mean ≈ 0, var ≈ 1 (γ=1, β=0 at init).
        for cc in 0..3 {
            let mut vals = Vec::new();
            for i in 0..8 {
                for j in 0..16 {
                    vals.push(y.as_slice()[(i * 3 + cc) * 16 + j]);
                }
            }
            let s = mini_tensor::stats::summary(&vals);
            assert!(s.mean.abs() < 1e-4, "mean {}", s.mean);
            assert!((s.var - 1.0).abs() < 1e-2, "var {}", s.var);
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = SeedRng::new(42);
        let mut bn = BatchNorm2d::new("bn", 2);
        // Several training batches to settle running stats.
        for _ in 0..50 {
            let x = rng.randn_tensor(&[16, 2, 2, 2], 2.0);
            let _ = bn.forward(&x, Mode::Train);
        }
        let x = rng.randn_tensor(&[16, 2, 2, 2], 2.0);
        let y = bn.forward(&x, Mode::Eval);
        let s = mini_tensor::stats::summary(y.as_slice());
        assert!(s.mean.abs() < 0.25, "mean {}", s.mean);
        assert!((s.var - 1.0).abs() < 0.5, "var {}", s.var);
    }

    #[test]
    fn gradcheck_batchnorm() {
        let bn = BatchNorm2d::new("bn", 2);
        gradcheck::check_module(Box::new(bn), &[4, 2, 3, 3], 43, 3e-2);
    }

    /// Named bit change: the lane-blocked reductions group the same f64
    /// terms differently from one serial chain per channel, which they
    /// replace — bounded here at 1e-12 of the terms' magnitude.
    #[test]
    fn lane_blocked_sums_match_a_serial_f64_chain() {
        let mut rng = SeedRng::new(44);
        // 7×9 planes: three full lane rows and a remainder; offset so the
        // sums are far from zero.
        let (n, c, hw) = (5, 3, 63);
        let shifted = |t: Tensor| t.as_slice().iter().map(|v| v + 1.5).collect::<Vec<f32>>();
        let x = Tensor::from_vec(shifted(rng.randn_tensor(&[n, c, 7, 9], 2.0)), [n, c, 7, 9]);
        let dy = shifted(rng.randn_tensor(&[n * c * hw], 1.0));
        let close = |got: f64, want: f64, scale: f64, what: &str| {
            assert!((got - want).abs() <= 1e-12 * scale, "{what}: {got} vs serial {want}");
        };

        let (mean, var) = BatchNorm2d::channel_stats(&x, c);
        let mut backward = [[0.0f64; 2]; 3];
        for (p, (xp, dp)) in x.as_slice().chunks(hw).zip(dy.chunks(hw)).enumerate() {
            let [s, sx] = lane_sums(dp, xp, |d, v| [d, d * v]);
            backward[p % c][0] += s;
            backward[p % c][1] += sx;
        }
        for cc in 0..c {
            let idx = || (0..n).flat_map(move |i| (i * c + cc) * hw..(i * c + cc + 1) * hw);
            let xs = || idx().map(|j| x.as_slice()[j] as f64);
            let count = (n * hw) as f64;
            let mu = xs().fold(0.0, |a, v| a + v) / count;
            close(mean[cc], mu, xs().map(f64::abs).sum::<f64>() / count, "mean");
            let sq = || xs().map(|v| (v - mu) * (v - mu));
            close(var[cc], sq().fold(0.0, |a, v| a + v) / count, sq().sum::<f64>() / count, "var");
            let dys = || idx().map(|j| dy[j] as f64);
            let terms = || dys().zip(xs()).map(|(d, v)| d * v);
            let abs_dy = dys().map(f64::abs).sum();
            close(backward[cc][0], dys().fold(0.0, |a, v| a + v), abs_dy, "Σdy");
            let abs_dyx = terms().map(f64::abs).sum();
            close(backward[cc][1], terms().fold(0.0, |a, v| a + v), abs_dyx, "Σdy·x");
        }
    }

    #[test]
    #[should_panic(expected = "batch-norm dout shape vs cached x̂ shape [N,C,H,W]")]
    fn mis_shaped_dout_is_rejected() {
        // One image short: used to be read as a prefix with the wrong count.
        let mut bn = BatchNorm2d::new("bn", 2);
        let _ = bn.forward(&Tensor::zeros([4, 2, 3, 3]), Mode::Train);
        bn.backward(&Tensor::zeros([3, 2, 3, 3]));
    }
}
