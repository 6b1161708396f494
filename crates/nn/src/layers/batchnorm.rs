//! Batch normalisation over `[N, C, H, W]` activations.
//!
//! A training forward makes three sweeps over x: each `[H, W]` plane's Σx
//! and then Σ(x − µ)², each in 16 independent f64 chains combined in lane
//! order ([`lane_sums`]), then one pass that writes x̂ and y. Backward makes
//! two: Σdy and Σdy·x̂ in the same chains, then dx. Both directions are one
//! `#[inline(always)]` body ([`sweeps_body`]) compiled twice: as written,
//! and as an `avx2` copy ([`sweeps_avx2`]) that the GEMM's one CPUID probe
//! picks. Rust neither reassociates nor contracts floats, so both copies
//! give the same bits. Forward writes x̂ into last step's x̂ tensor when
//! the shape matches, so a step allocates only y.

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
}

/// Per-channel batch mean and (biased) variance in f64 of `x`, `[N, c,
/// plane]` with `count = N·plane` values a channel: every plane is reduced
/// by [`lane_sums`], and a channel's plane sums are added in image order.
#[inline(always)]
fn channel_stats(x: &[f32], c: usize, (count, plane): (usize, usize)) -> (Vec<f64>, Vec<f64>) {
    let count = count as f64;
    let planes = || x.chunks_exact(plane).enumerate().map(|(p, xp)| (p % c, xp));
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

/// Independent f64 accumulator chains per plane reduction (four AVX
/// vectors of f64).
const LANES: usize = 16;

/// `Σ term(a_j, b_j)` over one plane, f32 widened to f64, in [`LANES`]
/// independent chains combined in lane order: a fixed grouping, so the
/// sums are a pure function of the plane, and no addition waits on the one
/// before it as it does in a single chain.
#[inline(always)]
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

/// What one call of [`sweeps`] does, over `[N, C, plane]` activations.
enum Pass<'a> {
    /// Statistics (in training), then x̂ into `xhat` and y from `x`.
    Forward { x: &'a [f32], mode: Mode, xhat: &'a mut [f32] },
    /// dγ and dβ, then dx from `dout` and the cached x̂.
    Backward { dout: &'a [f32] },
}

/// Runs `pass` on [`sweeps_body`] compiled for avx2 and fma when the
/// GEMM's one CPUID probe finds them, else on it as written. `dims` is
/// `(N·plane, plane)`: the values of one channel, and of one plane.
fn sweeps(bn: &mut BatchNorm2d, dims: (usize, usize), pass: Pass) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if mini_tensor::gemm::avx2_fma_available() {
        // SAFETY: the CPU has avx2 and fma (checked above).
        return unsafe { sweeps_avx2(bn, dims, pass) };
    }
    sweeps_body(bn, dims, pass)
}

/// [`sweeps_body`] for 256-bit vectors; the CPU must have avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sweeps_avx2(bn: &mut BatchNorm2d, dims: (usize, usize), pass: Pass) -> Vec<f32> {
    sweeps_body(bn, dims, pass)
}

/// The one body: portable where called directly, AVX2 in [`sweeps_avx2`].
/// Returns y for a forward pass and dx for a backward one.
///
/// Forward: in training the batch statistics (which also move the running
/// ones), in evaluation the running statistics; then 1/σ per channel, and
/// x̂ = (x − µ)·(1/σ) and y = γ·x̂ + β in one pass over x. Backward: Σdy and
/// Σdy·x̂ per channel, added into dβ and dγ, then the input gradient on the
/// batch-statistics path, dx = γ·(1/σ)/m · (m·dy − Σdy − x̂·Σ(dy·x̂)).
#[inline(always)]
fn sweeps_body(bn: &mut BatchNorm2d, (m, plane): (usize, usize), pass: Pass) -> Vec<f32> {
    let c = bn.c;
    match pass {
        Pass::Forward { x, mode, xhat } => {
            let (mean, var): (Vec<f64>, Vec<f64>) = match mode {
                Mode::Train => {
                    let (mu, var) = channel_stats(x, c, (m, plane));
                    let mom = bn.momentum;
                    for cc in 0..c {
                        bn.running_mean[cc] =
                            (1.0 - mom) * bn.running_mean[cc] + mom * mu[cc] as f32;
                        bn.running_var[cc] =
                            (1.0 - mom) * bn.running_var[cc] + mom * var[cc] as f32;
                    }
                    (mu, var)
                }
                Mode::Eval => (
                    bn.running_mean.iter().map(|&v| v as f64).collect(),
                    bn.running_var.iter().map(|&v| v as f64).collect(),
                ),
            };
            for (istd, v) in bn.cached_invstd.iter_mut().zip(&var) {
                *istd = (1.0 / (v + bn.eps as f64).sqrt()) as f32;
            }
            let (gs, bs) = (bn.gamma.data.as_slice(), bn.beta.data.as_slice());
            let mut y = Vec::with_capacity(x.len());
            let planes = x.chunks_exact(plane).zip(xhat.chunks_exact_mut(plane));
            for (p, (xp, hp)) in planes.enumerate() {
                let cc = p % c;
                let (mu, istd, g, b) = (mean[cc] as f32, bn.cached_invstd[cc], gs[cc], bs[cc]);
                for (h, &v) in hp.iter_mut().zip(xp) {
                    *h = (v - mu) * istd;
                }
                y.extend(hp.iter().map(|&xn| g * xn + b));
            }
            y
        }
        Pass::Backward { dout } => {
            let xhat = bn.cached_xhat.as_ref().expect("backward before forward").as_slice();
            let planes = || dout.chunks_exact(plane).zip(xhat.chunks_exact(plane));
            let mut sum_dy = vec![0.0f64; c];
            let mut sum_dy_xhat = vec![0.0f64; c];
            for (p, (dp, xp)) in planes().enumerate() {
                let [s, sx] = lane_sums(dp, xp, |dy, xn| [dy, dy * xn]);
                sum_dy[p % c] += s;
                sum_dy_xhat[p % c] += sx;
            }
            let (gg, gb) = (bn.gamma.grad.as_mut_slice(), bn.beta.grad.as_mut_slice());
            for cc in 0..c {
                gg[cc] += sum_dy_xhat[cc] as f32;
                gb[cc] += sum_dy[cc] as f32;
            }
            let (gs, m) = (bn.gamma.data.as_slice(), m as f64);
            let mut dx = Vec::with_capacity(dout.len());
            for (p, (dp, xp)) in planes().enumerate() {
                let cc = p % c;
                let k = gs[cc] * bn.cached_invstd[cc] / m as f32;
                let (mf, sdy, sdx) = (m as f32, sum_dy[cc] as f32, sum_dy_xhat[cc] as f32);
                dx.extend(dp.iter().zip(xp).map(|(&dy, &xn)| k * (mf * dy - sdy - xn * sdx)));
            }
            dx
        }
    }
}

impl Module for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 4, "BatchNorm2d expects [N,C,H,W]");
        let (c, plane) = (d[1], d[2] * d[3]);
        assert_eq!(c, self.c);
        // Last step's x̂ is rewritten in place when the shape matches.
        let mut xhat = match self.cached_xhat.take() {
            Some(t) if t.shape() == x.shape() => t,
            _ => Tensor::zeros(x.shape().clone()),
        };
        let pass = Pass::Forward { x: x.as_slice(), mode, xhat: xhat.as_mut_slice() };
        let y = sweeps(self, (d[0] * plane, plane), pass);
        self.cached_xhat = Some(xhat);
        Tensor::from_vec(y, x.shape().clone())
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let xhat = self.cached_xhat.as_ref().expect("backward before forward");
        assert_eq!(
            dout.shape().dims(),
            xhat.shape().dims(),
            "batch-norm dout shape vs cached x̂ shape [N,C,H,W]"
        );
        let d = dout.shape().dims();
        let dims = (d[0] * d[2] * d[3], d[2] * d[3]);
        let dx = sweeps(self, dims, Pass::Backward { dout: dout.as_slice() });
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

        let (mean, var) = channel_stats(x.as_slice(), c, (n * hw, hw));
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

    /// The passes before they became one body compiled twice, kept as the
    /// oracle: statistics in two `lane_sums` sweeps, x̂ and y into fresh
    /// buffers, then backward's sums and dx.
    mod oracle {
        use super::super::{BatchNorm2d, LANES};
        use crate::module::Mode;
        use mini_tensor::Tensor;

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

        fn channel_stats(x: &Tensor, c: usize) -> (Vec<f64>, Vec<f64>) {
            let &[n, _, h, w] = x.shape().dims() else { unreachable!() };
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

        pub(super) fn forward(bn: &mut BatchNorm2d, x: &Tensor, mode: Mode) -> Tensor {
            let d = x.shape().dims();
            let (c, plane) = (d[1], d[2] * d[3]);
            let (mean, var): (Vec<f64>, Vec<f64>) = match mode {
                Mode::Train => {
                    let (m, v) = channel_stats(x, c);
                    for cc in 0..c {
                        bn.running_mean[cc] =
                            (1.0 - bn.momentum) * bn.running_mean[cc] + bn.momentum * m[cc] as f32;
                        bn.running_var[cc] =
                            (1.0 - bn.momentum) * bn.running_var[cc] + bn.momentum * v[cc] as f32;
                    }
                    (m, v)
                }
                Mode::Eval => (
                    bn.running_mean.iter().map(|&v| v as f64).collect(),
                    bn.running_var.iter().map(|&v| v as f64).collect(),
                ),
            };
            for (istd, v) in bn.cached_invstd.iter_mut().zip(&var) {
                *istd = (1.0 / (v + bn.eps as f64).sqrt()) as f32;
            }
            let (gs, bs) = (bn.gamma.data.as_slice(), bn.beta.data.as_slice());
            let mut xhat = Vec::with_capacity(x.numel());
            let mut out = Vec::with_capacity(x.numel());
            for (p, xp) in x.as_slice().chunks_exact(plane).enumerate() {
                let cc = p % c;
                let (mu, istd, g, b) = (mean[cc] as f32, bn.cached_invstd[cc], gs[cc], bs[cc]);
                let start = xhat.len();
                xhat.extend(xp.iter().map(|&v| (v - mu) * istd));
                out.extend(xhat[start..].iter().map(|&xn| g * xn + b));
            }
            bn.cached_xhat = Some(Tensor::from_vec(xhat, x.shape().clone()));
            Tensor::from_vec(out, x.shape().clone())
        }

        pub(super) fn backward(bn: &mut BatchNorm2d, dout: &Tensor) -> Tensor {
            let xhat = bn.cached_xhat.as_ref().expect("backward before forward");
            let d = xhat.shape().dims();
            let (c, plane) = (d[1], d[2] * d[3]);
            let m = (d[0] * plane) as f64;
            let planes =
                || dout.as_slice().chunks_exact(plane).zip(xhat.as_slice().chunks_exact(plane));
            let mut sum_dy = vec![0.0f64; c];
            let mut sum_dy_xhat = vec![0.0f64; c];
            for (p, (dp, xp)) in planes().enumerate() {
                let [s, sx] = lane_sums(dp, xp, |dy, xn| [dy, dy * xn]);
                sum_dy[p % c] += s;
                sum_dy_xhat[p % c] += sx;
            }
            let gg = bn.gamma.grad.as_mut_slice();
            let gb = bn.beta.grad.as_mut_slice();
            for cc in 0..c {
                gg[cc] += sum_dy_xhat[cc] as f32;
                gb[cc] += sum_dy[cc] as f32;
            }
            let gs = bn.gamma.data.as_slice();
            let mut dx = Vec::with_capacity(dout.numel());
            for (p, (dp, xp)) in planes().enumerate() {
                let cc = p % c;
                let k = gs[cc] * bn.cached_invstd[cc] / m as f32;
                let (mf, sdy, sdx) = (m as f32, sum_dy[cc] as f32, sum_dy_xhat[cc] as f32);
                dx.extend(dp.iter().zip(xp).map(|(&dy, &xn)| k * (mf * dy - sdy - xn * sdx)));
            }
            Tensor::from_vec(dx, dout.shape().clone())
        }
    }

    /// Normals scaled by `scale`, with every 7th value one of `mix`.
    fn values(len: usize, seed: u64, scale: f32, mix: &[f32]) -> Vec<f32> {
        let mut v = SeedRng::new(seed).randn_tensor(&[len], scale).into_vec();
        for (i, x) in v.iter_mut().enumerate().step_by(7) {
            *x = mix[i / 7 % mix.len()];
        }
        v
    }

    /// A layer with drawn γ, β, running statistics and gradients, so no
    /// term of the oracle's arithmetic is a no-op.
    fn drawn_layer(c: usize, seed: u64) -> BatchNorm2d {
        let mut bn = BatchNorm2d::new("bn", c);
        let draw = |s: u64, scale: f32, shift: f32| {
            let v = SeedRng::new(seed + s).randn_tensor(&[c], scale).into_vec();
            v.into_iter().map(|x| x + shift).collect::<Vec<f32>>()
        };
        bn.gamma.data = Tensor::from_vec(draw(1, 0.5, 1.0), [c]);
        bn.beta.data = Tensor::from_vec(draw(2, 0.5, 0.0), [c]);
        bn.gamma.grad = Tensor::from_vec(draw(3, 1.0, 0.0), [c]);
        bn.beta.grad = Tensor::from_vec(draw(4, 1.0, 0.0), [c]);
        bn.running_mean = draw(5, 1.0, 0.0);
        bn.running_var = draw(6, 0.1, 1.0);
        bn
    }

    /// Asserts `got` holds `want`'s bit patterns, a NaN as one pattern:
    /// Rust leaves the payload and sign of a NaN an operation makes
    /// unspecified, and the vector and scalar copies do differ there.
    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        let bits = |v: f32| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() };
        if let Some(i) = (0..got.len()).find(|&i| bits(got[i]) != bits(want[i])) {
            let (g, w) = (got[i].to_bits(), want[i].to_bits());
            panic!("{what}: element {i} is {g:#010x}, want {w:#010x}");
        }
    }

    /// The forward (statistics, running statistics, 1/σ, x̂, y) and the
    /// backward (dγ, dβ, dx) are the oracle's, bit for bit, on the portable
    /// body and on the dispatched one: over plane sizes around the 16-lane
    /// rows, inputs holding ±0, subnormals, ±∞ and NaN, both modes, and
    /// steps that rewrite last step's x̂ in place or, after a shape change,
    /// allocate it. The f64 sums reach the outputs only rounded to f32, so
    /// one mix is built for the lane order to show through that rounding.
    #[test]
    fn both_bodies_are_the_oracle_bit_for_bit() {
        let tiny = f32::MIN_POSITIVE;
        // The last mix cancels ±1e20 across chains: a sum that absorbs
        // the normals beside them unless it adds in the same order, so a
        // change of lane order shows in f32 outputs.
        let mixes: [&[f32]; 5] = [
            &[0.75],
            &[0.0, -0.0, f32::from_bits(1), -tiny / 3.0, tiny * 0.75],
            &[f32::INFINITY, -0.0, 2.5, f32::NEG_INFINITY],
            &[f32::NAN, 0.0, -f32::from_bits(0x7fc0_1234), 1.0],
            &[1e20, 0.5, -1e20],
        ];
        type Body = fn(&mut BatchNorm2d, (usize, usize), Pass) -> Vec<f32>;
        let bodies: [(&str, Body); 2] = [("portable", sweeps_body), ("dispatched", sweeps)];
        let c = 3;
        for (name, body) in bodies {
            for (mi, mix) in mixes.iter().enumerate() {
                let seed = 100 * mi as u64;
                let (mut got, mut want) = (drawn_layer(c, seed), drawn_layer(c, seed));
                // Several steps at one shape, then a shape change; every
                // plane size in turn.
                let shapes = [(2, 1, 1), (2, 3, 5), (2, 4, 4), (3, 1, 17), (2, 7, 9), (2, 8, 8)];
                let shapes = shapes.into_iter().chain([(2, 8, 8), (1, 32, 32), (2, 32, 32)]);
                for (step, (n, h, w)) in shapes.enumerate() {
                    let what = format!("{name} body, mix {mi}, step {step} [{n}, {c}, {h}, {w}]");
                    let shape = [n, c, h, w];
                    let len = n * c * h * w;
                    let x = Tensor::from_vec(values(len, seed + step as u64, 2.0, mix), shape);
                    let dout = values(len, seed + 50 + step as u64, 1.0, mix);
                    let mode = if step % 4 == 3 { Mode::Eval } else { Mode::Train };
                    let y_want = oracle::forward(&mut want, &x, mode);
                    let mut xhat = match got.cached_xhat.take() {
                        Some(t) if t.shape() == x.shape() => t,
                        _ => Tensor::zeros(shape),
                    };
                    let dims = (n * h * w, h * w);
                    let pass = Pass::Forward { x: x.as_slice(), mode, xhat: xhat.as_mut_slice() };
                    let y = body(&mut got, dims, pass);
                    got.cached_xhat = Some(xhat);
                    assert_bits(&y, y_want.as_slice(), &format!("y, {what}"));
                    let cached = |bn: &BatchNorm2d| bn.cached_xhat.as_ref().unwrap().clone();
                    assert_bits(
                        cached(&got).as_slice(),
                        cached(&want).as_slice(),
                        &format!("x̂, {what}"),
                    );
                    assert_bits(&got.cached_invstd, &want.cached_invstd, &format!("1/σ, {what}"));
                    assert_bits(
                        &got.running_mean,
                        &want.running_mean,
                        &format!("running µ, {what}"),
                    );
                    assert_bits(
                        &got.running_var,
                        &want.running_var,
                        &format!("running σ², {what}"),
                    );
                    let dx_want =
                        oracle::backward(&mut want, &Tensor::from_vec(dout.clone(), shape));
                    let dx = body(&mut got, dims, Pass::Backward { dout: &dout });
                    assert_bits(&dx, dx_want.as_slice(), &format!("dx, {what}"));
                    let (g, w) = (&got.gamma.grad, &want.gamma.grad);
                    assert_bits(g.as_slice(), w.as_slice(), &format!("dγ, {what}"));
                    let (g, w) = (&got.beta.grad, &want.beta.grad);
                    assert_bits(g.as_slice(), w.as_slice(), &format!("dβ, {what}"));
                }
            }
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
