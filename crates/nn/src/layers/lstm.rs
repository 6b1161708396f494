//! LSTM layer with full backpropagation through time.
//!
//! Laid out the standard recurrent-network way (Appleyard et al., cuDNN
//! RNN, arXiv:1604.01946): only the recurrent products — `h_{t−1}·W_hhᵀ` in
//! forward, `da_t·W_hh` in backward — sit inside the timestep loop. The
//! input projection `x·W_ihᵀ`, the input gradient `das·W_ih` and both weight
//! gradients do not depend on the previous step, so each is one product over
//! all B·T rows. The gate nonlinearities are `mini_tensor::ops`' vectorised
//! slice kernels over each row's contiguous `[H]` gate slices (no libm call
//! per element), and `tanh(c_t)` is computed once in forward and kept for
//! backward.

use crate::init;
use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::gemm::{Gemm, PackedA, PackedB, NR, PAR_FLOPS};
use mini_tensor::ops;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Single-layer LSTM over `[B, T, E] → [B, T, H]`, zero initial state.
///
/// Parameter layout follows PyTorch: `w_ih [4H, E]`, `w_hh [4H, H]`,
/// `b_ih [4H]`, `b_hh [4H]` with gate order (input, forget, cell, output).
/// Two bias vectors are kept — redundant mathematically, but it makes the
/// LSTM-PTB parameter count match the paper's 66,034,000 exactly.
pub struct Lstm {
    name: String,
    in_dim: usize,
    hidden: usize,
    w_ih: Param,
    w_hh: Param,
    b_ih: Param,
    b_hh: Param,
    cache: Option<Cache>,
}

/// Every buffer is row-major over (b, t), as the input and output are; step
/// `t` of batch row `b` is row `b·T + t`.
struct Cache {
    /// Input `[B, T, E]`.
    x: Tensor,
    /// Gate activations `[B, T, 4H]`, post-nonlinearity, order (i, f, g, o).
    gates: Vec<f32>,
    /// Hidden states h_t `[B, T, H]` (the output); h_{−1} = 0.
    h: Vec<f32>,
    /// Cell states c_t `[B, T, H]`; c_{−1} = 0.
    c: Vec<f32>,
    /// tanh(c_t) `[B, T, H]`.
    tc: Vec<f32>,
    b: usize,
    t: usize,
}

impl Lstm {
    /// Creates an LSTM with U(−1/√H, 1/√H) init (PyTorch default).
    pub fn new(name: &str, in_dim: usize, hidden: usize, rng: &mut SeedRng) -> Self {
        let s = 1.0 / (hidden as f32).sqrt();
        Lstm {
            name: name.to_string(),
            in_dim,
            hidden,
            w_ih: Param::new(
                format!("{name}.w_ih"),
                init::small_uniform(rng, &[4 * hidden, in_dim], s),
            ),
            w_hh: Param::new(
                format!("{name}.w_hh"),
                init::small_uniform(rng, &[4 * hidden, hidden], s),
            ),
            b_ih: Param::new(format!("{name}.b_ih"), Tensor::zeros([4 * hidden])),
            b_hh: Param::new(format!("{name}.b_hh"), Tensor::zeros([4 * hidden])),
            cache: None,
        }
    }

    /// Hidden width H.
    pub fn hidden(&self) -> usize {
        self.hidden
    }
}

/// Packs step `s` of a `[B, T, width]` buffer — its B rows `(b·T + s)` — as
/// the `[B, width]` A operand of `g`, straight from the buffer.
fn pack_step(g: &Gemm, pa: &mut PackedA, buf: &[f32], t: usize, s: usize, width: usize) {
    g.pack_a_with(pa, |p0, i0, rows, mr, panel| {
        let kc = panel.len() / mr;
        for i in 0..rows {
            let row = &buf[((i0 + i) * t + s) * width + p0..][..kc];
            for (dst, &v) in panel.chunks_exact_mut(mr).zip(row) {
                dst[i] = v;
            }
        }
    });
}

/// Runs a product over all B·T rows, fanning out like [`Gemm::run`].
fn run_seq(g: &Gemm, pa: &PackedA, pb: &PackedB, c: &mut [f32]) {
    g.run_packed(pa, pb, c, g.m * g.k * g.n >= PAR_FLOPS);
}

impl Module for Lstm {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let d = x.shape().dims();
        assert_eq!(d.len(), 3, "Lstm expects [B, T, E]");
        let (b, t, e) = (d[0], d[1], d[2]);
        assert_eq!(e, self.in_dim);
        let (h, g4, bt) = (self.hidden, 4 * self.hidden, d[0] * d[1]);

        // gates = x·w_ihᵀ over the whole sequence: x is read as stored.
        let mut gates = vec![0.0f32; bt * g4];
        Gemm::nt(bt, e, g4).run(x.as_slice(), self.w_ih.data.as_slice(), &mut gates);
        let bias: Vec<f32> = self
            .b_ih
            .data
            .as_slice()
            .iter()
            .zip(self.b_hh.data.as_slice())
            .map(|(a, c)| a + c)
            .collect();

        let mut hs = vec![0.0f32; bt * h];
        let mut cs = vec![0.0f32; bt * h];
        let mut tcs = vec![0.0f32; bt * h];
        let zero = vec![0.0f32; h];
        // The recurrent product is weight-stationary: w_hh is packed once,
        // h_{t−1} per step straight from the rows of `hs`.
        let g_hh = Gemm::nt(b, h, g4);
        let p_whh = g_hh.pack_b(self.w_hh.data.as_slice());
        let mut ph = PackedA::default();
        // h_{−1} = 0, so at t = 0 the product is the zeros `ah` starts as.
        let mut ah = vec![0.0f32; b * g4];

        for s in 0..t {
            if s > 0 {
                pack_step(&g_hh, &mut ph, &hs, t, s - 1, h);
                g_hh.run_packed(&ph, &p_whh, &mut ah, false);
            }
            for (bi, ahr) in ah.chunks_exact(g4).enumerate() {
                let r = bi * t + s;
                // a = x_t·w_ihᵀ + (h_{t−1}·w_hhᵀ + b), then σ on i, f, o and
                // tanh on g, in place.
                let a = &mut gates[r * g4..(r + 1) * g4];
                for (av, (hv, bv)) in a.iter_mut().zip(ahr.iter().zip(&bias)) {
                    *av += hv + bv;
                }
                ops::sigmoid_in_place(&mut a[..2 * h]);
                ops::tanh_in_place(&mut a[2 * h..3 * h]);
                ops::sigmoid_in_place(&mut a[3 * h..]);
                let (i_g, rest) = a.split_at(h);
                let (f_g, rest) = rest.split_at(h);
                let (g_g, o_g) = rest.split_at(h);

                let (done, cur) = cs.split_at_mut(r * h);
                let c_prev = if s > 0 { &done[(r - 1) * h..] } else { &zero[..] };
                let c = &mut cur[..h];
                for ((((cv, &cp), &iv), &fv), &gv) in
                    c.iter_mut().zip(c_prev).zip(i_g).zip(f_g).zip(g_g)
                {
                    *cv = fv * cp + iv * gv;
                }
                let tc = &mut tcs[r * h..(r + 1) * h];
                tc.copy_from_slice(c);
                ops::tanh_in_place(tc);
                for ((hv, &ov), &tv) in hs[r * h..(r + 1) * h].iter_mut().zip(o_g).zip(&*tc) {
                    *hv = ov * tv;
                }
            }
        }

        let out = Tensor::from_vec(hs.clone(), [b, t, h]);
        self.cache = Some(Cache { x: x.clone(), gates, h: hs, c: cs, tc: tcs, b, t });
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let (b, t) = (cache.b, cache.t);
        let (e, h) = (self.in_dim, self.hidden);
        let (g4, bt) = (4 * h, b * t);
        assert_eq!(dout.shape().dims(), &[b, t, h]);
        let dout = dout.as_slice();

        // das [B, T, 4H]: the gradient at the gate pre-activations. Only
        // dh_{t−1} = da_t·w_hh is needed before the next (earlier) step.
        let mut das = vec![0.0f32; bt * g4];
        let mut dh_next = vec![0.0f32; b * h];
        let mut dc_next = vec![0.0f32; b * h];
        let g_dhp = Gemm::nn(b, g4, h);
        let p_whh = g_dhp.pack_b(self.w_hh.data.as_slice());
        let mut pa = PackedA::default();

        for s in (0..t).rev() {
            for bi in 0..b {
                let r = bi * t + s;
                let gate = &cache.gates[r * g4..(r + 1) * g4];
                let da = &mut das[r * g4..(r + 1) * g4];
                for j in 0..h {
                    let idx = bi * h + j;
                    let dh = dout[r * h + j] + dh_next[idx];
                    let i_g = gate[j];
                    let f_g = gate[h + j];
                    let g_g = gate[2 * h + j];
                    let o_g = gate[3 * h + j];
                    let tc = cache.tc[r * h + j];
                    let c_prev = if s > 0 { cache.c[(r - 1) * h + j] } else { 0.0 };
                    let dct = dh * o_g * (1.0 - tc * tc) + dc_next[idx];

                    let di = dct * g_g;
                    let df = dct * c_prev;
                    let dg = dct * i_g;
                    let do_ = dh * tc;
                    dc_next[idx] = dct * f_g;

                    da[j] = di * i_g * (1.0 - i_g);
                    da[h + j] = df * f_g * (1.0 - f_g);
                    da[2 * h + j] = dg * (1.0 - g_g * g_g);
                    da[3 * h + j] = do_ * o_g * (1.0 - o_g);
                }
            }
            if s > 0 {
                pack_step(&g_dhp, &mut pa, &das, t, s, g4);
                g_dhp.run_packed(&pa, &p_whh, &mut dh_next, false);
            }
        }

        // Everything else reads das whole. dx [B·T, E] = das · w_ih.
        let mut dx = vec![0.0f32; bt * e];
        Gemm::nn(bt, g4, e).run(&das, self.w_ih.data.as_slice(), &mut dx);

        // dW_ih [4H, E] = dasᵀ · x and dW_hh [4H, H] = dasᵀ · h_prev, one daᵀ
        // pack for both; h_prev is h shifted one step (h_{−1} = 0), packed
        // straight from the cached h.
        let g_dwi = Gemm::tn(g4, bt, e);
        let g_dwh = Gemm::tn(g4, bt, h);
        let p_das = g_dwi.pack_a(&das);
        let mut dw_ih = vec![0.0f32; g4 * e];
        run_seq(&g_dwi, &p_das, &g_dwi.pack_b(cache.x.as_slice()), &mut dw_ih);
        let mut p_hprev = PackedB::default();
        g_dwh.pack_b_with(&mut p_hprev, |p0, j0, cols, panel| {
            for (kk, dst) in panel.chunks_exact_mut(NR).enumerate() {
                let r = p0 + kk;
                if r % t > 0 {
                    dst[..cols].copy_from_slice(&cache.h[(r - 1) * h + j0..][..cols]);
                }
            }
        });
        let mut dw_hh = vec![0.0f32; g4 * h];
        run_seq(&g_dwh, &p_das, &p_hprev, &mut dw_hh);
        // db = Σ over (b, t) of das.
        let mut db = vec![0.0f32; g4];
        for row in das.chunks_exact(g4) {
            for (a, v) in db.iter_mut().zip(row) {
                *a += v;
            }
        }

        for (g, v) in self.w_ih.grad.as_mut_slice().iter_mut().zip(&dw_ih) {
            *g += v;
        }
        for (g, v) in self.w_hh.grad.as_mut_slice().iter_mut().zip(&dw_hh) {
            *g += v;
        }
        // The two bias vectors receive identical gradients.
        for (g, v) in self.b_ih.grad.as_mut_slice().iter_mut().zip(&db) {
            *g += v;
        }
        for (g, v) in self.b_hh.grad.as_mut_slice().iter_mut().zip(&db) {
            *g += v;
        }

        Tensor::from_vec(dx, [b, t, e])
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w_ih);
        f(&mut self.w_hh);
        f(&mut self.b_ih);
        f(&mut self.b_hh);
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;

    fn sigmoid(x: f32) -> f32 {
        let mut v = [x];
        ops::sigmoid_in_place(&mut v);
        v[0]
    }

    fn tanh(x: f32) -> f32 {
        let mut v = [x];
        ops::tanh_in_place(&mut v);
        v[0]
    }

    /// What the per-step layout computes: outputs, h_1..h_T and c_1..c_T
    /// (each `[B, H]` per step), dx and the three weight gradients.
    struct Oracle {
        out: Vec<f32>,
        hs: Vec<Vec<f32>>,
        cs: Vec<Vec<f32>>,
        dx: Vec<f32>,
        dw_ih: Vec<f32>,
        dw_hh: Vec<f32>,
        db: Vec<f32>,
    }

    /// The per-timestep layout the layer used to run — a gathered `x_t`,
    /// both gate products, every weight-gradient product and `dx_t` inside
    /// the step loop, `tanh(c)` recomputed in backward — with the gate
    /// nonlinearities through the same kernels.
    fn per_step_oracle(l: &Lstm, x: &Tensor, dout: &Tensor) -> Oracle {
        let (b, t, e) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
        let h = l.hidden;
        let mut hs = vec![vec![0.0f32; b * h]];
        let mut cs = vec![vec![0.0f32; b * h]];
        let mut gates: Vec<Vec<f32>> = Vec::new();
        let mut out = vec![0.0f32; b * t * h];
        let bias: Vec<f32> =
            l.b_ih.data.as_slice().iter().zip(l.b_hh.data.as_slice()).map(|(a, c)| a + c).collect();
        let g_ih = Gemm::nt(b, e, 4 * h);
        let g_hh = Gemm::nt(b, h, 4 * h);
        let xt_of = |src: &[f32], step: usize| -> Vec<f32> {
            let mut xt = vec![0.0f32; b * e];
            for bi in 0..b {
                xt[bi * e..(bi + 1) * e].copy_from_slice(&src[(bi * t + step) * e..][..e]);
            }
            xt
        };
        for step in 0..t {
            let mut a = vec![0.0f32; b * 4 * h];
            g_ih.run(&xt_of(x.as_slice(), step), l.w_ih.data.as_slice(), &mut a);
            let mut ah = vec![0.0f32; b * 4 * h];
            g_hh.run(&hs[step], l.w_hh.data.as_slice(), &mut ah);
            for (av, (hv, bv)) in a.iter_mut().zip(ah.iter().zip(bias.iter().cycle())) {
                *av += hv + bv;
            }
            let mut ct = vec![0.0f32; b * h];
            let mut ht = vec![0.0f32; b * h];
            for bi in 0..b {
                let ga = &mut a[bi * 4 * h..(bi + 1) * 4 * h];
                for j in 0..h {
                    let (i_g, f_g) = (sigmoid(ga[j]), sigmoid(ga[h + j]));
                    let (g_g, o_g) = (tanh(ga[2 * h + j]), sigmoid(ga[3 * h + j]));
                    (ga[j], ga[h + j], ga[2 * h + j], ga[3 * h + j]) = (i_g, f_g, g_g, o_g);
                    let c = f_g * cs[step][bi * h + j] + i_g * g_g;
                    ct[bi * h + j] = c;
                    ht[bi * h + j] = o_g * tanh(c);
                }
                out[(bi * t + step) * h..][..h].copy_from_slice(&ht[bi * h..(bi + 1) * h]);
            }
            gates.push(a);
            hs.push(ht);
            cs.push(ct);
        }

        let mut dx = vec![0.0f32; b * t * e];
        let mut dh_next = vec![0.0f32; b * h];
        let mut dc_next = vec![0.0f32; b * h];
        let mut dw_ih = vec![0.0f32; 4 * h * e];
        let mut dw_hh = vec![0.0f32; 4 * h * h];
        let mut db = vec![0.0f32; 4 * h];
        for step in (0..t).rev() {
            let gate = &gates[step];
            let mut da = vec![0.0f32; b * 4 * h];
            for bi in 0..b {
                for j in 0..h {
                    let idx = bi * h + j;
                    let dh = dout.as_slice()[(bi * t + step) * h + j] + dh_next[idx];
                    let g = |k: usize| gate[bi * 4 * h + k * h + j];
                    let (i_g, f_g, g_g, o_g) = (g(0), g(1), g(2), g(3));
                    let tc = tanh(cs[step + 1][idx]);
                    let dct = dh * o_g * (1.0 - tc * tc) + dc_next[idx];
                    dc_next[idx] = dct * f_g;
                    da[bi * 4 * h + j] = dct * g_g * i_g * (1.0 - i_g);
                    da[bi * 4 * h + h + j] = dct * cs[step][idx] * f_g * (1.0 - f_g);
                    da[bi * 4 * h + 2 * h + j] = dct * i_g * (1.0 - g_g * g_g);
                    da[bi * 4 * h + 3 * h + j] = dh * tc * o_g * (1.0 - o_g);
                }
            }
            let mut dwi = vec![0.0f32; 4 * h * e];
            Gemm::tn(4 * h, b, e).run(&da, &xt_of(x.as_slice(), step), &mut dwi);
            let mut dwh = vec![0.0f32; 4 * h * h];
            Gemm::tn(4 * h, b, h).run(&da, &hs[step], &mut dwh);
            for (acc, v) in dw_ih.iter_mut().zip(&dwi).chain(dw_hh.iter_mut().zip(&dwh)) {
                *acc += v;
            }
            for row in da.chunks_exact(4 * h) {
                for (acc, v) in db.iter_mut().zip(row) {
                    *acc += v;
                }
            }
            let mut dxt = vec![0.0f32; b * e];
            Gemm::nn(b, 4 * h, e).run(&da, l.w_ih.data.as_slice(), &mut dxt);
            for bi in 0..b {
                dx[(bi * t + step) * e..][..e].copy_from_slice(&dxt[bi * e..(bi + 1) * e]);
            }
            Gemm::nn(b, 4 * h, h).run(&da, l.w_hh.data.as_slice(), &mut dh_next);
        }
        hs.remove(0);
        cs.remove(0);
        Oracle { out, hs, cs, dx, dw_ih, dw_hh, db }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// |got − want| ≤ 1e-5 · max |want| element by element.
    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-5 * scale, "{what}[{i}]: {g} vs {w} (scale {scale})");
        }
    }

    #[test]
    fn sequence_layout_matches_the_per_step_oracle() {
        for (e, h) in [(32, 48), (7, 5)] {
            for b in [1, 3, 16] {
                for t in [1, 5, 16] {
                    let mut rng = SeedRng::new((100 * b + t + e) as u64);
                    let mut l = Lstm::new("lstm", e, h, &mut rng);
                    for p in [&mut l.b_ih, &mut l.b_hh] {
                        p.data = rng.randn_tensor(&[4 * h], 0.5);
                    }
                    let x = rng.randn_tensor(&[b, t, e], 1.0);
                    let dout = rng.randn_tensor(&[b, t, h], 1.0);
                    let want = per_step_oracle(&l, &x, &dout);
                    for width in [1, 2, 4, 8] {
                        let pool =
                            rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                        let at = format!("e {e} h {h} b {b} t {t} width {width}");
                        let (y, dx) = pool.install(|| {
                            l.visit_params(&mut |p| p.grad.as_mut_slice().fill(0.0));
                            let y = l.forward(&x, Mode::Train);
                            (y, l.backward(&dout))
                        });
                        assert_eq!(bits(y.as_slice()), bits(&want.out), "output, {at}");
                        let cache = l.cache.as_ref().unwrap();
                        for s in 0..t {
                            for bi in 0..b {
                                let r = (bi * t + s) * h;
                                let o = bi * h;
                                let (hr, cr) = (&cache.h[r..r + h], &cache.c[r..r + h]);
                                assert_eq!(bits(hr), bits(&want.hs[s][o..o + h]), "h, {at}");
                                assert_eq!(bits(cr), bits(&want.cs[s][o..o + h]), "c, {at}");
                            }
                        }
                        assert_eq!(bits(dx.as_slice()), bits(&want.dx), "dx, {at}");
                        assert_close(l.w_ih.grad.as_slice(), &want.dw_ih, &format!("dW_ih, {at}"));
                        assert_close(l.w_hh.grad.as_slice(), &want.dw_hh, &format!("dW_hh, {at}"));
                        assert_close(l.b_ih.grad.as_slice(), &want.db, &format!("db_ih, {at}"));
                        assert_close(l.b_hh.grad.as_slice(), &want.db, &format!("db_hh, {at}"));
                    }
                }
            }
        }
    }

    #[test]
    fn output_shape_and_param_count() {
        let mut rng = SeedRng::new(71);
        let mut l = Lstm::new("lstm", 6, 4, &mut rng);
        let y = l.forward(&rng.randn_tensor(&[2, 5, 6], 1.0), Mode::Train);
        assert_eq!(y.shape().dims(), &[2, 5, 4]);
        // 4H(E + H + 2) = 16·(6 + 4 + 2)
        assert_eq!(crate::flat::param_count(&mut l), 16 * 12);
    }

    #[test]
    fn gradcheck_lstm_bptt() {
        let mut rng = SeedRng::new(72);
        let l = Lstm::new("lstm", 3, 4, &mut rng);
        gradcheck::check_module(Box::new(l), &[2, 4, 3], 73, 3e-2);
    }

    #[test]
    fn forget_gate_carries_state() {
        // With weights forced so that f≈1, i≈0, the cell state persists and
        // the hidden output stays near tanh(c0)·o — here c0 = 0 so h stays 0.
        let mut rng = SeedRng::new(74);
        let mut l = Lstm::new("lstm", 2, 3, &mut rng);
        l.w_ih.data.as_mut_slice().fill(0.0);
        l.w_hh.data.as_mut_slice().fill(0.0);
        // bias: i very negative (σ→0), f very positive (σ→1), g 0, o positive.
        let h = 3;
        let bi = l.b_ih.data.as_mut_slice();
        for j in 0..h {
            bi[j] = -20.0;
            bi[h + j] = 20.0;
            bi[2 * h + j] = 0.0;
            bi[3 * h + j] = 20.0;
        }
        let y = l.forward(&Tensor::ones([1, 4, 2]), Mode::Train);
        assert!(y.as_slice().iter().all(|&v| v.abs() < 1e-4), "{:?}", y);
    }
}
