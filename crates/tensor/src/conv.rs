//! Convolution as implicit GEMM over one zero-padded copy of the source.
//!
//! Layout conventions: activations are `[N, C, H, W]`, filters are
//! `[F, C, KH, KW]`, all row-major. A convolution is a matrix product
//! against the image's *patch matrix* — row `(c, ky, kx)`, column
//! `(oy, ox)`, entry `x[c, oy·stride + ky − pad, ox·stride + kx − pad]` or
//! zero outside the image — and that matrix is neither built nor packed.
//! Each image task writes its source once into a zero-padded buffer
//! ([`Planes`]); at stride `s` the buffer holds `min(s, k)²` polyphase
//! sub-planes per channel, plane `(c, ry, rx)` holding padded element
//! `(c, s·i + ry, s·j + rx)` at `(i, j)`. In that buffer every tap
//! `(c, ky, kx)` is a *contiguous* window starting at a fixed offset
//! `off[p]`, provided output positions are numbered on the padded-width
//! grid `q = oy·wp + ox`: the `wp − ow` lanes past each output row are
//! computed and discarded at the store. The product is
//! `C[F, q] = Σ_p W[F, p] · src[off[p] + q]` ([`Gemm::run_offsets`]): the
//! weights are packed once per batch and no patch panel is packed,
//! zero-filled or allocated.
//!
//! * **Forward** `y_i = W[F, C·K·K] · patches(x_i)` is that product over
//!   `x_i`'s planes.
//! * **dW** is dot products, not a GEMM: `dW[f, p] = Σ_i Σ_oy Σ_ox
//!   dout_i[f, oy, ox] · src_i[off[p] + oy·wp + ox]`, both operands
//!   contiguous along `ox`. A block of [`DW_F`] filters × [`DW_T`] taps
//!   keeps one 8-lane chain per element, reduces it over every image and
//!   row in order, reading kept positions `ox < ow` only, and sums its
//!   lanes once ([`Dots`]). db is per-image sums added in image order.
//! * **dx** as `s²` stride-1 *phases*: the `dx` positions
//!   `(ry + s·qy, rx + s·qx)` of one phase `(ry, rx)` are reached only by
//!   the taps `ky ≡ ry + pad`, `kx ≡ rx + pad (mod s)`, so phase `(ry, rx)`
//!   is a stride-1 correlation of `W'` — those taps with `F`/`C` swapped
//!   and flipped, packed once per batch — over `dout_i` itself, under its
//!   own (possibly negative) pad. One padded copy of `dout_i` serves every
//!   phase, and each phase stores straight into its interleaved positions
//!   of `dx`. Every `dx` element is one GEMM reduction over `(f, ky, kx)`.
//!
//! Every forward and dx element is reduced over the same taps, in the same
//! order (KC slabs included), against the same zeros as a product over the
//! patch matrix packed into micro-panels, so results are bit-identical to
//! it (the unit tests keep a gather-based packing as their oracle). Each
//! output element is reduced by one task (an image, or a dW block), so
//! results are bit-identical across pool widths.

use crate::gemm::{Gemm, Grid, PackedA, NR};
use crate::par;
use crate::tensor::Tensor;
use rayon::prelude::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::__m256;

/// Static parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels (filters).
    pub out_c: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride (same both axes).
    pub stride: usize,
    /// Zero padding (same both axes).
    pub pad: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an `h×w` input. Panics on a zero stride and
    /// on a kernel that does not fit the padded input.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let (k, p) = (self.k, self.pad);
        assert!(self.stride >= 1, "conv stride must be at least 1");
        assert!(
            k >= 1 && k <= h + 2 * p && k <= w + 2 * p,
            "conv kernel size {k} must be at least 1 and fit the padded input {}x{}",
            h + 2 * p,
            w + 2 * p
        );
        ((h + 2 * p - k) / self.stride + 1, (w + 2 * p - k) / self.stride + 1)
    }

    /// Number of weight parameters (excluding bias).
    pub fn weight_len(&self) -> usize {
        self.out_c * self.in_c * self.k * self.k
    }

    /// Checks one call's operands against the spec — the first line of
    /// every entry point — and returns `(n, h, w, oh, ow)`. Panics with the
    /// offending operand named.
    fn checked_dims(
        &self,
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        dout: Option<&Tensor>,
    ) -> (usize, usize, usize, usize, usize) {
        let &[n, c, h, w] = x.shape().dims() else {
            panic!("conv input must be [N,C,H,W], got {}", x.shape());
        };
        assert_eq!(c, self.in_c, "conv input channels vs spec.in_c");
        let (oh, ow) = self.out_hw(h, w);
        assert_eq!(
            weight.shape().dims(),
            [self.out_c, self.in_c, self.k, self.k],
            "conv weight shape vs spec [F,C,K,K]"
        );
        if let Some(b) = bias {
            assert_eq!(b.shape().dims(), [self.out_c], "conv bias shape vs [F]");
        }
        if let Some(d) = dout {
            assert_eq!(d.shape().dims(), [n, self.out_c, oh, ow], "conv dout shape vs [N,F,OH,OW]");
        }
        (n, h, w, oh, ow)
    }
}

/// One source `[C, H, W]` as the products read it (module docs): zero-
/// padded by `top` rows and `left` columns and split into `ph × ph`
/// polyphase planes of `hp × wp` per channel, plane `(c, ry, rx)` holding
/// padded element `(c, s·i + ry, s·j + rx)` at `(i, j)`. What no plane
/// position reaches is not copied; one row and one panel of zeros past the
/// last plane leave room for the lanes a product reads past its last row.
struct Planes {
    c: usize,
    h: usize,
    w: usize,
    s: usize,
    ph: usize,
    top: usize,
    left: usize,
    hp: usize,
    wp: usize,
}

impl Planes {
    /// `x` as the forward and `dW` products read it: tap `(c, ky, kx)`
    /// starts at plane `(c, ky mod s, kx mod s)`, row `ky / s`, column
    /// `kx / s`, and output `(oy, ox)` is `oy·wp + ox` past that.
    fn of_input(spec: &Conv2dSpec, (h, w): (usize, usize), (oh, ow): (usize, usize)) -> Self {
        let (s, k, pad) = (spec.stride, spec.k, spec.pad);
        let reach = (k - 1) / s;
        let (hp, wp) = (oh + reach, ow + reach);
        Planes { c: spec.in_c, h, w, s, ph: s.min(k), top: pad, left: pad, hp, wp }
    }

    fn len(&self) -> usize {
        self.c * self.ph * self.ph * self.hp * self.wp + self.wp + NR
    }

    /// Where plane `(c, ry, rx)` starts.
    fn plane(&self, c: usize, ry: usize, rx: usize) -> usize {
        ((c * self.ph + ry) * self.ph + rx) * self.hp * self.wp
    }

    /// Every tap `(c, ky, kx)` of the `k×k` stride-`s` correlation.
    fn taps(&self, k: usize) -> Vec<usize> {
        let (s, wp) = (self.s, self.wp);
        (0..self.c * k * k)
            .map(|p| {
                let (c, ky, kx) = (p / (k * k), p / k % k, p % k);
                self.plane(c, ky % s, kx % s) + ky / s * wp + kx / s
            })
            .collect()
    }

    /// One image `src`'s copy.
    fn copy(&self, src: &[f32]) -> Vec<f32> {
        let Planes { h, w, s, ph, top, left, hp, wp, .. } = *self;
        let mut buf = vec![0.0f32; self.len()];
        // Plane lanes `first..end` of one axis hold source `s·i + r − pad`.
        let lanes = |r: usize, pad: usize, len: usize, n: usize| {
            (pad.saturating_sub(r).div_ceil(s), (len + pad).saturating_sub(r).div_ceil(s).min(n))
        };
        for (img, planes) in src.chunks_exact(h * w).zip(buf.chunks_exact_mut(ph * ph * hp * wp)) {
            for (r, plane) in planes.chunks_exact_mut(hp * wp).enumerate() {
                let (ry, rx) = (r / ph, r % ph);
                let ((i0, i1), (j0, j1)) = (lanes(ry, top, h, hp), lanes(rx, left, w, wp));
                if j0 >= j1 {
                    continue;
                }
                for i in i0..i1 {
                    let from = &img[(s * i + ry - top) * w + s * j0 + rx - left..];
                    let to = &mut plane[i * wp + j0..i * wp + j1];
                    if s == 1 {
                        to.copy_from_slice(&from[..to.len()]);
                    } else {
                        for (d, v) in to.iter_mut().zip(from.iter().step_by(s)) {
                            *d = *v;
                        }
                    }
                }
            }
        }
        buf
    }
}

/// Forward convolution: `x[N,C,H,W] ⊛ weight[F,C,K,K] (+ bias[F]) → [N,F,OH,OW]`.
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let (n, h, w, oh, ow) = spec.checked_dims(x, weight, bias, None);
    let (img, oimg_len) = (spec.in_c * h * w, spec.out_c * oh * ow);
    let xs = x.as_slice();
    let mut out = Tensor::zeros([n, spec.out_c, oh, ow]);

    // Weight-stationary: the filter panels are packed once for the batch;
    // each image is copied once into its planes and read through `off`.
    let planes = Planes::of_input(spec, (h, w), (oh, ow));
    let off = planes.taps(spec.k);
    let g = Gemm::nn(spec.out_c, off.len(), oh * planes.wp);
    let grid =
        Grid { pitch: planes.wp, width: ow, ldc: oh * ow, origin: 0, row_step: ow, col_step: 1 };
    let pw = g.pack_a(weight.as_slice());
    par::par_chunks_mut(out.as_mut_slice(), oimg_len, |i, oimg| {
        let src = planes.copy(&xs[i * img..][..img]);
        g.run_offsets(&pw, &src, &off, oimg, &grid);
        if let Some(b) = bias {
            for (plane, bf) in oimg.chunks_mut(oh * ow).zip(b.as_slice()) {
                for v in plane {
                    *v += bf;
                }
            }
        }
    });
    out
}

/// Backward convolution. Given upstream `dout[N,F,OH,OW]`, produces
/// `(dx, dweight, dbias)`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (dw, db) = conv2d_backward_weight(x, weight, dout, spec);
    (backward_data(x, weight, dout, spec), dw, db)
}

/// The parameter half of [`conv2d_backward`]: `(dweight, dbias)`, bit for
/// bit the same, without the backward-data product — what a network's
/// first layer runs, since nothing reads its input gradient. dW runs on
/// the AVX2/FMA body where the GEMM's probe finds those features (so
/// [`crate::gemm::microkernel`] names it), else on the portable one.
pub fn conv2d_backward_weight(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    #[cfg(target_arch = "x86_64")]
    if crate::gemm::avx2_fma_available() {
        // SAFETY: the CPU has avx2 and fma, and `backward_weight` checks
        // the windows' reach before it runs a body.
        return backward_weight(x, weight, dout, spec, |d, f, t| unsafe { dots_fma(d, f, t) });
    }
    backward_weight(x, weight, dout, spec, dots_portable)
}

/// Filters × taps per dW block (module docs): 8 chains plus one load per
/// filter and per tap fit the 16 ymm registers.
const DW_F: usize = 4;
const DW_T: usize = 2;
type Block = [[f32; DW_T]; DW_F];

/// dW's operands (module docs): `dout` in images of `img` floats, and each
/// image's padded copy.
struct Dots<'a> {
    dout: &'a [f32],
    src: &'a [Vec<f32>],
    img: usize,
    oh: usize,
    ow: usize,
    wp: usize,
}

/// [`conv2d_backward_weight`] with its dW blocks computed by `body`, which
/// is given where the block's `dout` planes and tap windows start.
fn backward_weight(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: &Conv2dSpec,
    body: fn(&Dots, [usize; DW_F], [usize; DW_T]) -> Block,
) -> (Tensor, Tensor) {
    let (n, h, w, oh, ow) = spec.checked_dims(x, weight, None, Some(dout));
    let Conv2dSpec { in_c, out_c, k, .. } = *spec;
    let (img, taps, area) = (in_c * h * w, in_c * k * k, oh * ow);
    let planes = Planes::of_input(spec, (h, w), (oh, ow));
    let src: Vec<Vec<f32>> =
        (0..n).into_par_iter().map(|i| planes.copy(&x.as_slice()[i * img..][..img])).collect();
    let (off, dos) = (planes.taps(k), dout.as_slice());
    // The bodies read every window's kept positions unchecked.
    let reach = off.iter().max().map_or(0, |o| o + (oh - 1) * planes.wp + ow);
    assert!(reach <= planes.len(), "dW: windows reach {reach} of {}", planes.len());
    let dots = Dots { dout: dos, src: &src, img: out_c * area, oh, ow, wp: planes.wp };
    // One task per DW_F rows of dW; a last block's spare filters and taps
    // repeat its last real one, and their sums are dropped.
    let mut dw = vec![0.0f32; out_c * taps];
    par::par_chunks_mut(&mut dw, DW_F * taps, |fb, rows| {
        let f = std::array::from_fn(|j| (fb * DW_F + j).min(out_c - 1) * area);
        for t0 in (0..taps).step_by(DW_T) {
            let block = body(&dots, f, std::array::from_fn(|u| off[(t0 + u).min(taps - 1)]));
            for (row, sums) in rows.chunks_exact_mut(taps).zip(block) {
                row[t0..].iter_mut().zip(sums).for_each(|(d, v)| *d = v);
            }
        }
    });
    let mut db = vec![0.0f32; out_c];
    for (j, plane) in dos.chunks_exact(area).enumerate() {
        db[j % out_c] += plane.iter().sum::<f32>();
    }
    (Tensor::from_vec(dw, [out_c, in_c, k, k]), Tensor::from_vec(db, [out_c]))
}

/// A chain's 8 lanes summed in one fixed order.
fn lane_sum(l: [f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// The portable dW body: [`dots_fma`]'s chains, a multiply and an add a
/// step.
fn dots_portable(d: &Dots, f: [usize; DW_F], t: [usize; DW_T]) -> Block {
    let mut acc = [[[0.0f32; 8]; DW_T]; DW_F];
    for (dimg, simg) in d.dout.chunks_exact(d.img).zip(d.src) {
        for (oy, x) in (0..d.oh).flat_map(|oy| (0..d.ow).map(move |x| (oy, x))) {
            for (a, f) in acc.iter_mut().zip(f) {
                for (a, t) in a.iter_mut().zip(t) {
                    a[x % 8] += dimg[f + oy * d.ow + x] * simg[t + oy * d.wp + x];
                }
            }
        }
    }
    acc.map(|a| a.map(lane_sum))
}

/// The AVX2/FMA dW body: one ymm chain per dot product (lane `x mod 8` of
/// each row); per 8 positions one load per filter and per tap, and a row's
/// last `ow mod 8` positions through a masked load, which reads no lane
/// past them.
///
/// # Safety
///
/// The CPU has avx2 and fma, and every window's kept positions lie inside
/// its copy.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dots_fma(d: &Dots, f: [usize; DW_F], t: [usize; DW_T]) -> Block {
    use std::arch::x86_64::*;
    const MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    let (full, mask) = (d.ow / 8 * 8, _mm256_loadu_si256(MASKS[8 - d.ow % 8..].as_ptr().cast()));
    let mut acc = [_mm256_setzero_ps(); DW_F * DW_T];
    let (mut dv, mut sv) = ([_mm256_setzero_ps(); DW_F], [_mm256_setzero_ps(); DW_T]);
    for (dimg, simg) in d.dout.chunks_exact(d.img).zip(d.src) {
        let (mut dp, mut sp) = (f.map(|f| dimg.as_ptr().add(f)), t.map(|t| simg.as_ptr().add(t)));
        for _ in 0..d.oh {
            let mut x = 0;
            while x < full {
                for j in 0..DW_F {
                    dv[j] = _mm256_loadu_ps(dp[j].add(x));
                }
                for u in 0..DW_T {
                    sv[u] = _mm256_loadu_ps(sp[u].add(x));
                }
                fma_step(&mut acc, &dv, &sv);
                x += 8;
            }
            if x < d.ow {
                for j in 0..DW_F {
                    dv[j] = _mm256_maskload_ps(dp[j].add(x), mask);
                }
                for u in 0..DW_T {
                    sv[u] = _mm256_maskload_ps(sp[u].add(x), mask);
                }
                fma_step(&mut acc, &dv, &sv);
            }
            (dp, sp) = (dp.map(|p| p.add(d.ow)), sp.map(|p| p.add(d.wp)));
        }
    }
    let lanes: [[f32; 8]; DW_F * DW_T] = std::mem::transmute(acc);
    std::array::from_fn(|j| std::array::from_fn(|u| lane_sum(lanes[j * DW_T + u])))
}

/// One step of every chain of [`dots_fma`]: chain `(j, u)` += `d[j]·s[u]`.
///
/// # Safety
///
/// The CPU has avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn fma_step(acc: &mut [__m256; DW_F * DW_T], d: &[__m256; DW_F], s: &[__m256; DW_T]) {
    for j in 0..DW_F {
        for u in 0..DW_T {
            acc[j * DW_T + u] = std::arch::x86_64::_mm256_fmadd_ps(d[j], s[u], acc[j * DW_T + u]);
        }
    }
}

/// One axis of a backward-data phase (module docs): the `len` positions
/// `r, r + s, ..` of a `dx` axis, reached by the taps `t0, t0 + s, ..`
/// (`taps` of them). Position `r + s·q` reads `dout[q + (r + pad) / s − j]`
/// through tap `t0 + s·j`; numbering the taps flipped, `u = taps − 1 − j`,
/// makes that `dout[q + u − pad']` — a stride-1 window under padding
/// `pad'` (a negative pad starts the first window `−pad'` into `dout`).
#[derive(Clone, Copy)]
struct PhaseAxis {
    len: usize,
    t0: usize,
    taps: usize,
    pad: isize,
}

impl PhaseAxis {
    /// Phase `r` of a `dx` axis of `len`.
    fn new(spec: &Conv2dSpec, r: usize, len: usize) -> Self {
        let (s, reach) = (spec.stride, r + spec.pad);
        let t0 = reach % s;
        let taps = spec.k.saturating_sub(t0).div_ceil(s);
        let pad = taps as isize - 1 - (reach / s) as isize;
        PhaseAxis { len: len.saturating_sub(r).div_ceil(s), t0, taps, pad }
    }

    /// One padded copy of a `dout` axis of `len` for all of an axis'
    /// phases: `(lead, extent)` — as many zeros before `dout` as the widest
    /// pad of a phase that reads, and room for each one's last window.
    fn frame(axes: &[PhaseAxis], len: usize) -> (usize, usize) {
        let reading = || axes.iter().filter(|a| a.taps > 0);
        let lead = reading().map(|a| a.pad.max(0) as usize).max().unwrap_or(0);
        let end = reading().map(|a| (lead as isize - a.pad) as usize + a.taps - 1 + a.len);
        (lead, end.fold(lead + len, usize::max))
    }
}

/// One stride phase of the backward-data product (module docs): `g` over
/// the phase's flipped taps `w`, whose windows start at `off` in the
/// padded `dout`, stored through `grid` into `dx` rows `ry, ry + s, ..` ×
/// columns `rx, rx + s, ..`.
struct Phase {
    g: Gemm,
    w: PackedA,
    off: Vec<usize>,
    grid: Grid,
}

impl Phase {
    /// Phase `(ry, rx)` into a `dx` of `(h, w)` from the `dout` copy
    /// `planes`, given its axes; `None` when the phase holds no `dx`
    /// position.
    fn new(
        spec: &Conv2dSpec,
        (ry, rx): (usize, usize),
        (h, w): (usize, usize),
        (ay, ax): (PhaseAxis, PhaseAxis),
        planes: &Planes,
        ws: &[f32],
    ) -> Option<Phase> {
        let (qh, ty, kh, pad_y) = (ay.len, ay.t0, ay.taps, ay.pad);
        let (qw, tx, kw, pad_x) = (ax.len, ax.t0, ax.taps, ax.pad);
        if qh * qw == 0 {
            return None;
        }
        let Conv2dSpec { in_c, out_c, k, stride: s, .. } = *spec;
        // Window `(f, u, v)` starts at row `top − pad_y + u`, column
        // `left − pad_x + v` of plane `f` (never negative: `top` and `left`
        // are the widest pads of the phases that read).
        let (y0, x0) = (planes.top as isize - pad_y, planes.left as isize - pad_x);
        let off = (0..out_c * kh * kw)
            .map(|p| {
                let (f, u, v) = (p / (kh * kw), p / kw % kh, p % kw);
                planes.plane(f, 0, 0) + (y0 as usize + u) * planes.wp + x0 as usize + v
            })
            .collect::<Vec<_>>();
        // W'[c, (f, u, v)] = W[f, c, ty + s·(kh−1−u), tx + s·(kw−1−v)],
        // packed once for the batch.
        let g = Gemm::nn(in_c, off.len(), qh * planes.wp);
        let mut w_flipped = PackedA::default();
        g.pack_a_with(&mut w_flipped, |p0, c0, rows, mr, panel| {
            for (kk, lanes) in panel.chunks_exact_mut(mr).enumerate() {
                let p = p0 + kk;
                let (f, u, v) = (p / (kh * kw), p / kw % kh, p % kw);
                let tap = (ty + s * (kh - 1 - u)) * k + tx + s * (kw - 1 - v);
                for (c, d) in lanes[..rows].iter_mut().enumerate() {
                    *d = ws[(f * in_c + c0 + c) * k * k + tap];
                }
            }
        });
        let grid = Grid {
            pitch: planes.wp,
            width: qw,
            ldc: h * w,
            origin: ry * w + rx,
            row_step: s * w,
            col_step: s,
        };
        Some(Phase { g, w: w_flipped, off, grid })
    }
}

/// The backward-data product: `dx[N,C,H,W]` as the stride's phases, all
/// reading one padded copy of each image's `dout`.
fn backward_data(x: &Tensor, weight: &Tensor, dout: &Tensor, spec: &Conv2dSpec) -> Tensor {
    let (_, h, w, oh, ow) = spec.checked_dims(x, weight, None, Some(dout));
    let (s, img, dimg_len) = (spec.stride, spec.in_c * h * w, spec.out_c * oh * ow);
    let ys: Vec<_> = (0..s).map(|r| PhaseAxis::new(spec, r, h)).collect();
    let xs: Vec<_> = (0..s).map(|r| PhaseAxis::new(spec, r, w)).collect();
    let ((top, hp), (left, wp)) = (PhaseAxis::frame(&ys, oh), PhaseAxis::frame(&xs, ow));
    let planes = Planes { c: spec.out_c, h: oh, w: ow, s: 1, ph: 1, top, left, hp, wp };
    let phases: Vec<Phase> = (0..s * s)
        .filter_map(|r| {
            let (ry, rx) = (r / s, r % s);
            Phase::new(spec, (ry, rx), (h, w), (ys[ry], xs[rx]), &planes, weight.as_slice())
        })
        .collect();
    let dos = dout.as_slice();
    let mut dx = Tensor::zeros(x.shape().clone());
    par::par_chunks_mut(dx.as_mut_slice(), img, |i, dximg| {
        let src = planes.copy(&dos[i * dimg_len..][..dimg_len]);
        for ph in &phases {
            ph.g.run_offsets(&ph.w, &src, &ph.off, dximg, &ph.grid);
        }
    });
    dx
}

/// The direct-loop oracles, shared with `tests/proptests.rs`.
#[cfg(test)]
#[path = "../tests/direct/mod.rs"]
mod direct;

/// The gather-based forward and dx the offset-addressed products replaced,
/// kept as the tests' bit-exactness oracle: every product packs its patch
/// operand into zeroed micro-panels through a coordinate map over the
/// unpadded source.
#[cfg(test)]
mod gathered {
    use super::Conv2dSpec;
    use crate::gemm::{Gemm, PackedA, PackedB, NR};
    use crate::par;
    use crate::tensor::Tensor;

    /// One axis of a patch map: `k` kernel taps over a source of extent `len`
    /// under padding `pad` (a negative pad starts the first window `−pad`
    /// positions into the source).
    #[derive(Clone, Copy)]
    struct Axis {
        k: usize,
        len: usize,
        pad: isize,
    }

    /// One image's patch matrix as a coordinate map (see the module docs): row
    /// `(c, ky, kx)`, column `(oy, ox)` reads source element
    /// `(c, oy·stride + ky − pad_y, ox·stride + kx − pad_x)` when that lies
    /// inside the source, and is zero elsewhere. The forward product reads
    /// `x` through it; each backward-data phase reads `dout` at stride 1
    /// with its own (possibly non-square) kernel.
    pub(super) struct Patches {
        y: Axis,
        x: Axis,
        ow: usize,
        stride: usize,
        /// Per kernel column `kx`: the output columns it reads. This is the
        /// map's bounds test, done once per call instead of once per panel row.
        xs: Vec<Reads>,
    }

    /// Outputs `first..end` of one axis read sources `src, src + stride, ..`
    /// (empty when `first == end`).
    #[derive(Clone, Copy, Default)]
    struct Reads {
        first: usize,
        end: usize,
        src: usize,
    }

    impl Patches {
        fn new(y: Axis, x: Axis, ow: usize, stride: usize) -> Self {
            let mut p = Patches { y, x, ow, stride, xs: Vec::new() };
            p.xs = (0..x.k)
                .map(|kx| {
                    let mut hits = (0..ow).filter_map(|ox| Some((ox, p.source(ox, kx, x)?)));
                    match hits.next() {
                        Some((first, src)) => Reads {
                            first,
                            end: hits.next_back().map_or(first, |(ox, _)| ox) + 1,
                            src,
                        },
                        None => Reads::default(),
                    }
                })
                .collect();
            p
        }

        /// The map the forward product reads `x` through.
        pub(super) fn of_input(spec: &Conv2dSpec, (h, w): (usize, usize), ow: usize) -> Self {
            let (k, pad) = (spec.k, spec.pad as isize);
            Patches::new(Axis { k, len: h, pad }, Axis { k, len: w, pad }, ow, spec.stride)
        }

        /// The map along one axis: the source coordinate that output `o` reads
        /// through kernel offset `t`, if it reads one.
        fn source(&self, o: usize, t: usize, axis: Axis) -> Option<usize> {
            let s = usize::try_from((o * self.stride + t) as isize - axis.pad).ok()?;
            (s < axis.len).then_some(s)
        }

        /// The part of kernel column `kx`'s reads inside output columns
        /// `a..b`: `(first output, end, first source column)`.
        fn clip(&self, kx: usize, a: usize, b: usize) -> (usize, usize, usize) {
            let r = self.xs[kx];
            let skip = a.saturating_sub(r.first);
            (r.first + skip, b.min(r.end), r.src + skip * self.stride)
        }

        /// Splits output positions `p..p + len` into per-row runs
        /// `(oy, a, b, offset of a from p)` covering columns `a..b` of row `oy`.
        fn rows(&self, p: usize, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
            let ow = self.ow;
            let (mut oy, mut a, mut off) = (p / ow, p % ow, 0);
            std::iter::from_fn(move || {
                (off < len).then(|| {
                    let run = (oy, a, ow.min(a + len - off), off);
                    (oy, a, off) = (oy + 1, 0, off + run.2 - a);
                    run
                })
            })
        }

        /// Copies a block of the patch matrix of `src` into `out`, `ld` floats
        /// a row: block rows are taps `p0..`, the first `cols` lanes of each
        /// are output positions `j0..j0 + cols`; lanes past them and entries
        /// that read padding are left as they are (zero). Each `(tap, output
        /// row)` pair is one contiguous copy at stride 1.
        pub(super) fn gather(
            &self,
            src: &[f32],
            p0: usize,
            j0: usize,
            cols: usize,
            ld: usize,
            out: &mut [f32],
        ) {
            let (kh, kw, taps) = (self.y.k, self.x.k, out.len() / ld);
            let (sh, sw) = (self.y.len, self.x.len);
            for (oy, a, b, lane) in self.rows(j0, cols) {
                // Patch-matrix row `p` is tap `(c, ky, kx)`.
                let (mut c, mut ky, mut kx) = (p0 / (kh * kw), p0 / kw % kh, p0 % kw);
                let mut t = 0;
                // One kernel row `(c, ky)` at a time: its taps share a source row.
                while t < taps {
                    let n = (kw - kx).min(taps - t);
                    if let Some(sy) = self.source(oy, ky, self.y) {
                        let row = &src[(c * sh + sy) * sw..][..sw];
                        for (dx, lanes) in out[t * ld..].chunks_exact_mut(ld).take(n).enumerate() {
                            let (lo, hi, sx) = self.clip(kx + dx, a, b);
                            if lo >= hi {
                                continue;
                            }
                            let (to, from) = (&mut lanes[lane + lo - a..lane + hi - a], &row[sx..]);
                            if self.stride == 1 {
                                to.copy_from_slice(&from[..to.len()]);
                            } else {
                                for (d, s) in to.iter_mut().zip(from.iter().step_by(self.stride)) {
                                    *d = *s;
                                }
                            }
                        }
                    }
                    t += n;
                    kx = 0;
                    (ky, c) = if ky + 1 == kh { (0, c + 1) } else { (ky + 1, c) };
                }
            }
        }
    }

    /// [`conv2d_forward`] on gathered patch panels.
    pub(super) fn forward(
        x: &Tensor,
        weight: &Tensor,
        bias: Option<&Tensor>,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (n, h, w, oh, ow) = spec.checked_dims(x, weight, bias, None);
        let (img, oimg_len) = (spec.in_c * h * w, spec.out_c * oh * ow);
        let xs = x.as_slice();
        let mut out = Tensor::zeros([n, spec.out_c, oh, ow]);

        // Weight-stationary: the filter panels are packed once for the batch,
        // each image's patch panels once, straight from the image.
        let g = Gemm::nn(spec.out_c, spec.in_c * spec.k * spec.k, oh * ow);
        let pw = g.pack_a(weight.as_slice());
        let patches = Patches::of_input(spec, (h, w), ow);
        par::par_chunks_mut(out.as_mut_slice(), oimg_len, |i, oimg| {
            let ximg = &xs[i * img..][..img];
            let mut pb = PackedB::default();
            g.pack_b_with(&mut pb, |p0, j0, cols, panel| {
                patches.gather(ximg, p0, j0, cols, NR, panel)
            });
            g.run_packed(&pw, &pb, oimg, false);
            if let Some(b) = bias {
                for (plane, bf) in oimg.chunks_mut(oh * ow).zip(b.as_slice()) {
                    for v in plane {
                        *v += bf;
                    }
                }
            }
        });
        out
    }

    /// One axis of a backward-data phase (module docs): the `dx` positions
    /// `r, r + s, ..` of an axis of `len`, reached by taps `t0, t0 + s, ..`,
    /// as `(positions, t0, the stride-1 map over the src-long dout axis)`.
    /// Position `r + s·q` reads `dout[q + (r + pad) / s − j]` through tap
    /// `t0 + s·j`; numbering the taps flipped, `u = kt − 1 − j`, makes that
    /// `dout[q + u − pad']` — a stride-1 window under padding `pad'`.
    fn phase_axis(spec: &Conv2dSpec, r: usize, len: usize, src: usize) -> (usize, usize, Axis) {
        let (s, reach) = (spec.stride, r + spec.pad);
        let t0 = reach % s;
        let kt = spec.k.saturating_sub(t0).div_ceil(s);
        let pad = kt as isize - 1 - (reach / s) as isize;
        (len.saturating_sub(r).div_ceil(s), t0, Axis { k: kt, len: src, pad })
    }

    /// One stride phase of the backward-data product (module docs): `dx`
    /// rows `ry, ry + s, ..` × columns `rx, rx + s, ..` are `g` over the
    /// phase's flipped taps `w` and the stride-1 map `patches` over `dout`.
    pub(super) struct Phase {
        ry: usize,
        rx: usize,
        qw: usize,
        pub(super) g: Gemm,
        pub(super) w: PackedA,
        pub(super) patches: Patches,
    }

    impl Phase {
        /// Phase `(ry, rx)` from a `dout` of `(oh, ow)` into a `dx` of `(h, w)`;
        /// `None` when the phase holds no `dx` position.
        pub(super) fn new(
            spec: &Conv2dSpec,
            (ry, rx): (usize, usize),
            (h, w): (usize, usize),
            (oh, ow): (usize, usize),
            ws: &[f32],
        ) -> Option<Phase> {
            let (qh, ty, ay) = phase_axis(spec, ry, h, oh);
            let (qw, tx, ax) = phase_axis(spec, rx, w, ow);
            if qh * qw == 0 {
                return None;
            }
            let Conv2dSpec { in_c, out_c, k, stride: s, .. } = *spec;
            let (kh, kw) = (ay.k, ax.k);
            // W'[c, (f, u, v)] = W[f, c, ty + s·(kh−1−u), tx + s·(kw−1−v)],
            // packed once for the batch.
            let g = Gemm::nn(in_c, out_c * kh * kw, qh * qw);
            let mut w_flipped = PackedA::default();
            g.pack_a_with(&mut w_flipped, |p0, c0, rows, mr, panel| {
                for (kk, lanes) in panel.chunks_exact_mut(mr).enumerate() {
                    let p = p0 + kk;
                    let (f, u, v) = (p / (kh * kw), p / kw % kh, p % kw);
                    let tap = (ty + s * (kh - 1 - u)) * k + tx + s * (kw - 1 - v);
                    for (c, d) in lanes[..rows].iter_mut().enumerate() {
                        *d = ws[(f * in_c + c0 + c) * k * k + tap];
                    }
                }
            });
            Some(Phase { ry, rx, qw, g, w: w_flipped, patches: Patches::new(ay, ax, qw, 1) })
        }
    }

    /// The backward-data product as the stride's phases on gathered panels.
    pub(super) fn backward_data(
        x: &Tensor,
        weight: &Tensor,
        dout: &Tensor,
        spec: &Conv2dSpec,
    ) -> Tensor {
        let (_, h, w, oh, ow) = spec.checked_dims(x, weight, None, Some(dout));
        let (s, img, dimg_len) = (spec.stride, spec.in_c * h * w, spec.out_c * oh * ow);
        let phases: Vec<Phase> = (0..s * s)
            .filter_map(|r| Phase::new(spec, (r / s, r % s), (h, w), (oh, ow), weight.as_slice()))
            .collect();
        let dos = dout.as_slice();
        let mut dx = Tensor::zeros(x.shape().clone());
        par::par_chunks_mut(dx.as_mut_slice(), img, |i, dximg| {
            let dimg = &dos[i * dimg_len..][..dimg_len];
            let (mut pb, mut res) = (PackedB::default(), Vec::new());
            for ph in &phases {
                ph.g.pack_b_with(&mut pb, |p0, j0, cols, panel| {
                    ph.patches.gather(dimg, p0, j0, cols, NR, panel);
                });
                if s == 1 {
                    ph.g.run_packed(&ph.w, &pb, dximg, false);
                    continue;
                }
                res.resize(ph.g.c_len(), 0.0);
                ph.g.run_packed(&ph.w, &pb, &mut res, false);
                // Interleaved store: phase element (qy, qx) is dx (ry + s·qy, rx + s·qx).
                for (plane, rplane) in dximg.chunks_exact_mut(h * w).zip(res.chunks_exact(ph.g.n)) {
                    for (qy, qrow) in rplane.chunks_exact(ph.qw).enumerate() {
                        let row = &mut plane[(ph.ry + s * qy) * w..][..w];
                        for (d, v) in row[ph.rx..].iter_mut().step_by(s).zip(qrow) {
                            *d = *v;
                        }
                    }
                }
            }
        });
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::direct::{conv2d_backward_reference, conv2d_reference};
    use super::gathered::{self, Patches, Phase};
    use super::*;
    use crate::gemm::{PackedB, KC};
    use crate::rng::SeedRng;

    /// The materialising oracle: unfolds one image `[C, H, W]` into the
    /// column matrix `[C·K·K, OH·OW]` the gathers stand in for.
    fn im2col(img: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
        let (oh, ow) = spec.out_hw(h, w);
        let mut col = vec![0.0f32; c * spec.k * spec.k * oh * ow];
        for (row, dst) in col.chunks_mut(oh * ow).enumerate() {
            let (ch, ky, kx) = (row / (spec.k * spec.k), row / spec.k % spec.k, row % spec.k);
            for oy in 0..oh {
                for ox in 0..ow {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        dst[oy * ow + ox] = img[(ch * h + iy as usize) * w + ix as usize];
                    }
                }
            }
        }
        col
    }

    /// Adjoint of [`im2col`]: scatter-adds a column matrix into an image.
    fn col2im(col: &[f32], c: usize, h: usize, w: usize, spec: &Conv2dSpec) -> Vec<f32> {
        let (oh, ow) = spec.out_hw(h, w);
        let mut img = vec![0.0f32; c * h * w];
        for (row, src) in col.chunks(oh * ow).enumerate() {
            let (ch, ky, kx) = (row / (spec.k * spec.k), row / spec.k % spec.k, row % spec.k);
            for oy in 0..oh {
                for ox in 0..ow {
                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                        img[(ch * h + iy as usize) * w + ix as usize] += src[oy * ow + ox];
                    }
                }
            }
        }
        img
    }

    /// The backward-data product as one stride-1 product with the whole
    /// flipped kernel over `dout` dilated by the stride (`s − 1` zeros
    /// stuffed between neighbours) — the formulation the phases replace.
    fn dilated_dx(x: &Tensor, wt: &Tensor, dout: &Tensor, spec: &Conv2dSpec) -> Vec<f32> {
        let &[_, c, h, w] = x.shape().dims() else { unreachable!("conv input is [N,C,H,W]") };
        let ((oh, ow), s, f) = (spec.out_hw(h, w), spec.stride, spec.out_c);
        let (dh, dw) = ((oh - 1) * s + 1, (ow - 1) * s + 1);
        let whole = Conv2dSpec { stride: 1, ..*spec };
        let ph = Phase::new(&whole, (0, 0), (h, w), (dh, dw), wt.as_slice()).unwrap();
        let mut dx = vec![0.0f32; x.numel()];
        for (dimg, dximg) in dout.as_slice().chunks(f * oh * ow).zip(dx.chunks_mut(c * h * w)) {
            let mut dilated = vec![0.0f32; f * dh * dw];
            for (j, v) in dimg.iter().enumerate() {
                let (ff, oy, ox) = (j / (oh * ow), j / ow % oh, j % ow);
                dilated[(ff * dh + oy * s) * dw + ox * s] = *v;
            }
            let mut pb = PackedB::default();
            ph.g.pack_b_with(&mut pb, |p0, j0, cols, panel| {
                ph.patches.gather(&dilated, p0, j0, cols, NR, panel)
            });
            ph.g.run_packed(&ph.w, &pb, dximg, false);
        }
        dx
    }

    /// Geometries the products must get right: `ow` a multiple of, below and
    /// not dividing NR; strides with input rows no output touches; padding
    /// wider than the kernel; a 1×1 kernel; `ckk > KC` (a slab that starts
    /// mid-channel). `(spec, h, w, n)`.
    fn menu() -> Vec<(Conv2dSpec, usize, usize, usize)> {
        vec![
            (Conv2dSpec { in_c: 2, out_c: 3, k: 3, stride: 1, pad: 1 }, 7, 7, 2),
            (Conv2dSpec { in_c: 1, out_c: 4, k: 3, stride: 2, pad: 1 }, 8, 8, 1),
            (Conv2dSpec { in_c: 3, out_c: 2, k: 1, stride: 1, pad: 0 }, 5, 6, 3),
            (Conv2dSpec { in_c: 4, out_c: 4, k: 3, stride: 1, pad: 1 }, 6, 32, 2),
            (Conv2dSpec { in_c: 2, out_c: 7, k: 5, stride: 3, pad: 2 }, 12, 19, 2),
            (Conv2dSpec { in_c: 3, out_c: 2, k: 1, stride: 2, pad: 2 }, 6, 9, 1),
            (Conv2dSpec { in_c: 32, out_c: 5, k: 3, stride: 2, pad: 1 }, 6, 11, 2),
        ]
    }

    fn close(a: &Tensor, b: &Tensor, eps: f32) {
        assert!(a.shape().same(b.shape()), "{} vs {}", a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < eps, "{x} vs {y}");
        }
    }

    fn dot(a: &Tensor, b: &Tensor) -> f64 {
        a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| (*p as f64) * (*q as f64)).sum()
    }

    #[test]
    fn out_hw_formula() {
        let s = Conv2dSpec { in_c: 3, out_c: 8, k: 3, stride: 1, pad: 1 };
        assert_eq!(s.out_hw(32, 32), (32, 32));
        let s2 = Conv2dSpec { in_c: 3, out_c: 8, k: 3, stride: 2, pad: 1 };
        assert_eq!(s2.out_hw(32, 32), (16, 16));
    }

    #[test]
    fn conv_forward_matches_reference() {
        let mut rng = SeedRng::new(11);
        for (spec, h, w, n) in menu() {
            let x = rng.randn_tensor(&[n, spec.in_c, h, w], 1.0);
            let wt = rng.randn_tensor(&[spec.out_c, spec.in_c, spec.k, spec.k], 0.5);
            let b = rng.randn_tensor(&[spec.out_c], 0.1);
            let fast = conv2d_forward(&x, &wt, Some(&b), &spec);
            let slow = conv2d_reference(&x, &wt, Some(&b), &spec);
            close(&fast, &slow, 1e-3);
        }
    }

    /// Named bit changes 1 and 2 of the implicit-GEMM rewrite are "none":
    /// the gathers (kept in `gathered`) fill the panels packing a column
    /// matrix fills, and the offset-addressed products reduce the same
    /// values in the same order, so the forward output and `db` equal the
    /// materialising formulation bit for bit. (dW is dot products since,
    /// held to the f64 oracle by `dw_is_within_its_bound_of_the_f64_oracle`.)
    #[test]
    fn gathers_are_bit_identical_to_the_column_matrix() {
        let mut rng = SeedRng::new(14);
        assert!(menu().iter().any(|(s, ..)| s.in_c * s.k * s.k > KC));
        for (spec, h, w, n) in menu() {
            let (c, f) = (spec.in_c, spec.out_c);
            let (oh, ow) = spec.out_hw(h, w);
            let ckk = c * spec.k * spec.k;
            let x = rng.randn_tensor(&[n, c, h, w], 1.0);
            let wt = rng.randn_tensor(&[f, c, spec.k, spec.k], 0.5);
            let b = rng.randn_tensor(&[f], 0.1);
            let dout = rng.randn_tensor(&[n, f, oh, ow], 1.0);
            let y = conv2d_forward(&x, &wt, Some(&b), &spec);
            let (_, _, db) = conv2d_backward(&x, &wt, &dout, &spec);

            let g = Gemm::nn(f, ckk, oh * ow);
            let patches = Patches::of_input(&spec, (h, w), ow);
            let pw = g.pack_a(wt.as_slice());
            let mut db_want = vec![0.0f32; f];
            for i in 0..n {
                let ximg = &x.as_slice()[i * c * h * w..][..c * h * w];
                let dimg = &dout.as_slice()[i * f * oh * ow..][..f * oh * ow];
                let col = im2col(ximg, c, h, w, &spec);

                let mut pb = PackedB::default();
                g.pack_b_with(&mut pb, |p0, j0, cols, p| patches.gather(ximg, p0, j0, cols, NR, p));
                assert_eq!(pb, g.pack_b(&col), "{spec:?}: forward panels");
                let mut want = vec![0.0f32; f * oh * ow];
                g.run_packed(&pw, &pb, &mut want, false);
                for (plane, bf) in want.chunks_mut(oh * ow).zip(b.as_slice()) {
                    plane.iter_mut().for_each(|v| *v += bf);
                }
                assert_eq!(&y.as_slice()[i * f * oh * ow..][..f * oh * ow], want, "{spec:?}: y");
                for (a, plane) in db_want.iter_mut().zip(dimg.chunks(oh * ow)) {
                    *a += plane.iter().sum::<f32>();
                }
            }
            assert_eq!(db.as_slice(), db_want, "{spec:?}: db");
        }
    }

    /// Named bit change 3: `dx` is one GEMM reduction over `(f, ky, kx)`
    /// where the column-matrix path rounded `Σ_f` per tap and scatter-added
    /// the taps. Same sum, different grouping — bounded here against that
    /// path, and against the direct-loop oracle in `tests/proptests.rs`.
    #[test]
    fn dx_matches_the_scattered_column_gradient() {
        let mut rng = SeedRng::new(15);
        for (spec, h, w, n) in menu() {
            let (c, f) = (spec.in_c, spec.out_c);
            let (oh, ow) = spec.out_hw(h, w);
            let x = rng.randn_tensor(&[n, c, h, w], 1.0);
            let wt = rng.randn_tensor(&[f, c, spec.k, spec.k], 0.5);
            let dout = rng.randn_tensor(&[n, f, oh, ow], 1.0);
            let (dx, _, _) = conv2d_backward(&x, &wt, &dout, &spec);
            let g_dcol = Gemm::tn(c * spec.k * spec.k, f, oh * ow);
            for i in 0..n {
                let dimg = &dout.as_slice()[i * f * oh * ow..][..f * oh * ow];
                let mut dcol = vec![0.0f32; g_dcol.c_len()];
                g_dcol.run_st(wt.as_slice(), dimg, &mut dcol);
                let want = col2im(&dcol, c, h, w, &spec);
                for (got, want) in dx.as_slice()[i * c * h * w..].iter().zip(&want) {
                    assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "{spec:?}");
                }
            }
        }
    }

    /// Named bit change 4: "none" where one `KC` slab holds the dilated
    /// reduction — the phases drop only the products with a stuffed zero,
    /// which left the accumulator unchanged. Past one slab the two split
    /// the sum differently, so the bound of bit change 3 applies there.
    #[test]
    fn phased_dx_equals_the_dilated_formulation() {
        let mut rng = SeedRng::new(17);
        let s2 = |in_c, out_c| Conv2dSpec { in_c, out_c, k: 3, stride: 2, pad: 1 };
        // The scaled ResNet-20's two stride-2 convolutions, and a filter
        // bank whose dilated reduction (32·3·3 = 288 taps) spans two slabs.
        let more = [(s2(4, 8), 32, 32, 2), (s2(8, 16), 16, 16, 2), (s2(3, 32), 9, 10, 2)];
        assert!(more.iter().any(|(s, ..)| s.out_c * s.k * s.k > KC));
        for (spec, h, w, n) in menu().into_iter().chain(more) {
            let (c, f) = (spec.in_c, spec.out_c);
            let (oh, ow) = spec.out_hw(h, w);
            let x = rng.randn_tensor(&[n, c, h, w], 1.0);
            let wt = rng.randn_tensor(&[f, c, spec.k, spec.k], 0.5);
            let dout = rng.randn_tensor(&[n, f, oh, ow], 1.0);
            let (dx, _, _) = conv2d_backward(&x, &wt, &dout, &spec);
            let want = dilated_dx(&x, &wt, &dout, &spec);
            if f * spec.k * spec.k <= KC {
                assert_eq!(dx.as_slice(), want, "{spec:?}");
            } else {
                for (got, want) in dx.as_slice().iter().zip(&want) {
                    assert!((got - want).abs() <= 1e-5 * (1.0 + want.abs()), "{spec:?}");
                }
            }
        }
    }

    /// Puts ±∞ and NaN on the borders of every plane of `t` — next to the
    /// padding, and in the columns the lanes past an output row read.
    fn poison(t: &mut Tensor) {
        let &[.., rows, cols] = t.shape().dims() else { unreachable!("a 4-d tensor") };
        for (i, plane) in t.as_mut_slice().chunks_exact_mut(rows * cols).enumerate() {
            let (y, x) = (i % rows, i % cols);
            plane[y * cols] = f32::NAN;
            plane[y * cols + cols - 1] = f32::INFINITY;
            plane[x] = -f32::NAN;
            plane[(rows - 1) * cols + x] = f32::NEG_INFINITY;
        }
    }

    /// `to_bits` of every element, with one bit pattern for every NaN:
    /// which NaN operand's sign an add or FMA passes on is the instruction
    /// encoding's choice, and Rust leaves it unspecified.
    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| if v.is_nan() { f32::NAN } else { *v }.to_bits()).collect()
    }

    /// Every `k ∈ {1,2,3,5}`, `s ∈ {1,2,3}`, `pad ∈ 0..4` — pad ≥ k gives a
    /// negative phase pad, k < s phases with no taps (the 1×1 stride-2
    /// projection) — plus KC slab splits in the forward and phase
    /// reductions, on a 7×10 input (`ow` 8, 10 and others), and an 18×18
    /// input with discarded lanes between its rows. `(spec, (h, w))`; case
    /// `i` runs at batch `1 + 2·(i mod 2)`.
    fn offset_cases() -> Vec<(Conv2dSpec, (usize, usize))> {
        let spec = |in_c, out_c, k, stride, pad| Conv2dSpec { in_c, out_c, k, stride, pad };
        let mut cases = vec![spec(29, 29, 3, 1, 1), spec(11, 29, 5, 2, 1), spec(29, 5, 3, 3, 3)];
        for k in [1, 2, 3, 5] {
            for s in [1, 2, 3] {
                cases.extend((0..4).map(|pad| spec(2, 3, k, s, pad)));
            }
        }
        let mut cases: Vec<_> = cases.into_iter().map(|c| (c, (7, 10))).collect();
        cases.push((spec(2, 3, 3, 1, 1), (18, 18)));
        cases
    }

    /// The offset-addressed products against the gathered panels they
    /// replaced, `to_bits`-equal over [`offset_cases`], at pool widths
    /// 1/2/4/8, once on finite data and once with ±∞ / NaN where padding
    /// and discarded grid lanes meet the image; `db` too.
    #[test]
    fn offset_products_are_bit_identical_to_the_gathered_panels() {
        let mut rng = SeedRng::new(18);
        let cases = offset_cases();
        assert!(cases.iter().any(|(c, _)| c.in_c * c.k * c.k > KC && c.out_c * 9 > KC));
        // A grid whose last panel runs past its last row.
        assert!(cases.iter().any(|&(c, (h, w))| {
            let ((oh, ow), reach) = (c.out_hw(h, w), (c.k - 1) / c.stride);
            oh * (ow + reach) % NR != 0
        }));
        let widths = [1, 2, 4, 8];
        let pools = widths.map(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap());
        for (i, (spec, (h, w))) in cases.iter().enumerate() {
            let (n, (h, w)) = (1 + 2 * (i % 2), (*h, *w));
            let (oh, ow) = spec.out_hw(h, w);
            for poisoned in [false, true] {
                let mut x = rng.randn_tensor(&[n, spec.in_c, h, w], 1.0);
                let wt = rng.randn_tensor(&[spec.out_c, spec.in_c, spec.k, spec.k], 0.5);
                let b = rng.randn_tensor(&[spec.out_c], 0.1);
                let mut dout = rng.randn_tensor(&[n, spec.out_c, oh, ow], 1.0);
                if poisoned {
                    poison(&mut x);
                    poison(&mut dout);
                }
                // db: per-image sums added in image order.
                let mut db = Tensor::zeros([spec.out_c]);
                for (j, plane) in dout.as_slice().chunks(oh * ow).enumerate() {
                    db.as_mut_slice()[j % spec.out_c] += plane.iter().sum::<f32>();
                }
                let want = [
                    gathered::forward(&x, &wt, Some(&b), spec),
                    gathered::backward_data(&x, &wt, &dout, spec),
                    db,
                ];
                for (width, pool) in widths.iter().zip(&pools) {
                    let (y, (dx, _, db)) = pool.install(|| {
                        (
                            conv2d_forward(&x, &wt, Some(&b), spec),
                            conv2d_backward(&x, &wt, &dout, spec),
                        )
                    });
                    for (got, want, what) in
                        [(y, &want[0], "y"), (dx, &want[1], "dx"), (db, &want[2], "db")]
                    {
                        let case =
                            format!("{spec:?} n {n} poisoned {poisoned} width {width}: {what}");
                        let (got, want) = (bits(&got), bits(want));
                        let first = got.iter().zip(&want).position(|(a, b)| a != b);
                        assert!(first.is_none(), "{case}: element {first:?}");
                    }
                }
            }
        }
    }

    /// dW against the f64 direct loop run over the input zero-padded
    /// beforehand (so a padding zero meets `dout` as it does in the dot
    /// products: `0·∞ = NaN`), through the portable body and the one this
    /// host dispatches to, over [`offset_cases`] — `ow` a multiple of 8 and
    /// not, spare filters and taps in a last block — finite and with ±∞ /
    /// NaN where padding meets the image, the dispatched body at pool
    /// widths 1/2/4/8 and bit-identical across them. The stated bound: an
    /// element of `m = n·oh·ow` terms is a lane chain of `⌈m/8⌉` steps, three
    /// levels of lane sum and the oracle's own rounding, so a finite one is
    /// within `(⌈m/8⌉ + 5)·2⁻²⁴·Σ|dout·x|` of the oracle (one step of slack
    /// for second-order terms); a non-finite one is of the oracle's class.
    #[test]
    fn dw_is_within_its_bound_of_the_f64_oracle() {
        let mut rng = SeedRng::new(19);
        let pools =
            [1, 2, 4, 8].map(|n| rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap());
        let abs = |t: &Tensor| {
            Tensor::from_vec(t.as_slice().iter().map(|v| v.abs()).collect(), t.shape().clone())
        };
        for (i, (spec, (h, w))) in offset_cases().into_iter().enumerate() {
            let (n, p) = (1 + 2 * (i % 2), spec.pad);
            let (oh, ow) = spec.out_hw(h, w);
            let terms = (n * oh * ow).div_ceil(8) + 5;
            for poisoned in [false, true] {
                let mut x = rng.randn_tensor(&[n, spec.in_c, h, w], 1.0);
                let wt = Tensor::zeros([spec.out_c, spec.in_c, spec.k, spec.k]);
                let mut dout = rng.randn_tensor(&[n, spec.out_c, oh, ow], 1.0);
                if poisoned {
                    poison(&mut x);
                    poison(&mut dout);
                }
                let mut xp = Tensor::zeros([n, spec.in_c, h + 2 * p, w + 2 * p]);
                for (j, row) in x.as_slice().chunks_exact(w).enumerate() {
                    let at = (j / h * (h + 2 * p) + j % h + p) * (w + 2 * p) + p;
                    xp.as_mut_slice()[at..at + w].copy_from_slice(row);
                }
                let flat = Conv2dSpec { pad: 0, ..spec };
                let want = conv2d_backward_reference(&xp, &wt, &dout, &flat).1;
                let mass = conv2d_backward_reference(&abs(&xp), &wt, &abs(&dout), &flat).1;
                let check = |got: &Tensor, what: &str| {
                    let elems = got.as_slice().iter().zip(want.as_slice()).zip(mass.as_slice());
                    for (e, ((g, o), m)) in elems.enumerate() {
                        let case = format!(
                            "{spec:?} n {n} poisoned {poisoned} {what}: dW[{e}] {g} vs {o}"
                        );
                        if o.is_nan() {
                            assert!(g.is_nan(), "{case}");
                        } else if o.is_infinite() {
                            assert_eq!(g, o, "{case}");
                        } else {
                            let bound = terms as f32 * f32::EPSILON / 2.0 * m;
                            assert!((g - o).abs() <= bound, "{case}: bound {bound}");
                        }
                    }
                };
                check(&backward_weight(&x, &wt, &dout, &spec, dots_portable).0, "portable");
                let one = pools[0].install(|| conv2d_backward_weight(&x, &wt, &dout, &spec).0);
                check(&one, "dispatched");
                for pool in &pools[1..] {
                    let at = pool.install(|| conv2d_backward_weight(&x, &wt, &dout, &spec).0);
                    assert_eq!(bits(&at), bits(&one), "{spec:?} n {n} poisoned {poisoned}");
                }
            }
        }
    }

    #[test]
    fn backward_data_is_adjoint_of_forward() {
        // <conv(x; W), y> == <x, dx(y; W)> for random x, y — the defining
        // property that makes the backward pass correct. Strided, padded,
        // non-square, with input rows no output touches.
        let mut rng = SeedRng::new(12);
        let spec = Conv2dSpec { in_c: 2, out_c: 3, k: 3, stride: 2, pad: 1 };
        let (n, h, w) = (2, 10, 7);
        let (oh, ow) = spec.out_hw(h, w);
        let x = rng.randn_tensor(&[n, 2, h, w], 1.0);
        let wt = rng.randn_tensor(&[3, 2, 3, 3], 0.5);
        let y = rng.randn_tensor(&[n, 3, oh, ow], 1.0);
        let lhs = dot(&conv2d_forward(&x, &wt, None, &spec), &y);
        let rhs = dot(&x, &conv2d_backward(&x, &wt, &y, &spec).0);
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn results_are_bit_identical_across_pool_widths() {
        let mut rng = SeedRng::new(16);
        for spec in [
            Conv2dSpec { in_c: 4, out_c: 8, k: 3, stride: 2, pad: 1 },
            Conv2dSpec { in_c: 16, out_c: 16, k: 3, stride: 1, pad: 1 },
        ] {
            let (oh, ow) = spec.out_hw(8, 8);
            let x = rng.randn_tensor(&[8, spec.in_c, 8, 8], 1.0);
            let wt = rng.randn_tensor(&[spec.out_c, spec.in_c, 3, 3], 0.5);
            let b = rng.randn_tensor(&[spec.out_c], 0.1);
            let dout = rng.randn_tensor(&[8, spec.out_c, oh, ow], 1.0);
            let at = |width: usize| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build().unwrap();
                pool.install(|| {
                    (
                        conv2d_forward(&x, &wt, Some(&b), &spec),
                        conv2d_backward(&x, &wt, &dout, &spec),
                        conv2d_backward_weight(&x, &wt, &dout, &spec),
                    )
                })
            };
            let one = at(1);
            let (_, (_, dw, db), weight_only) = &one;
            assert_eq!(weight_only, &(dw.clone(), db.clone()), "{spec:?}: weight-only product");
            for width in [2, 4, 8] {
                assert_eq!(at(width), one, "{spec:?} at width {width}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "conv kernel size 5 must be at least 1 and fit the padded input 4x9")]
    fn kernel_larger_than_the_padded_input_is_rejected() {
        let spec = Conv2dSpec { in_c: 1, out_c: 1, k: 5, stride: 1, pad: 1 };
        conv2d_forward(&Tensor::zeros([1, 1, 2, 7]), &Tensor::zeros([1, 1, 5, 5]), None, &spec);
    }

    #[test]
    #[should_panic(expected = "conv stride must be at least 1")]
    fn zero_stride_is_rejected() {
        let spec = Conv2dSpec { in_c: 1, out_c: 1, k: 3, stride: 0, pad: 1 };
        conv2d_forward(&Tensor::zeros([1, 1, 4, 4]), &Tensor::zeros([1, 1, 3, 3]), None, &spec);
    }

    #[test]
    #[should_panic(expected = "conv dout shape vs [N,F,OH,OW]")]
    fn mis_shaped_dout_is_rejected() {
        // One image too many: used to be sliced silently.
        let spec = Conv2dSpec { in_c: 1, out_c: 2, k: 3, stride: 1, pad: 1 };
        let (x, wt) = (Tensor::zeros([2, 1, 4, 4]), Tensor::zeros([2, 1, 3, 3]));
        conv2d_backward(&x, &wt, &Tensor::zeros([3, 2, 4, 4]), &spec);
    }

    #[test]
    fn conv_backward_finite_difference() {
        let mut rng = SeedRng::new(13);
        let spec = Conv2dSpec { in_c: 2, out_c: 2, k: 3, stride: 1, pad: 1 };
        let x = rng.randn_tensor(&[1, 2, 5, 5], 1.0);
        let wt = rng.randn_tensor(&[2, 2, 3, 3], 0.5);
        let b = rng.randn_tensor(&[2], 0.1);
        // Loss = sum(out * m) for a fixed random mask m → dout = m.
        let m = rng.randn_tensor(&[1, 2, 5, 5], 1.0);
        let loss = |x: &Tensor, wt: &Tensor, b: &Tensor| -> f64 {
            let o = conv2d_forward(x, wt, Some(b), &spec);
            o.as_slice().iter().zip(m.as_slice()).map(|(a, c)| (*a as f64) * (*c as f64)).sum()
        };
        let (dx, dw, db) = conv2d_backward(&x, &wt, &m, &spec);

        let eps = 1e-2f32;
        let check = |num: f32, ana: f32, what: &str, i: usize| {
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "{what}[{i}]: numeric {num} vs analytic {ana}"
            );
        };
        for i in [0usize, 7, 24, 49] {
            let mut tp = x.clone();
            tp.as_mut_slice()[i] += eps;
            let mut tm = x.clone();
            tm.as_mut_slice()[i] -= eps;
            let num = ((loss(&tp, &wt, &b) - loss(&tm, &wt, &b)) / (2.0 * eps as f64)) as f32;
            check(num, dx.as_slice()[i], "dx", i);
        }
        for i in [0usize, 5, 17, 35] {
            let mut tp = wt.clone();
            tp.as_mut_slice()[i] += eps;
            let mut tm = wt.clone();
            tm.as_mut_slice()[i] -= eps;
            let num = ((loss(&x, &tp, &b) - loss(&x, &tm, &b)) / (2.0 * eps as f64)) as f32;
            check(num, dw.as_slice()[i], "dw", i);
        }
        for i in [0usize, 1] {
            let mut tp = b.clone();
            tp.as_mut_slice()[i] += eps;
            let mut tm = b.clone();
            tm.as_mut_slice()[i] -= eps;
            let num = ((loss(&x, &wt, &tp) - loss(&x, &wt, &tm)) / (2.0 * eps as f64)) as f32;
            check(num, db.as_slice()[i], "db", i);
        }
    }
}
