//! Convolution as implicit GEMM: the packers read the image, not a copy.
//!
//! Layout conventions: activations are `[N, C, H, W]`, filters are
//! `[F, C, KH, KW]`, all row-major. A convolution is a matrix product
//! against the image's *patch matrix* — row `(c, ky, kx)`, column
//! `(oy, ox)`, entry `x[c, oy·stride + ky − pad, ox·stride + kx − pad]` or
//! zero outside the image — and that matrix is never built: [`Patches`] is
//! the coordinate map, and its two gathers copy image rows straight into
//! the k-major micro-panels [`Gemm::pack_b_with`] hands them. Padding costs
//! nothing: panels arrive zeroed and the gathers skip what falls outside.
//!
//! * **Forward** `y_i = W[F, C·K·K] · patches(x_i)`: the filter matrix is
//!   packed once per batch, the patch panels once per image. A panel is
//!   filled with exactly the values packing a materialised column matrix
//!   would put there and the descriptor is the same `nn`, so the output is
//!   bit-identical to that formulation (the unit tests keep it as their
//!   oracle).
//! * **dW** `dW_i = dout_i[F, OH·OW] · patches(x_i)ᵀ`: the same map read
//!   through the transposed gather, once per image; per-image partials are
//!   reduced sequentially in image order.
//! * **dx** `dx_i = W'[C, F·K·K] · patches'(dout_i)`: the backward-data
//!   product computed directly. `W'` is the filter matrix with `F`/`C`
//!   swapped and taps flipped, packed once per batch; `patches'` is the
//!   forward gather over `dout_i` dilated by the stride. Every `dx` element
//!   is one GEMM reduction over `(f, ky, kx)` written by the GEMM's store —
//!   nothing is zeroed and scattered into.
//!
//! Images are independent tasks and each output element is reduced by one
//! of them in the GEMM's fixed order, so results are bit-identical across
//! pool widths.

use crate::gemm::{Gemm, PackedA, PackedB, MR, NR};
use crate::par;
use crate::tensor::Tensor;

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

/// One image's patch matrix as a coordinate map (see the module docs): row
/// `(c, ky, kx)`, column `(oy, ox)` reads source element
/// `(c, (oy·stride + ky − pad) / dilate, (ox·stride + kx − pad) / dilate)`
/// where both quotients are exact and inside the `sh×sw` source, and is
/// zero elsewhere. The forward and `dW` products read `x` through it with
/// `dilate = 1`; the `dx` product reads `dout` with `stride = 1` and the
/// convolution's stride as `dilate`. One of the two is always 1, so along
/// an axis the outputs a tap reads lie `dilate` apart and their sources
/// `stride` apart.
struct Patches {
    k: usize,
    sh: usize,
    sw: usize,
    ow: usize,
    stride: usize,
    dilate: usize,
    pad: isize,
    /// Per kernel column `kx`: the output columns it reads. This is the
    /// map's division by `stride`, done once per call instead of once per
    /// panel row.
    xs: Vec<Reads>,
}

/// Outputs `first, first + dilate, .. < end` of one axis read sources
/// `src, src + stride, ..` (empty when `first == end`).
#[derive(Clone, Copy, Default)]
struct Reads {
    first: usize,
    end: usize,
    src: usize,
}

impl Patches {
    fn new(
        k: usize,
        (sh, sw): (usize, usize),
        ow: usize,
        stride: usize,
        dilate: usize,
        pad: isize,
    ) -> Self {
        debug_assert!(stride == 1 || dilate == 1);
        let mut p = Patches { k, sh, sw, ow, stride, dilate, pad, xs: Vec::new() };
        p.xs = (0..k)
            .map(|kx| {
                let mut hits = (0..ow).filter_map(|ox| Some((ox, p.source(ox, kx, sw)?)));
                match hits.next() {
                    Some((first, src)) => {
                        Reads { first, end: hits.next_back().map_or(first, |(ox, _)| ox) + 1, src }
                    }
                    None => Reads::default(),
                }
            })
            .collect();
        p
    }

    /// The map along one axis: the source coordinate (of `extent`) that
    /// output `o` reads through kernel offset `t`, if it reads one.
    fn source(&self, o: usize, t: usize, extent: usize) -> Option<usize> {
        let v = usize::try_from((o * self.stride + t) as isize - self.pad).ok()?;
        let s = match self.dilate {
            1 => v,
            d if v % d == 0 => v / d,
            _ => return None,
        };
        (s < extent).then_some(s)
    }

    /// The part of kernel column `kx`'s reads inside output columns
    /// `a..b`: `(first output, end, first source column)`.
    fn clip(&self, kx: usize, a: usize, b: usize) -> (usize, usize, usize) {
        let r = self.xs[kx];
        let before = a.saturating_sub(r.first);
        // No division on the undilated path: this runs once per copy.
        let skip = if self.dilate == 1 { before } else { before.div_ceil(self.dilate) };
        (r.first + skip * self.dilate, b.min(r.end), r.src + skip * self.stride)
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
    fn gather(&self, src: &[f32], p0: usize, j0: usize, cols: usize, ld: usize, out: &mut [f32]) {
        let (k, taps) = (self.k, out.len() / ld);
        for (oy, a, b, lane) in self.rows(j0, cols) {
            // Patch-matrix row `p` is tap `(c, ky, kx)`.
            let (mut c, mut ky, mut kx) = (p0 / (k * k), p0 / k % k, p0 % k);
            let mut t = 0;
            // One kernel row `(c, ky)` at a time: its taps share a source row.
            while t < taps {
                let n = (k - kx).min(taps - t);
                if let Some(sy) = self.source(oy, ky, self.sh) {
                    let row = &src[(c * self.sh + sy) * self.sw..][..self.sw];
                    for (dx, lanes) in out[t * ld..].chunks_exact_mut(ld).take(n).enumerate() {
                        let (lo, hi, sx) = self.clip(kx + dx, a, b);
                        if lo >= hi {
                            continue;
                        }
                        let (to, from) = (&mut lanes[lane + lo - a..lane + hi - a], &row[sx..]);
                        if self.stride != 1 || self.dilate != 1 {
                            let (mut d, mut s) = (0, 0);
                            while d < to.len() {
                                to[d] = from[s];
                                (d, s) = (d + self.dilate, s + self.stride);
                            }
                        } else {
                            to.copy_from_slice(&from[..to.len()]);
                        }
                    }
                }
                t += n;
                kx = 0;
                (ky, c) = if ky + 1 == k { (0, c + 1) } else { (ky + 1, c) };
            }
        }
    }

    /// Fills one `kc×NR` micro-panel of the *transposed* patch matrix:
    /// panel rows are output positions `p0..`, lanes are taps
    /// `j0..j0 + cols`. Image rows run along the panel's k axis here, so
    /// the block is gathered row-wise into `tile` (the caller's scratch, a
    /// panel's worth — L1-sized) and transposed four lanes at a time.
    fn gather_t(
        &self,
        src: &[f32],
        p0: usize,
        j0: usize,
        cols: usize,
        panel: &mut [f32],
        tile: &mut Vec<f32>,
    ) {
        let kc = panel.len() / NR;
        tile.clear();
        tile.resize(panel.len(), 0.0);
        self.gather(src, j0, p0, kc, kc, &mut tile[..cols * kc]);
        for (q, quad) in tile.chunks_exact(4 * kc).take(cols.div_ceil(4)).enumerate() {
            let (r0, r1, r2, r3) = (&quad[..kc], &quad[kc..], &quad[2 * kc..], &quad[3 * kc..]);
            let reads = r0.iter().zip(r1).zip(r2.iter().zip(r3));
            for (lanes, ((a, b), (c, d))) in panel.chunks_exact_mut(NR).zip(reads) {
                lanes[4 * q..4 * q + 4].copy_from_slice(&[*a, *b, *c, *d]);
            }
        }
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

    // Weight-stationary: the filter panels are packed once for the batch,
    // each image's patch panels once, straight from the image.
    let g = Gemm::nn(spec.out_c, spec.in_c * spec.k * spec.k, oh * ow);
    let pw = g.pack_a(weight.as_slice());
    let patches = Patches::new(spec.k, (h, w), ow, spec.stride, 1, spec.pad as isize);
    par::par_chunks_mut(out.as_mut_slice(), oimg_len, |i, oimg| {
        let ximg = &xs[i * img..][..img];
        let mut pb = PackedB::default();
        g.pack_b_with(&mut pb, |p0, j0, cols, panel| patches.gather(ximg, p0, j0, cols, NR, panel));
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

/// Backward convolution. Given upstream `dout[N,F,OH,OW]`, produces
/// `(dx, dweight, dbias)`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let (_, h, w, oh, ow) = spec.checked_dims(x, weight, None, Some(dout));
    let Conv2dSpec { in_c, out_c, k, stride, pad } = *spec;
    let (img, dimg_len) = (in_c * h * w, out_c * oh * ow);
    let (xs, ws, dos) = (x.as_slice(), weight.as_slice(), dout.as_slice());

    // Two products per image (module docs):
    //   dW_i[F, C·K·K] = dout_i[F, OH·OW] · patches(x_i)ᵀ       (nt)
    //   dx_i[C, H·W]   = W'[C, F·K·K] · patches'(dout_i)        (nn)
    // W'[c, (f, ky, kx)] = W[f, c, K−1−ky, K−1−kx] is packed once for the
    // batch; patches' reads dout_i dilated by the stride under padding
    // K−1−pad. dW/db need cross-image accumulation: every image's partial
    // is kept separate and reduced sequentially in image order below, so
    // the thread count cannot change the reduction grouping.
    let g_dw = Gemm::nt(out_c, oh * ow, in_c * k * k);
    let g_dx = Gemm::nn(in_c, out_c * k * k, h * w);
    let of_x = Patches::new(k, (h, w), ow, stride, 1, pad as isize);
    let of_dout = Patches::new(k, (oh, ow), w, 1, stride, k as isize - 1 - pad as isize);
    let mut pw = PackedA::default();
    g_dx.pack_a_with(&mut pw, |p0, c0, rows, panel| {
        for (kk, lanes) in panel.chunks_exact_mut(MR).enumerate() {
            let (f, flipped) = ((p0 + kk) / (k * k), k * k - 1 - (p0 + kk) % (k * k));
            for (c, d) in lanes[..rows].iter_mut().enumerate() {
                *d = ws[(f * in_c + c0 + c) * k * k + flipped];
            }
        }
    });

    let mut dx = Tensor::zeros(x.shape().clone());
    let partials = par::par_chunks_mut_map(dx.as_mut_slice(), img, |i, dximg| {
        let ximg = &xs[i * img..][..img];
        let dimg = &dos[i * dimg_len..][..dimg_len];
        let (mut pa, mut pb, mut tile) = (PackedA::default(), PackedB::default(), Vec::new());

        let mut dwi = vec![0.0f32; spec.weight_len()];
        g_dw.pack_a_into(dimg, &mut pa);
        g_dw.pack_b_with(&mut pb, |p0, j0, cols, panel| {
            of_x.gather_t(ximg, p0, j0, cols, panel, &mut tile);
        });
        g_dw.run_packed(&pa, &pb, &mut dwi, false);

        // db_i[f] = Σ dout_i[f, :]
        let dbi: Vec<f32> = dimg.chunks(oh * ow).map(|plane| plane.iter().sum()).collect();

        g_dx.pack_b_with(&mut pb, |p0, j0, cols, panel| {
            of_dout.gather(dimg, p0, j0, cols, NR, panel);
        });
        g_dx.run_packed(&pw, &pb, dximg, false);
        (dwi, dbi)
    });

    let mut dw_acc = vec![0.0f32; spec.weight_len()];
    let mut db_acc = vec![0.0f32; out_c];
    for (dwi, dbi) in partials {
        for (a, b) in dw_acc.iter_mut().zip(&dwi) {
            *a += b;
        }
        for (a, b) in db_acc.iter_mut().zip(&dbi) {
            *a += b;
        }
    }
    (dx, Tensor::from_vec(dw_acc, [out_c, in_c, k, k]), Tensor::from_vec(db_acc, [out_c]))
}

/// Direct (quadruple-loop) convolution used as a test oracle.
pub fn conv2d_reference(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    spec: &Conv2dSpec,
) -> Tensor {
    let d = x.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let mut out = Tensor::zeros([n, spec.out_c, oh, ow]);
    for i in 0..n {
        for f in 0..spec.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias.map(|b| b.as_slice()[f]).unwrap_or(0.0);
                    for ch in 0..c {
                        for ky in 0..spec.k {
                            for kx in 0..spec.k {
                                let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    acc += x.at(&[i, ch, iy as usize, ix as usize])
                                        * weight.at(&[f, ch, ky, kx]);
                                }
                            }
                        }
                    }
                    *out.at_mut(&[i, f, oy, ox]) = acc;
                }
            }
        }
    }
    out
}

/// Direct-loop backward convolution used as a test oracle: every
/// `(dx, dweight, dbias)` element accumulated in `f64` over the same loop
/// nest as [`conv2d_reference`] and rounded once.
pub fn conv2d_backward_reference(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor, Tensor) {
    let d = x.shape().dims();
    let (n, c, h, w) = (d[0], d[1], d[2], d[3]);
    let (oh, ow) = spec.out_hw(h, w);
    let mut dx = vec![0.0f64; x.numel()];
    let mut dw = vec![0.0f64; spec.weight_len()];
    let mut db = vec![0.0f64; spec.out_c];
    for i in 0..n {
        for (f, dbf) in db.iter_mut().enumerate() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dout.at(&[i, f, oy, ox]) as f64;
                    *dbf += g;
                    for ch in 0..c {
                        for ky in 0..spec.k {
                            for kx in 0..spec.k {
                                let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                    let xi = x.shape().linear(&[i, ch, iy as usize, ix as usize]);
                                    let wi = weight.shape().linear(&[f, ch, ky, kx]);
                                    dw[wi] += g * x.as_slice()[xi] as f64;
                                    dx[xi] += g * weight.as_slice()[wi] as f64;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    let round = |v: Vec<f64>| v.into_iter().map(|a| a as f32).collect::<Vec<f32>>();
    (
        Tensor::from_vec(round(dx), x.shape().clone()),
        Tensor::from_vec(round(dw), weight.shape().clone()),
        Tensor::from_vec(round(db), [spec.out_c]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::KC;
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

    /// Geometries the gathers must get right: `ow` a multiple of, below and
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
    /// the gathers fill the panels packing a column matrix fills, so the
    /// forward output and `dW`/`db` equal the materialising formulation bit
    /// for bit.
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
            let (_, dw, db) = conv2d_backward(&x, &wt, &dout, &spec);

            let g = Gemm::nn(f, ckk, oh * ow);
            let g_dw = Gemm::nt(f, oh * ow, ckk);
            let patches = Patches::new(spec.k, (h, w), ow, spec.stride, 1, spec.pad as isize);
            let pw = g.pack_a(wt.as_slice());
            let (mut dw_want, mut db_want) = (vec![0.0f32; f * ckk], vec![0.0f32; f]);
            for i in 0..n {
                let ximg = &x.as_slice()[i * c * h * w..][..c * h * w];
                let dimg = &dout.as_slice()[i * f * oh * ow..][..f * oh * ow];
                let col = im2col(ximg, c, h, w, &spec);

                let (mut pb, mut tile) = (PackedB::default(), Vec::new());
                g.pack_b_with(&mut pb, |p0, j0, cols, p| patches.gather(ximg, p0, j0, cols, NR, p));
                assert_eq!(pb, g.pack_b(&col), "{spec:?}: forward panels");
                let mut want = vec![0.0f32; f * oh * ow];
                g.run_packed(&pw, &pb, &mut want, false);
                for (plane, bf) in want.chunks_mut(oh * ow).zip(b.as_slice()) {
                    plane.iter_mut().for_each(|v| *v += bf);
                }
                assert_eq!(&y.as_slice()[i * f * oh * ow..][..f * oh * ow], want, "{spec:?}: y");

                g_dw.pack_b_with(&mut pb, |p0, j0, cols, p| {
                    patches.gather_t(ximg, p0, j0, cols, p, &mut tile)
                });
                assert_eq!(pb, g_dw.pack_b(&col), "{spec:?}: dW panels");
                let mut dwi = vec![0.0f32; f * ckk];
                g_dw.run_packed(&g_dw.pack_a(dimg), &pb, &mut dwi, false);
                dw_want.iter_mut().zip(&dwi).for_each(|(a, v)| *a += v);
                for (a, plane) in db_want.iter_mut().zip(dimg.chunks(oh * ow)) {
                    *a += plane.iter().sum::<f32>();
                }
            }
            assert_eq!(dw.as_slice(), dw_want, "{spec:?}: dW");
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
                    )
                })
            };
            let one = at(1);
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
