//! The direct-loop convolution oracles, shared by `conv.rs`'s unit tests
//! (a `#[path]` module) and `proptests.rs`; each includer has
//! `Conv2dSpec` and `Tensor` in scope.

use super::{Conv2dSpec, Tensor};

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
