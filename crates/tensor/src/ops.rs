//! Elementwise, scalar and BLAS-1 style operations plus reductions.
//!
//! Kernels take and return [`Tensor`]s or operate on `&mut [f32]` slices;
//! the slice forms are what the optimizer and the gradient-compression
//! algorithms use on the flattened gradient vector.
//!
//! The transcendental kernels are slice kernels too: [`exp_in_place`],
//! and the LSTM's gate nonlinearities [`tanh_in_place`] and
//! [`sigmoid_in_place`] built on it, run one branch-free scalar body per
//! element (Cody–Waite reduction, Cephes degree-6 polynomial, 2ⁿ built in
//! the exponent bits), which LLVM vectorises at the baseline target — no
//! libm call per element. [`softmax_rows`] and the loss's
//! [`softmax_in_place`] run on the same `exp`. Contract, against an f64
//! reference wherever the result is a normal f32: `exp` ≤ 1 ulp, `tanh`
//! ≤ 2 ulp, `sigmoid` ≤ 3 ulp. NaN in gives NaN out; `exp(+∞) = +∞` and
//! `exp` saturates at e^−86.5 below −86.5 (never 0 or a subnormal);
//! `tanh(±∞) = ±1`, `tanh(−0) = −0` and `tanh` of a tiny `x` is `x`;
//! `sigmoid(+∞) = 1`, `sigmoid(−∞) = 0`. Only `*` and `+` are used (never
//! `mul_add`, and Rust does not contract), so the vector body and its
//! scalar remainder give the same bits for every element, whatever the
//! slice length.

use crate::par;
use crate::tensor::Tensor;

// ---------------------------------------------------------------------------
// Elementwise binary ops
// ---------------------------------------------------------------------------

fn zip_map(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    assert!(a.shape().same(b.shape()), "shape mismatch {} vs {}", a.shape(), b.shape());
    let mut out = vec![0.0f32; a.numel()];
    let (xa, xb) = (a.as_slice(), b.as_slice());
    for i in 0..out.len() {
        out[i] = f(xa[i], xb[i]);
    }
    Tensor::from_vec(out, a.shape().clone())
}

/// `a + b` elementwise.
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    zip_map(a, b, |x, y| x + y)
}

/// `a - b` elementwise.
pub fn sub(a: &Tensor, b: &Tensor) -> Tensor {
    zip_map(a, b, |x, y| x - y)
}

/// `a * b` elementwise (Hadamard).
pub fn mul(a: &Tensor, b: &Tensor) -> Tensor {
    zip_map(a, b, |x, y| x * y)
}

/// `a / b` elementwise.
pub fn div(a: &Tensor, b: &Tensor) -> Tensor {
    zip_map(a, b, |x, y| x / y)
}

// ---------------------------------------------------------------------------
// Scalar / map ops
// ---------------------------------------------------------------------------

/// `a * s` into a new tensor.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    map(a, |x| x * s)
}

/// Applies `f` elementwise into a new tensor.
pub fn map(a: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = a.as_slice().to_vec();
    for x in &mut out {
        *x = f(*x);
    }
    Tensor::from_vec(out, a.shape().clone())
}

// ---------------------------------------------------------------------------
// BLAS-1 slice kernels (used on flattened gradients — hot paths)
// ---------------------------------------------------------------------------

/// Dot product with f64 accumulation (parallel).
pub fn dot(x: &[f32], y: &[f32]) -> f64 {
    assert_eq!(x.len(), y.len());
    par::par_reduce_indexed(x.len(), 0.0f64, |lo, hi| {
        let mut acc = 0.0f64;
        for i in lo..hi {
            acc += x[i] as f64 * y[i] as f64;
        }
        acc
    })
}

/// Sum with f64 accumulation (parallel for large slices).
pub fn sum_f64(x: &[f32]) -> f64 {
    par::par_reduce_indexed(x.len(), 0.0f64, |lo, hi| {
        let mut acc = 0.0f64;
        for v in &x[lo..hi] {
            acc += *v as f64;
        }
        acc
    })
}

/// l2 norm with f64 accumulation.
pub fn norm2(x: &[f32]) -> f64 {
    dot(x, x).sqrt()
}

// ---------------------------------------------------------------------------
// Transcendental kernels (branch-free, vectorisable; see module docs)
// ---------------------------------------------------------------------------

/// `x ← eˣ` elementwise, ≤ 1 ulp where the result is a normal f32. Below
/// −86.5 it saturates at e^−86.5 ≈ 2.6·10⁻³⁸, the smallest value it
/// returns; above ln f32::MAX it is +∞.
pub fn exp_in_place(xs: &mut [f32]) {
    for x in xs {
        *x = exp(*x);
    }
}

/// `x ← tanh(x)` elementwise, ≤ 2 ulp.
pub fn tanh_in_place(xs: &mut [f32]) {
    for x in xs {
        *x = tanh(*x);
    }
}

/// `x ← 1 / (1 + e⁻ˣ)` elementwise, ≤ 3 ulp where the result is normal.
pub fn sigmoid_in_place(xs: &mut [f32]) {
    for x in xs {
        *x = sigmoid(*x);
    }
}

/// 1.5·2²³: adding it rounds any |v| < 2²² to the nearest integer n, which
/// then sits in the low mantissa bits — `ROUND.to_bits() + n`.
pub(crate) const ROUND: f32 = 12_582_912.0;
/// ln 2 = `LN2_HI + LN2_LO`; `LN2_HI` is 355/512 (9 significant bits), so
/// `n·LN2_HI` is exact for every |n| ≤ 128. The polynomial coefficients are
/// Cephes' `expf` / `tanhf` ones, written as the shortest literal that
/// rounds to the same f32.
pub(crate) const LN2_HI: f32 = 0.693_359_4;
pub(crate) const LN2_LO: f32 = -2.121_944_4e-4;

/// `eˣ` for x in [−86.5, 89]: clamped there (so eˣ saturates at e^−86.5
/// below and is +∞ above ln f32::MAX), NaN passes through. x = n·ln2 + r
/// with |r| ≤ ln2/2 (ln2 split hi + lo so n·hi is exact), eʳ by Cephes'
/// `expf` polynomial, then ·2ⁿ as ·2·2ⁿ⁻¹: n ∈ [−125, 128] keeps 2ⁿ⁻¹
/// normal, built by moving n + 126 into the exponent field — an integer
/// subtract and shift where `as i32` would saturate and not vectorise.
#[inline(always)]
fn exp(x: f32) -> f32 {
    let x = if x < -86.5 { -86.5 } else { x };
    let x = if x > 89.0 { 89.0 } else { x };
    let nb = x * std::f32::consts::LOG2_E + ROUND;
    let n = nb - ROUND;
    let r = x - n * LN2_HI - n * LN2_LO;
    let p = (((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_6e-1)
        * r
        + 0.5)
        * (r * r)
        + r
        + 1.0;
    let scale = f32::from_bits(nb.to_bits().wrapping_sub(ROUND.to_bits() - 126) << 23);
    p * 2.0 * scale
}

/// Cephes' `tanhf` on |x|, sign restored last (which is what makes
/// `tanh(−0) = −0`): an odd polynomial below 0.625, `1 − 2/(e^{2|x|} + 1)`
/// above, where the subtraction no longer cancels.
#[inline(always)]
fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let small =
        ((((-5.704_988_7e-3 * z + 2.063_908_8e-2) * z - 5.373_971_5e-2) * z + 1.333_144_2e-1) * z
            - 3.333_328e-1)
            * z
            * a
            + a;
    let large = 1.0 - 2.0 / (exp(2.0 * a) + 1.0);
    (if a < 0.625 { small } else { large }).copysign(x)
}

#[inline(always)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

// ---------------------------------------------------------------------------
// Reductions over tensors
// ---------------------------------------------------------------------------

/// Sum of all elements.
pub fn sum(a: &Tensor) -> f32 {
    sum_f64(a.as_slice()) as f32
}

/// Mean of all elements (0 for empty tensors).
pub fn mean(a: &Tensor) -> f32 {
    if a.numel() == 0 {
        0.0
    } else {
        (sum_f64(a.as_slice()) / a.numel() as f64) as f32
    }
}

/// Maximum element (−∞ for empty tensors).
pub fn max(a: &Tensor) -> f32 {
    a.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// Numerically-stable row-wise softmax of a rank-2 tensor.
pub fn softmax_rows(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2);
    let mut out = a.clone();
    softmax_rows_in_place(out.as_mut_slice(), a.shape().dim(1));
    out
}

/// Largest element, NaNs skipped, in eight lanes (max is order-free).
fn row_max(row: &[f32]) -> f32 {
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for ch in &mut chunks {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l = l.max(v);
        }
    }
    let m = chunks.remainder().iter().copied().fold(f32::NEG_INFINITY, f32::max);
    lanes.into_iter().fold(m, f32::max)
}

/// Row-wise softmax of a row-major `[rows, cols]` buffer in place:
/// `x ← e^{x − max} / Σ e^{x − max}` per row, each sum accumulated in f64
/// in index order and its inverse rounded to f32 once. The exponentials
/// are [`exp_in_place`]'s kernel, so an entry more than 86.5 below its
/// row's maximum gets e^−86.5 · inverse, not 0.
pub fn softmax_rows_in_place(x: &mut [f32], cols: usize) {
    if cols == 0 {
        return;
    }
    for block in x.chunks_mut(4 * cols) {
        for row in block.chunks_exact_mut(cols) {
            let m = row_max(row);
            for v in row.iter_mut() {
                *v = exp(*v - m);
            }
        }
        // Four rows' sums at once: independent chains, each in order.
        let mut z = [0.0f64; 4];
        if block.len() == 4 * cols {
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            for j in 0..cols {
                z[0] += r0[j] as f64;
                z[1] += r1[j] as f64;
                z[2] += r2[j] as f64;
                z[3] += r3[j] as f64;
            }
        } else {
            for (z, row) in z.iter_mut().zip(block.chunks_exact(cols)) {
                *z = row.iter().map(|&e| e as f64).sum();
            }
        }
        for (row, z) in block.chunks_exact_mut(cols).zip(z) {
            let inv = (1.0 / z) as f32;
            for v in row {
                *v *= inv;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), [v.len()])
    }

    #[test]
    fn elementwise_basic() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(add(&a, &b).as_slice(), &[5.0, 7.0, 9.0]);
        assert_eq!(sub(&b, &a).as_slice(), &[3.0, 3.0, 3.0]);
        assert_eq!(mul(&a, &b).as_slice(), &[4.0, 10.0, 18.0]);
        assert_eq!(div(&b, &a).as_slice(), &[4.0, 2.5, 2.0]);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let _ = add(&t(&[1.0]), &t(&[1.0, 2.0]));
    }

    /// |got − want| in units in the last place of `want` as an f32 (the
    /// spacing of the binade `want` lies in).
    fn ulps(got: f32, want: f64) -> f64 {
        let binade = ((want.abs().to_bits() >> 52) as i32) - 1023;
        (got as f64 - want).abs() / 2f64.powi(binade - 23)
    }

    fn tanh_ref(x: f64) -> f64 {
        x.tanh()
    }

    fn sigmoid_ref(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Runs the slice kernel `f` over `xs` in one call and returns the
    /// largest ulp error against `reference` over the results that are
    /// normal f32s, with the input it occurred at.
    fn max_ulps(f: fn(&mut [f32]), reference: fn(f64) -> f64, xs: Vec<f32>) -> (f64, f32) {
        let mut ys = xs.clone();
        f(&mut ys);
        let mut worst = (0.0f64, 0.0f32);
        for (&x, &y) in xs.iter().zip(&ys) {
            let want = reference(x as f64);
            if want.abs() >= f32::MIN_POSITIVE as f64 && want.abs() <= f32::MAX as f64 {
                let e = ulps(y, want);
                if e.is_nan() || e > worst.0 {
                    worst = (e, x);
                }
            }
        }
        worst
    }

    /// Every `stride`-th f32 bit pattern from `lo` up to `hi` (both ≥ 0),
    /// each with both signs.
    fn sweep(lo: f32, hi: f32, stride: usize) -> Vec<f32> {
        (lo.to_bits()..=hi.to_bits())
            .step_by(stride)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    #[test]
    fn gate_kernels_meet_their_ulp_bounds() {
        // ≈ 1 M patterns over every binade of the finite range, plus ≈ 1 M
        // dense in 2⁻¹²…20, where neither function is yet 0, ±1 or x.
        let mut xs = sweep(0.0, f32::MAX, 4099);
        xs.extend(sweep(2f32.powi(-12), 20.0, 257));
        assert!(xs.len() >= 1 << 21);
        let (t, tx) = max_ulps(tanh_in_place, tanh_ref, xs.clone());
        assert!(t <= 2.0, "tanh: {t} ulp at {tx:e}");
        let (s, sx) = max_ulps(sigmoid_in_place, sigmoid_ref, xs);
        assert!(s <= 3.0, "sigmoid: {s} ulp at {sx:e}");
    }

    /// `exp`'s contract, saturation included: e^max(x, −86.5).
    fn exp_ref(x: f64) -> f64 {
        x.max(-86.5).exp()
    }

    #[test]
    fn exp_in_place_is_within_one_ulp() {
        // Every 1021st pattern of ±[0, 86.5], densely up to ln f32::MAX,
        // and the saturated tail below −86.5 down to −f32::MAX.
        let mut xs = sweep(0.0, 86.5, 1021);
        xs.extend(sweep(86.5, 88.72, 7).into_iter().filter(|x| *x > 0.0));
        xs.extend(sweep(86.5, f32::MAX, 4099).into_iter().filter(|x| *x < 0.0));
        assert!(xs.len() >= 1 << 21);
        let (e, ex) = max_ulps(exp_in_place, exp_ref, xs);
        assert!(e <= 1.0, "exp: {e} ulp at {ex:e}");
    }

    #[test]
    fn exp_in_place_special_values() {
        let floor = (-86.5f64).exp() as f32;
        let mut e =
            [f32::NAN, f32::INFINITY, 89.0, 0.0, -0.0, -86.5, -87.0, -1e30, f32::NEG_INFINITY];
        exp_in_place(&mut e);
        assert!(e[0].is_nan());
        assert_eq!(e[1..3], [f32::INFINITY; 2]);
        assert_eq!(e[3..5], [1.0; 2]);
        // The saturation: a normal f32, the same from −86.5 down to −∞.
        assert!(e[5].is_normal() && ulps(e[5], (-86.5f64).exp()) <= 1.0, "{:e} vs {floor:e}", e[5]);
        assert_eq!(e[6..], [e[5]; 3]);
    }

    #[test]
    fn gate_kernels_special_values() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // Tiny x (down to a subnormal) is its own tanh, sign of zero kept.
        let mut t = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1e-30, -1e-40];
        tanh_in_place(&mut t);
        assert!(t[0].is_nan());
        assert_eq!(bits(&t[1..]), bits(&[1.0, -1.0, -0.0, 0.0, 1e-30, -1e-40]));
        let mut s = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, 200.0, -200.0];
        sigmoid_in_place(&mut s);
        assert!(s[0].is_nan());
        assert_eq!(s[1..], [1.0, 0.0, 0.5, 1.0, 0.0]);
    }

    #[test]
    fn gate_kernels_vector_body_and_remainder_agree() {
        // Every length 0..=67 covers an empty slice, remainders alone, and
        // vector bodies of every lane count up to 16 with each remainder.
        let mut rng = crate::rng::SeedRng::new(5);
        let base = rng.randn_tensor(&[67], 6.0).into_vec();
        for len in 0..=67 {
            let mut t = base[..len].to_vec();
            let mut s = t.clone();
            let mut e = t.clone();
            tanh_in_place(&mut t);
            sigmoid_in_place(&mut s);
            exp_in_place(&mut e);
            for (i, &x) in base[..len].iter().enumerate() {
                assert_eq!(t[i].to_bits(), tanh(x).to_bits(), "tanh len {len} i {i}");
                assert_eq!(s[i].to_bits(), sigmoid(x).to_bits(), "sigmoid len {len} i {i}");
                assert_eq!(e[i].to_bits(), exp(x).to_bits(), "exp len {len} i {i}");
            }
        }
    }

    /// Every finite f32, once (release build, about 100 s a function):
    /// `cargo test --release -p mini-tensor gate_kernels_exhaustive -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn gate_kernels_exhaustive() {
        let mut worst = [(0.0f64, 0.0f32); 3];
        for hi in 0..1u32 << 16 {
            let xs: Vec<f32> = (0..1u32 << 16)
                .map(|lo| f32::from_bits(hi << 16 | lo))
                .filter(|x| x.is_finite())
                .collect();
            for (w, (f, r)) in worst.iter_mut().zip([
                (tanh_in_place as fn(&mut [f32]), tanh_ref as fn(f64) -> f64),
                (sigmoid_in_place, sigmoid_ref),
                (exp_in_place, exp_ref),
            ]) {
                let m = max_ulps(f, r, xs.clone());
                if m.0 > w.0 {
                    *w = m;
                }
            }
        }
        println!(
            "tanh max {:.3} ulp at {:e}; sigmoid max {:.3} ulp at {:e}; exp max {:.3} ulp at {:e}",
            worst[0].0, worst[0].1, worst[1].0, worst[1].1, worst[2].0, worst[2].1
        );
        assert!(worst[0].0 <= 2.0 && worst[1].0 <= 3.0 && worst[2].0 <= 1.0);
    }

    #[test]
    fn dot_and_norm() {
        let x = vec![1.0f32; 10_000];
        let y = vec![2.0f32; 10_000];
        assert!((dot(&x, &y) - 20_000.0).abs() < 1e-6);
        assert!((norm2(&x) - 100.0).abs() < 1e-6);
    }

    #[test]
    fn mean_and_sum() {
        let a = t(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(sum(&a), 10.0);
        assert_eq!(mean(&a), 2.5);
        assert_eq!(mean(&Tensor::zeros([0])), 0.0);
    }

    #[test]
    fn softmax_rows_in_place_is_the_row_by_row_formula() {
        // Lane max and four-row sums change no bit: every row count up to
        // nine (full four-row blocks and each remainder), widths around
        // the eight lanes, and the lstm_qsgd head's 200.
        let mut rng = crate::rng::SeedRng::new(6);
        for cols in [1, 3, 7, 8, 9, 17, 200] {
            for rows in 0..=9 {
                let x = rng.randn_tensor(&[rows * cols], 4.0).into_vec();
                let mut got = x.clone();
                softmax_rows_in_place(&mut got, cols);
                for (i, row) in x.chunks(cols).enumerate() {
                    let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let e: Vec<f32> = row.iter().map(|&v| exp(v - m)).collect();
                    let mut z = 0.0f64;
                    for &e in &e {
                        z += e as f64;
                    }
                    let inv = (1.0 / z) as f32;
                    for (j, &e) in e.iter().enumerate() {
                        let want = e * inv;
                        assert_eq!(
                            got[i * cols + j].to_bits(),
                            want.to_bits(),
                            "{rows}x{cols} [{i}, {j}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_sums_to_one_and_is_stable() {
        let a = Tensor::from_vec(vec![1000.0, 1001.0, 999.0, -5.0, 0.0, 5.0], [2, 3]);
        let s = softmax_rows(&a);
        assert!(s.all_finite());
        for i in 0..2 {
            let row: f32 = s.as_slice()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row - 1.0).abs() < 1e-5);
        }
        // larger logit ⇒ larger probability
        assert!(s.at(&[0, 1]) > s.at(&[0, 0]));
    }
}
