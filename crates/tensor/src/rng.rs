//! Seeded random number utilities.
//!
//! Every stochastic component in the workspace (init, data synthesis, QSGD
//! dithering, Rand-K selection) derives from an explicit seed so that whole
//! training runs are bit-reproducible — a requirement for the determinism
//! integration tests.
//!
//! Normals are Box–Muller, `z = √(−2 ln u₁)·cos 2πu₂`, on one uniform pair
//! per draw: `u₁ = ε + (1 − ε)·u` (exactly what `gen_range(ε..1)` returns)
//! and `u₂ = u`, for the stream's next two uniforms `u` in draw order.
//! [`SeedRng::randn`] applies the body to one pair and
//! [`SeedRng::fill_randn`] to a slice, drawing its uniforms in bulk through
//! [`SeedRng::fill_unit`]; the two give the same bits for the same stream.
//! The body is branch-free and calls no libm: `ln` splits exponent and
//! mantissa in the bits and runs Cephes' `logf` polynomial, `cos 2πu`
//! reduces `u` exactly to a quarter turn `n` (the 1.5·2²³ rounding trick)
//! plus `|r| ≤ 1/8` and picks Cephes' `sinf` or `cosf` polynomial at
//! `θ = 2πr` and the sign by the bits of `n`, and `√` is IEEE. Only `*`,
//! `+` and `sqrt` are used (never `mul_add`, and Rust does not contract),
//! so LLVM's vector body and its scalar remainder agree bit for bit.
//! Contract, against f64 over every value each uniform can take: `ln` ≤ 2
//! ulp and `cos 2πu` ≤ 2·10⁻⁷ absolute (all 2²⁴ values: 0.83 ulp and
//! 9.1·10⁻⁸), which keeps `z` within 10⁻⁶ of the f64 formula (5.5·10⁻⁷ over
//! 7.5 M draws, where the libm body this replaced was 1.7·10⁻⁶ off).

use crate::ops::{LN2_HI, LN2_LO, ROUND};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seedable RNG wrapper with tensor-producing helpers.
pub struct SeedRng {
    rng: StdRng,
}

impl SeedRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SeedRng { rng: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child stream; `tag` distinguishes purposes
    /// (e.g. per-worker, per-layer) without correlated streams.
    pub fn fork(&mut self, tag: u64) -> SeedRng {
        let s: u64 = self.rng.gen::<u64>() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SeedRng::new(s)
    }

    /// Standard normal sample (Box–Muller on the next two uniforms).
    pub fn randn(&mut self) -> f32 {
        let mut u = [0.0f32; 2];
        self.fill_unit(&mut u);
        normal(u[0], u[1])
    }

    /// Fills `out` with standard normals: the values `out.len()` calls of
    /// [`Self::randn`] would return, bit for bit, leaving the stream where
    /// they would. Uniforms are drawn 256 pairs at a time.
    pub fn fill_randn(&mut self, out: &mut [f32]) {
        let mut u = [0.0f32; 2 * RANDN_CHUNK];
        for zs in out.chunks_mut(RANDN_CHUNK) {
            let u = &mut u[..2 * zs.len()];
            self.fill_unit(u);
            for (z, p) in zs.iter_mut().zip(u.chunks_exact(2)) {
                *z = normal(p[0], p[1]);
            }
        }
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }

    /// Bernoulli with probability `p`.
    pub fn flip(&mut self, p: f32) -> bool {
        self.rng.gen::<f32>() < p
    }

    /// The next `out.len()` uniforms in `[0, 1)`, in order: the draws
    /// [`Self::flip`] compares against, so `flip(p)` ≡ `u < p` on the same
    /// stream.
    pub fn fill_unit(&mut self, out: &mut [f32]) {
        for u in out {
            *u = self.rng.gen::<f32>();
        }
    }

    /// Raw u64.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Tensor of i.i.d. N(0, σ²) samples.
    pub fn randn_tensor(&mut self, dims: &[usize], sigma: f32) -> Tensor {
        let shape = Shape::new(dims);
        let mut data = vec![0.0f32; shape.numel()];
        self.fill_randn(&mut data);
        for v in &mut data {
            *v *= sigma;
        }
        Tensor::from_vec(data, shape)
    }

    /// Tensor of i.i.d. U(lo, hi) samples.
    pub fn uniform_tensor(&mut self, dims: &[usize], lo: f32, hi: f32) -> Tensor {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(|_| self.uniform(lo, hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            xs.swap(i, j);
        }
    }
}

/// Normals [`SeedRng::fill_randn`] makes per batch of uniforms.
const RANDN_CHUNK: usize = 256;

/// The normal made from the raw uniform pair `(u, u2)`: `u₁ = ε + (1 − ε)·u`
/// is `gen_range(ε..1)`'s value for `u` (at most 1 − 2⁻²⁴, so its rejection
/// loop never fires) and `gen_range(0..1)` returns `u2` itself.
#[inline(always)]
fn normal(u: f32, u2: f32) -> f32 {
    box_muller(f32::EPSILON + (1.0 - f32::EPSILON) * u, u2)
}

/// `√(−2 ln u₁)·cos 2πu₂` for `u₁` in `[2⁻²³, 1)` and `u₂` in `[0, 1)`.
#[inline(always)]
fn box_muller(u1: f32, u2: f32) -> f32 {
    (-2.0 * ln(u1)).sqrt() * cos_2pi(u2)
}

/// `ln x` for a normal `x > 0`, ≤ 2 ulp. `x = 2ᵏ·m` with `m` in `[√½, √2)`:
/// adding `1 − √½` in the bits carries into the exponent exactly when the
/// mantissa reaches √2 (musl's split), so `k` is the exponent field and `m`
/// the mantissa put back over √½. Then Cephes' `logf`: `f = m − 1`,
/// `ln m = f − f²/2 + f³·P(f)`, and `k·ln 2` added as `k·LN2_LO` before and
/// `k·LN2_HI` (exact for |k| ≤ 128) after.
#[inline(always)]
fn ln(x: f32) -> f32 {
    const SQRT_HALF: u32 = 0x3f35_04f3;
    let ix = x.to_bits().wrapping_add(1f32.to_bits() - SQRT_HALF);
    let k = ((ix >> 23) as i32 - 127) as f32;
    let f = f32::from_bits((ix & 0x007f_ffff) + SQRT_HALF) - 1.0;
    let z = f * f;
    let p = (((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_84e-1) * f
        - 1.242_014_1e-1)
        * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_7e-1)
        * f
        + 2.000_071_4e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333e-1;
    let y = p * f * z + k * LN2_LO - 0.5 * z;
    f + y + k * LN2_HI
}

/// `cos 2πu` for `u` in `[0, 1)`, within 2·10⁻⁷. `u = n/4 + r` exactly:
/// `n` is `4u` rounded by the 1.5·2²³ trick, so it also sits in the low
/// bits of `nb`, and `|r| ≤ 1/8`. With `θ = 2πr`, `cos 2πu` is `cos θ`,
/// `−sin θ`, `−cos θ`, `sin θ` for `n mod 4 = 0, 1, 2, 3`: bit 0 of `n`
/// selects Cephes' `sinf` over its `cosf` polynomial (both on |θ| ≤ π/4)
/// and the sign bit is set for `n mod 4` in {1, 2}.
#[inline(always)]
fn cos_2pi(u: f32) -> f32 {
    let nb = 4.0 * u + ROUND;
    let r = u - 0.25 * (nb - ROUND);
    let t = r * std::f32::consts::TAU;
    let z = t * t;
    let sin = ((-1.951_529_6e-4 * z + 8.332_161e-3) * z - 1.666_665_5e-1) * z * t + t;
    let cos = ((2.443_315_7e-5 * z - 1.388_731_6e-3) * z + 4.166_664_6e-2) * z * z - 0.5 * z + 1.0;
    let n = nb.to_bits();
    let pick_sin = (n & 1).wrapping_neg();
    let sign = ((n + 1) & 2) << 30;
    f32::from_bits((cos.to_bits() & !pick_sin | sin.to_bits() & pick_sin) ^ sign)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The body this module had before the branch-free kernels: two
    /// `gen_range` draws, then libm `logf`, `sqrtf` and `cosf`. Kept only
    /// as the oracle the new draws are held to.
    fn randn_libm(rng: &mut StdRng) -> f32 {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// |got − want| in units in the last place of `want` as an f32.
    fn ulps(got: f32, want: f64) -> f64 {
        let binade = ((want.abs().to_bits() >> 52) as i32) - 1023;
        (got as f64 - want).abs() / 2f64.powi(binade - 23)
    }

    /// Worst `ln` error in ulp and worst `cos 2πu` error, absolute, against
    /// f64 over every `stride`-th value the uniforms can take (`k/2²⁴`,
    /// and `u₁ = ε + (1 − ε)·k/2²⁴`), the largest included; each with the
    /// uniform it occurred at.
    fn factor_errors(stride: usize) -> [(f64, f32); 2] {
        let mut worst = [(0.0f64, 0.0f32); 2];
        let top = (1u32 << 24) - 1;
        for k in (0..top).step_by(stride).chain([top]) {
            let u = k as f32 * (1.0 / (1u32 << 24) as f32);
            let u1 = f32::EPSILON + (1.0 - f32::EPSILON) * u;
            let e_ln = ulps(ln(u1), (u1 as f64).ln());
            let e_cos = (cos_2pi(u) as f64 - (std::f64::consts::TAU * u as f64).cos()).abs();
            for (w, (e, at)) in worst.iter_mut().zip([(e_ln, u1), (e_cos, u)]) {
                if e.is_nan() || e > w.0 {
                    *w = (e, at);
                }
            }
        }
        worst
    }

    #[test]
    fn box_muller_factors_meet_their_bounds() {
        let stride = if cfg!(debug_assertions) { 251 } else { 7 };
        let [(l, lu), (c, cu)] = factor_errors(stride);
        assert!(l <= 2.0, "ln: {l} ulp at {lu:e}");
        assert!(c <= 2e-7, "cos 2πu: {c:e} at {cu:e}");
    }

    /// Every value of both uniforms (release build, a few seconds):
    /// `cargo test --release -p mini-tensor box_muller_factors_exhaustive -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn box_muller_factors_exhaustive() {
        let [(l, lu), (c, cu)] = factor_errors(1);
        println!("ln max {l:.3} ulp at {lu:e}; cos 2πu max {c:.3e} at {cu:e}");
        assert!(l <= 2.0 && c <= 2e-7);
    }

    #[test]
    fn randn_and_fill_randn_give_the_same_bits() {
        // Lengths 0..=600 cross two chunk boundaries and leave every
        // remainder a vector body can have.
        for len in 0..=600 {
            let mut one = SeedRng::new(77 + len as u64);
            let mut bulk = SeedRng::new(77 + len as u64);
            let want: Vec<u32> = (0..len).map(|_| one.randn().to_bits()).collect();
            let mut got = vec![0.0f32; len];
            bulk.fill_randn(&mut got);
            assert_eq!(got.iter().map(|z| z.to_bits()).collect::<Vec<_>>(), want, "len {len}");
            assert_eq!(one.next_u64(), bulk.next_u64(), "stream position after len {len}");
        }
    }

    #[test]
    fn uniform_pairs_are_the_old_gen_range_pairs() {
        let mut old = StdRng::seed_from_u64(31);
        let mut new = SeedRng::new(31);
        let mut u = vec![0.0f32; 2 * 50_000];
        new.fill_unit(&mut u);
        for p in u.chunks_exact(2) {
            let u1: f32 = old.gen_range(f32::EPSILON..1.0);
            let u2: f32 = old.gen_range(0.0..1.0);
            assert_eq!(normal(p[0], p[1]).to_bits(), box_muller(u1, u2).to_bits());
        }
        // The largest uniform maps below 1: `gen_range`'s rejection loop
        // never fires, so it draws exactly two words a pair.
        let top = 1.0 - 1.0 / (1u32 << 24) as f32;
        assert!(f32::EPSILON + (1.0 - f32::EPSILON) * top < 1.0);
    }

    #[test]
    fn draws_stay_within_2e_6_of_libm_and_1e_6_of_f64() {
        let mut old = StdRng::seed_from_u64(2024);
        let mut new = SeedRng::new(2024);
        let mut u = vec![0.0f32; 2 * 200_000];
        new.fill_unit(&mut u);
        let (mut d_libm, mut d_f64) = (0.0f64, 0.0f64);
        for p in u.chunks_exact(2) {
            let z = normal(p[0], p[1]);
            let u1 = f32::EPSILON + (1.0 - f32::EPSILON) * p[0];
            let exact =
                (-2.0 * (u1 as f64).ln()).sqrt() * (std::f64::consts::TAU * p[1] as f64).cos();
            d_libm = d_libm.max((z - randn_libm(&mut old)).abs() as f64);
            d_f64 = d_f64.max((z as f64 - exact).abs());
        }
        assert!(d_libm <= 2e-6, "max |z − z_libm| = {d_libm:e}");
        assert!(d_f64 <= 1e-6, "max |z − z_f64| = {d_f64:e}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<f32> = {
            let mut r = SeedRng::new(42);
            (0..100).map(|_| r.randn()).collect()
        };
        let b: Vec<f32> = {
            let mut r = SeedRng::new(42);
            (0..100).map(|_| r.randn()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut r1 = SeedRng::new(1);
        let mut r2 = SeedRng::new(2);
        let a: Vec<f32> = (0..32).map(|_| r1.randn()).collect();
        let b: Vec<f32> = (0..32).map(|_| r2.randn()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn randn_moments_roughly_standard() {
        let mut r = SeedRng::new(123);
        let n = 200_000;
        let xs: Vec<f32> = (0..n).map(|_| r.randn()).collect();
        let mean: f64 = xs.iter().map(|v| *v as f64).sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut parent1 = SeedRng::new(9);
        let mut parent2 = SeedRng::new(9);
        let mut c1 = parent1.fork(3);
        let mut c2 = parent2.fork(3);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut c3 = parent1.fork(4);
        assert_ne!(c1.next_u64(), c3.next_u64());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SeedRng::new(5);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
