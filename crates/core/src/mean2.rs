//! Two-level averaging kernels (paper §3.1): Algorithm 1 as
//! **split → exchange → shift**.
//!
//! For a gradient `v ∈ Rⁿ`:
//! `µ+(v) = E[v_i | v_i ≥ 0]`, `µ−(v) = E[|v_i| | v_i < 0]`, and
//! `enc(v) = pos(v)·µ+ − neg(v)·µ−` where `pos`/`neg` are indicator
//! vectors. Algorithm 1 keeps the local error `ε = g − enc(g)` (line 4),
//! exchanges the two means (line 5) and applies `g ← ε + pos(g)·µ̄+ −
//! neg(g)·µ̄−` (line 6). Lines 4 and 6 use the *same* sign pattern of the
//! *untouched* g, so they fuse into one per-class shift
//! `g_i ← g_i + (µ̄+ − µ+)` for `g_i ≥ 0`, `g_i ← g_i − (µ̄− − µ−)`
//! otherwise: ε is never materialised and no sign mask is stored. A round
//! is two sweeps over g — [`split_means`], then (after the 64-bit
//! exchange) [`shift_by_sign`] — and neither inner loop branches on a
//! gradient coordinate's sign (a coin flip no predictor learns).
//!
//! Both sweeps classify with `v >= 0.0`: `-0.0` is positive, NaN is
//! negative (and poisons `µ−`).

use mini_tensor::par;

/// The two local averages plus their population counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoMeans {
    /// Mean of non-negative entries (0 when there are none).
    pub mu_pos: f32,
    /// Mean of |negative entries| (0 when there are none).
    pub mu_neg: f32,
    /// Count of non-negative entries.
    pub n_pos: usize,
    /// Count of negative entries.
    pub n_neg: usize,
}

impl TwoMeans {
    /// The per-class shifts `(d_pos, d_neg)` that move a gradient from
    /// these local means to the global pair `(µ̄+, µ̄−)` — the arguments of
    /// [`shift_by_sign`]. Both are exactly 0 when the global means equal
    /// the local ones.
    pub fn shift_to(&self, gmu_pos: f32, gmu_neg: f32) -> (f32, f32) {
        (gmu_pos - self.mu_pos, self.mu_neg - gmu_neg)
    }
}

/// Class sums of one slice: `Σ v` over `v ≥ 0`, `Σ −v` over the rest, and
/// the size of the first class.
#[derive(Clone, Copy)]
struct ClassSums {
    pos: f64,
    neg: f64,
    n_pos: usize,
}

impl ClassSums {
    const ZERO: ClassSums = ClassSums { pos: 0.0, neg: 0.0, n_pos: 0 };
}

impl std::ops::Add for ClassSums {
    type Output = ClassSums;
    fn add(self, o: ClassSums) -> ClassSums {
        ClassSums { pos: self.pos + o.pos, neg: self.neg + o.neg, n_pos: self.n_pos + o.n_pos }
    }
}

/// Independent accumulator lanes per block (four SSE / two AVX vectors).
const LANES: usize = 16;
/// Elements per block: each f32 lane takes `BLOCK / LANES = 8` same-signed
/// addends before it is widened to f64, so a lane's relative error stays
/// under 7·2⁻²⁴ whatever the slice length.
const BLOCK: usize = 128;

/// Select-style class sums: every element feeds both classes (its value
/// or 0), so the loop body is compare + mask + add with no branch on the
/// data, and the fixed lane/block shape makes the result a pure function
/// of the slice, on whichever copy of the body the GEMM's probe picks.
fn class_sums(g: &[f32]) -> ClassSums {
    #[cfg(target_arch = "x86_64")]
    if mini_tensor::gemm::avx2_fma_available() {
        // SAFETY: the CPU has avx2 and fma (checked above).
        return unsafe { class_sums_avx2(g) };
    }
    class_sums_body(g)
}

/// [`class_sums_body`] for 256-bit vectors; the CPU must have avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn class_sums_avx2(g: &[f32]) -> ClassSums {
    class_sums_body(g)
}

/// The one body: portable where called directly, AVX2 in [`class_sums_avx2`].
/// Rust never reassociates or contracts floats, so both give the same bits.
#[inline(always)]
fn class_sums_body(g: &[f32]) -> ClassSums {
    let mut acc = ClassSums::ZERO;
    let mut blocks = g.chunks_exact(BLOCK);
    for block in &mut blocks {
        let mut pos = [0.0f32; LANES];
        let mut neg = [0.0f32; LANES];
        let mut cnt = [0u32; LANES];
        for row in block.chunks_exact(LANES) {
            let row: &[f32; LANES] = row.try_into().expect("chunks_exact(LANES) row");
            for l in 0..LANES {
                let v = row[l];
                let p = v >= 0.0;
                pos[l] += if p { v } else { 0.0 };
                neg[l] += if p { 0.0 } else { -v };
                cnt[l] += p as u32;
            }
        }
        let mut b = ClassSums::ZERO;
        for l in 0..LANES {
            b.pos += pos[l] as f64;
            b.neg += neg[l] as f64;
            b.n_pos += cnt[l] as usize;
        }
        acc = acc + b;
    }
    tail(&mut acc, blocks.remainder());
    acc
}

/// The scalar tail. Written inline in the block loop's body, it makes the
/// AVX2 copy spill its accumulators to the stack (≈ 15 % slower).
#[inline(always)]
fn tail(acc: &mut ClassSums, rest: &[f32]) {
    for &v in rest {
        let p = v >= 0.0;
        acc.pos += if p { v as f64 } else { 0.0 };
        acc.neg += if p { 0.0 } else { -v as f64 };
        acc.n_pos += p as usize;
    }
}

/// Computes `µ+` and `µ−` in one parallel pass. Partials are taken over
/// fixed [`par::PAR_CHUNK`] windows and combined in window order, so the
/// result is bit-identical for every pool width.
pub fn split_means(g: &[f32]) -> TwoMeans {
    let acc = par::par_reduce_indexed(g.len(), ClassSums::ZERO, |lo, hi| class_sums(&g[lo..hi]));
    let n_neg = g.len() - acc.n_pos;
    TwoMeans {
        mu_pos: if acc.n_pos > 0 { (acc.pos / acc.n_pos as f64) as f32 } else { 0.0 },
        mu_neg: if n_neg > 0 { (acc.neg / n_neg as f64) as f32 } else { 0.0 },
        n_pos: acc.n_pos,
        n_neg,
    }
}

/// A sweep's window: all of `n` below [`par::PAR_THRESHOLD`], else [`par::PAR_CHUNK`].
/// Each is a slice loop with its scalars in locals, so it vectorises.
fn window(n: usize) -> usize {
    if n < par::PAR_THRESHOLD {
        n
    } else {
        par::PAR_CHUNK
    }
}

/// Writes `enc(g)` into `out` given the two means.
pub fn enc_into(g: &[f32], means: &TwoMeans, out: &mut [f32]) {
    assert_eq!(g.len(), out.len());
    let (w, pos, neg) = (window(g.len()), means.mu_pos, -means.mu_neg);
    par::par_chunks_mut(out, w, |i, out| {
        let (pos, neg) = (pos, neg); // locals: no store below can alias them
        for (o, &v) in out.iter_mut().zip(&g[i * w..]) {
            *o = if v >= 0.0 { pos } else { neg };
        }
    });
}

/// Algorithm 1 lines 4 and 6 fused: `g_i ← g_i + d_pos` where `g_i ≥ 0`,
/// `g_i ← g_i + d_neg` elsewhere, classifying on the value *before* the
/// shift (see [`TwoMeans::shift_to`] for the shifts of a sync round).
pub fn shift_by_sign(g: &mut [f32], d_pos: f32, d_neg: f32) {
    par::par_chunks_mut(g, window(g.len()), |_, g| {
        let (d_pos, d_neg) = (d_pos, d_neg); // locals, as in `enc_into`
        for v in g {
            *v += if *v >= 0.0 { d_pos } else { d_neg };
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn split_means_hand_case() {
        let g = [2.0f32, -1.0, 4.0, -3.0, 0.0];
        let m = split_means(&g);
        assert_eq!(m.n_pos, 3); // 2, 4, 0
        assert_eq!(m.n_neg, 2);
        assert!((m.mu_pos - 2.0).abs() < 1e-6);
        assert!((m.mu_neg - 2.0).abs() < 1e-6);
    }

    #[test]
    fn split_means_all_positive() {
        let m = split_means(&[1.0, 2.0, 3.0]);
        assert_eq!(m.n_neg, 0);
        assert_eq!(m.mu_neg, 0.0);
        assert!((m.mu_pos - 2.0).abs() < 1e-6);
    }

    #[test]
    fn split_means_empty() {
        let m = split_means(&[]);
        assert_eq!(m, TwoMeans { mu_pos: 0.0, mu_neg: 0.0, n_pos: 0, n_neg: 0 });
    }

    #[test]
    fn enc_uses_sign_pattern() {
        let g = [1.0f32, -2.0, 3.0];
        let m = split_means(&g); // µ+ = 2, µ− = 2
        let mut out = [0.0f32; 3];
        enc_into(&g, &m, &mut out);
        assert_eq!(out, [2.0, -2.0, 2.0]);
    }

    /// ε = g − enc(g), the vector the fused round never builds.
    fn residual(g: &[f32], m: &TwoMeans) -> Vec<f32> {
        let mut enc = vec![0.0f32; g.len()];
        enc_into(g, m, &mut enc);
        g.iter().zip(&enc).map(|(v, e)| v - e).collect()
    }

    #[test]
    fn residual_means_are_zero_per_side() {
        // Defining property: the residual sums to zero over each sign
        // class — the means absorb exactly the class averages.
        let mut rng = SeedRng::new(3);
        let g: Vec<f32> = (0..10_001).map(|_| rng.randn() * 0.3 + 0.01).collect();
        let m = split_means(&g);
        let eps = residual(&g, &m);
        let (mut pos_sum, mut neg_sum) = (0.0f64, 0.0f64);
        for (v, e) in g.iter().zip(&eps) {
            if *v >= 0.0 {
                pos_sum += *e as f64;
            } else {
                neg_sum += *e as f64;
            }
        }
        assert!(pos_sum.abs() / (m.n_pos.max(1) as f64) < 1e-6, "pos residual mean {pos_sum}");
        assert!(neg_sum.abs() / (m.n_neg.max(1) as f64) < 1e-6, "neg residual mean {neg_sum}");
    }

    #[test]
    fn shift_to_local_means_is_identity_large() {
        // Exercise the parallel path (n > PAR_THRESHOLD): global = local
        // means is a zero shift, and a zero shift returns g value-exact.
        let mut rng = SeedRng::new(4);
        let n = (1 << 15) + 123;
        let mut g: Vec<f32> = (0..n).map(|_| rng.randn()).collect();
        let orig = g.clone();
        let m = split_means(&g);
        let (dp, dn) = m.shift_to(m.mu_pos, m.mu_neg);
        assert_eq!((dp, dn), (0.0, 0.0));
        shift_by_sign(&mut g, dp, dn);
        assert_eq!(g, orig);
    }

    #[test]
    fn classification_follows_ieee_ge() {
        // IEEE: -0.0 ≥ 0.0 is true, so -0.0 counts as positive; NaN fails
        // every comparison and lands in the negative class — in both sweeps.
        let g = [0.0f32, -0.0, 1.0, -1.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE];
        let m = split_means(&g);
        assert_eq!((m.n_pos, m.n_neg), (4, 2));
        let mut s = g;
        shift_by_sign(&mut s, 10.0, -20.0);
        assert_eq!(s, [10.0, 10.0, 11.0, -21.0, 10.0, -20.0]);

        let m = split_means(&[1.0, f32::NAN, -3.0]);
        assert_eq!((m.n_pos, m.n_neg), (1, 2));
        assert_eq!(m.mu_pos, 1.0);
        assert!(m.mu_neg.is_nan());
    }

    /// The portable class-sum body against the AVX2 copy bit for bit (NaN
    /// as one pattern: which NaN an add of two NaNs returns is not fixed),
    /// over the scalar tail, one block ± 1, blocks and a tail, a parallel
    /// window ± 1 and FNN-3's gradient, with ±0 and subnormals mixed in,
    /// then ±∞, then NaN. On a host without avx2 and fma the dispatched body
    /// is the portable one, and the test says so.
    #[test]
    fn portable_and_avx2_class_sums_are_bit_identical() {
        if mini_tensor::gemm::microkernel() != "avx2+fma" {
            eprintln!("note: no avx2+fma on this host; the AVX2 class-sum body is not compared");
        }
        let key = |s: ClassSums| {
            let bits = |v: f64| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() };
            (bits(s.pos), bits(s.neg), s.n_pos)
        };
        let tiny = f32::MIN_POSITIVE;
        let mixes: [&[f32]; 3] = [
            &[0.0, -0.0, f32::from_bits(1), -tiny / 3.0, tiny * 0.75],
            &[f32::INFINITY, -0.0, f32::NEG_INFINITY, -tiny / 5.0],
            &[f32::NAN, 0.0, f32::INFINITY, -f32::NAN, tiny / 7.0],
        ];
        let mut rng = SeedRng::new(8);
        let chunk = par::PAR_CHUNK;
        for n in [0, 1, 127, 128, 129, 3 * BLOCK + 17, chunk - 1, chunk + 1, 199_210] {
            for mix in mixes {
                let mut g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.02).collect();
                for (k, v) in g.iter_mut().step_by(7).enumerate() {
                    *v = mix[k % mix.len()];
                }
                let (portable, dispatched) = (class_sums_body(&g), class_sums(&g));
                assert!(key(portable) == key(dispatched), "n = {n}, mix {mix:?}");
            }
        }
    }

    #[test]
    fn split_means_matches_scalar_f64_reference() {
        // Lane/block accumulation vs the plain f64 loop: counts exact and
        // partition the input, means within 1e-6 relative — across the
        // scalar tail, one block, and the chunked parallel path.
        let mut rng = SeedRng::new(6);
        for n in [1usize, 127, 128, 129, 4097, (1 << 15) + 77, 199_210] {
            let g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.02 + 0.001).collect();
            let m = split_means(&g);
            let (mut ps, mut ns, mut np) = (0.0f64, 0.0f64, 0usize);
            for &v in &g {
                if v >= 0.0 {
                    ps += v as f64;
                    np += 1;
                } else {
                    ns -= v as f64;
                }
            }
            assert_eq!(m.n_pos, np, "n = {n}");
            assert_eq!(m.n_pos + m.n_neg, n, "n = {n}");
            for (got, sum, cnt) in [(m.mu_pos, ps, np), (m.mu_neg, ns, n - np)] {
                let want = if cnt > 0 { sum / cnt as f64 } else { 0.0 };
                assert!((got as f64 - want).abs() <= 1e-6 * want.abs(), "n = {n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn variance_is_preserved_by_the_shift() {
        // The paper's variance argument: moving each sign class by a
        // constant leaves per-coordinate deviations (the ε vector) intact,
        // so the variance around the class means is unchanged.
        let mut rng = SeedRng::new(5);
        let g: Vec<f32> = (0..5000).map(|_| rng.randn()).collect();
        let m = split_means(&g);
        // Global means from a fictitious other worker.
        let (dp, dn) = m.shift_to(m.mu_pos * 0.9, m.mu_neg * 1.1);
        let mut shifted = g.clone();
        shift_by_sign(&mut shifted, dp, dn);
        // Per-class variance of `shifted` equals per-class variance of g.
        let var_of = |xs: &[f32], pick_pos: bool| -> f64 {
            let vals: Vec<f64> = xs
                .iter()
                .zip(&g)
                .filter(|(_, o)| (**o >= 0.0) == pick_pos)
                .map(|(&v, _)| v as f64)
                .collect();
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64
        };
        for side in [true, false] {
            let v1 = var_of(&g, side);
            let v2 = var_of(&shifted, side);
            assert!((v1 - v2).abs() < 1e-6 * (1.0 + v1), "side {side}: {v1} vs {v2}");
        }
    }
}
