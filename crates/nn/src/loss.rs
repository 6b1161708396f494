//! The training loss: fused softmax cross-entropy. (Perplexity, its
//! exponential, is `a2sgd::metrics::perplexity`.)

use mini_tensor::{ops, Tensor};

/// Result of a fused softmax-cross-entropy evaluation.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean negative log-likelihood over the batch.
    pub loss: f32,
    /// Gradient w.r.t. the logits, already divided by batch size.
    pub dlogits: Tensor,
    /// Number of correct argmax predictions.
    pub correct: usize,
}

/// Fused softmax + cross-entropy for logits `[B, C]` and integer targets.
///
/// Fusing keeps the backward pass the numerically-friendly `p − 1_target`.
/// The rows are normalised in the gradient buffer itself
/// ([`ops::softmax_rows_in_place`], on the vector `exp`); each row is then
/// read for the loss and the argmax and turned into `(p − 1_target) · 1/B`
/// in place.
pub fn softmax_cross_entropy(logits: &Tensor, targets: &[usize]) -> LossOutput {
    assert_eq!(logits.shape().rank(), 2);
    let (b, c) = (logits.shape().dim(0), logits.shape().dim(1));
    assert_eq!(targets.len(), b, "target count mismatch");

    let mut dlogits = logits.clone();
    let ds = dlogits.as_mut_slice();
    ops::softmax_rows_in_place(ds, c);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    let invb = 1.0 / b as f32;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < c, "target {t} out of range {c}");
        let row = &mut ds[i * c..(i + 1) * c];
        let p = row[t].max(1e-12);
        loss -= (p as f64).ln();
        // argmax for accuracy, on the normalised row (ties go low)
        let mut best = 0;
        for j in 1..c {
            if row[j] > row[best] {
                best = j;
            }
        }
        if best == t {
            correct += 1;
        }
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= invb;
        }
    }
    LossOutput { loss: (loss / b as f64) as f32, dlogits, correct }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mini_tensor::rng::SeedRng;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros([4, 10]);
        let out = softmax_cross_entropy(&logits, &[0, 3, 5, 9]);
        assert!((out.loss - (10.0f32).ln()).abs() < 1e-5);
        assert!((out.loss.exp() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn perfect_prediction_low_loss() {
        let mut logits = Tensor::zeros([2, 3]);
        *logits.at_mut(&[0, 1]) = 50.0;
        *logits.at_mut(&[1, 2]) = 50.0;
        let out = softmax_cross_entropy(&logits, &[1, 2]);
        assert!(out.loss < 1e-4);
        assert_eq!(out.correct, 2);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = SeedRng::new(91);
        let logits = rng.randn_tensor(&[3, 4], 1.0);
        let targets = [2usize, 0, 3];
        let out = softmax_cross_entropy(&logits, &targets);
        let eps = 1e-3f32;
        for i in 0..12 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let fp = softmax_cross_entropy(&lp, &targets).loss;
            let fm = softmax_cross_entropy(&lm, &targets).loss;
            let num = (fp - fm) / (2.0 * eps);
            let ana = out.dlogits.as_slice()[i];
            assert!((num - ana).abs() < 1e-3, "coord {i}: {num} vs {ana}");
        }
    }

    /// |got − want| in units in the last place of `want` as an f32.
    fn ulps(got: f32, want: f64) -> f64 {
        let binade = ((want.abs().to_bits() >> 52) as i32) - 1023;
        (got as f64 - want).abs() / 2f64.powi(binade - 23)
    }

    #[test]
    fn loss_and_gradient_within_4_ulp_of_f64() {
        // The lstm_qsgd head (256 × 200) and the classifiers' (32 × 10,
        // 8 × 10), against the same formulas in f64.
        let mut rng = SeedRng::new(93);
        for (b, c, spread) in [(256, 200, 2.0), (32, 10, 1.0), (8, 10, 1.0)] {
            let logits = rng.randn_tensor(&[b, c], spread);
            let targets: Vec<usize> = (0..b).map(|_| rng.below(c)).collect();
            let out = softmax_cross_entropy(&logits, &targets);
            let (x, d) = (logits.as_slice(), out.dlogits.as_slice());
            let mut loss = 0.0f64;
            let mut worst = 0.0f64;
            for (i, &t) in targets.iter().enumerate() {
                // From the shifted logits x − max as f32 on: that one
                // subtraction rounds in any f32 softmax, by up to
                // |x − max|·2⁻²⁴ relative to e^{x − max}.
                let row = &x[i * c..(i + 1) * c];
                let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let e: Vec<f64> = row.iter().map(|&v| ((v - m) as f64).exp()).collect();
                let z: f64 = e.iter().sum();
                for (j, &e) in e.iter().enumerate() {
                    let want = (e / z - if j == t { 1.0 } else { 0.0 }) / b as f64;
                    worst = worst.max(ulps(d[i * c + j], want));
                }
                loss -= (e[t] / z).ln();
            }
            assert!(worst <= 4.0, "{b}x{c}: dlogits {worst} ulp");
            let e = ulps(out.loss, loss / b as f64);
            assert!(e <= 4.0, "{b}x{c}: loss {e} ulp");
        }
    }

    #[test]
    fn argmax_ties_go_to_the_lower_index() {
        let logits = Tensor::from_vec(vec![1.0, 3.0, 3.0, 0.5, 2.0, 2.0], [2, 3]);
        assert_eq!(softmax_cross_entropy(&logits, &[1, 1]).correct, 2);
        assert_eq!(softmax_cross_entropy(&logits, &[2, 2]).correct, 0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = SeedRng::new(92);
        let logits = rng.randn_tensor(&[5, 7], 2.0);
        let out = softmax_cross_entropy(&logits, &[0, 1, 2, 3, 4]);
        for i in 0..5 {
            let s: f32 = out.dlogits.as_slice()[i * 7..(i + 1) * 7].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }
}
