//! Statistics helpers: medians, quartiles the way the acceptance driver
//! computes them, the tail-percentile rule, and the marginal-step
//! arithmetic of the end-to-end pass.

/// A percentile is reported only when at least this many samples lie
/// beyond it (choosing-metrics §1).
pub const MIN_TAIL: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count). Panics on an
/// empty slice: every caller has at least one sample by construction.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(!v.is_empty(), "median of no samples");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them, so spreads printed here are the spreads
/// the acceptance driver computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let m = v.len();
    assert!(m >= 2, "quartiles need two samples");
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median — the driver's
/// steadiness measure.
pub fn iqr_share(samples: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(samples);
    (q3 - q1) / q2
}

/// The `p`-th percentile (nearest rank), or `None` when fewer than
/// [`MIN_TAIL`] samples lie strictly beyond it — a p95 of 200 samples has
/// exactly ten beyond it and is the highest percentile 200 samples carry.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    (rank >= 1 && v.len() - rank >= MIN_TAIL).then(|| v[rank - 1])
}

/// Marginal wall milliseconds per training step: a long run of `steps`
/// steps took `long_s`, a one-step run (process start, rendezvous, model
/// and data build, first step, eval, final re-average) took `setup_s`.
pub fn marginal_step_ms(long_s: f64, setup_s: f64, steps: usize) -> f64 {
    assert!(steps >= 2, "a long run needs at least two steps");
    (long_s - setup_s) * 1e3 / (steps - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), (1.0, 2.0, 4.0));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        assert_eq!(tail_percentile(&v, 50.0), Some(100.0));
        assert_eq!(tail_percentile(&v, 99.0), None, "only two samples beyond p99");
        assert_eq!(tail_percentile(&v[..199], 95.0), None, "199 samples leave nine beyond p95");
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 50.0), None);
    }

    #[test]
    fn marginal_step_removes_setup_and_first_step() {
        // 0.25 s of setup (which already contains one step) + 999 more
        // steps of 7 ms each.
        let long = 0.25 + 999.0 * 0.007;
        assert!((marginal_step_ms(long, 0.25, 1000) - 7.0).abs() < 1e-9);
    }
}
