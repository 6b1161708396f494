//! Weight initialisation schemes.

use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;

/// Kaiming/He normal initialisation for ReLU networks: N(0, √(2/fan_in)).
pub fn kaiming_normal(rng: &mut SeedRng, dims: &[usize], fan_in: usize) -> Tensor {
    let sigma = (2.0 / fan_in as f32).sqrt();
    rng.randn_tensor(dims, sigma)
}

/// Small-uniform initialisation used for LSTM/embedding weights,
/// U(−scale, scale) — matches the classic PTB LSTM recipe.
pub fn small_uniform(rng: &mut SeedRng, dims: &[usize], scale: f32) -> Tensor {
    rng.uniform_tensor(dims, -scale, scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kaiming_has_expected_scale() {
        let mut rng = SeedRng::new(1);
        let t = kaiming_normal(&mut rng, &[200, 100], 100);
        let s = mini_tensor::stats::summary(t.as_slice());
        let expect = (2.0 / 100.0f64).sqrt();
        assert!((s.std() - expect).abs() / expect < 0.1, "std {} vs {}", s.std(), expect);
    }

    #[test]
    fn small_uniform_bounds() {
        let mut rng = SeedRng::new(3);
        let t = small_uniform(&mut rng, &[100], 0.05);
        assert!(t.as_slice().iter().all(|&v| v.abs() <= 0.05));
    }
}
