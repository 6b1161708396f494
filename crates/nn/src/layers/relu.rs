//! Rectified linear unit.

use crate::module::{Mode, Module};
use crate::param::Param;
use mini_tensor::Tensor;

/// Elementwise `max(0, x)`.
pub struct Relu {
    mask: Vec<bool>,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Relu { mask: Vec::new() }
    }
}

impl Default for Relu {
    fn default() -> Self {
        Self::new()
    }
}

/// Clamps `x` to `max(0, x)` in place and records in `mask` which elements
/// were kept (`x > 0`: NaN and `−0.0` become `+0.0`). Two branch-free
/// sweeps, so both vectorise.
pub(crate) fn clamp(x: &mut [f32], mask: &mut Vec<bool>) {
    mask.clear();
    mask.extend(x.iter().map(|v| *v > 0.0));
    for v in x {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// Zeroes the elements of `d` that [`clamp`] did not keep.
pub(crate) fn gate(d: &mut [f32], mask: &[bool]) {
    assert_eq!(d.len(), mask.len(), "backward before forward");
    for (v, &keep) in d.iter_mut().zip(mask) {
        *v = if keep { *v } else { 0.0 };
    }
}

impl Module for Relu {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        let mut out = x.clone();
        clamp(out.as_mut_slice(), &mut self.mask);
        out
    }

    fn backward(&mut self, dout: &Tensor) -> Tensor {
        let mut dx = dout.clone();
        gate(dx.as_mut_slice(), &self.mask);
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_clamps_and_backward_masks() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], [4]);
        let y = r.forward(&x, Mode::Train);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
        let d = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], [4]);
        let dx = r.backward(&d);
        assert_eq!(dx.as_slice(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn nan_and_negative_zero_clamp_to_positive_zero() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![f32::NAN, -0.0, f32::NEG_INFINITY, f32::INFINITY], [4]);
        let y = r.forward(&x, Mode::Train);
        let bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [0, 0, 0, f32::INFINITY.to_bits()]);
        // Gating passes kept gradients through untouched, NaN included.
        let dx = r.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0, f32::NAN], [4]));
        assert_eq!(&dx.as_slice()[..3], &[0.0, 0.0, 0.0]);
        assert!(dx.as_slice()[3].is_nan());
    }
}
