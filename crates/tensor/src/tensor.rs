//! The owned dense tensor type.

use crate::shape::Shape;
use std::fmt;

/// A dense, row-major, owned `f32` tensor.
///
/// This is deliberately simple: contiguous storage, no views, no broadcast
/// machinery beyond what the layers need. Layers that need strided access
/// (conv, pooling) compute offsets explicitly via [`Shape::linear`].
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Shape,
}

impl Tensor {
    /// Builds a tensor from raw storage; `data.len()` must equal
    /// `shape.numel()`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.numel(),
            "storage length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.numel()
        );
        Tensor { data, shape }
    }

    /// All-zeros tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        Tensor { data: vec![0.0; shape.numel()], shape }
    }

    /// All-ones tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Self::full(shape, 1.0)
    }

    /// Constant-filled tensor.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        Tensor { data: vec![value; shape.numel()], shape }
    }

    /// Rank-0 scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Tensor { data: vec![value], shape: Shape::scalar() }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the flat storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the flat storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.linear(idx)]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let l = self.shape.linear(idx);
        &mut self.data[l]
    }

    /// Reinterprets the storage under a new shape with the same element
    /// count. O(1); no data movement.
    pub fn reshape(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            self.numel(),
            shape.numel(),
            "cannot reshape {} elements into {}",
            self.numel(),
            shape
        );
        self.shape = shape;
        self
    }

    /// The scalar value of a one-element tensor.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data[0]
    }

    /// 2-D transpose. Panics unless rank == 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2 requires rank 2");
        let (r, c) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0f32; r * c];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Tensor::from_vec(out, [c, r])
    }

    /// Frobenius / l2 norm of the flattened tensor.
    pub fn norm2(&self) -> f32 {
        self.data.iter().map(|v| (*v as f64) * (*v as f64)).sum::<f64>().sqrt() as f32
    }

    /// Returns `true` if every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.numel() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{:.4}, {:.4}, .. {:.4}] n={})",
                self.data[0],
                self.data[1],
                self.data[self.numel() - 1],
                self.numel()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic]
    fn bad_storage_length_panics() {
        let _ = Tensor::from_vec(vec![1.0; 5], [2, 3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec((0..24).map(|i| i as f32).collect(), [2, 3, 4]);
        let r = t.clone().reshape([6, 4]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dims(), &[6, 4]);
    }

    #[test]
    #[should_panic]
    fn reshape_wrong_count_panics() {
        let _ = Tensor::zeros([2, 3]).reshape([7]);
    }

    #[test]
    fn transpose2_involution() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), [3, 4]);
        let tt = t.transpose2().transpose2();
        assert_eq!(t, tt);
    }

    #[test]
    fn transpose2_values() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.transpose2();
        assert_eq!(tt.shape().dims(), &[3, 2]);
        assert_eq!(tt.at(&[2, 1]), 6.0);
        assert_eq!(tt.at(&[0, 1]), 4.0);
    }

    #[test]
    fn norm2_matches_manual() {
        let t = Tensor::from_vec(vec![3.0, 4.0], [2]);
        assert!((t.norm2() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(2.5).item(), 2.5);
    }
}
