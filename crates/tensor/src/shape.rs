//! Shape algebra for row-major dense tensors.

use std::fmt;

/// The dimensions of a tensor, outermost first (row-major layout).
///
/// A `Shape` is a thin wrapper over a `Vec<usize>` with helpers for element
/// counts, strides and index linearisation. Rank-0 shapes (scalars) are
/// represented by an empty dimension list and have one element.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// Creates a shape from a dimension slice.
    pub fn new(dims: &[usize]) -> Self {
        Shape(dims.to_vec())
    }

    /// Scalar (rank-0) shape.
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension sizes, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.0
    }

    /// Size of dimension `i` (panics if out of range).
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Total number of elements (product of dims; 1 for scalars).
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }

    /// Row-major strides: `strides[i]` is the linear distance between
    /// consecutive indices along dimension `i`.
    pub fn strides(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.rank()];
        for i in (0..self.rank().saturating_sub(1)).rev() {
            s[i] = s[i + 1] * self.0[i + 1];
        }
        s
    }

    /// Linearises a multi-index. Panics (debug) on rank mismatch or
    /// out-of-bounds coordinates.
    pub fn linear(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.rank(), "index rank mismatch");
        let mut off = 0;
        let mut stride = 1;
        for i in (0..self.rank()).rev() {
            debug_assert!(idx[i] < self.0[i], "index {} out of bounds dim {}", idx[i], i);
            off += idx[i] * stride;
            stride *= self.0[i];
        }
        off
    }

    /// Returns `true` when both shapes have identical dims.
    pub fn same(&self, other: &Shape) -> bool {
        self.0 == other.0
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.0)
    }
}

impl From<&[usize]> for Shape {
    fn from(d: &[usize]) -> Self {
        Shape::new(d)
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(d: [usize; N]) -> Self {
        Shape(d.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel_and_rank() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.rank(), 3);
        assert_eq!(s.numel(), 24);
        assert_eq!(Shape::scalar().numel(), 1);
        assert_eq!(Shape::scalar().rank(), 0);
    }

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::new(&[5]).strides(), vec![1]);
    }

    #[test]
    fn linear_index_roundtrip() {
        let s = Shape::new(&[2, 3, 4]);
        let mut seen = [false; 24];
        for i in 0..2 {
            for j in 0..3 {
                for k in 0..4 {
                    let l = s.linear(&[i, j, k]);
                    assert!(!seen[l]);
                    seen[l] = true;
                }
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn zero_sized_dims() {
        let s = Shape::new(&[2, 0, 4]);
        assert_eq!(s.numel(), 0);
    }
}
