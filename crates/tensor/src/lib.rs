//! # mini-tensor
//!
//! A minimal, dependency-light, row-major `f32` tensor library built as the
//! numerical substrate for the A2SGD reproduction (Bhattacharya et al.,
//! CLUSTER 2021). It provides exactly what a from-scratch deep-learning stack
//! needs:
//!
//! * an owned dense [`Tensor`] with shape algebra ([`Shape`]),
//! * elementwise and scalar arithmetic, BLAS-1 style kernels ([`ops`]),
//! * a cache-blocked, register-tiled, packing GEMM behind the unified
//!   [`gemm::Gemm`] descriptor (all four transpose combos; bit-identical
//!   across thread counts),
//! * convolution ([`conv`]) over one zero-padded copy of each image: the
//!   forward and dx products run on the same core, reading their patch
//!   operand in place (no column matrix, filter panels packed once per
//!   batch), and dW is long dot products over output positions,
//! * reductions and softmax helpers,
//! * streaming statistics and histograms ([`stats`]) — used both by the
//!   Gaussian-K baseline and to regenerate the paper's Figure 1,
//! * seeded random initialisation ([`rng`]).
//!
//! Everything is CPU-only and deterministic given a seed; this stack
//! substitutes for the paper's PyTorch/CUDA stack, trading raw speed for
//! bit-reproducible runs the determinism tests can assert on.

pub mod conv;
pub mod gemm;
pub mod ops;
pub mod par;
pub mod rng;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use shape::Shape;
pub use tensor::Tensor;
