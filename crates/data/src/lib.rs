//! # synthdata
//!
//! Deterministic synthetic stand-ins for the paper's datasets (MNIST,
//! CIFAR-10, Penn Treebank). Real datasets are unavailable offline; what
//! the A2SGD evaluation needs from data is only (a) learnable structure so
//! accuracy/perplexity curves have the paper's shape, and (b) identical,
//! reproducible shards across workers and algorithms so comparisons are
//! fair. Both properties hold by construction: every sample is a pure
//! function of `(dataset seed, index)`.
//!
//! * [`vision`] — class-conditional image generators (28×28×1 MNIST-like
//!   and 3×32×32 CIFAR-like): each class has a fixed random template plus
//!   per-sample noise and translation jitter. Samples are generated on the
//!   fly from `(dataset seed, index)`, so a 60 000-image dataset costs no
//!   memory.
//! * [`markov`] — a Zipf-weighted Markov token source with a computable
//!   entropy floor, the PTB stand-in for the LSTM workload.
//! * [`loader`] — dataset/shard/batch machinery shared by all workers:
//!   a [`Dataset`] writes one example into a caller's slice
//!   ([`Dataset::sample_into`]), and [`stack`] — what [`BatchIter`] and the
//!   trainer call — fills each row of a `[B, …]` batch once.

pub mod loader;
pub mod markov;
pub mod vision;

pub use loader::{stack, BatchIter, Dataset, Shard};
pub use markov::MarkovText;
pub use vision::{SyntheticImages, VisionSpec};
