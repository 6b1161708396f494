//! # a2sgd — Two-Level Gradient Averaging with O(1) Communication
//!
//! The paper's primary contribution (Bhattacharya, Yu & Chowdhury,
//! CLUSTER 2021): every worker consolidates its full gradient into **two
//! scalars** — the absolute mean of its non-negative entries `µ+` and of
//! its negative entries `µ−` — allreduces only those 64 bits, and keeps
//! per-coordinate variance by retaining the residual `ε = g − enc(g)`
//! within the same iteration (Algorithm 1) — which amounts to shifting
//! each sign class of g by `µ̄± − µ±`.
//!
//! * [`mean2`] — the two sweeps of a round (`split_means`, then
//!   `shift_by_sign` after the exchange) plus `enc` — the O(n)-compute /
//!   O(1)-communication heart.
//! * [`algorithm`] — [`algorithm::A2sgd`], the Algorithm-1
//!   [`gradcomp::GradientSynchronizer`], and [`algorithm::A2sgdCarry`], its
//!   carried-error ablation, over one shared 64-bit exchange.
//! * [`registry`] — unified algorithm registry (baselines + A2SGD family).
//! * [`step`] — [`step::TrainStep`], the back half of a training step
//!   (plan → sync → apply) behind one fallible call, which the trainer's
//!   loop drives.
//! * [`trainer`] — the synchronous data-parallel training loop over the
//!   simulated cluster, reproducing the paper's evaluation pipeline — the
//!   one loop, under a [`trainer::Recovery`] policy.
//! * [`overlap`] — per-layer gradient-ready hook driver
//!   ([`overlap::HookedStep`]): launches each bucket a streaming
//!   synchronizer takes as the backward pass produces it, overlapping
//!   exchange with backprop, and drains the step afterwards.
//! * [`metrics`] — accuracy/perplexity/throughput/scaling-efficiency.
//! * [`theory`] — convergence-analysis probes (Assumption 3, Lyapunov h_t)
//!   on analytically-solvable distributed quadratics.
//! * [`experiments`] — Table-1 configurations and scaled presets.
//! * [`report`] — CSV/table output helpers for the figure regenerators.

pub mod algorithm;
pub mod checkpoint;
pub mod experiments;
pub mod mean2;
pub mod metrics;
pub mod overlap;
pub mod registry;
pub mod report;
pub mod step;
pub mod theory;
pub mod trainer;

pub use a2sgd_sched::{SchedKind, SchedState};
pub use algorithm::A2sgd;
pub use checkpoint::{Checkpoint, SchedCheckpoint};
pub use cluster_comm::CommBackend;
pub use mean2::{enc_into, shift_by_sign, split_means, TwoMeans};
pub use overlap::{HookLayout, HookedStep};
pub use registry::AlgoKind;
pub use trainer::{OptKind, TrainConfig, TrainReport};
