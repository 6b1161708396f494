//! # mini-nn
//!
//! A from-scratch neural-network stack with *explicit* backward passes
//! (Caffe-style modules rather than a dynamic autograd tape), built as the
//! training substrate for the A2SGD reproduction.
//!
//! Contents:
//!
//! * [`module::Module`] — forward/backward/visit-params contract, with a
//!   hooked backward variant
//!   ([`module::Module::backward_hooked`]) that announces each layer's
//!   parameter gradients to a [`hook::GradHook`] the moment they are
//!   final — the per-layer observer distributed trainers use to overlap
//!   gradient synchronization with the backward pass itself — and a
//!   parameters-only one ([`module::Module::backward_params`]) that forms
//!   no input gradient for the network's first layer,
//! * layers: [`layers::Linear`], [`layers::Conv2d`], [`layers::BatchNorm2d`],
//!   [`layers::Relu`], [`layers::MaxPool2d`], [`layers::GlobalAvgPool`],
//!   [`layers::Dropout`], [`layers::Flatten`], [`layers::Embedding`],
//!   [`layers::Lstm`], [`layers::Sequential`], [`layers::ResidualBlock`],
//! * [`loss`] — fused softmax cross-entropy,
//! * [`optim`] — [`optim::Sgd`]: momentum SGD with weight decay, LARS
//!   (paper Table 1) as its optional trust coefficient,
//! * [`schedule`] — linear scaling, gradual warmup, polynomial decay,
//! * [`flat`] — flatten/scatter of parameters and gradients (the compression
//!   algorithms all operate on the flattened gradient vector),
//! * [`models`] — FNN-3, VGG-16, ResNet-20 and LSTM-PTB with `paper` and
//!   `scaled` presets,
//! * [`gradcheck`] — finite-difference verification utilities used by tests.
//!
//! Every layer's backward pass is validated against central finite
//! differences (see the per-layer tests and `gradcheck`).

pub mod flat;
pub mod gradcheck;
pub mod hook;
pub mod init;
pub mod layers;
pub mod loss;
pub mod models;
pub mod module;
pub mod optim;
pub mod param;
pub mod schedule;

pub use hook::{GradHook, NullHook};
pub use module::{Mode, Module};
pub use param::Param;
