//! # a2sgd-elastic
//!
//! Elastic training on top of the A2SGD communication stack: the layer
//! that turns the comm layer's *typed* failure values
//! ([`cluster_comm::TransportError`], the `try_*` collective family,
//! [`cluster_comm::CommHandle::classify_survivors`]) into **policy** —
//! detect a dead rank, agree on who is left, shrink the world, and keep
//! training.
//!
//! The pieces, bottom-up:
//!
//! * [`fault`] — deterministic, seedable fault injection: a [`FaultPlan`]
//!   scripts *kill this rank at iteration k* / *drop or delay the nth
//!   send*, and a [`FaultInjector`] transport wrapper applies the wire
//!   faults without the code under test knowing it is being sabotaged.
//!   This is how the soak tests make failures reproducible instead of
//!   relying on races.
//! * [`membership`] — a heartbeat/liveness tracker riding the reserved
//!   [`cluster_comm::ELASTIC_TAG`] namespace of the *existing* tag space,
//!   so control traffic interleaves with collectives without touching
//!   them.
//! * [`train`] — [`train_elastic`]: a **recovery policy** on `a2sgd`'s one
//!   training loop (any [`a2sgd::trainer::TrainConfig`]), not a second
//!   trainer: the kill script, the heartbeat, and on a
//!   [`cluster_comm::TransportError`] the membership census, a shrunken
//!   world every survivor derives identically, a fresh synchronizer,
//!   survivors caught up from the new rank 0, retry. Periodic
//!   [`a2sgd::Checkpoint`] snapshots make cold restart possible too.
//!
//! The recovery timeline is traced end-to-end (`elastic/killed` →
//! `elastic/peer_dead` → `elastic/rerendezvous` span → `elastic/first_sync`)
//! so `trace_report --recovery` can audit that a run actually died,
//! re-formed and resumed — see the crate's soak test, which kills a rank
//! at a seed-chosen iteration on real loopback TCP sockets and converges
//! anyway.

pub mod fault;
pub mod membership;
pub mod train;

pub use fault::{FaultInjector, FaultPlan, WireFault};
pub use membership::{Membership, HEARTBEAT_TAG};
pub use train::{train_elastic, Elastic, ElasticComm, ElasticRunReport};
