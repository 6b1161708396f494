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
//!   them. Deaths are recorded as `elastic/peer_dead` trace instants.
//! * [`recover`] — [`ElasticComm`]: a communicator plus the
//!   [`cluster_comm::WorldSpec`] it was born from and a re-rendezvous
//!   epoch. On failure, [`ElasticComm::shrink_and_reconnect`] runs the
//!   membership census, derives the shrunken spec every survivor computes
//!   identically (no extra agreement round), and rebuilds a fresh TCP
//!   world on an epoch-offset master port.
//! * [`train`] — [`train_elastic`]: a **recovery policy**, not a second
//!   trainer. The step itself — for every registry synchronizer and sync
//!   schedule — is [`a2sgd::step::TrainStep`], the same fallible step
//!   `a2sgd::train` runs and `expect`s; this crate owns the kill script,
//!   the heartbeat, and the reaction to a step's
//!   [`cluster_comm::TransportError`]: shrink, rebuild the synchronizer,
//!   catch survivors up from the new rank 0, retry. Periodic
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
pub mod recover;
pub mod train;

pub use fault::{FaultInjector, FaultPlan, WireFault};
pub use membership::{Membership, HEARTBEAT_TAG};
pub use recover::ElasticComm;
pub use train::{train_elastic, ElasticRunReport, ElasticTrainConfig};
