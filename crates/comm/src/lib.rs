//! # cluster-comm
//!
//! The communication layer of the A2SGD reproduction: MPI-style
//! collectives (ring reduce-scatter/allgather allreduce, recursive
//! doubling, direct-exchange allgather, binomial broadcast — Thakur,
//! Rabenseifner & Gropp, the paper's reference [46]) over a pluggable [`transport::Transport`] data plane
//! with two backends:
//!
//! * **In-process** ([`transport::InProc`], [`run_cluster`]) — every rank
//!   is a thread, a send is a memcpy through shared-memory mailboxes, and
//!   communication *time* is priced analytically with the Hockney α–β model
//!   parameterized by a [`NetworkProfile`] — the seed repo's simulated
//!   16-node InfiniBand cluster. The price is a ledger each communicator
//!   keeps locally ([`CommHandle::comm_seconds`]): collective sizes are
//!   rank-agreed, so no rank ever waits on another to learn the time.
//! * **TCP** ([`transport::Tcp`], [`run_cluster_tcp`],
//!   [`run_cluster_tcp_threads`]) — every rank is an OS process (or
//!   thread) holding persistent per-peer `TcpStream`s with length-prefixed
//!   little-endian framing ([`transport::wire`]); rendezvous is
//!   torchrun-style from a typed [`WorldSpec`] (per-rank bind addresses,
//!   group assignments, master handoff); a launched rank process reads its
//!   `WorldSpec` from the `A2SGD_RANK` / `A2SGD_WORLD` /
//!   `A2SGD_MASTER_ADDR` environment its launcher set
//!   ([`Rendezvous::from_env`] — the launch path of every multi-process
//!   run), and both traffic and time are *measured*, not simulated.
//!
//! ## Groups and topology
//!
//! Any communicator can be carved into sub-communicators with
//! [`CommHandle::split`] — an MPI `comm_split`-style collective returning
//! a [`CommHandle`] whose ranks are remapped to `0..group_len` and whose
//! collectives (blocking and nonblocking alike) run only over the group's
//! members, on either backend, bit-identical to a standalone world of the
//! same size. Splitting shares the parent's transport endpoint
//! ([`transport::GroupTransport`]) and isolates each sub-communicator in
//! its own tag space, so parent and children interleave traffic safely.
//!
//! [`hier::HierarchicalComm`] builds the paper's two-level topology on
//! top: a dense intra-group communicator plus an inter-group communicator
//! of group leaders — either by splitting one flat world, or genuinely
//! mixed-backend via [`hier::run_cluster_hier_threads`] (in-process
//! mailboxes inside each group, real loopback-TCP sockets between
//! leaders).
//!
//! Every frame on either backend is a typed byte payload
//! ([`transport::wire::Payload`]): dense f32 lanes, packed u64 words, or an
//! opaque compressed byte stream. Gather and broadcast are generic over
//! [`collective::WireElem`]; allreduce is the dense f32 sum;
//! [`CommHandle::allgather_bytes`] moves encoded frames verbatim, so a
//! compressed gradient crosses the socket at its encoded size and measured
//! traffic equals the logical accounting.
//!
//! There is one collective engine ([`nonblocking`]), and it is the only
//! code that sends or receives for a collective. Every algorithm — ring
//! and recursive-doubling allreduce, binomial broadcast, dissemination
//! barrier — is a table of rounds one poll loop drives; the
//! direct-exchange gather is its one other arm. `start_allreduce`
//! (recursive doubling) and `start_allgather_bytes` launch an operation
//! and return a [`CollectiveHandle`] with `wait()`/`try_complete()`,
//! letting several tag-matched collectives ride the wire at once while the
//! caller computes — the communication/compute-overlap substrate behind
//! bucketed and hook-driven gradient sync — and every blocking spelling is
//! `start → wait` on the same engine, over every transport alike. The
//! engine checks every received frame's kind and length against its
//! round: a wrong one is `TransportError::BadFrame`. Peer loss is a typed
//! [`TransportError`] everywhere: from `wait()`/`try_complete()`, and from
//! the `try_*` spelling every blocking collective has
//! ([`CommHandle::try_allreduce_avg`], [`CommHandle::try_barrier`],
//! [`CommHandle::try_allgather_bytes`], …); the un-prefixed spellings
//! panic with the same cause. [`CommHandle::classify_survivors`] runs the
//! post-failure membership census the `a2sgd-elastic` crate's
//! shrink-and-continue recovery is built on; its control frames live in
//! the reserved [`ELASTIC_TAG`] namespace.
//!
//! * [`profile::NetworkProfile`] — α (latency) and β (bandwidth) presets,
//!   including the paper's 100 Gbps InfiniBand.
//! * [`cost`] — closed-form collective cost functions.
//! * [`collective`] — [`CommHandle`]: the blocking spellings, the
//!   per-communicator time ledger and [`TrafficStats`] accounting.
//! * [`nonblocking`] — the collective engine: every collective's rounds.
//! * [`transport`] — the data planes, wire codec and launchers.
//! * [`sim`] — spawn an in-process cluster of ranks with scoped threads.

pub mod collective;
pub mod cost;
pub mod hier;
pub mod nonblocking;
pub mod profile;
pub mod sim;
pub mod transport;

pub use collective::{CollectiveAlgo, CommHandle, TrafficStats, WireElem};
pub use cost::CostModel;
pub use hier::{run_cluster_hier_threads, HierarchicalComm};
pub use nonblocking::{CollectiveHandle, CollectiveResult};
pub use profile::NetworkProfile;
pub use sim::{run_cluster, Cluster};
pub use transport::group::{tag_space, ELASTIC_TAG};
pub use transport::{
    run_cluster_tcp, run_cluster_tcp_threads, run_multiprocess, run_multiprocess_spec,
    tcp_child_rank, CommBackend, GroupTransport, LaunchConfig, Payload, PayloadKind, RankSpec,
    RecvResult, Rendezvous, Transport, TransportError, WorldSpec,
};
