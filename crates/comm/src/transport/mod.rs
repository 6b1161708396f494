//! Pluggable point-to-point data planes behind the collectives.
//!
//! [`Transport`] is the narrow waist between the collective *algorithms*
//! (ring, recursive doubling, binomial tree — `collective.rs`) and the
//! mechanism that moves bytes between ranks:
//!
//! * [`InProc`] — shared-memory mailboxes: every rank is a thread of one
//!   process and a send is a memcpy. (Network time for this backend is
//!   priced above the transport, by the communicator's `CostModel`; the
//!   data plane knows nothing of it.)
//! * [`Tcp`] — one OS process (or thread) per rank over persistent
//!   loopback/LAN `TcpStream`s with length-prefixed little-endian framing
//!   ([`wire`]); bytes on the wire and elapsed time are *measured*.
//!
//! Both backends move typed byte frames ([`wire::Payload`]): dense f32
//! lanes, packed 64-bit words, or opaque compressed byte streams. A
//! payload's byte length *is* its wire size, so compressed gradient
//! encodings cross the real socket at their encoded size instead of being
//! expanded back to f32 buffers. Both receive through the same per-link
//! inbox (`inbox.rs`): the in-process sender fills it directly, a TCP
//! link's reader thread fills it from the socket, and how a blocked rank
//! learns its peer is gone is written there once. The collectives built
//! from those sends and receives — the barrier among them — live above
//! the trait, on the one engine in `nonblocking.rs`.
//!
//! Rendezvous for the TCP backend is torchrun-style: rank 0 listens on the
//! master address, every rank registers its data-plane address, and the
//! full peer table is broadcast back before the mesh of per-peer
//! connections is established. The typed bootstrap is a
//! [`rendezvous::WorldSpec`] — per-rank bind hosts (so groups can span
//! machines) plus group assignments — which a launched rank process reads
//! from its `A2SGD_RANK`/`A2SGD_WORLD`/`A2SGD_MASTER_ADDR` environment
//! (see [`rendezvous::Rendezvous::from_env`]).
//!
//! [`group::GroupTransport`] is the third, derived data plane: the
//! rank-remapping tag-spaced view over either backend that
//! `CommHandle::split` builds sub-communicators from.

pub mod group;
mod inbox;
pub mod inproc;
pub mod launch;
pub mod rendezvous;
pub mod tcp;
pub mod wire;

pub use group::GroupTransport;
pub use inproc::{InProc, InProcShared};
pub use launch::{
    run_cluster_tcp, run_cluster_tcp_threads, run_multiprocess, run_multiprocess_spec,
    tcp_child_rank, LaunchConfig, ENV_CHILD_DEADLINE,
};
pub use rendezvous::{RankSpec, Rendezvous, WorldSpec};
pub use tcp::Tcp;
pub use wire::{Payload, PayloadKind, PayloadRef};

/// Traces one frame crossing the `from → to` link as a closed span begun
/// at `t0` — `send/<kind>` on the sender, `recv/<kind>` on the receiver,
/// tag and `wire_bytes` in its `Wire` args — tied to its other end by a
/// flow id both ends derive here. `salt` namespaces a backend's flows.
pub(crate) fn wire_span(
    sent: bool,
    kind: PayloadKind,
    t0: u64,
    (from, to, tag): (usize, usize, u64),
    bytes: u64,
    salt: u64,
) {
    if !a2sgd_trace::enabled() {
        return;
    }
    let name = match (sent, kind) {
        (true, PayloadKind::Bytes) => "send/bytes",
        (true, PayloadKind::F32Dense) => "send/f32",
        (true, PayloadKind::PackedU64) => "send/u64",
        (false, PayloadKind::Bytes) => "recv/bytes",
        (false, PayloadKind::F32Dense) => "recv/f32",
        (false, PayloadKind::PackedU64) => "recv/u64",
    };
    let flow = a2sgd_trace::flow_id(((from as u64) << 32) | to as u64, tag, salt);
    a2sgd_trace::closed_span_flow(
        name,
        t0,
        a2sgd_trace::Args::Wire { from, to, tag, bytes },
        flow,
        sent,
    );
}

/// Typed peer-loss/IO/framing failure on a transport link. `send_bytes`,
/// `recv_bytes`, every `try_*` collective and the
/// nonblocking `wait()`/`try_complete()` return this, naming the rank, the
/// peer, the awaited tag and the underlying cause (clean EOF vs reset vs
/// protocol desync) so a failed step is diagnosable. Restart/shrink
/// policies on top live in the `a2sgd-elastic` crate, which turns these
/// values into membership decisions, re-rendezvous and shrink-and-continue
/// training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The link to `peer` ended (EOF, reset or stream desync) while rank
    /// `rank` was still expecting traffic on it.
    PeerClosed {
        /// The observing rank.
        rank: usize,
        /// The peer whose link died.
        peer: usize,
        /// The tag a receive was waiting for, if any.
        tag: Option<u64>,
        /// Underlying cause as reported by the OS/codec.
        cause: String,
    },
    /// An I/O error while pushing bytes toward `peer` (send path).
    SendFailed {
        /// The observing rank.
        rank: usize,
        /// The peer being written to.
        peer: usize,
        /// Underlying cause.
        cause: String,
    },
    /// A frame from `peer` arrived intact but is not what the collective
    /// round expects under `tag`: the wrong payload kind or element count,
    /// or content its format's parser refuses (a peer bug or a
    /// desynchronized schedule — never summed or copied).
    BadFrame {
        /// The observing rank.
        rank: usize,
        /// The peer that sent the frame.
        peer: usize,
        /// The tag the frame arrived under.
        tag: u64,
        /// What was expected and what arrived.
        cause: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { rank, peer, tag, cause } => match tag {
                Some(t) => write!(
                    f,
                    "rank {rank}: link to rank {peer} closed while awaiting tag {t:#x} ({cause})"
                ),
                None => write!(f, "rank {rank}: link to rank {peer} closed ({cause})"),
            },
            TransportError::SendFailed { rank, peer, cause } => {
                write!(f, "rank {rank}: send to rank {peer} failed ({cause})")
            }
            TransportError::BadFrame { rank, peer, tag, cause } => {
                write!(f, "rank {rank}: bad frame from rank {peer} under tag {tag:#x} ({cause})")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// What a receive returns: the frame, `None` from a receive that may not
/// wait and found nothing yet, or the dead link.
pub type RecvResult = Result<Option<Payload>, TransportError>;

/// A point-to-point data plane the collectives run over.
///
/// The contract mirrors a minimal MPI: tagged send/recv of typed byte
/// frames ([`Payload`]) between ranks, nothing else — every collective,
/// the barrier included ([`crate::CommHandle::try_barrier`]), is written
/// once above it. Implementations must deliver frames between a given
/// (sender, receiver) pair in send order; the collectives only ever post
/// receives whose source rank is determined by the algorithm, so no
/// wildcard receive exists. There is one receive, and the caller says
/// whether it may wait: the handle-based collectives poll it with
/// `block = false`, which must never block.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn world(&self) -> usize;

    /// Human-readable backend name (for labels and error messages).
    fn backend_name(&self) -> &'static str;

    /// How many ranks of the world run on the machine this rank runs on —
    /// the ranks its compute threads share cores with. Thread ranks of one
    /// process (the default) all do.
    fn ranks_on_host(&self) -> usize {
        self.world()
    }

    /// Sends a tagged typed frame to `to` from the caller's borrowed
    /// buffers ([`PayloadRef`]: no owned copy is made to send). On a real
    /// network the payload is copied once, encoded little-endian into the
    /// link's buffer on its way to the socket; in-process it is copied
    /// once into the receiver's mailbox. Returns the number of bytes actually put on the
    /// wire — payload plus framing overhead for real networks, bare
    /// payload bytes for the in-process memcpy. Sends are required to
    /// complete without waiting for the receiver to post a matching
    /// receive (mailbox push / drained socket write), which is what makes
    /// the nonblocking collectives launch-and-forget safe.
    fn send_bytes(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<u64, TransportError>;

    /// Receives the frame carrying `tag` from rank `from`: `Ok(Some)` once
    /// it has arrived — waited for when `block` — and `Ok(None)` when it
    /// has not and `block` is false. A link that ended without delivering
    /// it is [`TransportError::PeerClosed`], never a hang.
    fn recv_bytes(&mut self, from: usize, tag: u64, block: bool) -> RecvResult;

    /// Cooperative post-failure membership census. A survivor that hit a
    /// [`TransportError`] mid-collective calls this once: the transport
    /// announces its own departure-free liveness to every peer (goodbye
    /// control frames on real networks), stops initiating new traffic,
    /// drains each link, and classifies every rank as alive (a goodbye
    /// arrived — the peer reached its own census) or dead (the link ended
    /// without one). Returns `alive[r]` per rank, always `true` for the
    /// caller itself, or `None` when the backend has no membership
    /// protocol (the default). After a `Some` return the endpoint is
    /// spent: survivors re-rendezvous through a fresh world instead of
    /// reusing it.
    fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        None
    }
}

/// Which data plane a run uses (trainer/bench-level selection knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommBackend {
    /// Thread ranks + shared-memory mailboxes; communication time is
    /// priced by the Hockney model, not measured.
    #[default]
    InProc,
    /// One process per rank over TCP; measured bytes and wall time. The
    /// process must carry the `A2SGD_RANK`/`A2SGD_WORLD`/`A2SGD_MASTER_ADDR`
    /// rendezvous environment (see [`Rendezvous::from_env`]).
    Tcp,
}

impl CommBackend {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            CommBackend::InProc => "inproc",
            CommBackend::Tcp => "tcp",
        }
    }
}
