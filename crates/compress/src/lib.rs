//! # gradcomp
//!
//! Gradient-synchronization algorithms: the dense baseline and the
//! compression baselines the paper evaluates against (Top-K, Gaussian-K,
//! QSGD) plus three extensions from its related-work section (Rand-K,
//! TernGrad, EF-SignSGD). The paper's own contribution, A2SGD, lives in the
//! `a2sgd` core crate and implements the same [`GradientSynchronizer`]
//! trait.
//!
//! The six compression baselines are **codecs under one driver**:
//!
//! * A [`Codec`] owns its worker-local state (error-feedback memory, RNG
//!   streams) and does three things. [`prepare`](Codec::prepare) is the
//!   whole-gradient pass: selection sets, norms and scales are computed
//!   over the *whole* gradient exactly as in the one-shot formulation.
//!   [`encode`](Codec::encode) produces one bucket's typed wire payload
//!   ([`cluster_comm::Payload`] — Elias-coded QSGD levels,
//!   `(u32 idx, f32 val)` sparse records, sign/ternary bit-packs) and
//!   [`accumulate`](Codec::accumulate) folds one rank's frame back into the
//!   bucket or refuses it — `TransportError::BadFrame` on every rank that
//!   decodes it. Top-K, Gaussian-K and Rand-K are one [`sparse::Sparsifier`]
//!   under three selection rules. What an algorithm *kind* costs — its
//!   name, Table-2 complexity and closed-form wire bits — is
//!   `a2sgd::registry::AlgoKind`'s to say, not a built synchronizer's
//!   ([`sparse::k_of`] is the one k both use).
//! * The driver ([`session`]) is [`GradientSynchronizer::try_sync_bucketed`]
//!   for every codec: a **bucketed encode → async-exchange → decode**
//!   pipeline over *nonblocking* collectives
//!   ([`cluster_comm::CommHandle::start_allgather_bytes`]) — bucket *i*'s
//!   frames are in flight while bucket *i+1* encodes and completed buckets
//!   decode — and the one place the family's `compress_seconds` are
//!   measured.
//!
//! Dense has nothing to encode: it streams plain f32 lanes through
//! [`start_allreduce`](cluster_comm::CommHandle::start_allreduce) and is its
//! own synchronizer. Because bucket boundaries are a pure function of the
//! parameter layout and all cross-bucket statistics are global, the result
//! is **bit-identical to the single-shot call** (`synchronize`, which is
//! just the whole-model-as-one-bucket adapter) for every bucket cap, on
//! every backend, at every world size.
//!
//! A synchronizer that needs no cross-bucket statistics also streams: its
//! [`start_bucket`](GradientSynchronizer::start_bucket) launches one
//! bucket's exchange and returns the in-flight handle (Dense), where every
//! other synchronizer returns `None`. The one driver of that path is the
//! per-layer hook driver `a2sgd::overlap::HookedStep`: it launches each
//! bucket the moment its last parameter's gradient lands — *while the
//! backward pass is still executing* — and drains the handles after it,
//! or, when nothing streamed, runs `try_sync_bucketed` over the whole
//! gradient once it exists. Either way the hook-driven result is
//! bit-identical to single-shot (CI-enforced across all synchronizers ×
//! caps × worlds × backends).
//!
//! The encoded payload *is* what crosses the transport, so
//! [`SyncStats::wire_bits`] is derived from the bytes that actually moved
//! — on the TCP backend, measured `TrafficStats::wire_bytes` equals these
//! bits (rounded up to whole bytes) plus the fixed per-frame framing
//! header, nothing more. Bucketing can add a few bytes of honest overhead
//! (each sub-byte-packed bucket pads to a whole byte and re-ships its
//! 32-bit scale); the gradient math is unaffected. [`SyncStats`] also
//! splits the step's cost into `compress_seconds` — for a codec, prepare +
//! every bucket's encode + every bucket's zero-and-accumulate, measured by
//! the driver around each call — and `exchange_seconds` (wall time inside
//! collective calls), so compression and communication cost are separable
//! in the figure/table outputs. Synchronizers never write time:
//! `exchange_seconds`, `comm_seconds` (what the communicator's own time
//! ledger charged for the exchange — the Hockney price in-proc) and
//! `wire_bits` are deltas of the communicator's ledgers, read through one
//! [`Ledger`] reading.
//!
//! **Peer loss is a value.** The contract is fallible end to end:
//! [`GradientSynchronizer::try_sync_bucketed`] and `try_finish_bucket`
//! return the comm layer's [`TransportError`] untouched when a peer dies
//! mid-exchange; what the caller's recovery policy must then rebuild is
//! stated on `try_sync_bucketed`. `sync_bucketed` / `synchronize` are
//! one-line panicking adapters for callers with no such policy — the shape
//! `CommHandle::allreduce_avg` has over `try_allreduce_avg`.

pub mod dense;
pub mod ef;
mod elias;
pub mod gaussiank;
pub mod hier;
pub mod qsgd;
pub mod randk;
pub mod session;
pub mod signsgd;
pub mod sparse;
pub mod special;
pub mod terngrad;
pub mod topk;

pub use dense::DenseSgd;
pub use gaussiank::GaussianK;
pub use hier::HierarchicalSynchronizer;
pub use qsgd::{Qsgd, QsgdImpl};
pub use randk::RandK;
pub use session::bucket_bounds;
pub use signsgd::SignSgdEf;
pub use terngrad::TernGrad;
pub use topk::TopK;

use cluster_comm::{CollectiveHandle, CommHandle, Payload, TrafficStats, TransportError};
use std::ops::Range;

/// Per-iteration synchronization accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SyncStats {
    /// Seconds spent compressing/selecting/encoding/decoding on this
    /// worker (measured wall time).
    pub compress_seconds: f64,
    /// Seconds of measured wall time spent inside collective calls
    /// (launch + progress + wait) — the communication side of the step,
    /// separable from `compress_seconds`: the delta of the communicators'
    /// exchange ledgers (`CommHandle::exchange_seconds`), summed over
    /// planes. Overlapped network time that no call observes is genuinely
    /// free and does not appear here.
    pub exchange_seconds: f64,
    /// Seconds of exchange time hidden under the caller's own compute:
    /// for hook-driven steps, the wall time between a streamed bucket's
    /// nonblocking launch and its drain after the backward pass — i.e.
    /// network time that elapsed while the backward pass was still
    /// executing. Synchronizers themselves report 0; the hook driver
    /// (`a2sgd::overlap::HookedStep`) measures it.
    pub overlap_seconds: f64,
    /// Bits this worker's own encoded contribution put on the wire,
    /// derived from the typed payload bytes the collective actually moved
    /// (sub-byte encodings are padded to whole bytes, so this is a
    /// multiple of 8 for opaque byte frames).
    pub wire_bits: u64,
    /// Communication seconds the exchange was charged on the
    /// communicators' own ledgers (`CommHandle::comm_seconds`, summed over
    /// planes): the closed-form Hockney price of its collectives under a
    /// cost model — reproducible, a function of frame sizes only — and the
    /// wall time inside collective calls on measured backends.
    pub comm_seconds: f64,
    /// Of `wire_bits`, the bits that crossed the *intra-group* (dense,
    /// cheap) plane of a hierarchical topology. Flat synchronizers report
    /// 0 for both split fields.
    pub intra_wire_bits: u64,
    /// Of `wire_bits`, the bits that crossed the *inter-group* (leader,
    /// expensive) plane — the traffic the paper's O(1) bound governs.
    pub inter_wire_bits: u64,
    /// Of `exchange_seconds`, the seconds spent in intra-group collectives.
    pub intra_exchange_seconds: f64,
    /// Of `exchange_seconds`, the seconds spent in inter-group collectives.
    pub inter_exchange_seconds: f64,
    /// Free inter-worker dispersion statistic, when the exchange already
    /// carried one: a normalized variance across ranks of the per-rank
    /// encoded summaries (the A2SGD family derives it from the allgathered
    /// two-means packets at zero extra wire cost). **Must be identical on
    /// every rank** — adaptive sync schedules feed it straight into their
    /// (deadlock-if-ranks-disagree) period controller. Synchronizers whose
    /// exchange carries no such rank-agreed summary report `None`, and the
    /// trainer falls back to an explicit drift allgather.
    pub dispersion: Option<f64>,
}

/// One reading of a communicator's three ledgers — logical wire bits,
/// communication seconds and exchange seconds — the standard way
/// synchronizers derive [`SyncStats::wire_bits`],
/// [`SyncStats::comm_seconds`] and [`SyncStats::exchange_seconds`]: read
/// before the exchange's first collective call, [`spent`](Self::spent)
/// after its last, so all three are deltas over the same interval.
#[derive(Debug, Clone, Copy)]
pub struct Ledger {
    bits: u64,
    seconds: f64,
    exchange: f64,
}

impl Ledger {
    /// Reads `comm`'s ledgers as they stand.
    pub fn read(comm: &CommHandle) -> Self {
        Ledger {
            bits: comm.stats().logical_wire_bits,
            seconds: comm.comm_seconds(),
            exchange: comm.exchange_seconds(),
        }
    }

    /// What `comm` moved and was charged since this reading, as the three
    /// fields of an otherwise default [`SyncStats`].
    pub fn spent(self, comm: &CommHandle) -> SyncStats {
        SyncStats {
            wire_bits: comm.stats().logical_wire_bits - self.bits,
            comm_seconds: comm.comm_seconds() - self.seconds,
            exchange_seconds: comm.exchange_seconds() - self.exchange,
            ..SyncStats::default()
        }
    }
}

/// A distributed gradient-synchronization algorithm.
///
/// [`try_sync_bucketed`](Self::try_sync_bucketed) replaces the local
/// gradient with the algorithm's global estimate of the averaged gradient;
/// whatever information is lost must be handled by the algorithm's own
/// state (e.g. error feedback) so that training still converges. It is the
/// one required exchange method; [`sync_bucketed`](Self::sync_bucketed) and
/// the whole-model [`synchronize`](Self::synchronize) are provided
/// panicking adapters over it.
pub trait GradientSynchronizer: Send {
    /// Synchronizes `grad` across ranks in place, exchanging per `bounds`
    /// bucket with nonblocking collectives so communication overlaps the
    /// remaining encode/decode compute.
    ///
    /// `bounds` must partition `0..grad.len()` into ascending contiguous
    /// ranges (see [`bucket_bounds`]). Implementations guarantee the
    /// result is **bit-identical** for every partition — all cross-bucket
    /// statistics are computed over the whole gradient first — so bucket
    /// choice is purely a latency/overlap knob, never a semantics knob.
    ///
    /// A peer lost mid-exchange is returned, never panicked on. After an
    /// `Err`, `grad` and the synchronizer's private state are unspecified
    /// and the communicator is spent: rebuild both for the new world.
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError>;

    /// [`try_sync_bucketed`](Self::try_sync_bucketed) for callers with no
    /// recovery policy: peer loss panics with the typed transport cause.
    fn sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> SyncStats {
        self.try_sync_bucketed(grad, bounds, comm).unwrap_or_else(|e| panic!("gradient sync: {e}"))
    }

    /// One-shot whole-model synchronization: the single-bucket adapter
    /// over [`sync_bucketed`](Self::sync_bucketed).
    fn synchronize(&mut self, grad: &mut [f32], comm: &mut CommHandle) -> SyncStats {
        let n = grad.len();
        self.sync_bucketed(grad, std::slice::from_ref(&(0..n)), comm)
    }

    /// Streaming fast path: when this synchronizer's per-bucket exchange
    /// needs **no cross-bucket statistics** (Dense: each bucket's allreduce
    /// is independent), launch `bucket`'s exchange nonblocking — the moment
    /// its gradient lands, before the rest of the gradient even exists —
    /// and return the in-flight handle. Every global-statistics compressor
    /// (selection sets, norms, scales, two-level means) returns the default
    /// `None` and is synchronized by
    /// [`try_sync_bucketed`](Self::try_sync_bucketed) once the whole
    /// gradient exists. Buckets may be started in any order (all ranks
    /// observe the same arrival order, so tags still match), and the result
    /// must be bit-identical to `try_sync_bucketed` over the same
    /// partition. Send failures are deferred into the handle and surface at
    /// [`try_finish_bucket`](Self::try_finish_bucket).
    fn start_bucket(&mut self, bucket: &[f32], comm: &mut CommHandle) -> Option<CollectiveHandle> {
        let _ = (bucket, comm);
        None
    }

    /// Completes a bucket launched by [`start_bucket`](Self::start_bucket),
    /// folding the world's exchanged contribution into `bucket` in place;
    /// a peer lost while the bucket was in flight is returned. Only called
    /// with a handle `start_bucket` returned.
    fn try_finish_bucket(
        &mut self,
        bucket: &mut [f32],
        handle: CollectiveHandle,
        comm: &mut CommHandle,
    ) -> Result<(), TransportError> {
        let _ = (bucket, handle, comm);
        unimplemented!("try_finish_bucket is only called on a handle start_bucket returned")
    }

    /// Per-plane traffic for synchronizers that own private
    /// sub-communicators: `(intra, inter)` [`TrafficStats`], with `inter`
    /// `None` on non-leader ranks. Flat synchronizers return `None` —
    /// their traffic lives on the world communicator the caller already
    /// holds. Trace audits use this to cross-check span-derived per-plane
    /// wire bytes against the communicators' own accounting.
    fn plane_traffic(&self) -> Option<(TrafficStats, Option<TrafficStats>)> {
        None
    }
}

/// A gather-style compressor: the three calls the shared driver
/// ([`session`]) makes to synchronize with one of the compression
/// baselines. Every `Codec` is a [`GradientSynchronizer`] through that
/// driver; a codec itself never touches a timer, a communicator or a
/// [`SyncStats`].
///
/// Per step the driver calls [`prepare`](Self::prepare) once, then for each
/// bucket of the caller's partition [`encode`](Self::encode) → nonblocking
/// allgather → [`accumulate`](Self::accumulate) once per rank's frame into
/// the zeroed bucket at weight `1/P`, rank 0 first. The synchronized
/// gradient must not depend on the partition, so everything that looks
/// across buckets (error feedback, norms, scales, thresholds, the selection,
/// the stochastic-rounding stream) belongs in `prepare`.
pub trait Codec: Send {
    /// The whole-gradient pass: compress `grad` as one vector, leaving what
    /// [`encode`](Self::encode) reads either in `grad` (each bucket is
    /// overwritten only after its own encode) or in `self`.
    fn prepare(&mut self, grad: &mut [f32]);

    /// This rank's wire frame for the bucket `range`; `bucket` is
    /// `grad[range]` as `prepare` left it.
    fn encode(&self, range: &Range<usize>, bucket: &[f32]) -> Payload;

    /// Folds one rank's `frame` for the bucket `range` into `bucket`
    /// (`grad[range]`): `bucket[i] += decoded[i] · weight`. The format's
    /// one parser: a frame it cannot read is an `Err` naming the cause
    /// (`bucket` then partly updated), never a panic, and `BadFrame` from
    /// `try_sync_bucketed` on every rank that decodes the frame.
    fn accumulate(
        &self,
        range: &Range<usize>,
        frame: &Payload,
        bucket: &mut [f32],
        weight: f32,
    ) -> Result<(), String>;
}

impl<C: Codec> GradientSynchronizer for C {
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        session::sync_gathered(self, grad, bounds, comm)
    }
}
