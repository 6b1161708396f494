//! MPI-style collectives, generic over the [`Transport`] data plane.
//!
//! The algorithms (ring reduce-scatter/allgather allreduce, recursive
//! doubling, direct-exchange allgather, binomial broadcast, dissemination
//! barrier — Thakur, Rabenseifner & Gropp, the paper's reference [46]) are
//! written against the transport's tagged send/recv only, so the same code
//! moves bytes through in-process mailboxes or real TCP sockets. Every
//! rank must call the same sequence of collective operations — the usual
//! SPMD contract.
//!
//! This file is [`CommHandle`]: the communicator, its ledgers and the
//! blocking spellings. Every collective is an op on the one engine in
//! [`crate::nonblocking`] — a table of rounds, or the direct-exchange
//! gather — and every blocking spelling here is `start → wait` on it.
//!
//! Gather and broadcast are generic over [`WireElem`] (the types a
//! [`Payload`] can carry: `f32`, `u64`, `u8`); allreduce is the dense
//! `f32` sum. The typed gather has MPI_Allgather semantics (every rank
//! sends `data.len()` elements); [`CommHandle::allgather_bytes`] carries
//! one opaque encoded [`Payload`] frame per rank, of any size — compressed
//! gradients cross the wire at their encoded size, and the traffic
//! accounting below needs no out-of-band overrides.
//!
//! Time is a ledger each communicator keeps locally
//! ([`CommHandle::comm_seconds`]): under a [`CostModel`] (in-proc) every
//! completed collective adds its Hockney α–β price — a function of sizes
//! every rank already agrees on, so no rank asks another — and without
//! one (TCP) it adds the wall time measured inside the call — which the
//! exchange ledger ([`CommHandle::exchange_seconds`]) adds on every backend.

use crate::cost::CostModel;
use crate::nonblocking::Collective;
use crate::transport::group::{self, GroupTransport, SharedTransport};
use crate::transport::wire::{Payload, PayloadRef};
use crate::transport::{Transport, TransportError};
use std::time::Instant;

/// A scalar type a [`Payload`] frame can carry.
pub trait WireElem: Copy + Send + Sized + 'static {
    /// Bytes per element on the wire.
    const BYTES: usize;

    /// Views a slice as its typed wire payload (no copy — sends stream
    /// straight from the borrowed slice).
    fn payload_ref(items: &[Self]) -> PayloadRef<'_>;

    /// Decodes a typed payload (panics on a kind mismatch — an SPMD bug).
    fn from_payload(payload: Payload) -> Vec<Self>;

    /// Encodes a slice into an owned typed payload.
    fn to_payload(items: &[Self]) -> Payload {
        Self::payload_ref(items).to_owned()
    }
}

impl WireElem for f32 {
    const BYTES: usize = 4;

    fn payload_ref(items: &[Self]) -> PayloadRef<'_> {
        PayloadRef::F32Dense(items)
    }

    fn from_payload(payload: Payload) -> Vec<Self> {
        payload.expect_f32()
    }
}

impl WireElem for u64 {
    const BYTES: usize = 8;

    fn payload_ref(items: &[Self]) -> PayloadRef<'_> {
        PayloadRef::PackedU64(items)
    }

    fn from_payload(payload: Payload) -> Vec<Self> {
        payload.expect_u64()
    }
}

impl WireElem for u8 {
    const BYTES: usize = 1;

    fn payload_ref(items: &[Self]) -> PayloadRef<'_> {
        PayloadRef::Bytes(items)
    }

    fn from_payload(payload: Payload) -> Vec<Self> {
        payload.expect_bytes()
    }
}

/// Which allreduce algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Ring reduce-scatter + allgather: bandwidth-optimal.
    Ring,
    /// Recursive doubling (with the MPICH non-power-of-two fold):
    /// latency-optimal.
    RecursiveDoubling,
    /// Pick by modeled cost, like an MPI implementation would. Measured
    /// backends (no cost model) select against the reference InfiniBand
    /// profile — the same model as the in-proc default — so TCP and a
    /// default-profile in-proc cluster make the same, bit-identical
    /// choice. An in-proc cluster on a *different* `NetworkProfile` may
    /// legitimately pick the other algorithm near the ring/RD crossover;
    /// pin the algorithm explicitly when cross-backend bit-equality
    /// matters under non-default profiles.
    Auto,
}

/// Per-rank traffic accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Application payload bytes this rank handed to the transport across
    /// all algorithm steps (typed payload bytes, excluding framing).
    pub bytes_sent: u64,
    /// Frames (point-to-point messages) sent.
    pub messages: u64,
    /// Bytes the transport reported putting on the wire, *including*
    /// framing overhead. For the in-process backend a send is a memcpy, so
    /// this equals `bytes_sent`; for TCP it is measured traffic:
    /// `bytes_sent + FRAME_HEADER_BYTES · messages`.
    pub wire_bytes: u64,
    /// Logical application-level bits per collective *payload* — what the
    /// paper's Table 2 counts. Incremented exactly once per collective
    /// call by the byte size of this rank's own typed payload (×8). Since
    /// every encoding now crosses the wire at its encoded size, this is
    /// *derived from* the bytes that actually move — no overrides exist.
    /// It stays deliberately independent of the algorithm's step count,
    /// per-peer copies, and framing — compare against
    /// `bytes_sent`/`wire_bytes` to separate the paper's complexity claim
    /// from transport amplification.
    pub logical_wire_bits: u64,
}

/// Rank-local endpoint: collectives, the time ledger and traffic stats
/// over an arbitrary [`Transport`].
pub struct CommHandle {
    pub(crate) transport: Box<dyn Transport>,
    /// `Some` ⇒ collectives are priced (Hockney α–β); `None` ⇒ timed.
    cost: Option<CostModel>,
    comm_s: f64,
    exchange_s: f64,
    stats: TrafficStats,
    op_seq: u64,
    /// Nonblocking collectives started but not yet waited (see
    /// [`crate::nonblocking`]) and the high-water mark — the tag
    /// accounting that proves frames actually overlap in flight.
    inflight: usize,
    max_inflight: usize,
    /// Split-communicator state (see [`CommHandle::split`]): the shared
    /// root endpoint plus this handle's sub-rank → root-rank member map.
    /// `None` until the first split on this rank's lineage.
    shared: Option<SharedState>,
    /// This handle's tag space (bits 48..63 of every collective tag);
    /// 0 for a never-split root communicator.
    space: u64,
    /// How many child communicators this handle has split off — the
    /// deterministic sub-space allocator (SPMD: every rank splits in the
    /// same order, so every rank computes the same child space).
    split_seq: u64,
    /// Trace label for the plane this communicator's traffic belongs to
    /// (`"world"` by default; the hierarchy sets `"intra"`/`"inter"`).
    plane: &'static str,
}

struct SharedState {
    transport: SharedTransport,
    /// This handle's sub-rank → root-absolute rank map (identity for the
    /// root communicator).
    members: Vec<usize>,
}

impl CommHandle {
    /// Wraps a transport. With `cost`, collectives are priced by the model
    /// instead of timed (see [`Self::comm_seconds`]).
    pub fn new(transport: Box<dyn Transport>, cost: Option<CostModel>) -> Self {
        CommHandle {
            transport,
            cost,
            comm_s: 0.0,
            exchange_s: 0.0,
            stats: TrafficStats::default(),
            op_seq: 0,
            inflight: 0,
            max_inflight: 0,
            shared: None,
            space: 0,
            split_seq: 0,
            plane: "world",
        }
    }

    /// Builds a measured-time TCP handle from the rendezvous environment:
    /// the `A2SGD_RANK` / `A2SGD_WORLD` / `A2SGD_MASTER_ADDR`
    /// triple, read through the typed
    /// [`Rendezvous`](crate::transport::rendezvous::Rendezvous) so the
    /// optional per-rank bind-host and group lists are honored too.
    pub fn tcp_from_env() -> Result<Self, String> {
        let rdv = crate::transport::rendezvous::Rendezvous::from_env()?;
        Ok(CommHandle::new(Box::new(rdv.connect()?), None))
    }

    /// Builds a measured-time TCP handle for `rank` of a typed
    /// [`WorldSpec`](crate::transport::rendezvous::WorldSpec).
    pub fn tcp_from_spec(
        rank: usize,
        spec: &crate::transport::rendezvous::WorldSpec,
    ) -> Result<Self, String> {
        let t = crate::transport::Tcp::connect_spec(rank, spec)?;
        Ok(CommHandle::new(Box::new(t), None))
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.transport.rank()
    }

    /// Cluster size.
    pub fn world(&self) -> usize {
        self.transport.world()
    }

    /// How many ranks of the *world* run on this rank's machine (on a
    /// sub-communicator too): in-proc and thread-rank launchers put every
    /// rank in one process; a TCP world counts the ranks of its
    /// [`WorldSpec`](crate::transport::rendezvous::WorldSpec) that bind this
    /// rank's host. The trainer divides the host's cores by it.
    pub fn ranks_on_host(&self) -> usize {
        self.transport.ranks_on_host()
    }

    /// The transport backend's name (`"inproc"`, `"tcp"`).
    pub fn backend_name(&self) -> &'static str {
        self.transport.backend_name()
    }

    /// The cost model in force — `None` on measured (real-network)
    /// backends.
    pub fn cost_model(&self) -> Option<CostModel> {
        self.cost
    }

    /// Communication seconds this communicator has been charged so far.
    /// Under a cost model: the sum of the closed-form prices of the
    /// collectives it completed — bit-equal on every rank after the same
    /// collectives and independent of how long any rank computed. Without
    /// one: the wall time spent inside collective calls (network time that
    /// passes between calls is overlapped, hence free).
    pub fn comm_seconds(&self) -> f64 {
        self.comm_s
    }

    /// Measured wall seconds spent inside collective calls so far (launch,
    /// progress and wait), priced backend or not — bit-equal to
    /// [`Self::comm_seconds`] on a measured one.
    pub fn exchange_seconds(&self) -> f64 {
        self.exchange_s
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }

    /// Resets traffic statistics (e.g. per-epoch accounting).
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::default();
    }

    /// Nonblocking collectives currently started but not completed.
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// High-water mark of concurrently in-flight nonblocking collectives
    /// since construction — ≥ 2 is the proof that a pipelined caller
    /// actually overlapped exchanges instead of serializing them.
    pub fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    /// Post-failure membership census (see
    /// [`Transport::classify_survivors`]): after a `try_*` collective
    /// returned a [`TransportError`], classifies every rank of this
    /// communicator as alive or dead. `None` when the backend has no
    /// membership protocol. After a `Some` return this handle is spent —
    /// survivors rebuild through a fresh rendezvous (`a2sgd-elastic`).
    pub fn classify_survivors(&mut self) -> Option<Vec<bool>> {
        self.transport.classify_survivors()
    }

    /// Raw access to the underlying transport for out-of-band control
    /// traffic (heartbeats, membership probes). Callers must stay inside
    /// the reserved [`ELASTIC_TAG`](crate::ELASTIC_TAG) namespace — those
    /// frames are invisible to collective tag matching and excluded from
    /// `tag_space` accounting, so they can never desynchronize an ongoing
    /// collective. Bytes moved here bypass this handle's [`TrafficStats`].
    pub fn transport_mut(&mut self) -> &mut dyn Transport {
        self.transport.as_mut()
    }

    /// Splits this communicator into disjoint sub-communicators — MPI's
    /// `MPI_Comm_split`, collective over **all** ranks of this
    /// communicator. Ranks passing the same `Some(group_id)` form one
    /// sub-communicator whose sub-ranks are assigned by ascending
    /// `(key, parent_rank)`; ranks passing `None` participate in the split
    /// but join no group and get `None` back.
    ///
    /// The child shares the parent's underlying endpoint (collectives on
    /// parent and child interleave safely: every child tag carries a
    /// distinct tag space in bits 48..63) and inherits its cost model; its
    /// own ledgers (traffic stats, comm seconds) start at zero. The parent
    /// stays fully usable.
    /// Splits nest — a child can split again — to a depth/width budget of
    /// 31 children per communicator and 15 bits of total space, far above
    /// any real topology.
    pub fn split(&mut self, group: Option<u64>, key: u64) -> Option<CommHandle> {
        // Membership exchange over *this* communicator (sub-ranks if we
        // are ourselves a child): one small allgather, honestly billed.
        let triple = [u64::from(group.is_some()), group.unwrap_or(0), key];
        let all = self.allgather(&triple);
        // Every split consumes one child space on every rank — members or
        // not — so later splits agree on numbering across ranks.
        self.split_seq += 1;
        assert!(self.split_seq < group::SPACE_FANOUT, "more than 31 splits of one communicator");
        let space = self.space * group::SPACE_FANOUT + self.split_seq;
        assert!(space < group::MAX_SPACE, "communicator split nesting exhausted the tag space");
        let shared = self.ensure_shared();
        let gid = group?;
        let mut members: Vec<(u64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, t)| t[0] == 1 && t[1] == gid)
            .map(|(r, t)| (t[2], r))
            .collect();
        members.sort_unstable();
        let sub_rank =
            members.iter().position(|&(_, r)| r == self.rank()).expect("own rank not in group");
        // Translate this communicator's ranks to root-absolute ranks for
        // the shared endpoint.
        let map = &self.shared.as_ref().expect("shared root").members;
        let abs: Vec<usize> = members.iter().map(|&(_, r)| map[r]).collect();
        let transport = GroupTransport::group(shared.clone(), abs.clone(), sub_rank, space);
        let mut child = CommHandle::new(Box::new(transport), self.cost);
        child.shared = Some(SharedState { transport: shared, members: abs });
        child.space = space;
        child.plane = self.plane;
        Some(child)
    }

    /// The trace plane label this communicator's traffic is attributed to
    /// (`"world"` unless [`Self::set_plane`] renamed it).
    pub fn plane(&self) -> &'static str {
        self.plane
    }

    /// This communicator's tag space — the identifier frames from this
    /// communicator carry on the wire (0 for the root world; split children
    /// get distinct sub-spaces). Trace audits group per-plane wire bytes by
    /// it via [`crate::tag_space`].
    pub fn space(&self) -> u64 {
        self.space
    }

    /// Labels this communicator's plane for tracing (the hierarchy uses
    /// `"intra"`/`"inter"`) and announces the tag-space → plane mapping as
    /// a trace instant, so span-level audits can group per-plane wire
    /// bytes by the tag space each frame carries.
    pub fn set_plane(&mut self, plane: &'static str) {
        self.plane = plane;
        a2sgd_trace::instant("plane_map", a2sgd_trace::Args::Plane { space: self.space, plane });
    }

    /// Makes this handle's endpoint shareable (first split only): the real
    /// transport moves into an `Arc<Mutex<…>>` and the handle keeps an
    /// identity [`GroupTransport`] view over it — bit-for-bit the same
    /// behavior, since the identity view passes ranks and tags through
    /// unchanged.
    fn ensure_shared(&mut self) -> SharedTransport {
        if self.shared.is_none() {
            let world = self.transport.world();
            let inner = std::mem::replace(&mut self.transport, Box::new(group::Detached));
            let shared: SharedTransport = std::sync::Arc::new(parking_lot::Mutex::new(inner));
            self.transport = Box::new(GroupTransport::identity(shared.clone()));
            self.shared = Some(SharedState { transport: shared, members: (0..world).collect() });
        }
        self.shared.as_ref().expect("just ensured").transport.clone()
    }

    // -- internals ---------------------------------------------------------

    pub(crate) fn inflight_inc(&mut self) {
        self.inflight += 1;
        self.max_inflight = self.max_inflight.max(self.inflight);
    }

    pub(crate) fn inflight_dec(&mut self) {
        self.inflight -= 1;
    }

    pub(crate) fn try_send_payload(
        &mut self,
        to: usize,
        tag: u64,
        payload: PayloadRef<'_>,
    ) -> Result<(), TransportError> {
        self.stats.bytes_sent += payload.byte_len() as u64;
        self.stats.wire_bytes += self.transport.send_bytes(to, tag, payload)?;
        self.stats.messages += 1;
        Ok(())
    }

    pub(crate) fn next_tag(&mut self) -> u64 {
        self.op_seq += 1;
        self.op_seq << 16
    }

    pub(crate) fn count_logical_bits(&mut self, bits: u64) {
        self.stats.logical_wire_bits += bits;
    }

    /// The model `Auto` selects algorithms against: the backend's own cost
    /// model, or the reference InfiniBand profile on measured backends
    /// (keeping the choice deterministic and backend-independent).
    fn selection_model(&self) -> CostModel {
        self.cost.unwrap_or_else(|| CostModel::new(crate::NetworkProfile::infiniband_100g()))
    }

    /// The wall time since `t0`, spent inside a collective call, joins the
    /// exchange ledger, and the comm ledger on measured backends (priced ones
    /// charge it nothing until the collective completes: [`Self::finish_op`]).
    pub(crate) fn charge_wall(&mut self, t0: Instant) {
        let seconds = t0.elapsed().as_secs_f64();
        self.exchange_s += seconds;
        if self.cost.is_none() {
            self.comm_s += seconds;
        }
    }

    /// Closes out a completed collective on the ledgers: the wall time since
    /// `t0`, plus under a cost model its closed-form price for `payload_bytes`
    /// — a size every rank agrees on (the SPMD contract; a gather passes its
    /// largest frame), so nothing is exchanged.
    pub(crate) fn finish_op(
        &mut self,
        t0: Instant,
        payload_bytes: f64,
        cost_of: impl Fn(&CostModel, f64, usize) -> f64,
    ) {
        self.charge_wall(t0);
        if let Some(model) = self.cost {
            self.comm_s += cost_of(&model, payload_bytes, self.world());
        }
    }

    // -- public collectives -------------------------------------------------
    //
    // Every blocking collective has a `try_*` form returning
    // `Result<_, TransportError>` — a dead peer is a recoverable value —
    // and a panicking form wrapping it through `or_panic`, for callers
    // with no recovery policy. On `Err` the collective is abandoned
    // mid-algorithm: nothing is charged and the communicator must be
    // considered spent (survivors re-rendezvous; see `a2sgd-elastic`).

    /// Full synchronization barrier: a dissemination rendezvous, ⌈log₂P⌉
    /// rounds of one empty frame per rank, each round doubling the hop
    /// distance. The frames carry no payload but are sent like any other,
    /// so they count toward `messages` and — where a frame has a header —
    /// `wire_bytes` (never `bytes_sent`/`logical_wire_bits`); a received
    /// frame that is not empty bytes is [`TransportError::BadFrame`].
    pub fn barrier(&mut self) {
        or_panic("barrier", self.try_barrier());
    }

    /// [`Self::barrier`] with peer loss and bad frames as typed values.
    pub fn try_barrier(&mut self) -> Result<(), TransportError> {
        self.start(Collective::Barrier).wait_buffer(self).map(drop)
    }

    /// In-place f32 allreduce-sum with algorithm selection. The logical
    /// wire size is the typed payload itself — `32 · len` bits, counted
    /// once per collective.
    pub fn allreduce_sum_with(&mut self, data: &mut [f32], algo: CollectiveAlgo) {
        or_panic("allreduce", self.try_allreduce_sum_with(data, algo));
    }

    /// [`Self::allreduce_sum_with`] with peer loss and bad frames as typed values.
    pub fn try_allreduce_sum_with(
        &mut self,
        data: &mut [f32],
        algo: CollectiveAlgo,
    ) -> Result<(), TransportError> {
        let payload_bytes = (4 * data.len()) as f64;
        let world = self.world();
        let ring = match algo {
            CollectiveAlgo::Ring => true,
            CollectiveAlgo::RecursiveDoubling => false,
            CollectiveAlgo::Auto => {
                let m = self.selection_model();
                m.ring_allreduce(payload_bytes, world)
                    <= m.recursive_doubling_allreduce(payload_bytes, world)
            }
        };
        let op = if ring { Collective::RingAllreduce } else { Collective::RdAllreduce };
        let sum = self.start(op(data.to_vec())).wait(self)?.expect_reduced();
        data.copy_from_slice(&sum);
        Ok(())
    }

    /// In-place allreduce-sum (auto algorithm).
    pub fn allreduce_sum(&mut self, data: &mut [f32]) {
        self.allreduce_sum_with(data, CollectiveAlgo::Auto);
    }

    /// In-place allreduce-average (auto algorithm).
    pub fn allreduce_avg(&mut self, data: &mut [f32]) {
        or_panic("allreduce", self.try_allreduce_avg(data));
    }

    /// [`Self::allreduce_avg`] with peer loss and bad frames as typed values.
    pub fn try_allreduce_avg(&mut self, data: &mut [f32]) -> Result<(), TransportError> {
        self.try_allreduce_sum_with(data, CollectiveAlgo::Auto)?;
        let inv = 1.0 / self.world() as f32;
        for v in data.iter_mut() {
            *v *= inv;
        }
        Ok(())
    }

    /// Allgather of `data.len()` elements from every rank (MPI_Allgather:
    /// every rank contributes the same count). Returns all contributions
    /// indexed by rank; a frame of another kind or length is
    /// [`TransportError::BadFrame`] (the panicking spelling panics). For
    /// frames whose size differs by rank, use [`Self::allgather_bytes`].
    pub fn allgather<T: WireElem>(&mut self, data: &[T]) -> Vec<Vec<T>> {
        or_panic("allgather", self.try_allgather(data))
    }

    /// [`Self::allgather`] with peer loss and bad frames as typed values.
    pub fn try_allgather<T: WireElem>(
        &mut self,
        data: &[T],
    ) -> Result<Vec<Vec<T>>, TransportError> {
        let gather = Collective::Allgather { frame: T::to_payload(data), typed: true };
        let frames = self.start(gather).wait(self)?.expect_gathered();
        Ok(frames.into_iter().map(T::from_payload).collect())
    }

    /// Allgather of one opaque encoded frame per rank — the exchange
    /// primitive for compressed gradients. Returns every rank's payload
    /// (own included) indexed by rank; payload sizes and kinds may differ
    /// across ranks. The logical wire size is this rank's own payload,
    /// counted once; the P−1 copies sent show up only in
    /// `bytes_sent`/`wire_bytes`.
    pub fn allgather_bytes(&mut self, payload: Payload) -> Vec<Payload> {
        or_panic("allgather", self.try_allgather_bytes(payload))
    }

    /// [`Self::allgather_bytes`] with peer loss as a typed value.
    pub fn try_allgather_bytes(
        &mut self,
        payload: Payload,
    ) -> Result<Vec<Payload>, TransportError> {
        Ok(self.start_allgather_bytes(payload).wait(self)?.expect_gathered())
    }

    /// Binomial-tree broadcast from `root`; `data` must be sized correctly
    /// on every rank (contents are overwritten on non-roots).
    pub fn broadcast<T: WireElem>(&mut self, root: usize, data: &mut [T]) {
        or_panic("broadcast", self.try_broadcast(root, data));
    }

    /// [`Self::broadcast`] with peer loss and bad frames as typed values.
    pub fn try_broadcast<T: WireElem>(
        &mut self,
        root: usize,
        data: &mut [T],
    ) -> Result<(), TransportError> {
        let bcast = Collective::Broadcast { root, buf: T::to_payload(data) };
        let got = self.start(bcast).wait_buffer(self)?;
        data.copy_from_slice(&T::from_payload(got));
        Ok(())
    }
}

/// The panicking spelling of a `try_*` collective — the SPMD contract for
/// callers with no recovery policy.
fn or_panic<T>(op: &str, outcome: Result<T, TransportError>) -> T {
    outcome.unwrap_or_else(|e| panic!("collective {op}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_cluster;
    use crate::NetworkProfile;

    fn reference_sum(inputs: &[Vec<f32>]) -> Vec<f32> {
        let n = inputs[0].len();
        let mut out = vec![0.0f32; n];
        for v in inputs {
            for i in 0..n {
                out[i] += v[i];
            }
        }
        out
    }

    fn gen_inputs(world: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..world).map(|_| (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()).collect()
    }

    fn check_allreduce(world: usize, n: usize, algo: CollectiveAlgo) {
        let inputs = gen_inputs(world, n, world as u64 * 31 + n as u64);
        let expect = reference_sum(&inputs);
        let inputs2 = inputs.clone();
        let results = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            let mut data = inputs2[h.rank()].clone();
            h.allreduce_sum_with(&mut data, algo);
            data
        });
        for (r, got) in results.iter().enumerate() {
            for i in 0..n {
                assert!(
                    (got[i] - expect[i]).abs() < 1e-3 * (1.0 + expect[i].abs()),
                    "rank {r} idx {i}: {} vs {}",
                    got[i],
                    expect[i]
                );
            }
        }
    }

    #[test]
    fn ring_allreduce_matches_reference() {
        for world in [2, 3, 4, 5, 8] {
            for n in [1usize, 7, 64, 1000] {
                check_allreduce(world, n, CollectiveAlgo::Ring);
            }
        }
    }

    #[test]
    fn recursive_doubling_matches_reference() {
        for world in [2, 3, 4, 6, 8, 16] {
            for n in [1usize, 33, 500] {
                check_allreduce(world, n, CollectiveAlgo::RecursiveDoubling);
            }
        }
    }

    #[test]
    fn auto_matches_reference() {
        check_allreduce(8, 2, CollectiveAlgo::Auto); // tiny → RD path
        check_allreduce(8, 100_000, CollectiveAlgo::Auto); // big → ring path
    }

    #[test]
    fn single_rank_allreduce_is_identity() {
        let results = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
            let mut data = vec![1.0f32, 2.0, 3.0];
            h.allreduce_sum(&mut data);
            data
        });
        assert_eq!(results[0], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn allreduce_avg_divides() {
        let results = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let mut data = vec![h.rank() as f32; 8];
            h.allreduce_avg(&mut data);
            data
        });
        for r in results {
            for v in r {
                assert!((v - 1.5).abs() < 1e-6); // (0+1+2+3)/4
            }
        }
    }

    #[test]
    fn allgather_varlen_collects_all() {
        // Every rank contributes the same count (MPI_Allgather); the
        // rank-dependent lengths of `allgather_bytes` are tested below.
        let contribution =
            |rank: usize| -> Vec<f32> { (0..4).map(|i| (rank * 4 + i) as f32).collect() };
        let results = run_cluster(5, NetworkProfile::infiniband_100g(), move |h| {
            h.allgather(&contribution(h.rank()))
        });
        for got in results {
            assert_eq!(got.len(), 5);
            for (rank, v) in got.iter().enumerate() {
                assert_eq!(v, &contribution(rank), "rank {rank} contribution");
            }
        }
    }

    #[test]
    fn typed_allgather_of_unequal_counts_is_a_bad_frame_on_every_rank() {
        let results = run_cluster(3, NetworkProfile::infiniband_100g(), |h| {
            h.try_allgather(&vec![1u64; h.rank() + 1]).map(drop)
        });
        for (rank, got) in results.into_iter().enumerate() {
            assert!(
                matches!(got, Err(TransportError::BadFrame { rank: r, .. }) if r == rank),
                "rank {rank}: {got:?}"
            );
        }
    }

    #[test]
    fn allgather_bytes_preserves_kind_and_size_per_rank() {
        // Each rank ships a different kind and length; everyone must get
        // every frame back intact, indexed by origin rank.
        let results = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let payload = match h.rank() {
                0 => Payload::Bytes(vec![]),
                1 => Payload::Bytes(vec![1, 2, 3]),
                2 => Payload::PackedU64(vec![0xFEED, 0xBEEF]),
                _ => Payload::F32Dense(vec![f32::NAN, -0.0]),
            };
            h.allgather_bytes(payload)
        });
        for got in results {
            assert!(got[0].clone().expect_bytes().is_empty());
            assert_eq!(got[1].clone().expect_bytes(), [1, 2, 3]);
            assert_eq!(got[2].clone().expect_u64(), vec![0xFEED, 0xBEEF]);
            let f = got[3].clone().expect_f32();
            assert!(f[0].is_nan() && f[1].to_bits() == (-0.0f32).to_bits());
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for root in 0..6 {
            let results = run_cluster(6, NetworkProfile::infiniband_100g(), move |h| {
                let mut data =
                    if h.rank() == root { vec![42.0f32, 7.0, -1.0] } else { vec![0.0f32; 3] };
                h.broadcast(root, &mut data);
                data
            });
            for (r, got) in results.iter().enumerate() {
                assert_eq!(got, &vec![42.0, 7.0, -1.0], "root {root} rank {r}");
            }
        }
    }

    #[test]
    fn comm_seconds_are_the_closed_form_and_agree_on_every_rank() {
        // What the local ledger guarantees: after the same collectives every
        // rank holds the bit-equal total, it is the sum of the closed-form
        // prices (a gather at its largest frame), and no rank's compute time
        // (rank r idles r ms mid-sequence) leaks into it.
        let profile = NetworkProfile::ethernet_1g();
        let results = run_cluster(4, profile, |h| {
            let mut d = vec![1.0f32; 1024];
            h.allreduce_sum_with(&mut d, CollectiveAlgo::Ring);
            std::thread::sleep(std::time::Duration::from_millis(h.rank() as u64));
            h.allreduce_sum_with(&mut d[..7], CollectiveAlgo::RecursiveDoubling);
            h.allgather_bytes(Payload::Bytes(vec![0; 10 * (h.rank() + 1)]));
            h.broadcast(1, &mut d[..100]);
            h.barrier();
            h.comm_seconds()
        });
        let m = CostModel::new(profile);
        let expect = [
            m.ring_allreduce(4096.0, 4),
            m.recursive_doubling_allreduce(28.0, 4),
            m.ring_allgather(40.0, 4),
            m.broadcast(400.0, 4),
            m.barrier(4),
        ];
        assert!(expect.iter().all(|&c| c > 0.0));
        let total: f64 = expect.iter().sum();
        assert!(results.iter().all(|t| t.to_bits() == total.to_bits()), "{results:?} vs {total}");
    }

    #[test]
    fn a2sgd_packet_counts_64_logical_bits() {
        // The paper's O(1) exchange: one packed u64 per rank, gathered.
        // The logical accounting is the payload's own true size — 64 bits
        // — with no override mechanism involved.
        let results = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let got = h.allgather_bytes(Payload::PackedU64(vec![h.rank() as u64]));
            assert_eq!(got.len(), 2);
            h.stats().logical_wire_bits
        });
        assert!(results.iter().all(|&b| b == 64));
    }

    #[test]
    fn wire_elem_widths_match_the_payload_table() {
        // WireElem::BYTES feeds the cost model and logical accounting; it
        // must agree with the wire codec's single elem_bytes table.
        assert_eq!(f32::BYTES, f32::payload_ref(&[0.0]).byte_len());
        assert_eq!(u64::BYTES, u64::payload_ref(&[0]).byte_len());
        assert_eq!(u8::BYTES, u8::payload_ref(&[0]).byte_len());
    }

    #[test]
    fn traffic_stats_count_physical_bytes() {
        let results = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let mut d = vec![0.0f32; 100];
            h.allreduce_sum_with(&mut d, CollectiveAlgo::Ring);
            h.stats()
        });
        for s in results {
            // Ring with P=2: 2·(P−1) = 2 sends of ~half the vector each.
            assert_eq!(s.messages, 2);
            assert_eq!(s.bytes_sent, 4 * 100);
            // In-process transport has no framing: wire == payload.
            assert_eq!(s.wire_bytes, s.bytes_sent);
            // Dense f32 is its own wire encoding: logical == physical.
            assert_eq!(s.logical_wire_bits, 8 * s.bytes_sent);
        }
    }

    #[test]
    fn many_sequential_collectives_do_not_deadlock() {
        let results = run_cluster(8, NetworkProfile::infiniband_100g(), |h| {
            let mut acc = 0.0f64;
            for i in 0..50 {
                let mut d = vec![(h.rank() * 50 + i) as f32; 17];
                h.allreduce_sum(&mut d);
                acc += d[0] as f64;
                h.barrier();
            }
            acc
        });
        let first = results[0];
        assert!(results.iter().all(|&v| (v - first).abs() < 1e-6));
    }
}
