//! The collective engine: every collective `CommHandle` runs is an op on
//! it, and this file is the only code that sends or receives for one.
//!
//! An algorithm is a table of rounds (`Round`), built by a pure schedule
//! function of `(world, rank, len[, root])`: recursive doubling with the
//! MPICH non-power-of-two fold, ring reduce-scatter + allgather, a binomial
//! broadcast, a dissemination barrier. A round is an optional send of a
//! range of the op's one typed buffer to a peer, then an optional receive
//! from a peer into a range of it, folded by addition (`f32` only) or by
//! copy, under the op's tag plus an offset both ends compute alike. One
//! poll loop drives every table, and sends read the live buffer by
//! reference. The direct-exchange allgather is the one other arm: the own
//! frame goes to every peer at launch, and the peers' frames are taken in
//! whatever order they arrive and kept verbatim.
//!
//! [`CommHandle::start_allreduce`] (recursive doubling: one pairing
//! schedule and reduction order for every element, so a vector
//! synchronized in buckets is bit-identical to single-shot) and
//! [`CommHandle::start_allgather_bytes`] return a [`CollectiveHandle`]; the
//! caller overlaps its own compute, probes with
//! [`CollectiveHandle::try_complete`] and takes the result with
//! [`CollectiveHandle::wait`]. Several handles may be in flight at once:
//! frames are tag-matched per (peer, tag), and both transports complete a
//! send without a matching receive posted. Every blocking collective of
//! [`crate::collective`] is `start → wait` here.
//!
//! Every received frame is checked against its round — the buffer's kind
//! and the range's length; a typed gather's, the own frame's — in one
//! place (`receive`): a wrong one is [`TransportError::BadFrame`]. Peer
//! loss is a typed [`TransportError`] from `try_complete`/`wait`; a failed
//! handle releases its in-flight slot.
//!
//! Time ([`CommHandle::comm_seconds`]): a measured backend (TCP) adds the
//! wall time inside the launch, `try_complete` and `wait` calls; a priced
//! one (in-proc) adds the op's own Hockney price once, at `wait()`, for
//! sizes every rank agrees on. Each op traces as one async span named by
//! the op, from launch to release.

use crate::collective::CommHandle;
use crate::cost::CostModel;
use crate::transport::wire::{Payload, PayloadKind, PayloadRef};
use crate::transport::{RecvResult, TransportError};
use std::ops::Range;
use std::time::Instant;

/// The completed value of a nonblocking collective.
#[derive(Debug)]
pub enum CollectiveResult {
    /// Allreduce: the element-wise sum across ranks.
    Reduced(Vec<f32>),
    /// Allgather: every rank's frame (own included), indexed by rank.
    Gathered(Vec<Payload>),
}

impl CollectiveResult {
    /// Consumes an allreduce result; panics on any other op (SPMD bug).
    pub fn expect_reduced(self) -> Vec<f32> {
        match self {
            CollectiveResult::Reduced(v) => v,
            other => panic!("expected an allreduce result, got {other:?}"),
        }
    }

    /// Consumes an allgather result; panics on any other op.
    pub fn expect_gathered(self) -> Vec<Payload> {
        match self {
            CollectiveResult::Gathered(v) => v,
            other => panic!("expected an allgather result, got {other:?}"),
        }
    }
}

/// How a round merges the frame it receives into its range of the buffer.
#[derive(Debug, Clone, Copy)]
enum Fold {
    /// Element-wise `buf += frame` (dense `f32` only).
    Add,
    /// `buf = frame` (the barrier copies an empty range: nothing).
    Copy,
}

/// One round of a schedule: send `buf[range]` to a peer, then receive a
/// peer's frame into `buf[range]`, either half optional, both under the
/// op's tag plus `tag`.
#[derive(Debug)]
struct Round {
    tag: u64,
    send: Option<(usize, Range<usize>)>,
    recv: Option<(usize, Range<usize>, Fold)>,
}

/// Recursive-doubling allreduce with the MPICH non-power-of-two fold: the
/// even ranks below 2·rem push into their odd neighbour and get the result
/// back at the end; the other `pow2` ranks exchange the whole vector with
/// the partner at virtual distance 1, 2, 4, … and add.
fn recursive_doubling(world: usize, rank: usize, len: usize) -> Vec<Round> {
    let pow2 = 1usize << world.ilog2();
    let rem = world - pow2;
    let stages = u64::from(pow2.ilog2());
    let unfold = stages + 1;
    let real = |vr: usize| if vr < rem { 2 * vr + 1 } else { vr + rem };
    let folded = rank < 2 * rem;
    if folded && rank % 2 == 0 {
        return vec![
            Round { tag: 0, send: Some((rank + 1, 0..len)), recv: None },
            Round { tag: unfold, send: None, recv: Some((rank + 1, 0..len, Fold::Copy)) },
        ];
    }
    let mut rounds = Vec::with_capacity(stages as usize + 2);
    if folded {
        rounds.push(Round { tag: 0, send: None, recv: Some((rank - 1, 0..len, Fold::Add)) });
    }
    let vr = if folded { rank / 2 } else { rank - rem };
    for stage in 0..stages {
        let partner = real(vr ^ (1 << stage));
        rounds.push(Round {
            tag: stage + 1,
            send: Some((partner, 0..len)),
            recv: Some((partner, 0..len, Fold::Add)),
        });
    }
    if folded {
        rounds.push(Round { tag: unfold, send: Some((rank - 1, 0..len)), recv: None });
    }
    rounds
}

/// Ring allreduce: P − 1 reduce-scatter rounds (send chunk `rank − i` to
/// the right, add chunk `rank − i − 1` from the left), then P − 1
/// allgather rounds (send chunk `rank + 1 − i`, copy chunk `rank − i`).
/// Chunk c is `len / P` elements, one more for the first `len % P`.
fn ring(world: usize, rank: usize, len: usize) -> Vec<Round> {
    let chunk = |c: usize| {
        let (base, rem, c) = (len / world, len % world, c % world);
        let lo = c * base + c.min(rem);
        lo..lo + base + usize::from(c < rem)
    };
    let (right, left) = ((rank + 1) % world, (rank + world - 1) % world);
    let steps = world - 1;
    (0..2 * steps)
        .map(|i| {
            let (send, recv, fold) = if i < steps {
                (rank + world - i, rank + world - i - 1, Fold::Add)
            } else {
                let i = i - steps;
                (rank + 1 + world - i, rank + world - i, Fold::Copy)
            };
            Round {
                tag: i as u64,
                send: Some((right, chunk(send))),
                recv: Some((left, chunk(recv), fold)),
            }
        })
        .collect()
}

/// Binomial-tree broadcast: relative rank v ≠ 0 receives once, from v
/// minus its lowest set bit, and forwards to v + d for every power of two
/// d below that bit, largest first; the root forwards for every d < P.
fn binomial_broadcast(world: usize, rank: usize, len: usize, root: usize) -> Vec<Round> {
    let vr = (rank + world - root) % world;
    let real = |v: usize| (v + root) % world;
    let low = if vr == 0 { world.next_power_of_two() } else { 1 << vr.trailing_zeros() };
    let mut rounds = Vec::new();
    if vr != 0 {
        let from = real(vr - low);
        rounds.push(Round { tag: low as u64, send: None, recv: Some((from, 0..len, Fold::Copy)) });
    }
    let mut d = low >> 1;
    while d > 0 {
        if vr + d < world {
            rounds.push(Round { tag: d as u64, send: Some((real(vr + d), 0..len)), recv: None });
        }
        d >>= 1;
    }
    rounds
}

/// Dissemination barrier: in round k every rank sends an empty frame to
/// `rank + 2ᵏ` and takes one from `rank − 2ᵏ`.
fn dissemination_barrier(world: usize, rank: usize) -> Vec<Round> {
    (0..usize::BITS)
        .map(|k| 1usize << k)
        .take_while(|&hop| hop < world)
        .map(|hop| Round {
            tag: hop as u64,
            send: Some(((rank + hop) % world, 0..0)),
            recv: Some(((rank + world - hop) % world, 0..0, Fold::Copy)),
        })
        .collect()
}

/// What the crate-private launcher `CommHandle::start` runs.
pub(crate) enum Collective {
    /// Allreduce-sum by recursive doubling.
    RdAllreduce(Vec<f32>),
    /// Allreduce-sum by ring reduce-scatter + allgather.
    RingAllreduce(Vec<f32>),
    /// Binomial broadcast of `root`'s buffer (every rank's is its size).
    Broadcast { root: usize, buf: Payload },
    /// Dissemination barrier.
    Barrier,
    /// Direct-exchange allgather of one frame per rank; `typed` ⇒ every
    /// frame must have the own frame's kind and length (MPI_Allgather).
    Allgather { frame: Payload, typed: bool },
}

/// A collective's closed-form price: `(model, payload bytes, P) → seconds`.
type Price = fn(&CostModel, f64, usize) -> f64;

/// Where an in-flight op stands.
#[derive(Debug)]
enum Op {
    /// A table of rounds over one buffer: `rounds[next..]` are left, and
    /// `sent` says whether `rounds[next]`'s send is already on the wire.
    Rounds { buf: Payload, rounds: Vec<Round>, next: usize, sent: bool },
    /// Direct exchange: `out[rank]` is the own frame, sent to every peer
    /// once `sent`; `pending` peers' frames are still to come. `want` is
    /// the `(kind, len)` a typed gather requires of every frame.
    Gather { out: Vec<Option<Payload>>, pending: Vec<usize>, want: Option<Shape>, sent: bool },
}

/// A frame's kind and element count.
type Shape = (PayloadKind, usize);

/// How far `CollectiveHandle::advance` goes at a receive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recv {
    /// Stop: launch posts every send up to the first receive.
    Never,
    /// Take the frame if it has arrived, else stop.
    Probe,
    /// Wait for the frame.
    Block,
}

/// An in-flight collective. Obtain one from the `start_*` family on
/// [`CommHandle`]; probe it with [`Self::try_complete`]; take the result
/// with [`Self::wait`]. Dropping a handle without waiting abandons the
/// operation (its frames stay queued — only safe when the whole cluster is
/// being torn down).
#[derive(Debug)]
pub struct CollectiveHandle {
    op: Op,
    /// The tag the op's frames travel under, plus each round's offset.
    tag: u64,
    /// The op's name (`"allreduce"`, …): its trace async span.
    name: &'static str,
    price: Price,
    /// A send failure captured at launch, surfaced at the next probe/wait.
    failed: Option<TransportError>,
    /// Whether this handle still counts toward `CommHandle::inflight`.
    counted: bool,
    /// Trace async-span id: the launch tag namespaced by the
    /// communicator's tag space, unique per rank timeline.
    trace_id: u64,
}

impl CollectiveHandle {
    /// Makes progress without blocking. Returns `Ok(true)` once every
    /// frame has arrived and been folded in — after which [`Self::wait`]
    /// returns immediately with the result. A dead peer surfaces as a
    /// typed [`TransportError`]; a failed handle releases its in-flight
    /// slot immediately (the operation can never complete), so dropping it
    /// after the error keeps `CommHandle::inflight()` accounting exact.
    pub fn try_complete(&mut self, comm: &mut CommHandle) -> Result<bool, TransportError> {
        let t0 = Instant::now();
        let done = match self.failed.clone() {
            Some(e) => Err(e),
            None => self.advance(comm, Recv::Probe),
        };
        comm.charge_wall(t0);
        if !matches!(done, Ok(false)) {
            self.release(comm);
        }
        done
    }

    /// Releases the in-flight slot — exactly once per handle, whether the
    /// op completed, failed, or was waited — and closes the trace async
    /// span at the same moment: the release point *is* the end of the
    /// collective's lifetime as far as overlap accounting is concerned.
    fn release(&mut self, comm: &mut CommHandle) {
        if self.counted {
            self.counted = false;
            comm.inflight_dec();
            a2sgd_trace::async_end(self.name, self.trace_id);
        }
    }

    /// The tag a gather's frames travel under (the other ops' rounds add
    /// their own offsets): what a refused frame's `BadFrame` names.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Drives the collective to completion (blocking on outstanding
    /// frames) and returns its result.
    pub fn wait(self, comm: &mut CommHandle) -> Result<CollectiveResult, TransportError> {
        Ok(match self.finish(comm)? {
            Op::Rounds { buf, .. } => CollectiveResult::Reduced(buf.expect_f32()),
            Op::Gather { out, .. } => CollectiveResult::Gathered(
                out.into_iter().map(|p| p.expect("allgather left a hole")).collect(),
            ),
        })
    }

    /// [`Self::wait`] for a table op of any wire type: its buffer.
    pub(crate) fn wait_buffer(self, comm: &mut CommHandle) -> Result<Payload, TransportError> {
        match self.finish(comm)? {
            Op::Rounds { buf, .. } => Ok(buf),
            Op::Gather { .. } => unreachable!("a gather has one frame per rank, not a buffer"),
        }
    }

    /// Drives the op to completion, releases its slot and charges its
    /// price: the op's own closed form at a size every rank agrees on — its
    /// buffer, or a gather's largest frame, which every rank reads off the
    /// result it now holds (charged as a ring: P−1 frames per rank cost the
    /// same (P−1)·(α + bytes/β) whether they hop or fan out).
    fn finish(mut self, comm: &mut CommHandle) -> Result<Op, TransportError> {
        let t0 = Instant::now();
        let outcome = match self.failed.take() {
            Some(e) => Err(e),
            None => self.advance(comm, Recv::Block).map(|done| debug_assert!(done)),
        };
        self.release(comm);
        outcome?;
        let bytes = match &self.op {
            Op::Rounds { buf, .. } => buf.byte_len(),
            Op::Gather { out, .. } => {
                out.iter().flatten().map(Payload::byte_len).max().unwrap_or(0)
            }
        };
        comm.finish_op(t0, bytes as f64, self.price);
        Ok(self.op)
    }

    /// The poll loop every op runs: posts each round's send once, then
    /// takes its receive as far as `recv` allows, round after round.
    /// Returns whether the op is done.
    fn advance(&mut self, comm: &mut CommHandle, recv: Recv) -> Result<bool, TransportError> {
        let block = recv == Recv::Block;
        match &mut self.op {
            Op::Rounds { buf, rounds, next, sent } => {
                while let Some(round) = rounds.get(*next) {
                    let tag = self.tag + round.tag;
                    if !*sent {
                        if let Some((to, range)) = &round.send {
                            comm.try_send_payload(*to, tag, slice(buf, range.clone()))?;
                        }
                        *sent = true;
                    }
                    if let Some((from, range, fold)) = &round.recv {
                        if recv == Recv::Never {
                            return Ok(false);
                        }
                        let want = (buf.kind(), range.len());
                        let Some(frame) = receive(comm, (*from, tag), block, Some(want))? else {
                            return Ok(false);
                        };
                        fold_into(buf, range.clone(), frame, *fold);
                    }
                    *next += 1;
                    *sent = false;
                }
                Ok(true)
            }
            Op::Gather { out, pending, want, sent } => {
                let (world, rank) = (comm.world(), comm.rank());
                if !*sent {
                    let own = out[rank].as_ref().expect("own frame");
                    for step in 1..world {
                        comm.try_send_payload((rank + step) % world, self.tag, own.as_ref())?;
                    }
                    *sent = true;
                }
                if recv == Recv::Never {
                    return Ok(pending.is_empty());
                }
                let mut i = 0;
                while i < pending.len() {
                    let from = pending[i];
                    match receive(comm, (from, self.tag), block, *want)? {
                        Some(frame) => {
                            out[from] = Some(frame);
                            pending.swap_remove(i);
                        }
                        None => i += 1,
                    }
                }
                Ok(pending.is_empty())
            }
        }
    }
}

/// Takes the frame `from` sent under `tag` — waiting for it, or `None` if
/// it has not arrived — and, when the op requires a shape, checks the
/// frame has it. The one place a collective receives, so every frame is
/// checked here: one of the wrong kind or length is
/// [`TransportError::BadFrame`], never summed, copied or indexed.
fn receive(
    comm: &mut CommHandle,
    (from, tag): (usize, u64),
    block: bool,
    want: Option<Shape>,
) -> RecvResult {
    match (comm.transport.recv_bytes(from, tag, block)?, want) {
        (Some(frame), Some(want)) => comm.check_frame(frame, (from, tag), want).map(Some),
        (frame, _) => Ok(frame),
    }
}

/// The number of elements a payload carries.
fn elems(p: &Payload) -> usize {
    p.byte_len() / p.kind().elem_bytes()
}

/// `buf[range]`, borrowed as a frame to send.
fn slice(buf: &Payload, range: Range<usize>) -> PayloadRef<'_> {
    match buf {
        Payload::F32Dense(v) => PayloadRef::F32Dense(&v[range]),
        Payload::PackedU64(v) => PayloadRef::PackedU64(&v[range]),
        Payload::Bytes(v) => PayloadRef::Bytes(&v[range]),
    }
}

/// Folds a checked frame (the buffer's kind, `range.len()` elements) into
/// `buf[range]`.
fn fold_into(buf: &mut Payload, range: Range<usize>, frame: Payload, fold: Fold) {
    match (buf, frame, fold) {
        (Payload::F32Dense(d), Payload::F32Dense(g), Fold::Add) => {
            for (d, g) in d[range].iter_mut().zip(g) {
                *d += g;
            }
        }
        (Payload::F32Dense(d), Payload::F32Dense(g), Fold::Copy) => d[range].copy_from_slice(&g),
        (Payload::PackedU64(d), Payload::PackedU64(g), Fold::Copy) => d[range].copy_from_slice(&g),
        (Payload::Bytes(d), Payload::Bytes(g), Fold::Copy) => d[range].copy_from_slice(&g),
        (buf, frame, fold) => {
            unreachable!("{fold:?} of a {:?} frame into {:?}", frame.kind(), buf.kind())
        }
    }
}

impl CommHandle {
    /// The one launcher: builds the op's schedule, counts its logical bits
    /// (its own payload; a broadcast's on the root only), takes an
    /// in-flight slot, opens its trace span and posts every send up to the
    /// first receive.
    pub(crate) fn start(&mut self, collective: Collective) -> CollectiveHandle {
        let t0 = Instant::now();
        let (world, rank) = (self.world(), self.rank());
        let tag = self.next_tag();
        let counts = !matches!(collective, Collective::Broadcast { root, .. } if root != rank);
        let table = |rounds, buf| Op::Rounds { buf, rounds, next: 0, sent: false };
        let (name, price, op): (_, Price, _) = match collective {
            Collective::RdAllreduce(v) => {
                let rounds = recursive_doubling(world, rank, v.len());
                (
                    "allreduce",
                    CostModel::recursive_doubling_allreduce,
                    table(rounds, Payload::F32Dense(v)),
                )
            }
            Collective::RingAllreduce(v) => (
                "allreduce",
                CostModel::ring_allreduce,
                table(ring(world, rank, v.len()), Payload::F32Dense(v)),
            ),
            Collective::Broadcast { root, buf } => {
                let rounds = binomial_broadcast(world, rank, elems(&buf), root);
                ("broadcast", CostModel::broadcast, table(rounds, buf))
            }
            Collective::Barrier => {
                let rounds = dissemination_barrier(world, rank);
                ("barrier", |m, _, p| m.barrier(p), table(rounds, Payload::Bytes(Vec::new())))
            }
            Collective::Allgather { frame, typed } => {
                let want = typed.then(|| (frame.kind(), elems(&frame)));
                let mut out: Vec<Option<Payload>> = (0..world).map(|_| None).collect();
                out[rank] = Some(frame);
                let pending = (1..world).map(|step| (rank + world - step) % world).collect();
                (
                    "allgather",
                    CostModel::ring_allgather,
                    Op::Gather { out, pending, want, sent: false },
                )
            }
        };
        let own = match &op {
            Op::Rounds { buf, .. } => buf,
            Op::Gather { out, .. } => out[rank].as_ref().expect("own frame"),
        };
        self.count_logical_bits(if counts { own.bits() } else { 0 });
        self.inflight_inc();
        let trace_id = (self.space() << 48) ^ tag;
        if a2sgd_trace::enabled() {
            let bytes = own.byte_len() as u64;
            let args = a2sgd_trace::Args::Collective { op: name, plane: self.plane(), bytes };
            a2sgd_trace::async_begin(name, trace_id, args);
        }
        let mut h =
            CollectiveHandle { op, tag, name, price, failed: None, counted: true, trace_id };
        h.failed = h.advance(self, Recv::Never).err();
        self.charge_wall(t0);
        h
    }

    /// Launches a nonblocking allreduce-sum of `data` (recursive doubling
    /// — what [`crate::CollectiveAlgo::RecursiveDoubling`] runs — and,
    /// per element, independent of how a larger vector was chunked into
    /// calls). The first-round frames are on the wire when this returns.
    pub fn start_allreduce(&mut self, data: Vec<f32>) -> CollectiveHandle {
        self.start(Collective::RdAllreduce(data))
    }

    /// Launches a nonblocking allgather of one opaque frame per rank —
    /// the exchange primitive for compressed gradient buckets. The own
    /// frame is shipped to every peer before this returns (direct
    /// exchange), so the entire network time of the collective can hide
    /// behind caller compute; the result is every rank's payload indexed
    /// by rank. [`Self::allgather_bytes`] is this, waited at once.
    pub fn start_allgather_bytes(&mut self, payload: Payload) -> CollectiveHandle {
        self.start(Collective::Allgather { frame: payload, typed: false })
    }

    /// `frame` when it is the `len` elements of `kind` its round expects;
    /// otherwise [`TransportError::BadFrame`].
    fn check_frame(
        &self,
        frame: Payload,
        (from, tag): (usize, u64),
        (kind, len): Shape,
    ) -> Result<Payload, TransportError> {
        if frame.kind() == kind && frame.byte_len() == len * kind.elem_bytes() {
            return Ok(frame);
        }
        let cause = format!(
            "{:?} frame of {} B, expected {len} × {kind:?}",
            frame.kind(),
            frame.byte_len()
        );
        Err(TransportError::BadFrame { rank: self.rank(), peer: from, tag, cause })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveAlgo;
    use crate::sim::run_cluster;
    use crate::NetworkProfile;

    /// Inexact in f32 (sevenths), so a different association order shows.
    fn rank_vec(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((rank * 131 + i * 17) % 23) as f32 / 7.0 - 1.5).collect()
    }

    /// Recursive doubling with the MPICH fold, as plain arithmetic on all
    /// ranks' inputs at once — no transport, no state machine. The
    /// independent statement of the pairing schedule and reduction order
    /// the engine must reproduce bit for bit.
    fn rd_reference(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        fn add(acc: &mut [f32], other: &[f32]) {
            for (a, o) in acc.iter_mut().zip(other) {
                *a += o;
            }
        }
        let world = inputs.len();
        let pow2 = 1usize << world.ilog2();
        let rem = world - pow2;
        let mut data = inputs.to_vec();
        // Fold: even ranks below 2·rem push into their odd neighbour.
        for odd in (1..2 * rem).step_by(2) {
            let even = data[odd - 1].clone();
            add(&mut data[odd], &even);
        }
        let to_real = |vr: usize| if vr < rem { 2 * vr + 1 } else { vr + rem };
        let mut mask = 1;
        while mask < pow2 {
            let before = data.clone();
            for vr in 0..pow2 {
                add(&mut data[to_real(vr)], &before[to_real(vr ^ mask)]);
            }
            mask <<= 1;
        }
        // Unfold: the odd neighbour returns the result.
        for odd in (1..2 * rem).step_by(2) {
            data[odd - 1] = data[odd].clone();
        }
        data
    }

    #[test]
    fn rd_allreduce_matches_reference_in_both_spellings_on_both_backends() {
        const LENS: [usize; 3] = [1, 7, 129];
        // Per rank: for each length, the handle result then the blocking one.
        let workload = |h: &mut CommHandle| -> Vec<Vec<f32>> {
            let mut out = Vec::new();
            for n in LENS {
                let handle = h.start_allreduce(rank_vec(h.rank(), n));
                out.push(handle.wait(h).unwrap().expect_reduced());
                let mut d = rank_vec(h.rank(), n);
                h.allreduce_sum_with(&mut d, CollectiveAlgo::RecursiveDoubling);
                out.push(d);
            }
            out
        };
        let bits = |v: &[f32]| -> Vec<u32> { v.iter().map(|x| x.to_bits()).collect() };
        for world in 1usize..=8 {
            let runs = [
                ("inproc", run_cluster(world, NetworkProfile::infiniband_100g(), workload)),
                ("tcp", crate::run_cluster_tcp_threads(world, workload)),
            ];
            for (i, n) in LENS.into_iter().enumerate() {
                let inputs: Vec<Vec<f32>> = (0..world).map(|r| rank_vec(r, n)).collect();
                let expect = rd_reference(&inputs);
                for (backend, out) in &runs {
                    for r in 0..world {
                        let what = format!("{backend} world {world} n {n} rank {r}");
                        assert_eq!(bits(&out[r][2 * i]), bits(&expect[r]), "handle, {what}");
                        assert_eq!(bits(&out[r][2 * i + 1]), bits(&expect[r]), "blocking, {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn nonblocking_allgather_collects_every_frame() {
        for world in [1usize, 2, 5] {
            let out = run_cluster(world, NetworkProfile::infiniband_100g(), |h| {
                let own = Payload::Bytes(vec![h.rank() as u8; h.rank() + 1]);
                let handle = h.start_allgather_bytes(own);
                let got = handle.wait(h).unwrap().expect_gathered();
                (got, h.stats().logical_wire_bits)
            });
            for (rank, (got, bits)) in out.into_iter().enumerate() {
                assert_eq!(got.len(), world);
                for (r, p) in got.into_iter().enumerate() {
                    assert_eq!(p.expect_bytes(), vec![r as u8; r + 1]);
                }
                // Own payload counted once, however many copies are sent.
                assert_eq!(bits, 8 * (rank as u64 + 1));
            }
        }
    }

    #[test]
    fn multiple_handles_interleave_and_complete_out_of_order() {
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            let peer = 1 - h.rank();
            let a = h.start_allgather_bytes(Payload::Bytes(vec![h.rank() as u8, 0xA]));
            let b = h.start_allgather_bytes(Payload::Bytes(vec![h.rank() as u8, 0xB]));
            assert_eq!(h.inflight(), 2);
            // Complete the *second* op first: tag matching must pick the
            // right frame out of the shared link.
            let got_b = b.wait(h).unwrap().expect_gathered().swap_remove(peer).expect_bytes();
            let got_a = a.wait(h).unwrap().expect_gathered().swap_remove(peer).expect_bytes();
            assert_eq!(h.inflight(), 0);
            assert!(h.max_inflight() >= 2);
            (got_a, got_b)
        });
        for (rank, (a, b)) in out.into_iter().enumerate() {
            assert_eq!(a, vec![(1 - rank) as u8, 0xA]);
            assert_eq!(b, vec![(1 - rank) as u8, 0xB]);
        }
    }

    #[test]
    fn try_complete_reports_progress() {
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            // Deterministic completion: the peer's frame is in the mailbox
            // once both ranks passed the barrier below.
            let peer = 1 - h.rank();
            let mut handle = h.start_allgather_bytes(Payload::PackedU64(vec![7]));
            h.barrier();
            let mut spins = 0usize;
            while !handle.try_complete(h).unwrap() {
                spins += 1;
                std::thread::yield_now();
            }
            let got = handle.wait(h).unwrap().expect_gathered().swap_remove(peer).expect_u64();
            (got, spins)
        });
        for (got, _) in out {
            assert_eq!(got, vec![7]);
        }
    }
}
