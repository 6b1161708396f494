//! The collective engine: handle-based nonblocking allreduce and
//! allgather. This is the one place a handle-capable algorithm's data
//! flow lives — the blocking spellings in [`crate::collective`]
//! (`try_allgather_bytes`, the recursive-doubling arm of
//! `try_allreduce_sum_with`) are `start → wait` on it.
//!
//! [`CommHandle::start_allreduce`] and
//! [`CommHandle::start_allgather_bytes`] launch a collective and return a
//! [`CollectiveHandle`] immediately; the caller overlaps its own compute
//! (encoding the next bucket, decoding a finished one) and later drives
//! the operation with [`CollectiveHandle::try_complete`] (nonblocking
//! progress probe) or [`CollectiveHandle::wait`] (drive to completion and
//! take the result). Several handles may be in flight at once — frames are
//! tag-matched per (peer, tag), so interleaved arrivals sort themselves
//! out on both backends; [`CommHandle::max_inflight`] records the proof.
//!
//! Launch-and-forget is safe because both transports complete sends
//! without a matching receive posted: the in-process backend pushes into
//! the destination mailbox, the TCP backend writes into a socket that the
//! peer's dedicated reader thread keeps draining.
//!
//! The algorithms are chosen for *element-independent data flow* so that
//! a vector synchronized in B buckets is bit-identical to the same vector
//! synchronized in one shot:
//!
//! * allreduce — recursive doubling with the MPICH non-power-of-two fold
//!   (one pairing schedule and reduction order for every element,
//!   regardless of how the vector is chunked into calls);
//! * allgather — direct exchange (own frame to every peer up front; all
//!   receives deferred — maximal overlap, and gathered frames are moved
//!   verbatim so content never depends on routing).
//!
//! Time accounting ([`CommHandle::comm_seconds`]): measured backends (TCP)
//! add the wall time spent inside `start_*`/`try_complete`/`wait` calls —
//! overlapped network time that no call observes is genuinely free. Priced
//! backends (in-proc) add the collective's Hockney cost once, at `wait()`;
//! the price depends only on the frames, never on when or in what order
//! handles are waited.
//!
//! Peer loss surfaces as a typed [`TransportError`] from
//! `try_complete`/`wait`; a failed handle releases its in-flight slot.

use crate::collective::CommHandle;
use crate::cost::CostModel;
use crate::transport::wire::{Payload, PayloadRef};
use crate::transport::TransportError;
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

/// Recursive-doubling allreduce as an explicit state machine. The pairing
/// schedule and per-element reduction order do not depend on the vector's
/// length — that is what makes bucketed dense synchronization
/// bit-identical to single-shot.
#[derive(Debug)]
struct RdState {
    data: Vec<f32>,
    tag: u64,
    pow2: usize,
    rem: usize,
    /// Virtual rank inside the power-of-two core (`None` for folded-out
    /// even ranks).
    new_rank: Option<usize>,
    mask: usize,
    stage: u64,
    phase: RdPhase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RdPhase {
    /// Odd folded rank awaiting its even partner's contribution.
    FoldRecv,
    /// Inside the recursive-doubling core, awaiting the stage partner.
    Core,
    /// Even folded rank awaiting the final result from its odd partner.
    UnfoldRecv,
    Done,
}

impl RdState {
    fn to_real(&self, vr: usize) -> usize {
        if vr < self.rem {
            2 * vr + 1
        } else {
            vr + self.rem
        }
    }

    fn partner(&self) -> usize {
        self.to_real(self.new_rank.expect("core phase without a virtual rank") ^ self.mask)
    }
}

#[derive(Debug)]
enum Op {
    Allgather { tag: u64, out: Vec<Option<Payload>>, pending: Vec<usize> },
    Allreduce(RdState),
}

/// An in-flight nonblocking collective. Obtain one from the `start_*`
/// family on [`CommHandle`]; probe it with [`Self::try_complete`]; take
/// the result with [`Self::wait`]. Dropping a handle without waiting
/// abandons the operation (its frames stay queued — only safe when the
/// whole cluster is being torn down).
#[derive(Debug)]
pub struct CollectiveHandle {
    op: Op,
    payload_bytes: f64,
    /// A send failure captured at launch, surfaced at the next probe/wait.
    failed: Option<TransportError>,
    /// Whether this handle still counts toward `CommHandle::inflight`.
    counted: bool,
    /// Trace async-span name (`"nb/allreduce"` etc.), fixed at launch.
    trace_name: &'static str,
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
        if let Some(e) = self.failed.clone() {
            self.release(comm);
            return Err(e);
        }
        let done = self.poll(comm, false);
        comm.charge_wall(t0);
        match done {
            Ok(d) => {
                if d {
                    self.release(comm);
                }
                Ok(d)
            }
            Err(e) => {
                self.release(comm);
                Err(e)
            }
        }
    }

    /// The tag the collective's frames travel under.
    pub(crate) fn tag(&self) -> u64 {
        match &self.op {
            Op::Allgather { tag, .. } => *tag,
            Op::Allreduce(rd) => rd.tag,
        }
    }

    /// Releases the in-flight slot — exactly once per handle, whether the
    /// op completed, failed, or was waited — and closes the trace async
    /// span at the same moment: the release point *is* the end of the
    /// collective's lifetime as far as overlap accounting is concerned.
    fn release(&mut self, comm: &mut CommHandle) {
        if self.counted {
            self.counted = false;
            comm.inflight_dec();
            a2sgd_trace::async_end(self.trace_name, self.trace_id);
        }
    }

    /// Drives the collective to completion (blocking on outstanding
    /// frames) and returns its result.
    pub fn wait(mut self, comm: &mut CommHandle) -> Result<CollectiveResult, TransportError> {
        let t0 = Instant::now();
        let outcome = match self.failed.take() {
            Some(e) => Err(e),
            None => self.poll(comm, true).map(|done| debug_assert!(done)),
        };
        self.release(comm);
        outcome?;
        Ok(match self.op {
            Op::Allgather { out, .. } => {
                let frames: Vec<Payload> =
                    out.into_iter().map(|p| p.expect("allgather left a hole")).collect();
                // The gather is charged as a ring: P−1 frames per rank cost
                // the same (P−1)·(α + bytes/β) whether they hop or fan out —
                // at its largest frame, which every rank reads off the
                // result it now holds.
                let largest = frames.iter().map(Payload::byte_len).max().unwrap_or(0);
                comm.finish_op(t0, largest as f64, CostModel::ring_allgather);
                CollectiveResult::Gathered(frames)
            }
            Op::Allreduce(rd) => {
                comm.finish_op(t0, self.payload_bytes, CostModel::recursive_doubling_allreduce);
                CollectiveResult::Reduced(rd.data)
            }
        })
    }

    /// Advances the operation; `block` chooses between the blocking
    /// receive and the mailbox/inbox probe. Returns whether it is done.
    fn poll(&mut self, comm: &mut CommHandle, block: bool) -> Result<bool, TransportError> {
        match &mut self.op {
            Op::Allgather { tag, out, pending } => {
                let tag = *tag;
                let mut i = 0;
                while i < pending.len() {
                    let from = pending[i];
                    let frame = if block {
                        Some(comm.blocking_recv_payload(from, tag)?)
                    } else {
                        comm.try_recv_payload(from, tag)?
                    };
                    match frame {
                        Some(p) => {
                            out[from] = Some(p);
                            pending.swap_remove(i);
                        }
                        None => i += 1,
                    }
                }
                Ok(pending.is_empty())
            }
            Op::Allreduce(rd) => loop {
                let (from, tag) = match rd.phase {
                    RdPhase::Done => return Ok(true),
                    RdPhase::FoldRecv => (comm.rank() - 1, rd.tag),
                    RdPhase::Core => (rd.partner(), rd.tag + rd.stage),
                    RdPhase::UnfoldRecv => (comm.rank() + 1, rd.tag + 100),
                };
                let frame = if block {
                    Some(comm.blocking_recv_payload(from, tag)?)
                } else {
                    comm.try_recv_payload(from, tag)?
                };
                let Some(frame) = frame else { return Ok(false) };
                let got = comm.check_frame::<f32>(frame, (from, tag), rd.data.len())?;
                match rd.phase {
                    RdPhase::FoldRecv => {
                        for (d, g) in rd.data.iter_mut().zip(got) {
                            *d += g;
                        }
                        rd.new_rank = Some(comm.rank() / 2);
                        enter_core(rd, comm)?;
                    }
                    RdPhase::Core => {
                        for (d, g) in rd.data.iter_mut().zip(got) {
                            *d += g;
                        }
                        rd.mask <<= 1;
                        rd.stage += 1;
                        if rd.mask < rd.pow2 {
                            let partner = rd.partner();
                            let (tag, stage) = (rd.tag, rd.stage);
                            comm.try_send_payload(
                                partner,
                                tag + stage,
                                PayloadRef::F32Dense(&rd.data),
                            )?;
                        } else {
                            finish_core(rd, comm)?;
                        }
                    }
                    RdPhase::UnfoldRecv => {
                        rd.data.copy_from_slice(&got);
                        rd.phase = RdPhase::Done;
                    }
                    RdPhase::Done => unreachable!(),
                }
            },
        }
    }
}

/// Posts the first core-stage send (or skips the core entirely when the
/// power-of-two group is a single rank).
fn enter_core(rd: &mut RdState, comm: &mut CommHandle) -> Result<(), TransportError> {
    rd.mask = 1;
    rd.stage = 1;
    if rd.mask < rd.pow2 {
        rd.phase = RdPhase::Core;
        let partner = rd.partner();
        let (tag, stage) = (rd.tag, rd.stage);
        comm.try_send_payload(partner, tag + stage, PayloadRef::F32Dense(&rd.data))
    } else {
        finish_core(rd, comm)
    }
}

/// After the last core stage: odd folded ranks return the result to their
/// even partner; everyone is then done.
fn finish_core(rd: &mut RdState, comm: &mut CommHandle) -> Result<(), TransportError> {
    let rank = comm.rank();
    if rank < 2 * rd.rem {
        debug_assert_eq!(rank % 2, 1, "only odd folded ranks reach the core");
        comm.try_send_payload(rank - 1, rd.tag + 100, PayloadRef::F32Dense(&rd.data))?;
    }
    rd.phase = RdPhase::Done;
    Ok(())
}

impl CommHandle {
    fn launch(&mut self, op: Op, payload_bytes: f64, t0: Instant) -> CollectiveHandle {
        self.inflight_inc();
        self.charge_wall(t0);
        let (trace_name, op_name, op_tag) = match &op {
            Op::Allgather { tag, .. } => ("nb/allgather", "allgather", *tag),
            Op::Allreduce(rd) => ("nb/allreduce", "allreduce", rd.tag),
        };
        let trace_id = (self.space() << 48) ^ op_tag;
        if a2sgd_trace::enabled() {
            a2sgd_trace::async_begin(
                trace_name,
                trace_id,
                a2sgd_trace::Args::Collective {
                    op: op_name,
                    plane: self.plane(),
                    bytes: payload_bytes as u64,
                },
            );
        }
        CollectiveHandle { op, payload_bytes, failed: None, counted: true, trace_name, trace_id }
    }

    /// Launches a nonblocking allreduce-sum of `data` (recursive doubling
    /// — what [`crate::CollectiveAlgo::RecursiveDoubling`] runs — and,
    /// per element, independent of how a larger vector was chunked into
    /// calls). The first-round frames are on the wire when this returns.
    pub fn start_allreduce(&mut self, data: Vec<f32>) -> CollectiveHandle {
        let t0 = Instant::now();
        let payload_bytes = (4 * data.len()) as f64;
        self.count_logical_bits(8 * 4 * data.len() as u64);
        let tag = self.next_tag();
        let (world, rank) = (self.world(), self.rank());
        let mut pow2 = 1usize;
        while pow2 * 2 <= world {
            pow2 *= 2;
        }
        let rem = world - pow2;
        let mut rd = RdState {
            data,
            tag,
            pow2,
            rem,
            new_rank: None,
            mask: 1,
            stage: 1,
            phase: RdPhase::Done,
        };
        let mut failed = None;
        if world > 1 {
            let outcome = if rank < 2 * rem {
                if rank % 2 == 0 {
                    // Fold: push into the odd partner, then await the
                    // unfolded result.
                    rd.phase = RdPhase::UnfoldRecv;
                    self.try_send_payload(rank + 1, tag, PayloadRef::F32Dense(&rd.data))
                } else {
                    rd.phase = RdPhase::FoldRecv;
                    Ok(())
                }
            } else {
                rd.new_rank = Some(rank - rem);
                enter_core(&mut rd, self)
            };
            failed = outcome.err();
        }
        let mut h = self.launch(Op::Allreduce(rd), payload_bytes, t0);
        h.failed = failed;
        h
    }

    /// Launches a nonblocking allgather of one opaque frame per rank —
    /// the exchange primitive for compressed gradient buckets. The own
    /// frame is shipped to every peer before this returns (direct
    /// exchange), so the entire network time of the collective can hide
    /// behind caller compute; the result is every rank's payload indexed
    /// by rank. [`Self::allgather_bytes`] is this, waited at once.
    pub fn start_allgather_bytes(&mut self, payload: Payload) -> CollectiveHandle {
        let t0 = Instant::now();
        let (world, rank) = (self.world(), self.rank());
        let payload_bytes = payload.byte_len() as f64;
        self.count_logical_bits(payload.bits());
        let tag = self.next_tag();
        let mut failed = None;
        for step in 1..world {
            let to = (rank + step) % world;
            if let Err(e) = self.try_send_payload(to, tag, payload.as_ref()) {
                failed = Some(e);
                break;
            }
        }
        let mut out: Vec<Option<Payload>> = (0..world).map(|_| None).collect();
        out[rank] = Some(payload);
        let pending: Vec<usize> = (1..world).map(|step| (rank + world - step) % world).collect();
        let mut h = self.launch(Op::Allgather { tag, out, pending }, payload_bytes, t0);
        h.failed = failed;
        h
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
                for (r, p) in got.iter().enumerate() {
                    assert_eq!(p.as_bytes(), vec![r as u8; r + 1]);
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
