//! Bucketed synchronization sessions and the shared pipeline driver.
//!
//! [`SyncSession`] is the streaming per-step API over
//! [`GradientSynchronizer`], shaped for per-layer gradient-ready hooks:
//! `begin_step(bounds)` → `submit(bucket_id, data, comm)` the moment each
//! bucket's gradient lands (any order — backward passes deliver buckets
//! in *reverse* layout order) → `try_finish(grad, comm)` (drain exchanges
//! into the caller's flat gradient, aggregate [`SyncStats`]; peer loss is
//! returned as the transport's typed error). For
//! streaming synchronizers ([`GradientSynchronizer::streams_buckets`],
//! i.e. Dense) each `submit` launches the bucket's exchange immediately,
//! so frames are on the wire while the backward pass is still executing;
//! for global-statistics synchronizers a submit only marks the bucket
//! ready (nothing is copied) and `try_finish` runs the ordinary
//! [`GradientSynchronizer::try_sync_bucketed`] pipeline over the caller's flat
//! gradient, once the whole of it exists. Either way the result is
//! bit-identical to the single-shot call. [`bucket_bounds`] turns a
//! parameter layout into the deterministic, layer-boundary-aligned bucket
//! partition, and [`pipeline_allgather`] is the
//! encode → nonblocking-exchange → decode loop every gather-style
//! synchronizer shares.

use crate::{GradientSynchronizer, SyncStats};
use cluster_comm::{CollectiveHandle, CommHandle, Payload, TransportError};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// Cuts a flat gradient into deterministic, size-capped buckets that never
/// split a parameter tensor (layer-boundary alignment): segments are taken
/// in layout order and greedily packed until adding the next one would
/// exceed `cap_bytes` (f32 elements, 4 bytes each). A segment larger than
/// the cap gets a bucket of its own — the cap is a target, alignment wins.
/// The result partitions `0..sizes.iter().sum()` in ascending order and is
/// a pure function of `(sizes, cap_bytes)`, so every rank, backend and
/// world size derives identical boundaries.
pub fn bucket_bounds(sizes: &[usize], cap_bytes: usize) -> Vec<Range<usize>> {
    let cap_elems = (cap_bytes / 4).max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut len = 0usize;
    for &s in sizes {
        if len > 0 && len + s > cap_elems {
            out.push(start..start + len);
            start += len;
            len = 0;
        }
        len += s;
    }
    if len > 0 {
        out.push(start..start + len);
    }
    out
}

/// Per-bucket session state. The in-flight variant dwarfs the two markers,
/// but it is the streaming hot path's only variant and there is one slot
/// per bucket — boxing it would buy an allocation per bucket per step.
#[allow(clippy::large_enum_variant)]
enum Slot {
    /// Not yet submitted.
    Pending,
    /// Submitted and staged (global-statistics synchronizers: the pipeline
    /// needs the whole gradient, which `finish` reads from the caller's
    /// flat buffer — the slot only records that the bucket arrived).
    Staged,
    /// Submitted and already on the wire (streaming synchronizers), with
    /// the launch instant for the overlap measure and the launch trace
    /// timestamp for the `bucket/inflight` async span (0 when untraced).
    InFlight(CollectiveHandle, Instant, u64),
}

/// One training step's bucketed synchronization, driven bucket-by-bucket
/// as gradients become ready.
///
/// The session knows the step's full bucket partition up front
/// ([`begin`](Self::begin) takes `bounds`), so buckets may be submitted in
/// **any order** — a hooked backward pass delivers them in reverse layout
/// order (the output layer's bucket first). Mis-wired drivers fail loudly:
/// an unknown or repeated `bucket_id`, a wrong slice length, or a missing
/// bucket at [`try_finish`](Self::try_finish) each panic with the offending
/// ids — those are driver bugs; a lost peer is an `Err`, not a panic.
///
/// For a streaming synchronizer ([`GradientSynchronizer::streams_buckets`])
/// every submit launches the bucket's nonblocking exchange immediately —
/// that is the backward-overlap path, and the time those frames spend in
/// flight before `try_finish` drains them is reported as
/// [`SyncStats::overlap_seconds`]. Otherwise a submit is bookkeeping only
/// and `try_finish` runs the synchronizer's ordinary bucketed pipeline over
/// the flat gradient the buckets were sliced from, which is why results
/// stay bit-identical to the single-shot call for every synchronizer.
pub struct SyncSession<'s> {
    sync: &'s mut dyn GradientSynchronizer,
    bounds: Vec<Range<usize>>,
    slots: Vec<Slot>,
    exchange_seconds: f64,
    bits_before: Option<u64>,
}

impl<'s> SyncSession<'s> {
    /// Opens a session over the step's bucket partition (see also the
    /// `begin_step` convenience on `dyn GradientSynchronizer`). `bounds`
    /// must partition `0..n` in ascending contiguous order
    /// ([`bucket_bounds`] output).
    pub fn begin(sync: &'s mut dyn GradientSynchronizer, bounds: &[Range<usize>]) -> Self {
        let mut expect = 0usize;
        for (i, r) in bounds.iter().enumerate() {
            assert_eq!(r.start, expect, "bucket {i} leaves a gap/overlap in the partition");
            assert!(r.end >= r.start, "bucket {i} is backwards");
            expect = r.end;
        }
        let slots = bounds.iter().map(|_| Slot::Pending).collect();
        SyncSession {
            sync,
            bounds: bounds.to_vec(),
            slots,
            exchange_seconds: 0.0,
            bits_before: None,
        }
    }

    /// The step's bucket partition.
    pub fn bounds(&self) -> &[Range<usize>] {
        &self.bounds
    }

    /// Submits bucket `bucket_id`'s gradient slice (`data.len()` must
    /// match the bucket's bounds). Streaming synchronizers put it on the
    /// wire before returning (a failed send is deferred into the handle
    /// and surfaces at [`try_finish`](Self::try_finish)); others only
    /// record the arrival — the data is read at `try_finish`, from the
    /// buffer passed there.
    pub fn submit(&mut self, bucket_id: usize, data: &[f32], comm: &mut CommHandle) {
        assert!(
            bucket_id < self.slots.len(),
            "bucket id {bucket_id} out of range (step has {} buckets)",
            self.slots.len()
        );
        assert!(
            matches!(self.slots[bucket_id], Slot::Pending),
            "bucket {bucket_id} submitted twice in one step"
        );
        let r = &self.bounds[bucket_id];
        assert_eq!(
            data.len(),
            r.end - r.start,
            "bucket {bucket_id} slice length disagrees with its bounds"
        );
        self.bits_before.get_or_insert_with(|| comm.stats().logical_wire_bits);
        if self.sync.streams_buckets() {
            let bytes = (4 * data.len()) as u64;
            let ts = a2sgd_trace::now_ns();
            let t0 = Instant::now();
            let handle = self
                .sync
                .start_bucket(data, comm)
                .expect("streams_buckets() synchronizer must implement start_bucket");
            // The launch itself is synchronous caller time (billed to
            // exchange_seconds); the overlap window opens only once the
            // frames are actually in flight.
            let launched = Instant::now();
            let launched_ns = a2sgd_trace::now_ns();
            self.exchange_seconds += (launched - t0).as_secs_f64();
            if a2sgd_trace::enabled() {
                a2sgd_trace::closed_span(
                    "bucket/submit",
                    ts,
                    a2sgd_trace::Args::Bucket { bucket: bucket_id, bytes },
                );
            }
            self.slots[bucket_id] = Slot::InFlight(handle, launched, launched_ns);
        } else {
            self.slots[bucket_id] = Slot::Staged;
        }
    }

    /// Drains the step into `grad` (the full flat gradient, overwritten
    /// with the synchronized result) and returns the aggregated stats.
    /// `grad` must hold the submitted data — every bucket was sliced from
    /// it and it has not been written since: streaming synchronizers
    /// already shipped their copy, all others read the gradient from
    /// here. Panics if any bucket was never submitted; returns the typed
    /// transport error when a peer was lost mid-exchange (`grad` is then
    /// unspecified and the remaining in-flight handles are abandoned with
    /// the spent communicator).
    pub fn try_finish(
        self,
        grad: &mut [f32],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let SyncSession { sync, bounds, slots, mut exchange_seconds, bits_before } = self;
        let total = bounds.last().map(|r| r.end).unwrap_or(0);
        assert_eq!(grad.len(), total, "flat gradient length disagrees with the partition");
        let missing: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, Slot::Pending))
            .map(|(i, _)| i)
            .collect();
        assert!(missing.is_empty(), "finish with unsubmitted buckets {missing:?}");
        if bounds.is_empty() {
            return Ok(SyncStats::default());
        }
        let bits_before = bits_before.expect("submissions recorded the wire baseline");

        if sync.streams_buckets() {
            // Everything is already in flight; whatever wall time passed
            // between each launch and now was hidden under the caller's
            // own compute (for hook-driven steps: the backward pass).
            let drain_begin = Instant::now();
            let drain_ns = a2sgd_trace::now_ns();
            let mut overlap_seconds = 0.0f64;
            for (bucket, (r, slot)) in bounds.iter().zip(slots).enumerate() {
                let Slot::InFlight(handle, launched, launched_ns) = slot else { unreachable!() };
                overlap_seconds += (drain_begin - launched).as_secs_f64();
                let bytes = (4 * (r.end - r.start)) as u64;
                if a2sgd_trace::enabled() {
                    // The overlap window itself: launch → drain start, the
                    // exact interval overlap_seconds accumulates.
                    a2sgd_trace::async_span_at(
                        "bucket/inflight",
                        bucket as u64,
                        launched_ns,
                        drain_ns,
                        a2sgd_trace::Args::Bucket { bucket, bytes },
                    );
                }
                let ts = a2sgd_trace::now_ns();
                let t0 = Instant::now();
                sync.try_finish_bucket(&mut grad[r.clone()], handle, comm)?;
                exchange_seconds += t0.elapsed().as_secs_f64();
                if a2sgd_trace::enabled() {
                    a2sgd_trace::closed_span(
                        "bucket/drain",
                        ts,
                        a2sgd_trace::Args::Bucket { bucket, bytes },
                    );
                }
            }
            Ok(SyncStats {
                exchange_seconds,
                overlap_seconds,
                wire_bits: comm.stats().logical_wire_bits - bits_before,
                ..SyncStats::default()
            })
        } else {
            // Every bucket has arrived, so `grad` is the whole local
            // gradient: run the ordinary bucketed pipeline over it —
            // global cross-bucket statistics and all.
            sync.try_sync_bucketed(grad, &bounds, comm)
        }
    }

    /// Panicking adapter over [`try_finish`](Self::try_finish).
    pub fn finish(self, grad: &mut [f32], comm: &mut CommHandle) -> SyncStats {
        self.try_finish(grad, comm).unwrap_or_else(|e| panic!("sync session drain: {e}"))
    }
}

/// The shared bucketed exchange loop for gather-style synchronizers:
/// `encode(bounds[i])` produces bucket *i*'s wire frame, which is launched
/// as a nonblocking allgather immediately — so it is in flight while
/// bucket *i+1* encodes — and `decode(bounds[i], frames)` folds the
/// world's frames for bucket *i* back in. On measured backends completed
/// buckets decode opportunistically while later ones are still launching;
/// on modeled backends completion order is pinned to bucket order (the
/// shared simulated clock has no overlap to expose). Decode is always
/// called in ascending bucket order — determinism does not depend on
/// arrival timing.
///
/// Returns `(wire_bits, exchange_seconds)`: the logical-bit delta of this
/// rank's own frames and the measured wall time spent inside collective
/// calls. Peer loss mid-pipeline is returned as the typed transport
/// error; buckets still in flight are abandoned with the communicator.
pub fn pipeline_allgather(
    comm: &mut CommHandle,
    bounds: &[Range<usize>],
    mut encode: impl FnMut(&Range<usize>) -> Payload,
    mut decode: impl FnMut(&Range<usize>, Vec<Payload>),
) -> Result<(u64, f64), TransportError> {
    let bits_before = comm.stats().logical_wire_bits;
    let mut exchange_seconds = 0.0f64;
    let opportunistic = comm.cost_model().is_none();
    let mut pending: VecDeque<(usize, CollectiveHandle)> = VecDeque::new();

    let wait_front = |pending: &mut VecDeque<(usize, CollectiveHandle)>,
                      comm: &mut CommHandle,
                      exchange_seconds: &mut f64,
                      decode: &mut dyn FnMut(&Range<usize>, Vec<Payload>)| {
        let (i, handle) = pending.pop_front().expect("pipeline drained an empty queue");
        let t = Instant::now();
        let frames = handle.wait(comm)?.expect_gathered();
        *exchange_seconds += t.elapsed().as_secs_f64();
        let ts = a2sgd_trace::now_ns();
        let frame_bytes: u64 = if a2sgd_trace::enabled() {
            frames.iter().map(|p| p.byte_len() as u64).sum()
        } else {
            0
        };
        decode(&bounds[i], frames);
        if a2sgd_trace::enabled() {
            a2sgd_trace::closed_span(
                "bucket/decode",
                ts,
                a2sgd_trace::Args::Bucket { bucket: i, bytes: frame_bytes },
            );
        }
        Ok::<(), TransportError>(())
    };

    for (i, r) in bounds.iter().enumerate() {
        let ts = a2sgd_trace::now_ns();
        let payload = encode(r);
        if a2sgd_trace::enabled() {
            a2sgd_trace::closed_span(
                "bucket/encode",
                ts,
                a2sgd_trace::Args::Bucket { bucket: i, bytes: payload.byte_len() as u64 },
            );
        }
        let t = Instant::now();
        let handle = comm.start_allgather_bytes(payload);
        exchange_seconds += t.elapsed().as_secs_f64();
        pending.push_back((i, handle));
        if opportunistic {
            // Drain whatever already finished, front first, without
            // blocking the launch loop.
            loop {
                let t = Instant::now();
                let done = match pending.front_mut() {
                    Some((_, h)) => h.try_complete(comm)?,
                    None => false,
                };
                exchange_seconds += t.elapsed().as_secs_f64();
                if !done {
                    break;
                }
                wait_front(&mut pending, comm, &mut exchange_seconds, &mut decode)?;
            }
        }
    }
    while !pending.is_empty() {
        wait_front(&mut pending, comm, &mut exchange_seconds, &mut decode)?;
    }
    Ok((comm.stats().logical_wire_bits - bits_before, exchange_seconds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_pack_whole_segments_up_to_the_cap() {
        // Segments of 100/200/50/400/10 floats, 1 KiB cap = 256 floats:
        // 100 alone (next would overflow), then 200+50 = 250 together,
        // then the oversized 400, then the tail.
        let b = bucket_bounds(&[100, 200, 50, 400, 10], 1024);
        assert_eq!(b, vec![0..100, 100..350, 350..750, 750..760]);
    }

    #[test]
    fn oversized_segment_gets_its_own_bucket() {
        let b = bucket_bounds(&[10, 5000, 10], 1024);
        assert_eq!(b, vec![0..10, 10..5010, 5010..5020]);
    }

    #[test]
    fn huge_cap_is_one_bucket() {
        let b = bucket_bounds(&[7, 8, 9], usize::MAX);
        assert_eq!(b, vec![0..24]);
    }

    #[test]
    fn zero_cap_is_per_segment() {
        let b = bucket_bounds(&[3, 4], 0);
        assert_eq!(b, vec![0..3, 3..7]);
    }

    #[test]
    fn bounds_partition_the_whole_range() {
        let sizes = [13usize, 1, 999, 256, 4096, 77];
        for cap in [0usize, 64, 1024, 65536, usize::MAX] {
            let b = bucket_bounds(&sizes, cap);
            let n: usize = sizes.iter().sum();
            assert_eq!(b.first().unwrap().start, 0);
            assert_eq!(b.last().unwrap().end, n);
            for w in b.windows(2) {
                assert_eq!(w[0].end, w[1].start, "cap {cap}: gap/overlap");
            }
        }
    }

    #[test]
    fn empty_layout_has_no_buckets() {
        assert!(bucket_bounds(&[], 1024).is_empty());
    }

    use crate::dense::DenseSgd;
    use cluster_comm::{run_cluster, NetworkProfile};

    fn input(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| ((rank * 31 + i * 7) % 23) as f32 * 0.41 - 2.0).collect()
    }

    /// Reverse submission order (the hook arrival shape) through the
    /// streaming dense path equals the single-shot whole-model call.
    #[test]
    fn dense_streaming_out_of_order_matches_single_shot() {
        let n = 300;
        let bounds = vec![0..100, 100..180, 180..300];
        let whole = run_cluster(3, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = input(h.rank(), n);
            DenseSgd::new().synchronize(&mut g, h);
            g
        });
        let b = bounds.clone();
        let streamed = run_cluster(3, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = input(h.rank(), n);
            let mut sync = DenseSgd::new();
            let mut session = SyncSession::begin(&mut sync, &b);
            for (id, r) in b.iter().enumerate().rev() {
                session.submit(id, &g[r.clone()], h);
            }
            assert!(h.inflight() >= 2, "streamed buckets should be concurrently in flight");
            let stats = session.finish(&mut g, h);
            assert!(stats.overlap_seconds >= 0.0);
            assert_eq!(stats.wire_bits, 32 * n as u64);
            (g, h.max_inflight())
        });
        for (rank, (g, max_inflight)) in streamed.into_iter().enumerate() {
            let a: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
            let e: Vec<u32> = whole[rank].iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, e, "rank {rank}");
            assert!(max_inflight >= 3, "all buckets should overlap");
        }
    }

    /// Single-rank handle on the current thread, so `#[should_panic]`
    /// observes the session's own diagnostic (a panic inside `run_cluster`
    /// worker threads surfaces as the generic join failure instead).
    fn lone_handle() -> cluster_comm::CommHandle {
        cluster_comm::Cluster::new(1, NetworkProfile::infiniband_100g()).handle(0)
    }

    #[test]
    #[should_panic(expected = "submitted twice")]
    fn duplicate_submit_panics() {
        let h = &mut lone_handle();
        let g = [0.0f32; 10];
        let mut sync = DenseSgd::new();
        let mut session = SyncSession::begin(&mut sync, &[0..4, 4..10]);
        session.submit(1, &g[4..10], h);
        session.submit(1, &g[4..10], h);
    }

    #[test]
    #[should_panic(expected = "unsubmitted buckets [0]")]
    fn missing_bucket_at_finish_panics() {
        let h = &mut lone_handle();
        let mut g = vec![0.0f32; 10];
        let mut sync = DenseSgd::new();
        let mut session = SyncSession::begin(&mut sync, &[0..4, 4..10]);
        session.submit(1, &g[4..10], h);
        session.finish(&mut g, h);
    }

    #[test]
    #[should_panic(expected = "length disagrees")]
    fn wrong_slice_length_panics() {
        let h = &mut lone_handle();
        let g = [0.0f32; 10];
        let mut sync = DenseSgd::new();
        let mut session = SyncSession::begin(&mut sync, &[0..4, 4..10]);
        session.submit(0, &g[0..3], h);
    }

    #[test]
    #[should_panic(expected = "gap/overlap")]
    fn non_partition_bounds_panic() {
        let mut sync = DenseSgd::new();
        let _ = SyncSession::begin(&mut sync, &[0..4, 5..10]);
    }
}
