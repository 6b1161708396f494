//! Bucketed synchronization sessions and the gather driver.
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
//! partition.
//!
//! The gather driver (`sync_gathered`) is the other half of the
//! codec + driver split: a [`Codec`] describes a compressor (`prepare`,
//! `encode`, `accumulate`), the driver is `try_sync_bucketed` for all of
//! them — the prepare → per-bucket encode → nonblocking allgather →
//! zero-and-accumulate loop, its `bucket/encode` / `bucket/decode` spans,
//! and the family's only timers: `compress_seconds` is measured here,
//! around each `prepare`, `encode` and bucket rebuild; `exchange_seconds`
//! around each collective call.

use crate::{Codec, GradientSynchronizer, Ledger, SyncStats};
use cluster_comm::{CollectiveHandle, CommHandle, TransportError};
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
    /// The communicator's ledgers as of the first submit.
    before: Option<Ledger>,
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
        SyncSession { sync, bounds: bounds.to_vec(), slots, exchange_seconds: 0.0, before: None }
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
        self.before.get_or_insert_with(|| Ledger::read(comm));
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
        let SyncSession { sync, bounds, slots, mut exchange_seconds, before } = self;
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
        let before = before.expect("submissions recorded the ledger baseline");

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
            Ok(SyncStats { exchange_seconds, overlap_seconds, ..before.spent(comm) })
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

/// The gather driver: [`GradientSynchronizer::try_sync_bucketed`] for every
/// [`Codec`].
///
/// `prepare` runs over the whole gradient, then each bucket is encoded and
/// launched as a nonblocking allgather immediately — so it is in flight
/// while the next bucket encodes — and a completed bucket is rebuilt in
/// place as the world average of its frames (zeroed, then every rank's
/// frame accumulated at weight `1/P`, rank 0 first). A bucket is written
/// only after its own encode and encode reads nothing outside its bucket,
/// so no snapshot of the gradient is needed under any partition. Completed
/// buckets decode opportunistically while later ones are still launching,
/// always in ascending order — determinism does not depend on arrival
/// timing.
///
/// This is the one place the family is timed: `compress_seconds` is
/// prepare + Σ encode + Σ (zero + accumulate); `exchange_seconds` is the
/// wall time inside collective calls; `wire_bits` and `comm_seconds` are
/// the communicator's ledger deltas for this rank's own frames. Peer
/// loss mid-pipeline is returned as the typed transport error; buckets
/// still in flight are abandoned with the communicator.
pub(crate) fn sync_gathered(
    codec: &mut dyn Codec,
    grad: &mut [f32],
    bounds: &[Range<usize>],
    comm: &mut CommHandle,
) -> Result<SyncStats, TransportError> {
    let before = Ledger::read(comm);
    let mut compress_seconds = 0.0f64;
    let mut exchange_seconds = 0.0f64;
    let mut pending: VecDeque<(usize, CollectiveHandle)> = VecDeque::new();

    /// Runs one piece of codec compute, billing its wall time to
    /// `compress_seconds`.
    fn timed<R>(compress_seconds: &mut f64, work: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = work();
        *compress_seconds += t.elapsed().as_secs_f64();
        out
    }

    timed(&mut compress_seconds, || codec.prepare(grad));
    let mut launched = 0;
    while launched < bounds.len() || !pending.is_empty() {
        if let Some(r) = bounds.get(launched) {
            let ts = a2sgd_trace::now_ns();
            let payload = timed(&mut compress_seconds, || codec.encode(r, &grad[r.clone()]));
            if a2sgd_trace::enabled() {
                let bytes = payload.byte_len() as u64;
                a2sgd_trace::closed_span(
                    "bucket/encode",
                    ts,
                    a2sgd_trace::Args::Bucket { bucket: launched, bytes },
                );
            }
            let t = Instant::now();
            pending.push_back((launched, comm.start_allgather_bytes(payload)));
            exchange_seconds += t.elapsed().as_secs_f64();
            launched += 1;
        }
        // Rebuild buckets front first: while more are still to launch only
        // those that already finished (never blocking the launch loop),
        // then whatever is left.
        while let Some((_, handle)) = pending.front_mut() {
            if launched < bounds.len() {
                let t = Instant::now();
                let done = handle.try_complete(comm)?;
                exchange_seconds += t.elapsed().as_secs_f64();
                if !done {
                    break;
                }
            }
            let (i, handle) = pending.pop_front().expect("front was just inspected");
            let t = Instant::now();
            let frames = handle.wait(comm)?.expect_gathered();
            exchange_seconds += t.elapsed().as_secs_f64();
            let ts = a2sgd_trace::now_ns();
            let r = &bounds[i];
            timed(&mut compress_seconds, || {
                let bucket = &mut grad[r.clone()];
                bucket.fill(0.0);
                let inv = 1.0 / frames.len() as f32;
                for frame in &frames {
                    codec.accumulate(r, frame, bucket, inv);
                }
            });
            if a2sgd_trace::enabled() {
                let bytes = frames.iter().map(|p| p.byte_len() as u64).sum();
                a2sgd_trace::closed_span(
                    "bucket/decode",
                    ts,
                    a2sgd_trace::Args::Bucket { bucket: i, bytes },
                );
            }
        }
    }
    Ok(SyncStats { compress_seconds, exchange_seconds, ..before.spent(comm) })
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

    /// Every gather codec reports the whole of its compute:
    /// `compress_seconds` is no less than the codec's own best-of-5 encode +
    /// accumulate on the same gradient (it is those plus `prepare`).
    #[test]
    fn compress_seconds_cover_prepare_encode_and_accumulate() {
        use crate::{GaussianK, Qsgd, QsgdImpl, RandK, SignSgdEf, TernGrad, TopK};
        let n = 1 << 16;
        let mut rng = mini_tensor::rng::SeedRng::new(70);
        let g: Vec<f32> = (0..n).map(|_| rng.randn() * 0.02).collect();

        fn check<C: Codec>(g: &[f32], make: impl Fn() -> C + Sync) {
            let whole = 0..g.len();
            let mut codec = make();
            let mut prepared = g.to_vec();
            codec.prepare(&mut prepared);
            let mut out = vec![0.0f32; g.len()];
            let floor = (0..5).fold(f64::INFINITY, |best, _| {
                let t = Instant::now();
                let frame = codec.encode(&whole, &prepared);
                codec.accumulate(&whole, &frame, &mut out, 1.0);
                best.min(t.elapsed().as_secs_f64())
            });
            let ran = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
                make().synchronize(&mut g.to_vec(), h).compress_seconds
            });
            let (name, compress) = (Codec::name(&codec), ran[0]);
            assert!(floor > 0.0 && compress >= floor, "{name}: {compress} < coder {floor}");
        }
        check(&g, || TopK::new(n, 0.01));
        check(&g, || GaussianK::new(n, 0.01));
        check(&g, || RandK::new(n, 0.01, 7));
        check(&g, || Qsgd::new(4, QsgdImpl::Fast, 7));
        check(&g, || TernGrad::new(7));
        check(&g, || SignSgdEf::new(n));
    }
}
