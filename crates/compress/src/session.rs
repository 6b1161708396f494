//! The bucket partition and the gather driver.
//!
//! [`bucket_bounds`] turns a parameter layout into the deterministic,
//! layer-boundary-aligned bucket partition every synchronizer exchanges
//! over.
//!
//! The gather driver (`sync_gathered`) is the other half of the
//! codec + driver split: a [`Codec`] describes a compressor (`prepare`,
//! `encode`, `accumulate`), the driver is `try_sync_bucketed` for all of
//! them — the prepare → per-bucket encode → nonblocking allgather →
//! zero-and-accumulate loop, its `bucket/encode` / `bucket/decode` spans,
//! and the family's only timers: `compress_seconds` is measured here,
//! around each `prepare`, `encode` and bucket rebuild. Exchange time is
//! the communicator's own ledger, read through [`Ledger`].

use crate::{Codec, Ledger, SyncStats};
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

/// The gather driver: [`crate::GradientSynchronizer::try_sync_bucketed`] for every
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
/// prepare + Σ encode + Σ (zero + accumulate); `exchange_seconds`,
/// `wire_bits` and `comm_seconds` are the communicator's ledger deltas
/// for this rank's own frames. Peer loss mid-pipeline and a frame
/// `accumulate` refuses (`BadFrame` from its index in the gather) are
/// returned as typed transport errors; buckets still in flight are
/// abandoned with the communicator.
pub(crate) fn sync_gathered(
    codec: &mut dyn Codec,
    grad: &mut [f32],
    bounds: &[Range<usize>],
    comm: &mut CommHandle,
) -> Result<SyncStats, TransportError> {
    let before = Ledger::read(comm);
    let mut compress_seconds = 0.0f64;
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
            pending.push_back((launched, comm.start_allgather_bytes(payload)));
            launched += 1;
        }
        // Rebuild buckets front first: while more are still to launch only
        // those that already finished (never blocking the launch loop),
        // then whatever is left.
        while let Some((_, handle)) = pending.front_mut() {
            if launched < bounds.len() && !handle.try_complete(comm)? {
                break;
            }
            let (i, handle) = pending.pop_front().expect("front was just inspected");
            let (rank, tag) = (comm.rank(), handle.tag());
            let frames = handle.wait(comm)?.expect_gathered();
            let ts = a2sgd_trace::now_ns();
            let r = &bounds[i];
            timed(&mut compress_seconds, || {
                let bucket = &mut grad[r.clone()];
                bucket.fill(0.0);
                let inv = 1.0 / frames.len() as f32;
                frames.iter().enumerate().try_for_each(|(peer, frame)| {
                    let bad = |cause| TransportError::BadFrame { rank, peer, tag, cause };
                    codec.accumulate(r, frame, bucket, inv).map_err(bad)
                })
            })?;
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
    Ok(SyncStats { compress_seconds, ..before.spent(comm) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GradientSynchronizer;

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

    /// Buckets started in reverse order (the hook arrival shape) and
    /// finished after all are in flight equal the single-shot whole-model
    /// call.
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
            let before = Ledger::read(h);
            let mut handles: Vec<_> = b
                .iter()
                .rev()
                .map(|r| sync.start_bucket(&g[r.clone()], h).expect("dense streams"))
                .collect();
            assert!(h.inflight() >= 2, "streamed buckets should be concurrently in flight");
            for r in b.iter().rev() {
                sync.try_finish_bucket(&mut g[r.clone()], handles.remove(0), h).unwrap();
            }
            assert_eq!(before.spent(h).wire_bits, 32 * n as u64);
            (g, h.max_inflight())
        });
        for (rank, (g, max_inflight)) in streamed.into_iter().enumerate() {
            let a: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
            let e: Vec<u32> = whole[rank].iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, e, "rank {rank}");
            assert!(max_inflight >= 3, "all buckets should overlap");
        }
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
                codec.accumulate(&whole, &frame, &mut out, 1.0).unwrap();
                best.min(t.elapsed().as_secs_f64())
            });
            let ran = run_cluster(1, NetworkProfile::infiniband_100g(), |h| {
                make().synchronize(&mut g.to_vec(), h).compress_seconds
            });
            let (name, compress) = (std::any::type_name::<C>(), ran[0]);
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
