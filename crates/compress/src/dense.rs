//! Dense (uncompressed) distributed SGD — the paper's "Dense" baseline.

use crate::{GradientSynchronizer, Ledger, SyncStats};
use cluster_comm::{CollectiveHandle, CommHandle, TransportError};
use std::ops::Range;

/// Full-gradient allreduce-average: 32n bits per worker, no local gradient
/// processing (the paper's Table 2 lists its computation as O(1)).
///
/// Dense is the one synchronizer with no cross-bucket statistics, so it is
/// the fully-streaming case of the bucketed pipeline: every bucket's
/// recursive-doubling allreduce is launched the moment its slice is
/// copied out, and all of them ride the wire concurrently before the first
/// wait. Recursive doubling reduces every element with the same
/// rank-pairing schedule regardless of which bucket (or chunk of a bucket)
/// it sits in, which is what makes bucketed results bit-identical to the
/// whole-model call.
///
/// Not ring, even for large payloads: ring's reduction order depends on
/// how the vector is chunked, so it can never satisfy the bucketed ≡
/// single-shot contract. RD trades ring's bandwidth optimality
/// (`2(P−1)/P·n` vs `log₂P·n` bytes/rank) for partition-invariant
/// determinism. The figure regenerators' analytic dense curves
/// (`a2sgd_bench::comm_seconds`) quote the best-of
/// `CostModel::allreduce`; the communicator's ledger
/// ([`SyncStats::comm_seconds`]) charges RD, what actually ran.
#[derive(Debug, Default)]
pub struct DenseSgd;

impl DenseSgd {
    /// Creates the baseline.
    pub fn new() -> Self {
        DenseSgd
    }
}

impl GradientSynchronizer for DenseSgd {
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let before = Ledger::read(comm);

        // Launch every bucket before waiting on any: all frames in flight
        // at once. Expressed through the same start/finish pair the
        // hook-driven step streams with, so the two paths cannot drift
        // apart arithmetically (hooked ≡ single-shot by shared code, not
        // parallel copies).
        let mut handles = Vec::with_capacity(bounds.len());
        for r in bounds {
            handles.push(self.start_bucket(&grad[r.clone()], comm).expect("dense streams"));
        }
        for (r, handle) in bounds.iter().zip(handles) {
            self.try_finish_bucket(&mut grad[r.clone()], handle, comm)?;
        }
        Ok(before.spent(comm))
    }

    // Dense is the fully-streaming synchronizer: a bucket's recursive-
    // doubling allreduce depends on nothing outside the bucket, so the
    // hook driver launches it the moment the layer's gradient lands —
    // while earlier layers are still backpropagating. RD reduces every
    // element with the same rank-pairing schedule regardless of launch
    // order, so hook arrival order (reverse topological) cannot perturb
    // the result.
    fn start_bucket(&mut self, bucket: &[f32], comm: &mut CommHandle) -> Option<CollectiveHandle> {
        Some(comm.start_allreduce(bucket.to_vec()))
    }

    fn try_finish_bucket(
        &mut self,
        bucket: &mut [f32],
        handle: CollectiveHandle,
        comm: &mut CommHandle,
    ) -> Result<(), TransportError> {
        let inv = 1.0 / comm.world() as f32;
        let sum = handle.wait(comm)?.expect_reduced();
        for (g, s) in bucket.iter_mut().zip(sum) {
            *g = s * inv;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn dense_sync_averages_exactly() {
        let out = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let mut g = vec![(h.rank() + 1) as f32; 16];
            let mut d = DenseSgd::new();
            let stats = d.synchronize(&mut g, h);
            (g, stats)
        });
        for (g, stats) in out {
            assert!(g.iter().all(|&v| (v - 2.5).abs() < 1e-6));
            assert_eq!(stats.wire_bits, 32 * 16);
        }
    }

    #[test]
    fn bucketed_sync_is_bit_identical_to_whole_model() {
        let n = 257; // odd length: buckets of uneven sizes
        let input = |rank: usize| -> Vec<f32> {
            (0..n).map(|i| ((rank * 31 + i * 7) % 19) as f32 * 0.37 - 3.0).collect()
        };
        let whole = run_cluster(3, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = input(h.rank());
            DenseSgd::new().synchronize(&mut g, h);
            g
        });
        let bucketed = run_cluster(3, NetworkProfile::infiniband_100g(), move |h| {
            let mut g = input(h.rank());
            let bounds = vec![0..100, 100..101, 101..257];
            DenseSgd::new().sync_bucketed(&mut g, &bounds, h);
            (g, h.max_inflight())
        });
        for (rank, (g, max_inflight)) in bucketed.into_iter().enumerate() {
            let a: Vec<u32> = g.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = whole[rank].iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "rank {rank}");
            assert!(max_inflight >= 3, "all buckets should be in flight together");
        }
    }

    #[test]
    fn formula_is_32n() {
        // The registry's closed form is what a whole-model sync ships.
        let dense = a2sgd::registry::AlgoKind::Dense;
        assert_eq!(dense.wire_bits(66_034_000), 32 * 66_034_000);
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            DenseSgd::new().synchronize(&mut vec![0.5; 1003], h).wire_bits
        });
        assert!(out.into_iter().all(|bits| bits == dense.wire_bits(1003)));
    }
}
