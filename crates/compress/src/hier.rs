//! Two-level gradient synchronization: dense inside a group, any registry
//! synchronizer across group leaders.
//!
//! [`HierarchicalSynchronizer`] wraps an inner [`GradientSynchronizer`]
//! with the paper's cluster topology: each group first runs an exact dense
//! allreduce over its cheap intra plane (so the leader holds the group
//! mean), the leaders then run the inner algorithm — notably the O(1)
//! A2SGD packet — across the expensive inter plane, and the result fans
//! back out with an intra-group broadcast. The returned [`SyncStats`]
//! splits `wire_bits` / `exchange_seconds` — each a delta of its plane
//! communicator's ledgers — into their intra and inter shares, so the O(1) claim is checkable on the inter fields alone; the
//! planes run one after the other, so their `comm_seconds` simply add.
//!
//! With `group_size = 1` every rank is a leader, the intra plane is a
//! one-rank no-op, and the result is bit-identical to running the inner
//! synchronizer flat — the degenerate case the parity tests pin.

use std::ops::Range;

use cluster_comm::hier::HierarchicalComm;
use cluster_comm::{CommHandle, TransportError};

use crate::dense::DenseSgd;
use crate::{GradientSynchronizer, Ledger, SyncStats};

/// Dense intra-group averaging composed with an inner synchronizer over
/// group leaders (see module docs). Owns the topology's communicator
/// pair; the world communicator passed to `try_sync_bucketed` is unused.
pub struct HierarchicalSynchronizer {
    inner: Box<dyn GradientSynchronizer>,
    dense: DenseSgd,
    comm: HierarchicalComm,
}

impl HierarchicalSynchronizer {
    /// Wraps `inner` to run across the leaders of `comm`'s groups.
    pub fn new(inner: Box<dyn GradientSynchronizer>, comm: HierarchicalComm) -> Self {
        HierarchicalSynchronizer { inner, dense: DenseSgd::new(), comm }
    }
}

impl GradientSynchronizer for HierarchicalSynchronizer {
    fn try_sync_bucketed(
        &mut self,
        grad: &mut [f32],
        bounds: &[Range<usize>],
        _world: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        // Level 1: exact dense mean inside the group (cheap plane). A
        // singleton group already holds its own mean — skip the plane
        // entirely so `group_size = 1` degenerates to the flat inner
        // algorithm bit-for-bit and bit-count-for-bit-count.
        let intra_stats = if self.comm.intra.world() > 1 {
            self.dense.try_sync_bucketed(grad, bounds, &mut self.comm.intra)?
        } else {
            SyncStats::default()
        };

        // Level 2 (leaders only): the inner algorithm across groups — the
        // only traffic that touches the expensive plane.
        let inner_stats = match self.comm.inter.as_mut() {
            Some(inter) => self.inner.try_sync_bucketed(grad, bounds, inter)?,
            None => SyncStats::default(),
        };

        // Fan the leader's result back out.
        let bcast = if self.comm.intra.world() > 1 {
            let before = Ledger::read(&self.comm.intra);
            self.comm.intra.try_broadcast(0, grad)?;
            before.spent(&self.comm.intra)
        } else {
            SyncStats::default()
        };

        let intra_wire_bits = intra_stats.wire_bits + bcast.wire_bits;
        let intra_exchange_seconds = intra_stats.exchange_seconds + bcast.exchange_seconds;
        Ok(SyncStats {
            compress_seconds: inner_stats.compress_seconds,
            exchange_seconds: intra_exchange_seconds + inner_stats.exchange_seconds,
            overlap_seconds: inner_stats.overlap_seconds,
            wire_bits: intra_wire_bits + inner_stats.wire_bits,
            comm_seconds: intra_stats.comm_seconds + inner_stats.comm_seconds + bcast.comm_seconds,
            intra_wire_bits,
            inter_wire_bits: inner_stats.wire_bits,
            intra_exchange_seconds,
            inter_exchange_seconds: inner_stats.exchange_seconds,
            // Members never see the inner exchange, so no rank-agreed
            // dispersion exists under the hierarchy; the trainer's explicit
            // drift allgather covers adaptive schedules here.
            dispersion: None,
        })
    }

    fn plane_traffic(
        &self,
    ) -> Option<(cluster_comm::TrafficStats, Option<cluster_comm::TrafficStats>)> {
        Some((self.comm.intra.stats(), self.comm.inter.as_ref().map(|c| c.stats())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_bounds;
    use cluster_comm::{run_cluster, NetworkProfile};

    fn rank_grad(rank: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| (rank as f32 + 1.0) * 0.25 + i as f32 * 0.01).collect()
    }

    #[test]
    fn two_level_dense_equals_flat_dense() {
        // Dense-over-dense is an exact mean of means with equal group
        // sizes, so hier(dense, dense) must reproduce flat dense bits.
        let n = 96;
        let flat = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let mut g = rank_grad(h.rank(), n);
            DenseSgd::new().sync_bucketed(&mut g, &bucket_bounds(&[n], 40), h);
            g
        });
        let hier = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let topo = HierarchicalComm::from_flat(h, 2);
            let mut sync = HierarchicalSynchronizer::new(Box::new(DenseSgd::new()), topo);
            let mut g = rank_grad(h.rank(), n);
            let stats = sync.sync_bucketed(&mut g, &bucket_bounds(&[n], 40), h);
            assert_eq!(stats.wire_bits, stats.intra_wire_bits + stats.inter_wire_bits);
            if sync.comm.is_leader() {
                assert!(stats.inter_wire_bits > 0);
            } else {
                assert_eq!(stats.inter_wire_bits, 0);
                assert_eq!(stats.inter_exchange_seconds, 0.0);
            }
            g
        });
        assert_eq!(flat, hier);
    }

    #[test]
    fn group_size_one_is_bit_identical_to_flat_inner() {
        let n = 64;
        let flat = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let mut g = rank_grad(h.rank(), n);
            DenseSgd::new().sync_bucketed(&mut g, &bucket_bounds(&[n], 64), h);
            g
        });
        let hier = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let topo = HierarchicalComm::from_flat(h, 1);
            let mut sync = HierarchicalSynchronizer::new(Box::new(DenseSgd::new()), topo);
            let mut g = rank_grad(h.rank(), n);
            let stats = sync.sync_bucketed(&mut g, &bucket_bounds(&[n], 64), h);
            // Degenerate groups: nothing moves on the intra plane.
            assert_eq!(stats.intra_wire_bits, 0);
            assert_eq!(stats.wire_bits, stats.inter_wire_bits);
            g
        });
        assert_eq!(flat, hier);
    }
}
