//! In-process cluster construction and the thread-rank spawn helper.

use crate::collective::CommHandle;
use crate::cost::CostModel;
use crate::profile::NetworkProfile;
use crate::transport::InProcShared;
use std::sync::Arc;

/// A simulated in-process cluster (thread ranks, mailbox transport,
/// Hockney-priced collectives); create once, then [`Cluster::handle`] per rank.
pub struct Cluster {
    shared: Arc<InProcShared>,
    world: usize,
    cost: CostModel,
}

impl Cluster {
    /// Builds a cluster of `world` ranks over `profile`.
    pub fn new(world: usize, profile: NetworkProfile) -> Self {
        Cluster { shared: InProcShared::new(world), world, cost: CostModel::new(profile) }
    }

    /// The communication endpoint for `rank`. Each rank must be taken
    /// exactly once and moved to its thread.
    pub fn handle(&self, rank: usize) -> CommHandle {
        CommHandle::new(Box::new(self.shared.endpoint(rank)), Some(self.cost))
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }
}

/// Runs `f` on `world` simulated ranks (one OS thread each) and returns the
/// per-rank results in rank order. Panics in any rank propagate.
///
/// ```
/// use cluster_comm::{run_cluster, NetworkProfile};
/// let sums = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
///     let mut v = vec![h.rank() as f32 + 1.0];
///     h.allreduce_sum(&mut v);
///     v[0]
/// });
/// assert!(sums.iter().all(|&s| (s - 10.0).abs() < 1e-6));
/// ```
pub fn run_cluster<T, F>(world: usize, profile: NetworkProfile, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut CommHandle) -> T + Sync,
{
    let cluster = Cluster::new(world, profile);
    let mut results: Vec<Option<T>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(world);
        for (rank, slot) in results.iter_mut().enumerate() {
            let mut handle = cluster.handle(rank);
            let f = &f;
            joins.push(s.spawn(move || {
                *slot = Some(f(&mut handle));
            }));
        }
        for j in joins {
            j.join().expect("rank thread panicked");
        }
    });
    results.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_rank_order() {
        let out = run_cluster(6, NetworkProfile::infiniband_100g(), |h| h.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates() {
        let _ = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            if h.rank() == 1 {
                panic!("boom");
            }
            0
        });
    }

    #[test]
    fn handles_report_backend_and_cost_model() {
        let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
            (h.backend_name(), h.cost_model().is_some())
        });
        assert!(out.iter().all(|&(name, modeled)| name == "inproc" && modeled));
    }
}
