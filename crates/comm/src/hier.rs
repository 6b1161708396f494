//! Two-level topology: an intra-group communicator plus an inter-group
//! communicator of group leaders.
//!
//! [`HierarchicalComm`] is the communicator pair the hierarchical
//! synchronizer (gradcomp's `hier` module) runs over: dense reductions
//! happen inside a group over the cheap plane, then the group leaders
//! (intra sub-rank 0) exchange across groups over the expensive one, and
//! the result fans back out within each group. Two constructions exist:
//!
//! * [`HierarchicalComm::from_flat`] — split a flat world communicator
//!   twice ([`CommHandle::split`]): once by group id, once into the
//!   leaders-only communicator. Both sub-communicators share the flat
//!   world's backend.
//! * [`run_cluster_hier_threads`] — the genuinely **mixed-backend**
//!   cluster: each group is an in-process mailbox world of threads
//!   (a node's workers), while the leaders rendezvous over real loopback
//!   TCP sockets (the cross-node plane). Intra traffic is memcpys; inter
//!   traffic is measured socket bytes.

use crate::collective::CommHandle;
use crate::transport::inproc::InProcShared;
use crate::transport::tcp::{rendezvous_deadline, MasterEndpoint, Tcp};

/// An intra-group communicator plus, on group leaders, the inter-group
/// communicator of leaders (see module docs).
pub struct HierarchicalComm {
    /// This rank's group communicator (dense plane). Sub-rank 0 is the
    /// group leader.
    pub intra: CommHandle,
    /// Leaders only: the communicator of all group leaders (sparse/O(1)
    /// plane), ranked by group id. `None` on non-leaders.
    pub inter: Option<CommHandle>,
    group: usize,
    groups: usize,
}

impl HierarchicalComm {
    /// Builds the hierarchy by splitting a flat communicator: rank `r`
    /// joins group `r / group_size` (the last group may be smaller when
    /// the world is ragged), and each group's lowest rank leads.
    /// Collective over every rank of `comm`; `comm` stays usable.
    pub fn from_flat(comm: &mut CommHandle, group_size: usize) -> Self {
        assert!(group_size >= 1, "group_size must be ≥ 1");
        let rank = comm.rank();
        let group = rank / group_size;
        let mut intra = comm.split(Some(group as u64), rank as u64).expect("member of own group");
        intra.set_plane("intra");
        let leader = intra.rank() == 0;
        let mut inter = comm.split(leader.then_some(0), group as u64);
        if let Some(c) = inter.as_mut() {
            c.set_plane("inter");
        }
        // Count distinct groups collectively over the flat world — every
        // rank (leader or not) must participate in the allgather.
        let mine = [group as u64];
        let mut all: Vec<u64> = comm.allgather(&mine).into_iter().map(|v| v[0]).collect();
        all.sort_unstable();
        all.dedup();
        let groups = all.len();
        if let Some(c) = &inter {
            assert_eq!(c.world(), groups, "one leader per group");
        }
        HierarchicalComm { intra, inter, group, groups }
    }

    /// A mixed-backend hierarchy assembled directly from backend
    /// endpoints (no splitting) — used by [`run_cluster_hier_threads`].
    pub fn from_parts(
        mut intra: CommHandle,
        mut inter: Option<CommHandle>,
        group: usize,
        groups: usize,
    ) -> Self {
        assert_eq!(inter.is_some(), intra.rank() == 0, "exactly the leaders carry an inter comm");
        intra.set_plane("intra");
        if let Some(c) = inter.as_mut() {
            c.set_plane("inter");
        }
        HierarchicalComm { intra, inter, group, groups }
    }

    /// This rank's group id.
    pub fn group(&self) -> usize {
        self.group
    }

    /// Number of groups (= inter-communicator world size).
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Whether this rank leads its group (intra sub-rank 0).
    pub fn is_leader(&self) -> bool {
        self.inter.is_some()
    }
}

/// Runs `f` on every rank of a mixed-backend hierarchical cluster of
/// `groups × group_size` threads: ranks within a group share an in-process
/// mailbox world (measured time — a send is a memcpy), while the `groups`
/// leaders hold real loopback-TCP endpoints to each other (measured socket
/// bytes and wall time). Returns per-rank results in flat rank order
/// (`rank = group · group_size + intra_rank`).
pub fn run_cluster_hier_threads<T, F>(groups: usize, group_size: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, HierarchicalComm) -> T + Sync,
{
    assert!(groups >= 1 && group_size >= 1);
    let master = std::net::TcpListener::bind("127.0.0.1:0").expect("bind master listener");
    let master_addr = master.local_addr().expect("master addr").to_string();
    let mut master_slot = Some(master);
    let shared: Vec<_> = (0..groups).map(|_| InProcShared::new(group_size)).collect();
    let world = groups * group_size;
    let mut results: Vec<Option<T>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(world);
        for (rank, slot) in results.iter_mut().enumerate() {
            let (g, i) = (rank / group_size, rank % group_size);
            let endpoint = shared[g].endpoint(i);
            let master = if rank == 0 {
                Some(MasterEndpoint::Listener(master_slot.take().unwrap()))
            } else if i == 0 {
                Some(MasterEndpoint::Addr(master_addr.clone()))
            } else {
                None
            };
            let f = &f;
            joins.push(s.spawn(move || {
                let intra = CommHandle::new(Box::new(endpoint), None);
                let inter = master.map(|m| {
                    let t = Tcp::connect_parts(g, groups, m, None, rendezvous_deadline())
                        .unwrap_or_else(|e| panic!("leader {g} rendezvous failed: {e}"));
                    CommHandle::new(Box::new(t), None)
                });
                *slot = Some(f(rank, HierarchicalComm::from_parts(intra, inter, g, groups)));
            }));
        }
        for j in joins {
            j.join().expect("hier rank thread panicked");
        }
    });
    results.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NetworkProfile;
    use crate::sim::run_cluster;

    #[test]
    fn from_flat_shapes_groups_and_leaders() {
        let out = run_cluster(6, NetworkProfile::infiniband_100g(), |h| {
            let hc = HierarchicalComm::from_flat(h, 3);
            (hc.group(), hc.groups(), hc.is_leader(), hc.intra.rank(), hc.intra.world())
        });
        for (rank, (group, groups, leader, sub, gw)) in out.into_iter().enumerate() {
            assert_eq!(group, rank / 3);
            assert_eq!(groups, 2);
            assert_eq!(leader, rank % 3 == 0);
            assert_eq!(sub, rank % 3);
            assert_eq!(gw, 3);
        }
    }

    #[test]
    fn group_size_one_degenerates_to_flat_inter() {
        // Every rank its own group: all leaders, inter == full world.
        let out = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
            let hc = HierarchicalComm::from_flat(h, 1);
            (hc.is_leader(), hc.inter.as_ref().map(|c| (c.rank(), c.world())))
        });
        for (rank, (leader, inter)) in out.into_iter().enumerate() {
            assert!(leader);
            assert_eq!(inter, Some((rank, 4)));
        }
    }

    #[test]
    fn mixed_backend_cluster_reduces_across_groups() {
        // 2 groups × 2 ranks: intra mailboxes + leaders-only TCP. Each
        // rank contributes 1.0; a dense two-level average must see all 4.
        let out = run_cluster_hier_threads(2, 2, |_rank, mut hc| {
            let mut v = vec![1.0f32];
            hc.intra.allreduce_avg(&mut v);
            if let Some(inter) = hc.inter.as_mut() {
                inter.allreduce_avg(&mut v);
                assert_eq!(inter.backend_name(), "tcp");
                assert!(inter.stats().wire_bytes > 0, "leader traffic is measured socket bytes");
            }
            hc.intra.broadcast(0, &mut v);
            assert_eq!(hc.intra.backend_name(), "inproc");
            v[0]
        });
        assert_eq!(out, vec![1.0; 4]); // mean of all-ones is 1 everywhere
    }
}
