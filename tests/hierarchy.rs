//! Topology invariants: `CommHandle::split` sub-communicators must be
//! indistinguishable — bit for bit — from standalone worlds of the same
//! size, on every backend, for the blocking and nonblocking collective
//! families alike; and the two-level hierarchical synchronizer must keep
//! the inter-group plane at the O(1) packet accounting on real sockets.
//!
//! Test names are CI gate prefixes: `split_parity_*` is the sub-
//! communicator parity matrix, `hier_*` the hierarchical-topology family.
//! In-proc hierarchical *training* parity (`Hier { group_size: 1 }` ≡
//! flat, and overlap and buckets under groups of two) is a set of
//! relations of the training fingerprint, `crates/core/tests/fingerprint.rs`.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::{train, Topology};
use a2sgd_repro::cluster_comm::{
    run_cluster, run_cluster_hier_threads, run_cluster_tcp, run_cluster_tcp_threads,
    run_multiprocess, CollectiveAlgo, CommBackend, CommHandle, NetworkProfile, Payload,
};
use a2sgd_repro::gradcomp::bucket_bounds;
use mini_nn::models::ModelKind;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn seeded(rank: usize, n: usize, salt: u64) -> Vec<f32> {
    use a2sgd_repro::mini_tensor::rng::SeedRng;
    let mut rng = SeedRng::new(salt ^ (rank as u64).wrapping_mul(0x9E37_79B9));
    (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

/// One of everything, blocking and nonblocking, with inputs keyed only by
/// the communicator's own (rank, world) — so a sub-communicator of any
/// parent must reproduce a standalone world of the same size exactly.
fn group_workload(h: &mut CommHandle) -> Vec<f32> {
    let rank = h.rank();
    let mut out = Vec::new();
    for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecursiveDoubling, CollectiveAlgo::Auto] {
        let mut d = seeded(rank, 33, 0xA11);
        h.allreduce_sum_with(&mut d, algo);
        out.extend_from_slice(&d);
    }
    let mut b = if rank == 0 { seeded(99, 7, 0xB0) } else { vec![0.0f32; 7] };
    h.broadcast(0, &mut b);
    out.extend_from_slice(&b);
    for part in h.allgather(&seeded(rank, 5, 0xCA)) {
        out.extend_from_slice(&part);
    }
    // Nonblocking family, two collectives in flight at once.
    let r1 = h.start_allreduce(seeded(rank, 17, 0xD1));
    let frame = Payload::Bytes((0..4 + rank as u8).map(|b| b.wrapping_mul(37)).collect());
    let r2 = h.start_allgather_bytes(frame);
    out.extend(r1.wait(h).expect("allreduce").expect_reduced());
    for p in r2.wait(h).expect("allgather").expect_gathered() {
        out.extend(p.expect_bytes().into_iter().map(|b| b as f32));
    }
    let r3 = h.start_allgather_bytes(Payload::Bytes(vec![rank as u8 ^ 0x5A; 5]));
    for p in r3.wait(h).expect("second allgather").expect_gathered() {
        out.extend(p.expect_bytes().into_iter().map(|b| b as f32));
    }
    h.barrier();
    out
}

/// Reference: the workload on a *standalone* in-proc world of `size`.
fn standalone(size: usize) -> Vec<Vec<f32>> {
    run_cluster(size, NetworkProfile::infiniband_100g(), group_workload)
}

/// Splits `world` by `gid_of` (key = rank) and checks every group against
/// the standalone world of its size.
fn check_partition(world: usize, gid_of: fn(usize, usize) -> u64) {
    let outs = run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
        let gid = gid_of(h.rank(), h.world());
        let mut sub = h.split(Some(gid), h.rank() as u64).expect("in own group");
        (gid, sub.rank(), sub.world(), group_workload(&mut sub))
    });
    for (gid, sub_rank, sub_world, out) in &outs {
        let reference = standalone(*sub_world);
        assert_eq!(
            bits(out),
            bits(&reference[*sub_rank]),
            "world {world} group {gid} sub-rank {sub_rank}: split diverged from standalone"
        );
    }
}

#[test]
fn split_parity_matrix_inproc_worlds_2_to_8() {
    for world in 2..=8 {
        // Degenerate all-members group, degenerate 1-member groups, and a
        // contiguous two-way partition (ragged at odd worlds).
        check_partition(world, |_, _| 0);
        check_partition(world, |rank, _| rank as u64);
        check_partition(world, |rank, world| (rank >= world.div_ceil(2)) as u64);
    }
}

#[test]
fn split_parity_key_reorders_sub_ranks() {
    // Keys sort the group: rank r joins with key world - r, so sub-ranks
    // come out reversed and the collectives must follow the new order.
    let world = 4;
    let outs = run_cluster(world, NetworkProfile::infiniband_100g(), |h| {
        let key = (h.world() - h.rank()) as u64;
        let mut sub = h.split(Some(0), key).expect("in group");
        assert_eq!(sub.rank(), h.world() - 1 - h.rank());
        group_workload(&mut sub)
    });
    let reference = standalone(world);
    for (rank, out) in outs.iter().enumerate() {
        assert_eq!(bits(out), bits(&reference[world - 1 - rank]), "rank {rank}");
    }
}

#[test]
fn split_parity_nested_splits() {
    // Split twice: halves, then singletons inside each half. Both levels
    // must stay parity with standalone worlds (tag spaces nest).
    let outs = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
        let mut half = h.split(Some((h.rank() / 2) as u64), h.rank() as u64).expect("half");
        let half_out = group_workload(&mut half);
        let mut single = half.split(Some(half.rank() as u64), 0).expect("single");
        let single_out = group_workload(&mut single);
        (half.rank(), half_out, single_out)
    });
    let ref2 = standalone(2);
    let ref1 = standalone(1);
    for (sub_rank, half_out, single_out) in &outs {
        assert_eq!(bits(half_out), bits(&ref2[*sub_rank]));
        assert_eq!(bits(single_out), bits(&ref1[0]));
    }
}

#[test]
fn split_parity_none_group_ranks_sit_out() {
    // Ranks passing `None` get no sub-communicator but still participate
    // in the split collective; the formed group excludes them.
    let outs = run_cluster(4, NetworkProfile::infiniband_100g(), |h| {
        let member = h.rank() % 2 == 0;
        let sub = h.split(member.then_some(7), h.rank() as u64);
        match sub {
            Some(mut s) => {
                assert_eq!(s.world(), 2);
                Some(group_workload(&mut s))
            }
            None => None,
        }
    });
    let reference = standalone(2);
    assert!(outs[1].is_none() && outs[3].is_none());
    assert_eq!(bits(outs[0].as_ref().unwrap()), bits(&reference[0]));
    assert_eq!(bits(outs[2].as_ref().unwrap()), bits(&reference[1]));
}

#[test]
fn split_parity_tcp_threads() {
    // The same matrix shape on real loopback sockets: halves of a 4-rank
    // TCP world vs a standalone 2-rank TCP world.
    let split_outs = run_cluster_tcp_threads(4, |h| {
        let gid = (h.rank() / 2) as u64;
        let mut sub = h.split(Some(gid), h.rank() as u64).expect("in group");
        (sub.rank(), group_workload(&mut sub))
    });
    let reference = run_cluster_tcp_threads(2, group_workload);
    for (sub_rank, out) in &split_outs {
        assert_eq!(bits(out), bits(&reference[*sub_rank]), "tcp sub-rank {sub_rank}");
    }
    // And cross-backend: the TCP groups match the in-proc standalone too.
    let inproc = standalone(2);
    for (sub_rank, out) in &split_outs {
        assert_eq!(bits(out), bits(&inproc[*sub_rank]));
    }
}

/// Fork-pattern variant: 4 real OS processes split into two 2-rank
/// groups over loopback sockets. Children re-exec this test binary (the
/// `--exact` filter) and exit inside the launcher.
#[test]
fn split_parity_tcp_multiprocess() {
    let outs = run_cluster_tcp(4, &["split_parity_tcp_multiprocess", "--exact"], |h| {
        let mut sub = h.split(Some((h.rank() / 2) as u64), h.rank() as u64).expect("in group");
        let mut out = vec![sub.rank() as f32];
        out.extend(group_workload(&mut sub));
        out
    });
    let reference = standalone(2);
    for out in &outs {
        let sub_rank = out[0] as usize;
        assert_eq!(bits(&out[1..]), bits(&reference[sub_rank]), "process sub-rank {sub_rank}");
    }
}

#[test]
fn hier_mixed_backend_a2sgd_keeps_inter_plane_at_64_bits() {
    // The genuine mixed-backend hierarchy: in-proc mailboxes inside each
    // 2-rank group, real loopback TCP between the 2 leaders. Dense intra
    // average, A2SGD across leaders, broadcast back — the inter plane
    // must carry exactly the 64-bit packet per step, measured on sockets.
    let n = 4096;
    let outs = run_cluster_hier_threads(2, 2, |rank, mut hc| {
        let mut grad = seeded(rank, n, 0x6E);
        hc.intra.allreduce_avg(&mut grad);
        let group = hc.group();
        let inter_bits = if let Some(inter) = hc.inter.as_mut() {
            let mut sync = AlgoKind::A2sgd.build(n, 1, group);
            let before = inter.stats().logical_wire_bits;
            sync.sync_bucketed(&mut grad, &bucket_bounds(&[n], 1 << 20), inter);
            let bits = inter.stats().logical_wire_bits - before;
            assert!(inter.stats().wire_bytes > 0, "leader traffic must be real socket bytes");
            bits
        } else {
            0
        };
        hc.intra.broadcast(0, &mut grad);
        (hc.is_leader(), inter_bits, grad)
    });
    for (rank, (leader, inter_bits, _)) in outs.iter().enumerate() {
        assert_eq!(*leader, rank % 2 == 0);
        assert_eq!(*inter_bits, if *leader { 64 } else { 0 }, "rank {rank}");
    }
    // Everyone in a group ends on the leader's vector.
    assert_eq!(bits(&outs[0].2), bits(&outs[1].2));
    assert_eq!(bits(&outs[2].2), bits(&outs[3].2));
}

/// End-to-end acceptance: a full `hier(dense, a2sgd)` training run on the
/// TCP backend — 4 rank processes over real sockets, 2 groups of 2 — with
/// the inter-group plane at exactly the O(1) packet per iteration on
/// leaders and silent on members.
#[test]
fn hier_tcp_training_has_o1_inter_traffic() {
    let outs =
        run_multiprocess(4, &["hier_tcp_training_has_o1_inter_traffic", "--exact"], |_rank| {
            let mut cfg = scaled_convergence_config(ModelKind::Fnn3, AlgoKind::A2sgd, 4, 9);
            cfg.epochs = 2;
            cfg.train_size = 640;
            cfg.eval_size = 160;
            cfg.backend = CommBackend::Tcp;
            cfg.topology = Topology::Hier { group_size: 2 };
            let rep = train(&cfg);
            vec![
                rep.inter_wire_bits_per_iter as f32,
                rep.intra_wire_bits_per_iter as f32,
                rep.final_metric as f32,
            ]
        });
    for (rank, out) in outs.iter().enumerate() {
        let leader = rank % 2 == 0;
        assert_eq!(out[0], if leader { 64.0 } else { 0.0 }, "rank {rank} inter bits");
        assert!(out[1] > 0.0, "rank {rank}: dense intra plane must carry the gradient");
        assert!(out[2] > 30.0, "rank {rank}: accuracy {}", out[2]);
    }
}

#[test]
fn hier_inproc_group_sizes_match_flat_semantics() {
    // In-proc sanity across group sizes: the hierarchy trains to a
    // comparable metric and keeps the leader's inter accounting at the
    // inner algorithm's O(1) bits for every grouping of 4 workers.
    for group_size in [1, 2, 4] {
        let mut cfg = scaled_convergence_config(ModelKind::Fnn3, AlgoKind::A2sgd, 4, 9);
        cfg.epochs = 2;
        cfg.train_size = 640;
        cfg.eval_size = 160;
        cfg.topology = Topology::Hier { group_size };
        let rep = train(&cfg);
        assert_eq!(rep.inter_wire_bits_per_iter, 64, "group_size {group_size}");
        assert!(rep.final_metric > 30.0, "group_size {group_size}: {}", rep.final_metric);
    }
}

/// The 2 × 2 hierarchy the `hier_overlap_*` gate trains: `overlap` drives
/// the sync from the backward hooks, `cap` is the bucket size.
fn hier_overlap_cfg(algo: AlgoKind, overlap: bool, cap: usize) -> a2sgd::trainer::TrainConfig {
    let mut cfg = scaled_convergence_config(ModelKind::Fnn3, algo, 4, 9);
    cfg.epochs = 2;
    cfg.train_size = 640;
    cfg.eval_size = 160;
    cfg.topology = Topology::Hier { group_size: 2 };
    cfg.overlap_backward = overlap;
    cfg.bucket_bytes = Some(cap);
    cfg
}

/// Everything overlap could plausibly perturb, as exact bits.
fn hier_overlap_fingerprint(rep: &a2sgd::TrainReport) -> Vec<u64> {
    let mut f: Vec<u64> = rep.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    f.extend([
        rep.final_metric.to_bits(),
        rep.replica_divergence.to_bits(),
        rep.wire_bits_per_iter,
        rep.intra_wire_bits_per_iter,
        rep.inter_wire_bits_per_iter,
    ]);
    f
}

const HIER_OVERLAP_ALGOS: [AlgoKind; 2] = [AlgoKind::A2sgd, AlgoKind::TopK(0.01)];
const HIER_OVERLAP_CAPS: [usize; 2] = [64 * 1024, 1024];

/// `hier × overlap` used to be refused by an assert. The hierarchy does
/// not stream, so a hooked step is arrival marks plus the ordinary
/// exchange once backward returns: bit-identical to the run without
/// overlap (in-proc, that is the `ov` relation of the training
/// fingerprint's section D). Here on real sockets: `train` joins the TCP
/// rendezvous from the environment, so the ranks are forked processes
/// (children exit inside `run_multiprocess`); every rank must agree with
/// itself across the overlap knob, and rank 0 with the in-proc run.
#[test]
fn hier_overlap_training_is_bit_identical_tcp() {
    // f32 result lanes: ship each u64 of the fingerprint as four 16-bit
    // pieces, which f32 holds exactly.
    let lanes = |rep: &a2sgd::TrainReport| -> Vec<f32> {
        hier_overlap_fingerprint(rep)
            .into_iter()
            .flat_map(|w| (0..4).map(move |i| ((w >> (16 * i)) & 0xFFFF) as f32))
            .collect()
    };
    let outs =
        run_multiprocess(4, &["hier_overlap_training_is_bit_identical_tcp", "--exact"], |_| {
            let mut out = Vec::new();
            for algo in HIER_OVERLAP_ALGOS {
                for cap in HIER_OVERLAP_CAPS {
                    for overlap in [false, true] {
                        let mut cfg = hier_overlap_cfg(algo, overlap, cap);
                        cfg.backend = CommBackend::Tcp;
                        out.extend(lanes(&train(&cfg)));
                    }
                }
            }
            out
        });
    let per_run = outs[0].len() / (2 * HIER_OVERLAP_ALGOS.len() * HIER_OVERLAP_CAPS.len());
    for (rank, out) in outs.iter().enumerate() {
        for (i, pair) in out.chunks_exact(2 * per_run).enumerate() {
            let (plain, hooked) = pair.split_at(per_run);
            assert_eq!(bits(plain), bits(hooked), "rank {rank} combination {i}");
        }
    }
    // Rank 0 leads group 0, as worker 0 does in-proc: same losses, same
    // metric, same per-plane wire bits — 64 on the inter plane for A2SGD.
    let mut expect = Vec::new();
    for algo in HIER_OVERLAP_ALGOS {
        for cap in HIER_OVERLAP_CAPS {
            let rep = train(&hier_overlap_cfg(algo, true, cap));
            if algo == AlgoKind::A2sgd {
                assert_eq!(rep.inter_wire_bits_per_iter, 64);
            }
            expect.extend(lanes(&rep).repeat(2));
        }
    }
    assert_eq!(bits(&outs[0]), bits(&expect), "TCP hier × overlap diverged from in-proc");
}
