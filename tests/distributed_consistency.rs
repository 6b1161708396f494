//! Distributed-semantics invariants across the whole stack, including
//! cross-backend consistency: the multi-process TCP data plane must be
//! bit-identical to the in-process mailboxes.
//!
//! The training fingerprint (`crates/core/tests/fingerprint.rs`) pins the
//! in-proc trainer's every deterministic report field on a committed grid:
//! its golden compare is run-to-run determinism, and its `ov` and `b1k`
//! relations are hooked training ≡ single-shot at worlds 1, 2 and 4.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::train;
use a2sgd_repro::cluster_comm::{
    run_cluster, run_cluster_tcp, run_cluster_tcp_threads, run_multiprocess, CollectiveAlgo,
    CommBackend, CommHandle, NetworkProfile, Payload,
};
use a2sgd_repro::gradcomp::{bucket_bounds, SyncSession};
use mini_nn::models::ModelKind;
use std::ops::Range;

fn cfg(algo: AlgoKind, workers: usize, seed: u64) -> a2sgd::trainer::TrainConfig {
    let mut c = scaled_convergence_config(ModelKind::Fnn3, algo, workers, seed);
    c.epochs = 2;
    c.train_size = 320;
    c.eval_size = 160;
    c
}

#[test]
fn dense_replicas_stay_identical() {
    let rep = train(&cfg(AlgoKind::Dense, 4, 1));
    assert!(rep.replica_divergence < 1e-5, "dense replicas diverged: {}", rep.replica_divergence);
}

#[test]
fn a2sgd_replicas_drift_boundedly_and_resync() {
    let rep = train(&cfg(AlgoKind::A2sgd, 4, 2));
    assert!(rep.replica_divergence > 0.0, "A2SGD must drift (local residuals)");
    assert!(rep.replica_divergence < 1.0, "drift unbounded: {}", rep.replica_divergence);
}

#[test]
fn worker_count_changes_traffic_not_semantics() {
    // Same seed, different worker counts: both runs must train sanely
    // (accuracy well above chance) and report identical per-worker wire
    // bits for A2SGD (O(1) regardless of P).
    let r2 = train(&cfg(AlgoKind::A2sgd, 2, 3));
    let r4 = train(&cfg(AlgoKind::A2sgd, 4, 3));
    assert_eq!(r2.wire_bits_per_iter, 64);
    assert_eq!(r4.wire_bits_per_iter, 64);
    assert!(r2.final_metric > 30.0 && r4.final_metric > 30.0);
}

#[test]
fn runs_are_bit_deterministic() {
    let a = train(&cfg(AlgoKind::A2sgd, 2, 4));
    let b = train(&cfg(AlgoKind::A2sgd, 2, 4));
    assert_eq!(a.final_metric, b.final_metric);
    assert_eq!(a.replica_divergence, b.replica_divergence);
    let la: Vec<f64> = a.epochs.iter().map(|e| e.train_loss).collect();
    let lb: Vec<f64> = b.epochs.iter().map(|e| e.train_loss).collect();
    assert_eq!(la, lb);
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Same per-rank inputs on every backend; concatenates one of each
/// collective's results.
fn collective_workload(h: &mut CommHandle) -> Vec<f32> {
    let input = |rank: usize, n: usize| -> Vec<f32> {
        use a2sgd_repro::mini_tensor::rng::SeedRng;
        let mut rng = SeedRng::new(0xC0DE ^ (rank as u64).wrapping_mul(0x9E37_79B9));
        (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect()
    };
    let mut out = Vec::new();
    for algo in [CollectiveAlgo::Ring, CollectiveAlgo::RecursiveDoubling, CollectiveAlgo::Auto] {
        let mut d = input(h.rank(), 41);
        h.allreduce_sum_with(&mut d, algo);
        out.extend_from_slice(&d);
    }
    let mut b = if h.rank() == 0 { input(17, 9) } else { vec![0.0f32; 9] };
    h.broadcast(0, &mut b);
    out.extend_from_slice(&b);
    for part in h.allgather(&input(h.rank(), 5)) {
        out.extend_from_slice(&part);
    }
    // Opaque encoded frames (the compressed-gradient path) must also be
    // backend-independent, byte for byte.
    let frame = Payload::Bytes((0..3 + h.rank() as u8).map(|b| b.wrapping_mul(41)).collect());
    for p in h.allgather_bytes(frame) {
        out.extend(p.expect_bytes().into_iter().map(|b| b as f32));
    }
    h.barrier();
    out
}

/// The acceptance gate for the transport subsystem: `run_cluster_tcp`
/// (4 real OS processes exchanging frames over loopback sockets) and
/// `run_cluster` (thread ranks over mailboxes) must produce *bit-identical*
/// collective results for the same inputs.
///
/// NOTE: this test re-executes the current test binary to create its rank
/// processes (the launcher's fork pattern); the `--exact` filter below
/// makes each child run only this test, and children exit inside
/// `run_cluster_tcp` after reporting their rank's result.
#[test]
fn tcp_multiprocess_collectives_match_inproc() {
    let world = 4;
    // Must come first: in a child process this call never returns.
    let tcp = run_cluster_tcp(
        world,
        &["tcp_multiprocess_collectives_match_inproc", "--exact"],
        collective_workload,
    );
    let inproc = run_cluster(world, NetworkProfile::infiniband_100g(), collective_workload);
    for rank in 0..world {
        assert_eq!(
            bits(&tcp[rank]),
            bits(&inproc[rank]),
            "rank {rank}: TCP and in-proc collectives diverged"
        );
    }
}

/// Full-stack version of the same invariant: an entire A2SGD training run
/// on the TCP backend (2 rank processes) must reproduce the in-proc loss
/// curve bit-for-bit — data synthesis, sharding, compression and the
/// collectives all line up across real sockets. The report scalars
/// (divergence, evaluation metric) must also agree *across TCP ranks*:
/// they are reduced/broadcast at the end of training instead of being
/// rank-local.
#[test]
fn tcp_multiprocess_training_matches_inproc() {
    let base = cfg(AlgoKind::A2sgd, 2, 6);
    let child_cfg = base.clone();
    let tcp =
        run_multiprocess(2, &["tcp_multiprocess_training_matches_inproc", "--exact"], move |_| {
            let mut c = child_cfg;
            c.backend = CommBackend::Tcp;
            let rep = train(&c);
            let mut out: Vec<f32> = rep.epochs.iter().map(|e| e.train_loss as f32).collect();
            out.push(rep.wire_bits_per_iter as f32);
            out.push(rep.replica_divergence as f32);
            out.push(rep.final_metric as f32);
            out
        });
    let rep = train(&base); // in-proc reference, rank 0's losses
    let mut expect: Vec<f32> = rep.epochs.iter().map(|e| e.train_loss as f32).collect();
    expect.push(rep.wire_bits_per_iter as f32);
    expect.push(rep.replica_divergence as f32);
    expect.push(rep.final_metric as f32);
    assert_eq!(bits(&tcp[0]), bits(&expect), "TCP training diverged from in-proc");
    let n = tcp[0].len();
    assert_eq!(tcp[0][n - 3], 64.0, "A2SGD wire bits over TCP");
    // Rank 1's shard losses differ, but the agreed report scalars must be
    // bit-identical to rank 0's (and to the in-proc run's).
    assert_eq!(
        bits(&tcp[1][n - 3..]),
        bits(&tcp[0][n - 3..]),
        "TCP ranks disagree on reduced report scalars"
    );
    assert!(tcp[0][n - 2] > 0.0, "A2SGD must report positive replica divergence");
    assert!(tcp[0][n - 1] > 30.0, "broadcast eval metric should reach every rank");
}

#[test]
fn traffic_ordering_matches_table2() {
    // Per-worker bits: A2SGD (64) < TopK (32k) < QSGD (~2.8n) < Dense (32n).
    let bits = |algo| train(&cfg(algo, 2, 5)).wire_bits_per_iter;
    let a2 = bits(AlgoKind::A2sgd);
    let topk = bits(AlgoKind::TopK(0.001));
    let qsgd = bits(AlgoKind::Qsgd(4));
    let dense = bits(AlgoKind::Dense);
    assert!(a2 < topk, "{a2} !< {topk}");
    assert!(topk < qsgd, "{topk} !< {qsgd}");
    assert!(qsgd < dense, "{qsgd} !< {dense}");
    assert_eq!(a2, 64);
}

// ---- bucketed-session parity ---------------------------------------------
//
// The bucketed pipeline's contract: for EVERY registered synchronizer,
// synchronizing through size-capped buckets is bit-identical to the
// single-shot whole-model call — across bucket caps (whole model, 64 KiB,
// 1 KiB), world sizes 1–4, and both transports. Bucketing must be a pure
// latency/overlap knob; any semantic leak (per-bucket statistics, RNG
// stream splits, reduction-order drift) fails here by algorithm name.

const PARITY_N: usize = 20_000;

fn parity_input(rank: usize, iter: usize, n: usize) -> Vec<f32> {
    use a2sgd_repro::mini_tensor::rng::SeedRng;
    let mut rng = SeedRng::new(0xB0CC ^ (rank as u64) << 8 ^ iter as u64);
    (0..n).map(|_| rng.randn() * 0.3).collect()
}

/// Two synchronized iterations (state such as error feedback must carry
/// across steps) under the given bucket cap; returns the output bits.
fn parity_body(h: &mut CommHandle, algo: AlgoKind, cap: Option<usize>) -> Vec<u32> {
    // A synthetic 20-layer layout: 1000-float segments, so a 64 KiB cap
    // packs 16 segments per bucket (2 buckets) and a 1 KiB cap isolates
    // every segment (20 buckets).
    let bounds: Vec<Range<usize>> = match cap {
        Some(c) => bucket_bounds(&[1000; PARITY_N / 1000], c),
        None => vec![0..PARITY_N; 1],
    };
    let mut sync = algo.build(PARITY_N, 77, h.rank());
    let mut out = Vec::new();
    for iter in 0..2 {
        let mut g = parity_input(h.rank(), iter, PARITY_N);
        sync.sync_bucketed(&mut g, &bounds, h);
        out.extend(g.iter().map(|v| v.to_bits()));
    }
    out
}

fn assert_bucket_parity_on<R>(backend_name: &str, run: R)
where
    R: Fn(usize, AlgoKind, Option<usize>) -> Vec<Vec<u32>>,
{
    for world in 1..=4usize {
        for algo in AlgoKind::all(0.01) {
            let reference = run(world, algo, None);
            for cap in [64 * 1024, 1024] {
                let bucketed = run(world, algo, Some(cap));
                for rank in 0..world {
                    assert_eq!(
                        bucketed[rank],
                        reference[rank],
                        "{} ({backend_name}): world {world} cap {cap} rank {rank} diverged \
                         from single-shot",
                        algo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn bucket_parity_all_synchronizers_inproc() {
    assert_bucket_parity_on("inproc", |world, algo, cap| {
        run_cluster(world, NetworkProfile::infiniband_100g(), move |h| parity_body(h, algo, cap))
    });
}

#[test]
fn bucket_parity_all_synchronizers_tcp() {
    assert_bucket_parity_on("tcp", |world, algo, cap| {
        run_cluster_tcp_threads(world, move |h| parity_body(h, algo, cap))
    });
}

/// The streaming session surface is the same pipeline: submitting the
/// buckets as separate slices and finishing must equal `sync_bucketed`
/// over the contiguous vector (and therefore equal single-shot).
#[test]
fn bucket_parity_session_submit_matches_direct_drive() {
    let caps = [64 * 1024usize, 1024];
    for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4), AlgoKind::TopK(0.01)] {
        for cap in caps {
            let direct = run_cluster(2, NetworkProfile::infiniband_100g(), move |h| {
                parity_body(h, algo, Some(cap))
            });
            let sessioned = run_cluster(2, NetworkProfile::infiniband_100g(), move |h| {
                session_parity_body(h, algo, cap, false)
            });
            assert_eq!(sessioned, direct, "{} cap {cap}", algo.name());
        }
    }
}

/// Two synchronized iterations driven through the session surface,
/// submitting buckets either in layout order or — the hook arrival shape —
/// in reverse layout order.
fn session_parity_body(h: &mut CommHandle, algo: AlgoKind, cap: usize, reverse: bool) -> Vec<u32> {
    let bounds = bucket_bounds(&[1000; PARITY_N / 1000], cap);
    let mut sync = algo.build(PARITY_N, 77, h.rank());
    let mut out = Vec::new();
    for iter in 0..2 {
        let mut g = parity_input(h.rank(), iter, PARITY_N);
        let mut session = SyncSession::begin(sync.as_mut(), &bounds);
        let order: Vec<usize> =
            if reverse { (0..bounds.len()).rev().collect() } else { (0..bounds.len()).collect() };
        for id in order {
            session.submit(id, &g[bounds[id].clone()], h);
        }
        session.finish(&mut g, h);
        out.extend(g.iter().map(|v| v.to_bits()));
    }
    out
}

// ---- hook-driven parity ---------------------------------------------------
//
// The backward-overlap contract (the acceptance gate this PR adds): a
// hook-driven step — buckets submitted in *reverse* layout order as the
// backward pass delivers them, streamed straight to the wire for Dense —
// must be bit-identical to the single-shot `synchronize` call for every
// registered synchronizer, bucket cap, world size and backend; and on TCP
// loopback at least 2 frames must demonstrably be in flight *while the
// backward pass is still executing*.

/// Reverse-order (hook-shaped) session drive ≡ single-shot, every
/// registry synchronizer × caps {64 KiB, 1 KiB} × worlds 1–4, in-proc.
#[test]
fn hook_order_session_parity_all_synchronizers_inproc() {
    assert_hook_session_parity_on("inproc", |world, algo, cap| match cap {
        Some(c) => run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            session_parity_body(h, algo, c, true)
        }),
        None => run_cluster(world, NetworkProfile::infiniband_100g(), move |h| {
            parity_body(h, algo, None)
        }),
    });
}

/// Same sweep over real loopback sockets.
#[test]
fn hook_order_session_parity_all_synchronizers_tcp() {
    assert_hook_session_parity_on("tcp", |world, algo, cap| match cap {
        Some(c) => run_cluster_tcp_threads(world, move |h| session_parity_body(h, algo, c, true)),
        None => run_cluster_tcp_threads(world, move |h| parity_body(h, algo, None)),
    });
}

fn assert_hook_session_parity_on<R>(backend_name: &str, run: R)
where
    R: Fn(usize, AlgoKind, Option<usize>) -> Vec<Vec<u32>>,
{
    for world in 1..=4usize {
        for algo in AlgoKind::all(0.01) {
            let reference = run(world, algo, None);
            for cap in [64 * 1024, 1024] {
                let hooked = run(world, algo, Some(cap));
                for rank in 0..world {
                    assert_eq!(
                        hooked[rank],
                        reference[rank],
                        "{} ({backend_name}): world {world} cap {cap} rank {rank}: hook-order \
                         submission diverged from single-shot",
                        algo.name()
                    );
                }
            }
        }
    }
}

/// Hook-driven *training* (per-layer callbacks firing the session from
/// inside `backward_hooked`) ≡ single-shot training, for every registry
/// synchronizer × caps {whole-model, 64 KiB, 1 KiB} × worlds 1–4 on the
/// in-proc backend. The TCP data plane is covered by
/// `hook_training_parity_tcp_multiprocess` (processes) and the session
/// sweep above (sockets).
#[test]
fn hook_training_parity_all_synchronizers() {
    for world in 1..=4usize {
        for algo in AlgoKind::all(0.01) {
            let mut base = cfg(algo, world, 9);
            base.epochs = 1;
            base.train_size = 192;
            base.eval_size = 64;
            let reference = train(&base);
            for cap in [None, Some(64 * 1024), Some(1024)] {
                let mut hooked_cfg = base.clone();
                hooked_cfg.overlap_backward = true;
                hooked_cfg.bucket_bytes = cap;
                let hooked = train(&hooked_cfg);
                let la: Vec<u64> =
                    reference.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                let lb: Vec<u64> = hooked.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                assert_eq!(
                    la,
                    lb,
                    "{}: world {world} cap {cap:?}: hooked losses diverged",
                    algo.name()
                );
                assert_eq!(
                    reference.final_metric.to_bits(),
                    hooked.final_metric.to_bits(),
                    "{}: world {world} cap {cap:?}",
                    algo.name()
                );
                assert_eq!(
                    reference.replica_divergence.to_bits(),
                    hooked.replica_divergence.to_bits(),
                    "{}: world {world} cap {cap:?}",
                    algo.name()
                );
                // Wire accounting: hooks must not change what crosses the
                // wire. Bucketing itself may (honest per-bucket padding +
                // re-shipped scale words for the sub-byte encodings), so
                // the single-shot comparison only holds for uncapped runs
                // and for the bucket-invariant encodings.
                // (Dense's f32 lanes need no padding; the A2SGD family
                // ignores bucketing entirely — O(1) packet either way.)
                let bucket_invariant =
                    matches!(algo, AlgoKind::Dense | AlgoKind::A2sgd | AlgoKind::A2sgdCarry);
                if cap.is_none() || bucket_invariant {
                    assert_eq!(
                        reference.wire_bits_per_iter,
                        hooked.wire_bits_per_iter,
                        "{}: world {world} cap {cap:?}: wire accounting drifted",
                        algo.name()
                    );
                }
            }
        }
    }
}

/// Hook-driven training over real rank *processes* on loopback TCP must
/// reproduce the in-proc single-shot loss curve bit-for-bit (fork-pattern
/// launcher; children exit inside `run_multiprocess`).
#[test]
fn hook_training_parity_tcp_multiprocess() {
    let algos = [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4), AlgoKind::TopK(0.01)];
    let tcp =
        run_multiprocess(2, &["hook_training_parity_tcp_multiprocess", "--exact"], move |_| {
            let mut out = Vec::new();
            for algo in algos {
                let mut c = cfg(algo, 2, 11);
                c.backend = CommBackend::Tcp;
                c.overlap_backward = true;
                c.bucket_bytes = Some(1024);
                let rep = train(&c);
                out.extend(rep.epochs.iter().map(|e| e.train_loss as f32));
                out.push(rep.final_metric as f32);
            }
            out
        });
    let mut expect = Vec::new();
    for algo in algos {
        let rep = train(&cfg(algo, 2, 11));
        expect.extend(rep.epochs.iter().map(|e| e.train_loss as f32));
        expect.push(rep.final_metric as f32);
    }
    assert_eq!(bits(&tcp[0]), bits(&expect), "hooked TCP training diverged from in-proc");
}

/// The overlap proof on real sockets: with a streaming synchronizer and
/// per-layer buckets, ≥ 2 collective exchanges are concurrently in flight
/// *while the backward pass is still executing* — observed from inside the
/// gradient-ready hook itself, not inferred from timing.
#[test]
fn hook_overlap_inflight_proof_tcp() {
    use a2sgd::overlap::{HookLayout, HookedStep};
    use a2sgd_repro::mini_nn::hook::GradHook;
    use a2sgd_repro::mini_nn::models::{ModelKind, Preset};
    use a2sgd_repro::mini_nn::module::{Mode, ModuleExt};
    use a2sgd_repro::mini_tensor::rng::SeedRng;
    use a2sgd_repro::mini_tensor::Tensor;

    /// Delegates to the real driver, recording the in-flight depth seen
    /// at each per-layer callback (i.e. during backward).
    struct Probe<'a, 'b> {
        step: HookedStep<'a>,
        peak_during_backward: &'b mut usize,
    }
    impl GradHook for Probe<'_, '_> {
        fn grad_ready(&mut self, p: &a2sgd_repro::mini_nn::Param) {
            self.step.grad_ready(p);
            *self.peak_during_backward = (*self.peak_during_backward).max(self.step.inflight());
        }
    }

    let peaks = run_cluster_tcp_threads(2, |h| {
        let mut model = ModelKind::Fnn3.build(Preset::Scaled, 13);
        let layout = HookLayout::of(model.as_mut(), Some(1024));
        assert!(layout.bounds().len() >= 4, "need several buckets for an overlap proof");
        let mut sync = AlgoKind::Dense.build(layout.total(), 0, h.rank());
        let mut flat = Vec::new();
        let x = SeedRng::new(14 + h.rank() as u64).randn_tensor(&[4, 1, 28, 28], 1.0);
        model.zero_grad();
        let y = model.forward(&x, Mode::Train);
        let mut peak = 0usize;
        let mut probe = Probe {
            step: HookedStep::begin(&layout, sync.as_mut(), &mut flat, h),
            peak_during_backward: &mut peak,
        };
        let _ = model.backward_hooked(&Tensor::ones(y.shape().clone()), &mut probe);
        probe.step.finish();
        assert!(h.max_inflight() >= 2, "max_inflight {} after the step", h.max_inflight());
        peak
    });
    for (rank, peak) in peaks.into_iter().enumerate() {
        assert!(
            peak >= 2,
            "rank {rank}: only {peak} exchange(s) in flight during the backward pass"
        );
    }
}
