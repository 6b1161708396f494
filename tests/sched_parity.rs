//! Sync-schedule invariants across the whole stack.
//!
//! The schedule subsystem's contract, checked end to end:
//!
//! * **Exactness** — `fixed1` (a degenerate one-step window every step) is
//!   bit-identical to the unscheduled trainer for every synchronizer the
//!   registry can build, so turning the schedule knob cannot perturb the
//!   classic path. The training fingerprint
//!   (`crates/core/tests/fingerprint.rs`) holds the same relations on its
//!   committed grid (`fixed1` ≡ unscheduled in its section A, `ov` ≡ no
//!   `ov` under `Fixed(4)` and `PostLocal` in its section C).
//! * **Traffic** — over real loopback sockets, `fixed8` cuts dense
//!   measured wire bytes by the window factor: communication reduction in
//!   *time*, orthogonal to the compressors' reduction in *space*.
//! * **Convergence** — `sched(fixed8, a2sgd)` still trains to within
//!   tolerance of every-step A2SGD at equal iterations.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::train;
use a2sgd::{SchedKind, TrainReport};
use a2sgd_repro::cluster_comm::{run_multiprocess, CommBackend};
use mini_nn::models::ModelKind;

fn cfg(algo: AlgoKind, workers: usize, seed: u64) -> a2sgd::trainer::TrainConfig {
    let mut c = scaled_convergence_config(ModelKind::Fnn3, algo, workers, seed);
    c.epochs = 2;
    c.train_size = 320;
    c.eval_size = 160;
    c
}

/// Everything a schedule could plausibly perturb, as exact bits.
fn fingerprint(rep: &TrainReport) -> Vec<u64> {
    let mut f: Vec<u64> = rep.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    f.push(rep.final_metric.to_bits());
    f.push(rep.replica_divergence.to_bits());
    f.push(rep.wire_bits_per_iter);
    f.push(rep.measured_wire_bytes);
    f
}

/// `fixed1` ≡ unscheduled, bit for bit, for every registry synchronizer:
/// every window is degenerate, so every step must take the classic
/// gradient path with zero schedule residue in the report.
#[test]
fn fixed1_parity_all_synchronizers_inproc() {
    for algo in AlgoKind::all(0.01) {
        let base = cfg(algo, 2, 21);
        let reference = train(&base);
        let mut s = base.clone();
        s.schedule = SchedKind::Fixed(1);
        let scheduled = train(&s);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&scheduled),
            "{}: fixed1 diverged from the unscheduled trainer",
            algo.name()
        );
        assert_eq!(scheduled.local_steps, 0, "{}", algo.name());
        assert_eq!(scheduled.sync_steps, scheduled.iters, "{}", algo.name());
        // The label still advertises the schedule — same math, but the
        // figures must be able to tell the rows apart.
        assert!(scheduled.label.contains("sched(fixed1"), "label: {}", scheduled.label);
    }
}

/// The traffic claim over real rank processes on loopback TCP: dense
/// training under `fixed8` moves ~an eighth of every-step dense's bytes
/// (fork-pattern launcher; children exit inside `run_multiprocess`).
#[test]
fn fixed8_cuts_dense_tcp_wire_bytes() {
    let tcp = run_multiprocess(2, &["fixed8_cuts_dense_tcp_wire_bytes", "--exact"], move |_| {
        let mut out = Vec::new();
        for sched in [SchedKind::EveryStep, SchedKind::Fixed(8)] {
            let mut c = cfg(AlgoKind::Dense, 2, 23);
            c.backend = CommBackend::Tcp;
            c.schedule = sched;
            let rep = train(&c);
            // f32 lanes are the launcher's payload; ship the byte counts
            // pre-divided so mantissa rounding cannot bite.
            out.push((rep.measured_wire_bytes as f64 / 1024.0) as f32);
            out.push((rep.measured_sync_wire_bytes as f64 / 1024.0) as f32);
            out.push(rep.iters as f32);
            out.push(rep.sync_steps as f32);
        }
        out
    });
    for (rank, lanes) in tcp.iter().enumerate() {
        let (every_total, every_sync) = (lanes[0] as f64, lanes[1] as f64);
        let (fixed_total, fixed_sync) = (lanes[4] as f64, lanes[5] as f64);
        let (iters, syncs) = (lanes[6] as f64, lanes[7] as f64);
        assert_eq!(lanes[2], lanes[6], "rank {rank}: iteration counts differ");
        assert_eq!(lanes[3], lanes[2], "rank {rank}: every-step run skipped a sync");
        // 20 iterations, window 8 ⇒ syncs at steps 7 and 15 only.
        assert_eq!(syncs, (iters / 8.0).floor(), "rank {rank}: wrong sync count under fixed8");
        // Per-step sync traffic scales exactly with the sync count; the
        // full-run total also carries the run-constant tail (final
        // re-average + metric broadcast), so its ratio sits a bit below
        // iters/syncs but still clears the headline ≥ 6×.
        let sync_ratio = every_sync / fixed_sync;
        let total_ratio = every_total / fixed_total;
        let want = iters / syncs;
        assert!(
            (sync_ratio - want).abs() < 0.2,
            "rank {rank}: sync-byte ratio {sync_ratio:.2}, want ~{want:.1}"
        );
        assert!(total_ratio >= 6.0, "rank {rank}: total wire-byte ratio {total_ratio:.2} under 6x");
    }
}

/// Convergence rides along: local SGD every 8 steps composed with the
/// O(1) packet still reaches an accuracy near every-step A2SGD at equal
/// iterations (the schedule trades sync frequency, not trainability).
#[test]
fn fixed8_a2sgd_converges_within_tolerance_of_every_step() {
    let base = cfg(AlgoKind::A2sgd, 2, 25);
    let reference = train(&base);
    let mut s = base.clone();
    s.schedule = SchedKind::Fixed(8);
    let scheduled = train(&s);
    assert!(reference.final_metric > 30.0, "reference failed to train: {}", reference.final_metric);
    assert!(
        scheduled.final_metric > 30.0,
        "sched(fixed8, a2sgd) failed to train: {}",
        scheduled.final_metric
    );
    assert!(
        (scheduled.final_metric - reference.final_metric).abs() < 15.0,
        "fixed8 accuracy {} too far from every-step {}",
        scheduled.final_metric,
        reference.final_metric
    );
    assert_eq!(scheduled.sync_steps + scheduled.local_steps, scheduled.iters);
    assert!(scheduled.label.contains("sched(fixed8"), "label: {}", scheduled.label);
}

/// `sched × overlap` used to be refused by an assert. Under `fixed1` every
/// step plans a gradient sync, so the hooks engage on every step and the
/// run must equal the unscheduled hooked run — for every registry
/// synchronizer.
#[test]
fn fixed1_overlap_parity_all_synchronizers_inproc() {
    for algo in AlgoKind::all(0.01) {
        let mut base = cfg(algo, 2, 21);
        base.overlap_backward = true;
        base.bucket_bytes = Some(1024);
        let reference = train(&base);
        let mut s = base.clone();
        s.schedule = SchedKind::Fixed(1);
        let scheduled = train(&s);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&scheduled),
            "{}: fixed1 + overlap diverged from unscheduled + overlap",
            algo.name()
        );
        assert_eq!(scheduled.local_steps, 0, "{}", algo.name());
        assert_eq!(scheduled.sync_steps, scheduled.iters, "{}", algo.name());
    }
}

/// Real windows under overlap: hooks engage on the gradient-path steps
/// only (a post-local warmup's every-step syncs), `Local` and
/// window-closing steps run the plain backward pass — so overlap cannot
/// move a single bit or a single step between the local and sync ledgers.
#[test]
fn periodic_schedules_with_overlap_match_the_same_schedule_without() {
    for (algo, schedule) in [
        (AlgoKind::Dense, SchedKind::Fixed(4)),
        (AlgoKind::A2sgd, SchedKind::PostLocal { warmup: 8, h: 4 }),
    ] {
        let mut plain = cfg(algo, 2, 27);
        plain.schedule = schedule;
        plain.bucket_bytes = Some(1024);
        let mut hooked = plain.clone();
        hooked.overlap_backward = true;
        let (plain, hooked) = (train(&plain), train(&hooked));
        assert_eq!(fingerprint(&plain), fingerprint(&hooked), "{}", hooked.label);
        assert_eq!(plain.local_steps, hooked.local_steps, "{}", hooked.label);
        assert_eq!(plain.sync_steps, hooked.sync_steps, "{}", hooked.label);
        assert!(hooked.local_steps > 0, "{}: schedule never went local", hooked.label);
    }
}
