//! Elastic soak proof over real sockets.
//!
//! Every run here is `a2sgd`'s one training loop on scaled FNN-3, driven
//! through `TrainConfig` with the elastic recovery policy. The headline
//! test kills a rank at a seed-chosen step of a 4-rank loopback-TCP run
//! (thread ranks, real `TcpStream`s — the same data plane as the process
//! launcher without its orchestration overhead) and demands the world
//! re-form and *converge anyway*:
//!
//! * the three survivors finish every scripted step with exactly one
//!   recovery, in a world of three, with bit-identical final parameters;
//! * the final epoch's loss and the held-out top-1 land within tolerance
//!   of an uninterrupted same-seed run that had three workers from the
//!   start, over the same number of steps;
//! * throughput counts the samples each step processed, at the world size
//!   that step ran in;
//! * the recovery timeline is recorded in the trace — death instant →
//!   re-rendezvous span → first post-recovery sync — in that order on
//!   every survivor, as `a2sgd_trace::audit` in recovery mode (what
//!   `trace_report --recovery` runs in CI) checks.
//!
//! The same kill-and-converge proof then runs under other registry
//! synchronizers and trainer paths: A2SGD's O(1) packet, Top-K with error
//! feedback (its memory rebuilt at recovery), `sched(fixed4, a2sgd)` and
//! dense with the backward-pass hooks streaming 4 KiB buckets.
//!
//! The checkpoint tests prove resume is bit-exact: resuming a run from its
//! midpoint snapshot reproduces the uninterrupted run's final parameters
//! to the last mantissa bit.
//!
//! Convergence bars come from uninterrupted runs of the same
//! configurations (measured on a 2-core x86-64 host; the figures are in the
//! comments at each bar).

use a2sgd::trainer::{OptKind, Topology, TrainConfig, TrainReport};
use a2sgd::{AlgoKind, SchedKind};
use a2sgd_elastic::{train_elastic, Elastic, ElasticComm, ElasticRunReport, FaultPlan};
use cluster_comm::{tag_space, CommBackend, NetworkProfile, WorldSpec};
use mini_nn::flat::param_count;
use mini_nn::models::{ModelKind, Preset};
use mini_nn::schedule::LrSchedule;
use std::net::TcpListener;

/// A loopback master address whose epoch-offset successor (`port + 1`, the
/// re-rendezvous port after one shrink) is free too. Both sit below
/// Linux's ephemeral range (32768+): a port from that range, probed free
/// now, can be handed to a peer's data listener or an outgoing connection
/// long before the survivors re-rendezvous on it.
fn free_loopback_addr() -> String {
    static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    loop {
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let slot = std::process::id().wrapping_mul(61).wrapping_add(n) % 5000;
        let port = 20_000 + 2 * slot as u16;
        if [port, port + 1].iter().all(|p| TcpListener::bind(("127.0.0.1", *p)).is_ok()) {
            return format!("127.0.0.1:{port}");
        }
    }
}

/// Scaled FNN-3 on `workers` ranks: 8 samples per rank per step, so a
/// 4-worker epoch is `train_size / 32` steps and a 3-worker one
/// `train_size / 24`.
fn fnn3(seed: u64, workers: usize, train_size: usize, epochs: usize) -> TrainConfig {
    TrainConfig {
        model: ModelKind::Fnn3,
        preset: Preset::Scaled,
        algo: AlgoKind::Dense,
        workers,
        epochs,
        batch_per_worker: 8,
        train_size,
        eval_size: 256,
        lr: LrSchedule::constant(0.01),
        opt: OptKind::Sgd { momentum: 0.9, weight_decay: 0.0 },
        seed,
        backend: CommBackend::Tcp,
        bucket_bytes: None,
        overlap_backward: false,
        topology: Topology::Flat,
        schedule: SchedKind::EveryStep,
        profile: NetworkProfile::infiniband_100g(),
        grad_hist_iters: Vec::new(),
        checkpoint_every: None,
        trace: None,
    }
}

/// Runs `cfg` on a fresh loopback-TCP world of `world` thread ranks, rank
/// `r` under `elastic(r)`, and returns the reports in rank order.
fn run_world(
    cfg: &TrainConfig,
    world: usize,
    elastic: impl Fn(usize) -> Elastic + Sync,
) -> Vec<ElasticRunReport> {
    let spec = WorldSpec::single_host(free_loopback_addr(), world);
    let mut out: Vec<Option<ElasticRunReport>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for (rank, slot) in out.iter_mut().enumerate() {
            let (spec, elastic) = (&spec, &elastic);
            joins.push(s.spawn(move || {
                let ec = ElasticComm::connect(rank, spec, 0).expect("rendezvous");
                *slot = Some(train_elastic(ec, cfg, &elastic(rank)).expect("elastic run failed"));
            }));
        }
        for j in joins {
            j.join().expect("rank thread panicked");
        }
    });
    out.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

/// An uninterrupted run of `cfg` on a world of `cfg.workers`.
fn run_clean(cfg: &TrainConfig) -> Vec<ElasticRunReport> {
    run_world(cfg, cfg.workers, |_| Elastic::default())
}

/// The span recorder is process-global and the harness runs tests on
/// parallel threads: every test that trains holds this lock, so the
/// headline test's trace holds its own run's spans, audit figures and
/// `elastic/*` timeline and nobody else's.
static TRAINING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_run_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another test failed; the guard protects
    // no data.
    TRAINING.lock().unwrap_or_else(|e| e.into_inner())
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The last epoch's mean training loss over the first epoch's.
fn loss_ratio(r: &TrainReport) -> f64 {
    r.epochs.last().unwrap().train_loss / r.epochs[0].train_loss
}

/// Runs `cfg` on a 4-rank loopback-TCP world in which `victim` follows
/// `kill`, checks the casualty died on schedule and the three survivors
/// finished with exactly one recovery and bit-identical parameters, and
/// returns a survivor's report.
fn kill_and_finish(cfg: &TrainConfig, victim: usize, kill: &FaultPlan) -> ElasticRunReport {
    let mut reports = run_world(cfg, 4, |rank| Elastic {
        plan: if rank == victim { kill.clone() } else { FaultPlan::none() },
        ..Elastic::default()
    });

    // The casualty died on schedule, before contributing step `kill`.
    assert!(reports[victim].killed);
    assert_eq!(reports[victim].report.iters as u64, kill.kill_at_iter.unwrap());

    // Survivors: one recovery, a world of three, every scripted step done.
    let total = cfg.epochs * cfg.train_size / (cfg.workers * cfg.batch_per_worker);
    reports.remove(victim);
    for s in &reports {
        assert!(!s.killed);
        assert_eq!(s.recoveries, 1, "expected exactly one shrink-and-continue");
        assert_eq!(s.world_at_end, 3);
        assert_eq!(s.report.iters, total);
        assert_eq!(s.report.epochs.len(), cfg.epochs);
    }
    assert_eq!(
        bits(&reports[0].final_params),
        bits(&reports[1].final_params),
        "survivors diverged"
    );
    assert_eq!(
        bits(&reports[0].final_params),
        bits(&reports[2].final_params),
        "survivors diverged"
    );
    reports.swap_remove(0)
}

#[test]
fn killing_a_rank_mid_run_shrinks_and_converges() {
    let _serial = one_run_at_a_time();
    let seed = 0xE1A5_71C0u64;
    // 4 workers × 12 steps × 4 epochs = 48 steps.
    let cfg = fnn3(seed, 4, 384, 4);
    let kill = FaultPlan::random_kill(seed, 5, 15);

    // CI points A2SGD_SOAK_TRACE_DIR at a kept path so `trace_report
    // --recovery` can audit the timeline after the test; by default the
    // trace lives (and dies) in a temp dir.
    let (trace_dir, keep_trace) = match std::env::var("A2SGD_SOAK_TRACE_DIR") {
        Ok(d) => (std::path::PathBuf::from(d), true),
        Err(_) => {
            (std::env::temp_dir().join(format!("a2sgd-soak-trace-{}", std::process::id())), false)
        }
    };
    let _ = std::fs::remove_dir_all(&trace_dir);
    std::fs::create_dir_all(&trace_dir).unwrap();
    a2sgd_trace::enable(&trace_dir);

    let survivor = kill_and_finish(&cfg, 2, &kill);

    a2sgd_trace::flush_process_file().expect("trace flush");
    a2sgd_trace::disable();

    // Throughput counts what was processed: four ranks' batches on every
    // step before the death, three ranks' after it.
    let k = kill.kill_at_iter.unwrap() as usize;
    let samples = cfg.batch_per_worker * (4 * k + 3 * (survivor.report.iters - k));
    let r = &survivor.report;
    let counted = r.throughput * r.total_sim_seconds;
    assert!((counted - samples as f64).abs() < 1e-6 * samples as f64, "{counted} vs {samples}");

    // Convergence despite the death — and within tolerance of a run that
    // had three workers from the start (same seed, same 48 steps: 3
    // workers × 16 steps × 3 epochs). Measured: that reference ends its
    // last epoch at 0.063 (3.0 % of its first epoch's 2.10) and 98.0 %
    // top-1; four uninterrupted workers at 0.040 (1.7 %) and 97.3 %.
    let reference = run_clean(&fnn3(seed, 3, 384, 3)).swap_remove(0).report;
    let (got, want) = (r.epochs.last().unwrap().train_loss, reference.epochs[2].train_loss);
    assert!(loss_ratio(&reference) < 0.1, "reference run failed to converge: {want}");
    assert!(loss_ratio(r) < 0.1, "elastic run failed to converge: {got}");
    assert!(
        (got - want).abs() < 0.05 * reference.epochs[0].train_loss,
        "elastic loss {got} too far from shrunken-world reference {want}"
    );
    // Two points of top-1 is five of the 256 held-out samples.
    assert!(reference.final_metric >= 95.0, "reference top-1 {}", reference.final_metric);
    assert!(
        (r.final_metric - reference.final_metric).abs() <= 2.0,
        "elastic top-1 {} too far from shrunken-world reference {}",
        r.final_metric,
        reference.final_metric
    );

    // Recovery timeline in the trace: death → re-rendezvous → first
    // post-recovery sync, in that order on every survivor.
    let data = a2sgd_trace::load_dir(&trace_dir).expect("trace loads");
    let report = a2sgd_trace::audit(&data, tag_space, true);
    assert!(report.failures.is_empty(), "{}\n{:?}", report.lines.join("\n"), report.failures);

    if !keep_trace {
        let _ = std::fs::remove_dir_all(&trace_dir);
    }
}

#[test]
fn kill_and_converge_under_registry_synchronizers() {
    let _serial = one_run_at_a_time();
    // The same proof through the loop's other paths: the O(1) packet with
    // its local residual, error feedback whose memory is rebuilt at
    // recovery, a window-closing Δ sync over A2SGD, and the backward-pass
    // hooks submitting 4 KiB buckets. The A2SGD rows trade per-step
    // accuracy for wire bits, so they get twice the steps. Bars: the last
    // epoch's loss under a tenth of the first's, and 95 % top-1. Measured
    // on uninterrupted 3- and 4-worker runs of each row, the worst ratio
    // is 0.055 and the worst top-1 98.0 %.
    let seed = 0xE1A5_71C1u64;
    for (algo, schedule, overlap, epochs) in [
        (AlgoKind::A2sgd, SchedKind::EveryStep, false, 8),
        (AlgoKind::TopK(0.34), SchedKind::EveryStep, false, 4),
        // Which local step notices the death is a race, so this run's
        // trajectory is not bit-reproducible; the bar has the headroom.
        (AlgoKind::A2sgd, SchedKind::Fixed(4), false, 8),
        (AlgoKind::Dense, SchedKind::EveryStep, true, 4),
    ] {
        let cfg = TrainConfig {
            algo,
            schedule,
            overlap_backward: overlap,
            bucket_bytes: overlap.then_some(4096),
            ..fnn3(seed, 4, 384, epochs)
        };
        let label = format!("{} overlap={overlap}", cfg.algo_label());
        let r = kill_and_finish(&cfg, 2, &FaultPlan::random_kill(seed, 5, 15)).report;
        assert!(loss_ratio(&r) < 0.1, "{label} failed to converge: {:?}", r.epochs);
        assert!(r.final_metric >= 95.0, "{label}: top-1 {}", r.final_metric);
    }
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    let _serial = one_run_at_a_time();
    let seed = 0xC4EC_4B07u64;
    let ckpt_dir = std::env::temp_dir().join(format!("a2sgd-soak-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    // 2 workers × 10 steps × 2 epochs, a snapshot every 10 steps.
    let cfg = TrainConfig { checkpoint_every: Some(10), ..fnn3(seed, 2, 160, 2) };
    let full =
        run_world(&cfg, 2, |_| Elastic { ckpt_dir: Some(ckpt_dir.clone()), ..Elastic::default() });

    // The midpoint snapshot exists and decodes to the right step.
    let midpoint = ckpt_dir.join(a2sgd::Checkpoint::file_name(10));
    let c = a2sgd::Checkpoint::read(&midpoint).expect("midpoint checkpoint");
    assert_eq!(c.step, 10);
    assert_eq!(c.seed, seed);
    assert_eq!(c.params.len(), param_count(cfg.model.build(cfg.preset, seed).as_mut()));

    // Resume: rank 0 loads the snapshot (a restarted cluster's survivor),
    // rank 1 starts cold and catches up over the wire, and the remaining
    // ten steps — the whole second epoch — replay bit-exactly.
    let resume = TrainConfig { checkpoint_every: None, ..cfg.clone() };
    let resumed = run_world(&resume, 2, |rank| Elastic {
        resume_from: Some(midpoint.clone()).filter(|_| rank == 0),
        ..Elastic::default()
    });

    for r in &resumed {
        assert_eq!(r.report.iters, 10);
        assert_eq!(r.report.epochs.len(), 1, "the resumed run closes only the second epoch");
        assert_eq!(r.report.epochs[0].epoch, 2);
    }
    assert_eq!(
        bits(&full[0].final_params),
        bits(&resumed[0].final_params),
        "resume diverged from the uninterrupted run"
    );
    assert_eq!(bits(&resumed[0].final_params), bits(&resumed[1].final_params));
    let loss = |r: &ElasticRunReport| r.report.epochs.last().unwrap().train_loss.to_bits();
    assert_eq!(loss(&full[0]), loss(&resumed[0]), "the second epoch's batches or steps moved");
    assert_eq!(full[0].report.final_metric, resumed[0].report.final_metric);

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn scheduled_run_reenters_period_after_shrink() {
    let _serial = one_run_at_a_time();
    let seed = 0x5C4E_D111u64;
    // 4 workers × 8 steps × 4 epochs = 32 steps.
    let cfg = TrainConfig { schedule: SchedKind::Fixed(4), ..fnn3(seed, 4, 256, 4) };
    let victim = 1usize;
    // Step 13 is mid-window (fixed4 runs L L L S, so syncs land on steps
    // 3, 7, 11, 15, …): the survivors must re-enter the period at phase 2
    // after the shrink, not restart the window.
    let plan = FaultPlan::kill_at(13);
    let reports = run_world(&cfg, 4, |rank| Elastic {
        plan: if rank == victim { plan.clone() } else { FaultPlan::none() },
        ..Elastic::default()
    });

    assert!(reports[victim].killed);
    let survivors: Vec<_> = (0..4).filter(|&r| r != victim).map(|r| &reports[r]).collect();
    for s in &survivors {
        assert!(!s.killed);
        assert_eq!(s.recoveries, 1, "expected exactly one shrink-and-continue");
        assert_eq!(s.world_at_end, 3);
        assert_eq!(s.report.iters, 32);
        // fixed4 over 32 steps closes exactly 8 windows, with syncs fixed
        // at steps 3, 7, …, 31 regardless of when the death is noticed. A
        // recovery that reset the window phase would shift every later
        // sync and change this count. (Local-step counts are per-rank:
        // locals run no collective, so ranks drift within a window and the
        // recovery catch-up may skip or replay a lagging rank's locals.)
        assert_eq!(s.report.sync_steps, 8, "window phase not preserved across the shrink");
    }
    // The catch-up broadcaster itself never jumps, so its local count is
    // exact: every one of the 32 steps ran once, 32 − 8 = 24 of them
    // without touching the wire.
    assert_eq!(reports[0].report.local_steps, 24);
    assert_eq!(bits(&survivors[0].final_params), bits(&survivors[1].final_params));
    assert_eq!(bits(&survivors[0].final_params), bits(&survivors[2].final_params));

    // Local SGD trades per-step averaging for a 4x traffic cut and still
    // has to converge. Measured uninterrupted: 4 workers end their last
    // epoch at 16 % of the first epoch's loss with 87.5 % top-1; 3 workers
    // (30 steps) at 22 % with 86.3 %.
    let r = &survivors[0].report;
    assert!(loss_ratio(r) < 0.3, "scheduled elastic run failed to converge: {:?}", r.epochs);
    assert!(r.final_metric >= 80.0, "scheduled elastic run: top-1 {}", r.final_metric);
}

#[test]
fn scheduled_checkpoint_resume_reenters_period_mid_window() {
    let _serial = one_run_at_a_time();
    let seed = 0x5CED_C4B0u64;
    let ckpt_dir =
        std::env::temp_dir().join(format!("a2sgd-soak-sched-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let in_dir = |_| Elastic { ckpt_dir: Some(ckpt_dir.clone()), ..Elastic::default() };

    // Bit-exactness is only claimable where rank 0's snapshot captures the
    // whole distributed state: local steps run no collective, so in a
    // multi-rank world the peers have drifted from rank 0 mid-window and
    // no single-rank checkpoint can reproduce them. A world of one makes
    // the claim exact and still exercises every schedule field: a resume
    // that dropped the phase or the window anchor would close the next
    // window at the wrong step or against the wrong base. 1 worker × 10
    // steps × 2 epochs.
    let full_cfg = TrainConfig {
        schedule: SchedKind::Fixed(4),
        checkpoint_every: Some(10),
        ..fnn3(seed, 1, 80, 2)
    };
    let full = run_world(&full_cfg, 1, in_dir);

    // The midpoint snapshot landed two local steps into a window (syncs at
    // steps 3 and 7; steps 8 and 9 were local), so the v2 schedule block
    // must carry phase 2 and a window anchor that differs from the drifted
    // mid-window parameters.
    let midpoint = ckpt_dir.join(a2sgd::Checkpoint::file_name(10));
    let c = a2sgd::Checkpoint::read(&midpoint).expect("midpoint checkpoint");
    let sc = c.sched.as_ref().expect("schedule block missing from the v2 checkpoint");
    assert_eq!(sc.state.local_in_window, 2, "checkpoint taken at the wrong window phase");
    assert_eq!(sc.state.current_h, 4);
    assert_eq!(sc.anchor.len(), c.params.len());
    assert_ne!(
        bits(&sc.anchor),
        bits(&c.params),
        "mid-window params should have drifted from the window anchor"
    );

    let resume = |cfg: &TrainConfig, path: &std::path::PathBuf| {
        let cfg = TrainConfig { checkpoint_every: None, ..cfg.clone() };
        run_world(&cfg, cfg.workers, |rank| Elastic {
            resume_from: Some(path.clone()).filter(|_| rank == 0),
            ..Elastic::default()
        })
    };
    let resumed_solo = resume(&full_cfg, &midpoint);
    assert_eq!(resumed_solo[0].report.iters, 10);
    assert_eq!(
        bits(&full[0].final_params),
        bits(&resumed_solo[0].final_params),
        "mid-window scheduled resume diverged from the uninterrupted run"
    );

    // Two-rank resume: rank 1 starts cold, and the schedule catch-up fans
    // rank 0's phase out to it. The surviving evidence is the sync
    // pattern — resuming at step 10, phase 2 puts the remaining window
    // closes at steps 11, 15, 19 (three syncs); a reset phase would sync
    // at 13 and 17 instead. 2 workers × 10 steps × 2 epochs.
    let two_cfg = TrainConfig {
        schedule: SchedKind::Fixed(4),
        checkpoint_every: Some(10),
        ..fnn3(seed ^ 0x2, 2, 160, 2)
    };
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    run_world(&two_cfg, 2, in_dir);
    let resumed = resume(&two_cfg, &ckpt_dir.join(a2sgd::Checkpoint::file_name(10)));
    for r in &resumed {
        assert_eq!(r.report.iters, 10);
        assert_eq!(r.report.sync_steps, 3, "cold rank did not re-enter the period at phase 2");
    }
    assert_eq!(bits(&resumed[0].final_params), bits(&resumed[1].final_params));

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn adaptive_schedule_runs_elastic_a2sgd_in_lockstep() {
    let _serial = one_run_at_a_time();
    let seed = 0xADA7_0E57u64;
    // 2 workers × 8 steps × 2 epochs = 16 steps.
    let cfg = TrainConfig {
        algo: AlgoKind::A2sgd,
        schedule: SchedKind::Adaptive(2),
        ..fnn3(seed, 2, 128, 2)
    };
    let reports = run_clean(&cfg);
    for r in &reports {
        assert_eq!(r.report.iters, 16);
        assert_eq!(r.report.sync_steps + r.report.local_steps, 16);
        assert!(r.report.sync_steps >= 1, "adaptive schedule never synced");
        assert!(r.report.local_steps >= 1, "adaptive2 should skip some steps");
    }
    // The dispersion observations feeding the controller are rank-agreed,
    // so the schedules stayed in lockstep and the final re-average left
    // one model.
    assert_eq!(reports[0].report.sync_steps, reports[1].report.sync_steps);
    assert_eq!(bits(&reports[0].final_params), bits(&reports[1].final_params));
}
