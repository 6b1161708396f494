//! Elastic soak proof over real sockets.
//!
//! The headline test kills a rank at a seed-chosen iteration of a 4-rank
//! loopback-TCP training run (thread ranks, real `TcpStream`s — the same
//! data plane as the process launcher without its orchestration overhead)
//! and demands the world re-form and *converge anyway*:
//!
//! * the three survivors finish all scripted iterations with exactly one
//!   recovery, in a world of three, with bit-identical final parameters;
//! * the final loss lands within tolerance of an uninterrupted same-seed
//!   run that had three workers from the start;
//! * the recovery timeline is recorded in the trace — death instant →
//!   re-rendezvous span → first post-recovery sync — in that order on
//!   every survivor, as `a2sgd_trace::audit` in recovery mode (what
//!   `trace_report --recovery` runs in CI) checks.
//!
//! The same kill-and-converge proof then runs under registry synchronizers
//! the shared step brought to the elastic trainer: A2SGD's O(1) packet,
//! Top-K with error feedback (its memory rebuilt at recovery) and
//! `sched(fixed4, a2sgd)`.
//!
//! The checkpoint tests prove resume is bit-exact: resuming a run from its
//! midpoint snapshot reproduces the uninterrupted run's final parameters
//! to the last mantissa bit.

use a2sgd::AlgoKind;
use a2sgd_elastic::{train_elastic, ElasticComm, ElasticRunReport, ElasticTrainConfig, FaultPlan};
use a2sgd_sched::SchedKind;
use cluster_comm::{tag_space, WorldSpec};
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

/// Spawns one thread per rank of `spec`, each connecting its own TCP
/// endpoint and running `f(rank)`.
fn run_world<T, F>(spec: &WorldSpec, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let world = spec.world();
    let mut out: Vec<Option<T>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for (rank, slot) in out.iter_mut().enumerate() {
            let f = &f;
            joins.push(s.spawn(move || *slot = Some(f(rank))));
        }
        for j in joins {
            j.join().expect("rank thread panicked");
        }
    });
    out.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

/// The span recorder is process-global and the harness runs tests on
/// parallel threads: every test that kills a rank holds this lock, so the
/// headline test's trace holds its own `elastic/*` timeline and nobody
/// else's.
static KILL_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn one_kill_test_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    // A poisoned lock only means another kill test failed; the guard
    // protects no data.
    KILL_TESTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `cfg` on a 4-rank loopback-TCP world in which `victim` follows
/// `kill`, checks the casualty died on schedule and the three survivors
/// finished with exactly one recovery and bit-identical parameters, and
/// returns a survivor's report.
fn kill_and_finish(cfg: &ElasticTrainConfig, victim: usize, kill: &FaultPlan) -> ElasticRunReport {
    let spec = WorldSpec::single_host(free_loopback_addr(), 4);
    let reports = run_world(&spec, |rank| {
        let ec = ElasticComm::connect(rank, &spec, 0).expect("rendezvous");
        let plan = if rank == victim { kill.clone() } else { FaultPlan::none() };
        train_elastic(ec, cfg, &plan).expect("elastic run failed")
    });

    // The casualty died on schedule, before contributing iteration `kill`.
    assert!(reports[victim].killed);
    assert_eq!(reports[victim].steps_done, kill.kill_at_iter.unwrap());

    // Survivors: one recovery, a world of three, every scripted step done.
    let survivors: Vec<_> = (0..4).filter(|&r| r != victim).map(|r| &reports[r]).collect();
    for s in &survivors {
        assert!(!s.killed);
        assert_eq!(s.recoveries, 1, "expected exactly one shrink-and-continue");
        assert_eq!(s.world_at_end, 3);
        assert_eq!(s.steps_done, cfg.iters);
    }
    let bits: Vec<Vec<u32>> =
        survivors.iter().map(|s| s.final_params.iter().map(|x| x.to_bits()).collect()).collect();
    assert_eq!(bits[0], bits[1], "survivors diverged");
    assert_eq!(bits[0], bits[2], "survivors diverged");
    survivors[0].clone()
}

#[test]
fn killing_a_rank_mid_run_shrinks_and_converges() {
    let _serial = one_kill_test_at_a_time();
    let seed = 0xE1A5_71C0u64;
    let cfg = ElasticTrainConfig::probe(seed);
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

    // Convergence despite the death — and within tolerance of a run that
    // had three workers from the start (same seed, same step budget).
    let ref_spec = WorldSpec::single_host(free_loopback_addr(), 3);
    let ref_reports = run_world(&ref_spec, |rank| {
        let ec = ElasticComm::connect(rank, &ref_spec, 0).expect("rendezvous");
        train_elastic(ec, &cfg, &FaultPlan::none()).expect("reference run failed")
    });
    let start = a2sgd_elastic::train::full_loss(&cfg, &vec![0.0; cfg.dim + 1]);
    let (got, want) = (survivor.final_loss, ref_reports[0].final_loss);
    assert!(got < 0.05 * start, "elastic run failed to converge: {got} (start {start})");
    assert!(want < 0.05 * start, "reference run failed to converge: {want}");
    assert!(
        (got - want).abs() < 0.05 * start,
        "elastic loss {got} too far from shrunken-world reference {want}"
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
    let _serial = one_kill_test_at_a_time();
    // The same proof through the shared step's other paths: the O(1)
    // packet with its local residual, error feedback whose memory is
    // rebuilt at recovery, and a window-closing Δ sync over A2SGD. Each
    // trades per-step accuracy for wire bits, so they get more steps and
    // looser bars than dense.
    let seed = 0xE1A5_71C1u64;
    for (algo, schedule, iters, bar) in [
        (AlgoKind::A2sgd, SchedKind::EveryStep, 120, 0.15),
        (AlgoKind::TopK(0.34), SchedKind::EveryStep, 60, 0.15),
        // Which local step notices the death is a race, so this run's
        // trajectory is not bit-reproducible; the bar has the headroom.
        (AlgoKind::A2sgd, SchedKind::Fixed(4), 64, 0.3),
    ] {
        let cfg = ElasticTrainConfig { algo, schedule, iters, ..ElasticTrainConfig::probe(seed) };
        let survivor = kill_and_finish(&cfg, 2, &FaultPlan::random_kill(seed, 5, 15));
        let start = a2sgd_elastic::train::full_loss(&cfg, &vec![0.0; cfg.dim + 1]);
        assert!(
            survivor.final_loss < bar * start,
            "sched({schedule:?}, {}) failed to converge: {} (start {start})",
            algo.name(),
            survivor.final_loss
        );
    }
}

#[test]
fn checkpoint_resume_is_bit_identical() {
    let seed = 0xC4EC_4B07u64;
    let ckpt_dir = std::env::temp_dir().join(format!("a2sgd-soak-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let full_cfg = ElasticTrainConfig {
        iters: 20,
        checkpoint_every: Some(10),
        ckpt_dir: Some(ckpt_dir.clone()),
        ..ElasticTrainConfig::probe(seed)
    };
    let spec = WorldSpec::single_host(free_loopback_addr(), 2);
    let full = run_world(&spec, |rank| {
        let ec = ElasticComm::connect(rank, &spec, 0).expect("rendezvous");
        train_elastic(ec, &full_cfg, &FaultPlan::none()).expect("full run failed")
    });

    // The midpoint snapshot exists and decodes to the right step.
    let midpoint = ckpt_dir.join(a2sgd::Checkpoint::file_name(10));
    let c = a2sgd::Checkpoint::read(&midpoint).expect("midpoint checkpoint");
    assert_eq!(c.step, 10);
    assert_eq!(c.seed, seed);
    assert_eq!(c.params.len(), full_cfg.dim + 1);

    // Resume: rank 0 loads the snapshot, the catch-up broadcast rehydrates
    // rank 1, and the remaining ten steps replay bit-exactly.
    let resume_cfg = ElasticTrainConfig {
        iters: 20,
        resume_from: Some(midpoint),
        ..ElasticTrainConfig::probe(seed)
    };
    let spec2 = WorldSpec::single_host(free_loopback_addr(), 2);
    let resumed = run_world(&spec2, |rank| {
        let cfg = ElasticTrainConfig {
            // Only rank 0 holds the checkpoint file (a restarted cluster's
            // survivor); rank 1 starts cold and catches up over the wire.
            resume_from: resume_cfg.resume_from.clone().filter(|_| rank == 0),
            ..resume_cfg.clone()
        };
        let ec = ElasticComm::connect(rank, &spec2, 0).expect("rendezvous");
        train_elastic(ec, &cfg, &FaultPlan::none()).expect("resumed run failed")
    });

    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(resumed[0].steps_done, 20);
    assert_eq!(
        bits(&full[0].final_params),
        bits(&resumed[0].final_params),
        "resume diverged from the uninterrupted run"
    );
    assert_eq!(bits(&resumed[0].final_params), bits(&resumed[1].final_params));
    assert_eq!(full[0].final_loss, resumed[0].final_loss);

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn scheduled_run_reenters_period_after_shrink() {
    let _serial = one_kill_test_at_a_time();
    let seed = 0x5C4E_D111u64;
    let cfg = ElasticTrainConfig {
        iters: 32,
        schedule: SchedKind::Fixed(4),
        ..ElasticTrainConfig::probe(seed)
    };
    let victim = 1usize;
    // Step 13 is mid-window (fixed4 runs L L L S, so syncs land on steps
    // 3, 7, 11, 15, …): the survivors must re-enter the period at phase 2
    // after the shrink, not restart the window.
    let plan = FaultPlan::kill_at(13);

    let spec = WorldSpec::single_host(free_loopback_addr(), 4);
    let reports = run_world(&spec, |rank| {
        let ec = ElasticComm::connect(rank, &spec, 0).expect("rendezvous");
        let p = if rank == victim { plan.clone() } else { FaultPlan::none() };
        train_elastic(ec, &cfg, &p).expect("elastic run failed")
    });

    assert!(reports[victim].killed);
    let survivors: Vec<_> = (0..4).filter(|&r| r != victim).map(|r| &reports[r]).collect();
    for s in &survivors {
        assert!(!s.killed);
        assert_eq!(s.recoveries, 1, "expected exactly one shrink-and-continue");
        assert_eq!(s.world_at_end, 3);
        assert_eq!(s.steps_done, cfg.iters);
        // fixed4 over 32 steps closes exactly 8 windows, with syncs fixed
        // at steps 3, 7, …, 31 regardless of when the death is noticed. A
        // recovery that reset the window phase would shift every later
        // sync and change this count. (Local-step counts are per-rank:
        // locals run no collective, so ranks drift within a window and the
        // recovery catch-up may skip or replay a lagging rank's locals.)
        assert_eq!(s.sync_steps, 8, "window phase not preserved across the shrink");
    }
    // The catch-up broadcaster itself never jumps, so its local count is
    // exact: every step ran once, 24 of them without touching the wire.
    assert_eq!(reports[0].local_steps, 24);
    let bits: Vec<Vec<u32>> =
        survivors.iter().map(|s| s.final_params.iter().map(|x| x.to_bits()).collect()).collect();
    assert_eq!(bits[0], bits[1], "survivors diverged");
    assert_eq!(bits[0], bits[2], "survivors diverged");

    // Local SGD trades per-step averaging for a 4x traffic cut; the convex
    // probe still has to converge, just against a looser bar.
    let start = a2sgd_elastic::train::full_loss(&cfg, &vec![0.0; cfg.dim + 1]);
    let got = survivors[0].final_loss;
    assert!(got < 0.3 * start, "scheduled elastic run failed to converge: {got} (start {start})");
}

#[test]
fn scheduled_checkpoint_resume_reenters_period_mid_window() {
    let seed = 0x5CED_C4B0u64;
    let ckpt_dir =
        std::env::temp_dir().join(format!("a2sgd-soak-sched-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // Bit-exactness is only claimable where rank 0's snapshot captures the
    // whole distributed state: local steps run no collective, so in a
    // multi-rank world the peers have drifted from rank 0 mid-window and
    // no single-rank checkpoint can reproduce them. A world of one makes
    // the claim exact and still exercises every schedule field: a resume
    // that dropped the phase or the window anchor would close the next
    // window at the wrong step or against the wrong base.
    let full_cfg = ElasticTrainConfig {
        iters: 20,
        schedule: SchedKind::Fixed(4),
        checkpoint_every: Some(10),
        ckpt_dir: Some(ckpt_dir.clone()),
        ..ElasticTrainConfig::probe(seed)
    };
    let spec = WorldSpec::single_host(free_loopback_addr(), 1);
    let full = run_world(&spec, |rank| {
        let ec = ElasticComm::connect(rank, &spec, 0).expect("rendezvous");
        train_elastic(ec, &full_cfg, &FaultPlan::none()).expect("full run failed")
    });

    // The midpoint snapshot landed two local steps into a window (syncs at
    // steps 3 and 7; steps 8 and 9 were local), so the v2 schedule block
    // must carry phase 2 and a window anchor that differs from the drifted
    // mid-window parameters.
    let midpoint = ckpt_dir.join(a2sgd::Checkpoint::file_name(10));
    let c = a2sgd::Checkpoint::read(&midpoint).expect("midpoint checkpoint");
    let sc = c.sched.as_ref().expect("schedule block missing from the v2 checkpoint");
    assert_eq!(sc.state.local_in_window, 2, "checkpoint taken at the wrong window phase");
    assert_eq!(sc.state.current_h, 4);
    assert_eq!(sc.anchor.len(), full_cfg.dim + 1);
    assert_ne!(
        bits(&sc.anchor),
        bits(&c.params),
        "mid-window params should have drifted from the window anchor"
    );

    let spec_r = WorldSpec::single_host(free_loopback_addr(), 1);
    let resumed_solo = run_world(&spec_r, |rank| {
        let cfg = ElasticTrainConfig {
            resume_from: Some(midpoint.clone()).filter(|_| rank == 0),
            checkpoint_every: None,
            ckpt_dir: None,
            ..full_cfg.clone()
        };
        let ec = ElasticComm::connect(rank, &spec_r, 0).expect("rendezvous");
        train_elastic(ec, &cfg, &FaultPlan::none()).expect("resumed run failed")
    });
    assert_eq!(resumed_solo[0].steps_done, 20);
    assert_eq!(
        bits(&full[0].final_params),
        bits(&resumed_solo[0].final_params),
        "mid-window scheduled resume diverged from the uninterrupted run"
    );

    // Two-rank resume: rank 1 starts cold, and the schedule catch-up fans
    // rank 0's phase out to it. The surviving evidence is the sync
    // pattern — resuming at step 10, phase 2 puts the remaining window
    // closes at steps 11, 15, 19 (three syncs); a reset phase would sync
    // at 13 and 17 instead.
    let two_cfg = ElasticTrainConfig {
        iters: 20,
        schedule: SchedKind::Fixed(4),
        checkpoint_every: Some(10),
        ckpt_dir: Some(ckpt_dir.clone()),
        ..ElasticTrainConfig::probe(seed ^ 0x2)
    };
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let spec2 = WorldSpec::single_host(free_loopback_addr(), 2);
    run_world(&spec2, |rank| {
        let ec = ElasticComm::connect(rank, &spec2, 0).expect("rendezvous");
        train_elastic(ec, &two_cfg, &FaultPlan::none()).expect("two-rank full run failed")
    });
    let midpoint2 = ckpt_dir.join(a2sgd::Checkpoint::file_name(10));
    let spec3 = WorldSpec::single_host(free_loopback_addr(), 2);
    let resumed = run_world(&spec3, |rank| {
        let cfg = ElasticTrainConfig {
            resume_from: Some(midpoint2.clone()).filter(|_| rank == 0),
            checkpoint_every: None,
            ckpt_dir: None,
            ..two_cfg.clone()
        };
        let ec = ElasticComm::connect(rank, &spec3, 0).expect("rendezvous");
        train_elastic(ec, &cfg, &FaultPlan::none()).expect("two-rank resumed run failed")
    });
    for r in &resumed {
        assert_eq!(r.steps_done, 20);
        assert_eq!(r.sync_steps, 3, "cold rank did not re-enter the period at phase 2");
    }
    assert_eq!(bits(&resumed[0].final_params), bits(&resumed[1].final_params));

    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn adaptive_schedule_runs_elastic_a2sgd_in_lockstep() {
    let seed = 0xADA7_0E57u64;
    let cfg = ElasticTrainConfig {
        iters: 16,
        algo: AlgoKind::A2sgd,
        schedule: SchedKind::Adaptive(2),
        ..ElasticTrainConfig::probe(seed)
    };
    let spec = WorldSpec::single_host(free_loopback_addr(), 2);
    let reports = run_world(&spec, |rank| {
        let ec = ElasticComm::connect(rank, &spec, 0).expect("rendezvous");
        train_elastic(ec, &cfg, &FaultPlan::none()).expect("adaptive elastic run failed")
    });
    for r in &reports {
        assert_eq!(r.steps_done, cfg.iters);
        assert_eq!(r.sync_steps + r.local_steps, cfg.iters);
        assert!(r.sync_steps >= 1, "adaptive schedule never synced");
        assert!(r.local_steps >= 1, "adaptive2 should skip some steps");
    }
    // The dispersion observations feeding the controller are rank-agreed,
    // so the schedules stayed in lockstep and the final re-average left
    // one model.
    assert_eq!(reports[0].sync_steps, reports[1].sync_steps);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&reports[0].final_params), bits(&reports[1].final_params));
}
