//! `TrainConfig::checkpoint_every` end to end. One test in a binary of its
//! own: it sets `A2SGD_CKPT_DIR` for the whole process, which no other
//! test thread may be reading at the time.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::train;
use a2sgd::{Checkpoint, SchedKind};
use mini_nn::flat::param_count;
use mini_nn::models::{ModelKind, Preset};

#[test]
fn train_writes_decodable_checkpoints_on_the_cadence() {
    let seed = 31;
    let mut cfg = scaled_convergence_config(ModelKind::Fnn3, AlgoKind::A2sgd, 2, seed);
    cfg.epochs = 1;
    cfg.train_size = 320;
    cfg.eval_size = 160;
    cfg.schedule = SchedKind::Fixed(4);
    cfg.checkpoint_every = Some(4);

    // A cadence with nowhere to write fails at start-up, naming the
    // variable — it used to train to the end and write nothing.
    std::env::remove_var(a2sgd::checkpoint::ENV_CKPT_DIR);
    let refused = std::panic::catch_unwind(|| train(&cfg)).expect_err("no directory, no run");
    let msg = refused.downcast_ref::<String>().expect("panic message");
    assert!(msg.contains("A2SGD_CKPT_DIR"), "message must name the variable: {msg}");

    let dir = std::env::temp_dir().join(format!("a2sgd-train-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var(a2sgd::checkpoint::ENV_CKPT_DIR, &dir);
    let rep = train(&cfg);

    let n = param_count(ModelKind::Fnn3.build(Preset::Scaled, seed).as_mut());
    let written = rep.iters / 4;
    assert!(written >= 2, "run too short to exercise the cadence ({} iters)", rep.iters);
    for k in 1..=written as u64 {
        let c = Checkpoint::read(&dir.join(Checkpoint::file_name(4 * k)))
            .unwrap_or_else(|e| panic!("checkpoint {k}: {e}"));
        assert_eq!((c.step, c.seed, c.params.len()), (4 * k, seed, n));
        assert_eq!(c.velocity.len(), n);
        // Every snapshot lands right after a `fixed4` window closed.
        let sched = c.sched.expect("scheduled run must carry its window phase");
        assert_eq!(
            (sched.state.local_in_window, sched.state.current_h, sched.anchor.len()),
            (0, 4, n)
        );
    }
    assert_eq!(Checkpoint::latest_in(&dir).map(|(step, _)| step), Some(4 * written as u64));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), written, "rank 0 alone writes");
    let _ = std::fs::remove_dir_all(&dir);
}
