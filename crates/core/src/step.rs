//! The back half of a training step — plan → backward → sync → apply —
//! written once and shared by every trainer.
//!
//! Algorithm 1 is one loop, [`crate::trainer`]'s. It owns the front half
//! of an iteration (data → forward → loss) and hands a backward closure
//! to [`TrainStep::run`], which plans the step
//! ([`Plan`], known before backward because `Schedule::decide` is pure),
//! back-propagates through the per-layer hooks whenever the plan is
//! a gradient sync and overlap is on (whatever the topology or schedule: a
//! synchronizer that does not stream syncs once the whole gradient has
//! arrived), exchanges the one flat buffer, feeds the schedule its
//! dispersion statistic, and applies the update.
//!
//! **Failure contract.** `run` returns the transport's typed error when a
//! peer is lost, and the replica is then exactly as it was before the
//! step: a gradient-sync step applies nothing until its exchange has
//! returned, and the window-close path — which must step the optimizer
//! before it can form Δ — snapshots parameters and velocity first and
//! restores them. Schedule state and the window anchor advance only on
//! success. The synchronizer's private state (error-feedback memory) after
//! a failed exchange is unspecified: a recovery policy rebuilds
//! [`TrainStep::sync`] for the new world and retries the step.

use crate::checkpoint::{Checkpoint, SchedCheckpoint};
use crate::overlap::{HookLayout, HookedStep};
use crate::trainer::OptKind;
use a2sgd_sched::{SchedKind, Schedule, SyncDecision};
use cluster_comm::{CommHandle, TransportError};
use gradcomp::{GradientSynchronizer, Ledger, SyncStats};
use mini_nn::flat::{flatten_grads, flatten_params, load_params, param_count};
use mini_nn::hook::{GradHook, NullHook};
use mini_nn::module::Module;
use mini_nn::optim::Sgd;

/// Closes a trainer phase span opened at `start_ns` (free when tracing is
/// off: `closed_span` returns on its first branch).
pub(crate) fn phase(name: &'static str, start_ns: u64) {
    a2sgd_trace::closed_span(name, start_ns, a2sgd_trace::Args::None);
}

/// What a step does with the wire (the window semantics are
/// `a2sgd-sched`'s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Local-SGD step: no synchronizer, nothing crosses the wire.
    Local,
    /// Classic gradient averaging: every step of an unscheduled run, and
    /// the `Sync` closing a degenerate (zero-local-step) window — which is
    /// why `fixed1` is bit-identical to the unscheduled trainer.
    Gradient,
    /// The `Sync` closing a window of ≥ 1 local steps: apply this step's
    /// local update first, then average *parameters* as the
    /// pseudo-gradient `Δ = w_anchor − w` through the same synchronizer.
    WindowClose,
}

/// What one successful [`TrainStep::run`] did.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// The plan the step executed.
    pub plan: Plan,
    /// The exchange's accounting (all zero on [`Plan::Local`]).
    pub stats: SyncStats,
}

/// Everything a step's back half owns (see the module docs for the step
/// and its failure contract).
pub struct TrainStep {
    /// Public so a recovery policy can rebuild it for a new `(world, rank)`
    /// after a failed step, and run-end audits can read its `plane_traffic`.
    pub sync: Box<dyn GradientSynchronizer>,
    opt: Sgd,
    schedule: Schedule,
    scheduled: bool,
    /// The globally-agreed parameters as of the last sync (identical init
    /// across ranks plays the role of the initial broadcast). Empty when
    /// unscheduled.
    anchor: Vec<f32>,
    /// The bucket partition, derived once from the model; gradient syncs
    /// run through its hooks when `overlap_backward`.
    layout: HookLayout,
    overlap_backward: bool,
    flat: Vec<f32>,
    /// Pre-step parameters and velocity, filled on window-close steps only
    /// (buffers reused across windows).
    saved: (Vec<f32>, Vec<f32>),
}

impl TrainStep {
    /// Builds the step for `model`. `bucket_bytes` cuts the flat gradient
    /// at layer boundaries into the deterministic size-capped partition
    /// every rank on every backend derives identically (`None`: one
    /// bucket); `overlap_backward` drives gradient syncs from the
    /// per-layer hooks.
    pub fn new(
        model: &mut dyn Module,
        sync: Box<dyn GradientSynchronizer>,
        opt: OptKind,
        schedule: SchedKind,
        bucket_bytes: Option<usize>,
        overlap_backward: bool,
    ) -> Self {
        let scheduled = !schedule.is_every_step();
        let mut anchor = Vec::new();
        if scheduled {
            flatten_params(model, &mut anchor);
        }
        let layout = HookLayout::of(model, bucket_bytes);
        TrainStep {
            sync,
            opt: match opt {
                OptKind::Sgd { momentum, weight_decay } => Sgd::new(momentum, weight_decay),
                OptKind::Lars { momentum, weight_decay, trust } => {
                    Sgd::lars(momentum, weight_decay, trust)
                }
            },
            schedule: Schedule::new(schedule),
            scheduled,
            anchor,
            flat: Vec::with_capacity(layout.total()),
            layout,
            overlap_backward,
            saved: (Vec::new(), Vec::new()),
        }
    }

    /// The plan for (0-based) global step `iter` — pure, so it is known
    /// before backward and identical on every rank (the collectives would
    /// deadlock otherwise; see `a2sgd-sched`'s determinism contract).
    pub fn plan(&self, iter: u64) -> Plan {
        match self.schedule.decide(iter) {
            SyncDecision::Local => Plan::Local,
            SyncDecision::Sync if self.schedule.state().local_in_window == 0 => Plan::Gradient,
            SyncDecision::Sync => Plan::WindowClose,
        }
    }

    /// Runs step `iter`'s back half on a model whose forward pass and loss
    /// are done: `backward` back-propagates the loss gradient through the
    /// model with the hook it is handed. The step keeps no time of its
    /// own: the exchange's seconds come back in [`StepOutcome::stats`] and
    /// callers time the wall around their whole iteration. On `Err` the
    /// replica is untouched (see the module docs).
    pub fn run(
        &mut self,
        model: &mut dyn Module,
        comm: &mut CommHandle,
        iter: u64,
        lr: f32,
        backward: impl FnOnce(&mut dyn Module, &mut dyn GradHook),
    ) -> Result<StepOutcome, TransportError> {
        let plan = self.plan(iter);
        let want_disp = plan != Plan::Local && self.schedule.wants_dispersion();
        let bwd_ns = a2sgd_trace::now_ns();
        let stats = if plan == Plan::Gradient && self.overlap_backward {
            // The step opens before backward; each bucket is offered to
            // the synchronizer — a streaming one puts it straight on the
            // wire — the moment its last layer's gradient lands, while
            // earlier layers are still backpropagating. `try_finish`
            // drains the tail.
            let (layout, flat) = (&self.layout, &mut self.flat);
            let mut hooked = HookedStep::begin(layout, self.sync.as_mut(), flat, comm);
            backward(model, &mut hooked);
            phase("phase/backward", bwd_ns);
            let pre = want_disp.then(|| hooked.local_grad().to_vec());
            let ex_ns = a2sgd_trace::now_ns();
            let mut stats = hooked.try_finish()?;
            phase("phase/exchange", ex_ns);
            self.observe(&mut stats, pre, comm)?;
            stats
        } else {
            backward(model, &mut NullHook);
            flatten_grads(model, &mut self.flat);
            phase("phase/backward", bwd_ns);
            match plan {
                Plan::Local => {
                    a2sgd_trace::instant("sched/local", a2sgd_trace::Args::None);
                    SyncStats::default()
                }
                Plan::Gradient => self.sync_flat(want_disp, comm)?,
                Plan::WindowClose => {
                    // The only path that applies before it exchanges:
                    // keep the pre-step state to roll back to.
                    flatten_params(model, &mut self.saved.0);
                    self.opt.velocity().clone_into(&mut self.saved.1);
                    self.apply(model, lr);
                    flatten_params(model, &mut self.flat);
                    for (d, a) in self.flat.iter_mut().zip(&self.anchor) {
                        *d = a - *d;
                    }
                    match self.sync_flat(want_disp, comm) {
                        Ok(stats) => stats,
                        Err(e) => {
                            load_params(model, &self.saved.0);
                            self.opt.set_velocity(std::mem::take(&mut self.saved.1));
                            return Err(e);
                        }
                    }
                }
            }
        };

        // Commit: nothing below can fail.
        match plan {
            Plan::WindowClose => {
                // w ← w_anchor − Δ̄; the new parameters become the next
                // window's anchor.
                for (w, a) in self.flat.iter_mut().zip(&self.anchor) {
                    *w = a - *w;
                }
                load_params(model, &self.flat);
                self.anchor.copy_from_slice(&self.flat);
            }
            Plan::Local | Plan::Gradient => {
                self.apply(model, lr);
                // A degenerate-window sync under a schedule (post-local
                // warmup, `fixed1`) still refreshes the anchor: the next
                // window measures Δ from the just-synchronized state.
                if self.scheduled && plan == Plan::Gradient {
                    flatten_params(model, &mut self.anchor);
                }
            }
        }
        if plan == Plan::Local {
            self.schedule.record(SyncDecision::Local);
        } else {
            if self.scheduled {
                a2sgd_trace::instant("sched/sync", a2sgd_trace::Args::None);
            }
            self.schedule.record(SyncDecision::Sync);
        }
        Ok(StepOutcome { plan, stats })
    }

    /// The plain exchange over `self.flat` (gradient or Δ), then the
    /// schedule's dispersion observation.
    fn sync_flat(
        &mut self,
        want_disp: bool,
        comm: &mut CommHandle,
    ) -> Result<SyncStats, TransportError> {
        let pre = want_disp.then(|| self.flat.clone());
        let ex_ns = a2sgd_trace::now_ns();
        let mut stats = self.sync.try_sync_bucketed(&mut self.flat, self.layout.bounds(), comm)?;
        phase("phase/exchange", ex_ns);
        self.observe(&mut stats, pre, comm)?;
        Ok(stats)
    }

    /// Feeds an adaptive schedule its rank-agreed dispersion (`pre` is the
    /// pre-sync vector, `Some` exactly when the schedule asked): free when
    /// the exchange already carried one (A2SGD's gathered two-means
    /// packets), else one 128-bit drift allgather billed honestly into the
    /// accounting (bits and seconds). The schedule observes only once
    /// nothing can fail.
    fn observe(
        &mut self,
        stats: &mut SyncStats,
        pre: Option<Vec<f32>>,
        comm: &mut CommHandle,
    ) -> Result<(), TransportError> {
        let Some(pre) = pre else { return Ok(()) };
        let dispersion = match stats.dispersion {
            Some(d) => d,
            None => {
                let before = Ledger::read(comm);
                let d = gathered_dispersion(drift_sums(&pre, &self.flat), comm)?;
                let spent = before.spent(comm);
                stats.wire_bits += spent.wire_bits;
                stats.comm_seconds += spent.comm_seconds;
                d
            }
        };
        self.schedule.observe_sync(dispersion);
        Ok(())
    }

    /// Steps the optimizer on the flat gradient in `self.flat`.
    fn apply(&mut self, model: &mut dyn Module, lr: f32) {
        let opt_ns = a2sgd_trace::now_ns();
        self.opt.step_flat(model, &self.flat, lr);
        phase("phase/optimizer", opt_ns);
    }

    /// Algorithm 1 lines 9–10: the closing parameter re-synchronization.
    /// Replicas drift by their private residuals under A2SGD (a no-op
    /// disguised as an average under dense, where ranks are already
    /// bit-identical); the closing average collapses them to one model.
    /// Returns this rank's max parameter divergence from the average; on
    /// `Err` the parameters are untouched.
    pub fn resync(
        &mut self,
        model: &mut dyn Module,
        comm: &mut CommHandle,
    ) -> Result<f64, TransportError> {
        flatten_params(model, &mut self.flat);
        comm.try_allreduce_avg(&mut self.flat)?;
        // The model still holds this rank's own parameters; reading them
        // back only now keeps that copy out of the exchange's peak memory.
        let mut local = Vec::new();
        flatten_params(model, &mut local);
        load_params(model, &self.flat);
        Ok(local.iter().zip(&self.flat).fold(0.0f64, |d, (a, b)| d.max((a - b).abs() as f64)))
    }

    /// Snapshots the full training state — parameters, velocity, and (under a schedule) the window phase and anchor, so a resume
    /// re-enters a period mid-window bit-exactly.
    pub fn capture(&self, model: &mut dyn Module, step: u64, seed: u64) -> Checkpoint {
        let mut params = Vec::new();
        flatten_params(model, &mut params);
        let sched = self
            .scheduled
            .then(|| SchedCheckpoint { state: self.schedule.state(), anchor: self.anchor.clone() });
        Checkpoint { step, seed, params, velocity: self.opt.velocity().to_vec(), sched }
    }

    /// Adopts a [`capture`](Self::capture)d state (checkpoint resume,
    /// elastic catch-up). A snapshot without a schedule block starts a
    /// fresh window anchored at its parameters. A snapshot that does not
    /// fit the model — parameters, velocity (none or one value per
    /// parameter) or window anchor — is an `Err` that leaves the replica
    /// untouched.
    pub fn restore(&mut self, model: &mut dyn Module, c: &Checkpoint) -> Result<(), String> {
        let (n, p, v) = (param_count(model), c.params.len(), c.velocity.len());
        if p != n || !(v == 0 || v == n) {
            return Err(format!("checkpoint: {p} parameters, {v} velocity values; model: {n}"));
        }
        if let Some(sc) = c.sched.as_ref().filter(|sc| sc.anchor.len() != n) {
            return Err(format!(
                "checkpoint's schedule anchor has {} values, the model has {n} parameters",
                sc.anchor.len()
            ));
        }
        load_params(model, &c.params);
        self.opt.set_velocity(c.velocity.clone());
        if self.scheduled {
            match &c.sched {
                Some(sc) => {
                    self.schedule.load_state(sc.state);
                    self.anchor.clone_from(&sc.anchor);
                }
                None => self.anchor.clone_from(&c.params),
            }
        }
        Ok(())
    }
}

/// Local drift statistics for the explicit dispersion fallback: the
/// squared distance between this rank's pre-sync vector and the
/// synchronized result, plus the result's squared norm.
fn drift_sums(pre: &[f32], post: &[f32]) -> (f64, f64) {
    let mut drift = 0.0f64;
    let mut norm = 0.0f64;
    for (a, b) in pre.iter().zip(post) {
        let d = (*a as f64) - (*b as f64);
        drift += d * d;
        let p = *b as f64;
        norm += p * p;
    }
    (drift, norm)
}

/// The rank-agreed dispersion from an allgather of per-rank drift sums —
/// `Σ‖vᵢ − v̂ᵢ‖² / (Σ‖v̂ᵢ‖² + ε)` — accumulated in rank order in f64, so
/// every rank computes the bit-identical value (the adaptive schedule's
/// determinism requirement). Two u64 lanes per rank: 128 honest wire bits.
fn gathered_dispersion(local: (f64, f64), comm: &mut CommHandle) -> Result<f64, TransportError> {
    let gathered = comm.try_allgather(&[local.0.to_bits(), local.1.to_bits()])?;
    let mut drift = 0.0f64;
    let mut norm = 0.0f64;
    for v in &gathered {
        drift += f64::from_bits(v[0]);
        norm += f64::from_bits(v[1]);
    }
    Ok(drift / (norm + 1e-24))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::AlgoKind;
    use cluster_comm::{Cluster, NetworkProfile};
    use mini_nn::layers::Linear;
    use mini_nn::module::{Mode, ModuleExt};
    use mini_tensor::rng::SeedRng;
    use mini_tensor::Tensor;

    /// A peer lost during the exchange must leave parameters, velocity,
    /// schedule phase and window anchor bit-equal to their pre-step
    /// values — on the gradient path (nothing applied yet) and on the
    /// window-close path (optimizer already stepped: snapshot + restore).
    #[test]
    fn failed_step_leaves_the_replica_bit_identical() {
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.25 - 1.0).collect(), [2, 4]);
        let run = |ts: &mut TrainStep, model: &mut Linear, comm: &mut CommHandle, iter| {
            model.zero_grad();
            let y = model.forward(&x, Mode::Train);
            ts.run(model, comm, iter, 0.1, |m, hook| {
                m.backward_params(&y, hook);
            })
        };
        for (schedule, failing_plan) in
            [(SchedKind::EveryStep, Plan::Gradient), (SchedKind::Fixed(2), Plan::WindowClose)]
        {
            for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::TopK(0.25)] {
                let cluster = Cluster::new(2, NetworkProfile::infiniband_100g());
                let (mut comm, peer) = (cluster.handle(0), cluster.handle(1));
                let mut model = Linear::new("fc", 4, 3, &mut SeedRng::new(5));
                let opt = OptKind::Sgd { momentum: 0.9, weight_decay: 1e-3 };
                let sync = algo.build(15, 1, 0);
                let mut ts = TrainStep::new(&mut model, sync, opt, schedule, Some(16), false);

                // `fixed2` opens with one local step, which needs no peer
                // and leaves momentum and a window phase to preserve.
                let mut iter = 0;
                if failing_plan == Plan::WindowClose {
                    let out = run(&mut ts, &mut model, &mut comm, iter).unwrap();
                    assert_eq!(out.plan, Plan::Local);
                    iter += 1;
                }
                let before = ts.capture(&mut model, iter, 0);
                if failing_plan == Plan::WindowClose {
                    assert!(!before.velocity.is_empty());
                    assert_eq!(before.sched.as_ref().unwrap().state.local_in_window, 1);
                }

                drop(peer);
                assert_eq!(ts.plan(iter), failing_plan);
                let what = format!("{} {failing_plan:?}", algo.name());
                assert!(run(&mut ts, &mut model, &mut comm, iter).is_err(), "{what}");
                let after = ts.capture(&mut model, iter, 0);
                assert_eq!(after.encode(), before.encode(), "{what}");
            }
        }
    }

    /// One `fixed2` local step of a 4 → 3 `Linear` on one rank: the
    /// step, its model, and the capture it leaves (velocity and a window
    /// phase of one).
    fn after_one_local_step(momentum: f32) -> (TrainStep, Linear, Checkpoint) {
        let cluster = Cluster::new(1, NetworkProfile::infiniband_100g());
        let mut comm = cluster.handle(0);
        let mut model = Linear::new("fc", 4, 3, &mut SeedRng::new(5));
        let opt = OptKind::Sgd { momentum, weight_decay: 1e-3 };
        let sync = AlgoKind::Dense.build(15, 1, 0);
        let mut ts = TrainStep::new(&mut model, sync, opt, SchedKind::Fixed(2), None, false);
        let x = Tensor::from_vec((0..8).map(|i| i as f32 * 0.25 - 1.0).collect(), [2, 4]);
        let y = model.forward(&x, Mode::Train);
        let out = ts.run(&mut model, &mut comm, 0, 0.1, |m, hook| m.backward_params(&y, hook));
        assert_eq!(out.unwrap().plan, Plan::Local);
        let c = ts.capture(&mut model, 1, 0);
        assert_eq!(c.sched.as_ref().unwrap().state.local_in_window, 1);
        (ts, model, c)
    }

    /// A snapshot that does not fit the model (it arrives off the network
    /// at elastic catch-up) is refused, naming `why`, before anything is
    /// adopted: parameters, velocity and window phase stay as they were,
    /// instead of loading and silently re-anchoring at the params.
    fn refused(
        ts: &mut TrainStep,
        model: &mut Linear,
        before: &Checkpoint,
        mut bad: Checkpoint,
        why: &str,
    ) {
        bad.params.iter_mut().for_each(|w| *w += 1.0);
        bad.velocity.iter_mut().for_each(|v| *v += 1.0);
        bad.sched.as_mut().unwrap().state.local_in_window = 0;
        let err = ts.restore(model, &bad).expect_err(why);
        assert!(err.contains(why), "{err}");
        assert_eq!(ts.capture(model, 1, 0).encode(), before.encode());
    }

    #[test]
    fn restore_rejects_a_mis_sized_anchor() {
        let (mut ts, mut model, before) = after_one_local_step(0.9);
        let mut bad = before.clone();
        bad.sched.as_mut().unwrap().anchor.pop();
        let why = "anchor has 14 values, the model has 15 parameters";
        refused(&mut ts, &mut model, &before, bad, why);
    }

    /// Velocity is all or nothing: a snapshot carries none or one value
    /// per parameter.
    #[test]
    fn restore_rejects_a_mis_sized_velocity() {
        let (mut ts, mut model, before) = after_one_local_step(0.9);
        for len in [1, 14, 16] {
            let mut bad = before.clone();
            bad.velocity.resize(len, 0.5);
            let why = format!("15 parameters, {len} velocity values; model: 15");
            refused(&mut ts, &mut model, &before, bad, &why);
        }
    }

    /// Momentum-free SGD keeps no velocity, so its snapshots (and the
    /// elastic catch-up that broadcasts them) carry none.
    #[test]
    fn momentum_free_steps_capture_no_velocity() {
        let (_, _, c) = after_one_local_step(0.0);
        assert!(c.velocity.is_empty(), "{} velocity values", c.velocity.len());
    }
}
