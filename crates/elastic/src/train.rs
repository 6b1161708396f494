//! Shrink-and-continue training: a **recovery policy** around the shared
//! step.
//!
//! The training step itself — backward → sync → dispersion → optimizer →
//! anchor, for every registry synchronizer and every sync schedule — is
//! [`a2sgd::step::TrainStep`], the same code `a2sgd::train` runs. It is
//! fallible end to end: a dying rank surfaces as a [`TransportError`]
//! value at the exact iteration it happened, with the replica exactly as
//! it was before the step. What lives here is only what is genuinely
//! elastic — the kill script, the heartbeat, and the reaction to an `Err`:
//!
//! 1. a step returns `Err` (or a heartbeat marks a peer dead);
//! 2. [`ElasticComm::shrink_and_reconnect`] — census, identical shrunken
//!    [`cluster_comm::WorldSpec`] on every survivor, fresh TCP world on
//!    the next epoch's master port;
//! 3. the synchronizer is rebuilt through `AlgoKind::build` for the new
//!    `(world, rank)` — its private state (error-feedback memory, RNG
//!    stream) after a failed exchange is unspecified, so it starts fresh;
//! 4. catch-up: the new rank 0 broadcasts its full training state (step,
//!    parameters, velocity lanes, schedule phase + window anchor) so every
//!    survivor — including a cold restart that loaded an
//!    [`a2sgd::Checkpoint`] — resumes from the same consistent state;
//! 5. the interrupted step is retried in the shrunken world.
//!
//! Because the loop is synchronous, no survivor can have applied the
//! interrupted step (the collective needs every rank), so retrying it is
//! exact, not a heuristic. The closing Algorithm-1 re-synchronization runs
//! under the same policy.
//!
//! The model stays a deterministic least-squares probe — a bias-carrying
//! `mini_nn` `Linear` under `½·mean((x·w + b − y)²)` over a
//! SplitMix64-synthesized dataset: small enough that a soak test can run
//! dozens of iterations over real sockets in seconds, convex enough that
//! "still converges after losing a rank" is a crisp, assertable claim.
//!
//! Out of scope: `Topology::Hier` under elastic shrink. A 4 → 3 world has
//! no valid `group_size`, so re-forming groups needs a regrouping policy
//! this crate does not have yet (ROADMAP open item 9).

use crate::fault::{splitmix64, FaultPlan};
use crate::membership::Membership;
use crate::recover::ElasticComm;
use a2sgd::step::{Plan, StepOutcome, TrainStep};
use a2sgd::{AlgoKind, Checkpoint, OptKind};
use a2sgd_sched::SchedKind;
use cluster_comm::{CommHandle, TransportError};
use mini_nn::flat::{flatten_params, load_params, param_sizes};
use mini_nn::layers::Linear;
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;
use std::path::PathBuf;

/// Configuration for one elastic run. Everything is derived from `seed`,
/// so two runs with equal configs are bit-identical.
#[derive(Debug, Clone)]
pub struct ElasticTrainConfig {
    /// Feature dimension (the probe has `dim` weights plus one bias).
    pub dim: usize,
    /// Synthetic dataset size (samples).
    pub samples: usize,
    /// Mini-batch per rank per step.
    pub batch_per_worker: usize,
    /// Total steps to train (global step counter target).
    pub iters: u64,
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// Master seed: dataset, hidden target, synchronizer streams, fault
    /// schedules.
    pub seed: u64,
    /// Gradient synchronizer — any registry algorithm; rebuilt for the new
    /// `(world, rank)` at every recovery.
    pub algo: AlgoKind,
    /// Sync schedule: which steps run `algo` at all (see
    /// [`a2sgd::step::Plan`] for the local / gradient / window-close
    /// semantics — identical to `a2sgd::train`'s).
    pub schedule: SchedKind,
    /// `Some(k)`: the current rank 0 snapshots state every `k` steps into
    /// `ckpt_dir`.
    pub checkpoint_every: Option<u64>,
    /// Checkpoint directory (required when `checkpoint_every` is set).
    pub ckpt_dir: Option<PathBuf>,
    /// Cold-restart source: load this checkpoint before training; its
    /// state then flows to every rank through the catch-up broadcast.
    pub resume_from: Option<PathBuf>,
}

impl ElasticTrainConfig {
    /// A small, fast-converging default used by the soak tests.
    pub fn probe(seed: u64) -> Self {
        ElasticTrainConfig {
            dim: 8,
            samples: 256,
            batch_per_worker: 8,
            iters: 30,
            lr: 0.4,
            momentum: 0.9,
            seed,
            algo: AlgoKind::Dense,
            schedule: SchedKind::EveryStep,
            checkpoint_every: None,
            ckpt_dir: None,
            resume_from: None,
        }
    }
}

/// What one rank's elastic run produced.
#[derive(Debug, Clone, Default)]
pub struct ElasticRunReport {
    /// Full-dataset loss at the final parameters.
    pub final_loss: f64,
    /// Final flat parameters (`dim` weights, then the bias) —
    /// bit-identical across survivors (the loop closes with Algorithm 1's
    /// parameter re-synchronization, which collapses A2SGD's per-rank
    /// residual drift).
    pub final_params: Vec<f32>,
    /// World size when training finished.
    pub world_at_end: usize,
    /// Number of shrink-and-continue recoveries performed.
    pub recoveries: usize,
    /// Steps actually applied (equals `iters` for completed runs).
    pub steps_done: u64,
    /// Steps that ran the configured gradient/parameter sync.
    pub sync_steps: u64,
    /// Steps that skipped the synchronizer under the sync schedule
    /// (`sync_steps + local_steps == steps_done`).
    pub local_steps: u64,
    /// True when this rank was a scripted casualty (it returns early with
    /// the state it had at death; peers recover without it).
    pub killed: bool,
}

/// `[0, 1)` float from a hash lane.
fn unit(h: u64) -> f32 {
    ((h >> 40) as f32) / (1u64 << 24) as f32
}

/// The least-squares probe's dataset: features and labels are a pure
/// function of the seed (labels come from a hidden bias-free weight
/// vector), so every rank of every world rebuilds it without an exchange.
struct Probe {
    x: Vec<f32>,
    y: Vec<f32>,
    dim: usize,
}

impl Probe {
    fn new(cfg: &ElasticTrainConfig) -> Self {
        let (seed, dim) = (cfg.seed, cfg.dim);
        let wstar: Vec<f32> = (0..dim)
            .map(|j| unit(splitmix64(seed ^ 0x57A7 ^ (j as u64) << 32)) * 2.0 - 1.0)
            .collect();
        let x: Vec<f32> = (0..cfg.samples * dim)
            .map(|ij| unit(splitmix64(seed ^ (1 + ij as u64))) * 2.0 - 1.0)
            .collect();
        let y = x.chunks_exact(dim).map(|row| row.iter().zip(&wstar).map(|(a, b)| a * b).sum());
        Probe { y: y.collect(), x, dim }
    }

    /// The zero-initialised model (`pred = x·w + b`).
    fn model(&self) -> Linear {
        let mut lin = Linear::new("probe", self.dim, 1, &mut SeedRng::new(0));
        load_params(&mut lin, &vec![0.0; self.dim + 1]);
        lin
    }

    /// Rows `idx` as a `[len, dim]` batch plus their labels.
    fn rows(&self, idx: impl Iterator<Item = usize>) -> (Tensor, Vec<f32>) {
        let (mut x, mut y) = (Vec::new(), Vec::new());
        for i in idx {
            x.extend_from_slice(&self.x[i * self.dim..(i + 1) * self.dim]);
            y.push(self.y[i]);
        }
        let len = y.len();
        (Tensor::from_vec(x, [len, self.dim]), y)
    }

    /// One training step's front half — this rank's mini-batch (sample
    /// indices are a pure function of `(step, world, rank)`, so the shard
    /// layout re-derives cleanly after a shrink), forward, squared-error
    /// gradient — handed to the shared back half.
    fn step(
        &self,
        cfg: &ElasticTrainConfig,
        model: &mut Linear,
        ts: &mut TrainStep,
        comm: &mut CommHandle,
        step: u64,
    ) -> Result<StepOutcome, TransportError> {
        let b = cfg.batch_per_worker;
        let first = (step as usize * comm.world() + comm.rank()) * b;
        let (x, y) = self.rows((first..first + b).map(|i| i % self.y.len()));
        model.zero_grad();
        let (_, dpred) = squared_error(&model.forward(&x, Mode::Train), &y);
        ts.run(model, comm, step, cfg.lr, |m, hook| {
            m.backward_params(&dpred, hook);
        })
    }
}

/// `½·mean((pred − y)²)` and its gradient with respect to `pred`.
fn squared_error(pred: &Tensor, y: &[f32]) -> (f64, Tensor) {
    let inv = 1.0 / y.len() as f32;
    let err: Vec<f32> = pred.as_slice().iter().zip(y).map(|(p, t)| p - t).collect();
    let loss = err.iter().map(|e| 0.5 * (*e as f64) * (*e as f64)).sum::<f64>() / y.len() as f64;
    (loss, Tensor::from_vec(err.iter().map(|e| e * inv).collect(), [y.len(), 1]))
}

/// Mean-squared loss `½·mean((x·w + b − y)²)` over the whole dataset at
/// flat parameters `params` (`dim` weights, then the bias).
pub fn full_loss(cfg: &ElasticTrainConfig, params: &[f32]) -> f64 {
    let probe = Probe::new(cfg);
    let mut model = probe.model();
    load_params(&mut model, params);
    let (x, y) = probe.rows(0..cfg.samples);
    squared_error(&model.forward(&x, Mode::Eval), &y).0
}

/// Post-(re)connect state alignment: the current rank 0 broadcasts its
/// [`TrainStep::capture`] — step, parameters, velocity lanes, and under a
/// schedule the window phase and anchor — in the checkpoint codec, and
/// everyone restores it. One bit-exact encoding for disk and wire, so
/// survivors stay bit-identical and a cold restart re-enters the period at
/// rank 0's phase instead of restarting the window.
fn catch_up(
    comm: &mut CommHandle,
    ts: &mut TrainStep,
    model: &mut Linear,
    step: &mut u64,
    seed: u64,
) -> Result<(), String> {
    let net = |e: TransportError| e.to_string();
    let mut bytes = ts.capture(model, *step, seed).encode();
    // Rank 0's snapshot can outgrow ours only by velocity lanes we do not
    // have yet: bound the announced length before allocating for it.
    let cap = bytes.len() + param_sizes(model).iter().map(|n| 8 + 4 * n).sum::<usize>();
    let mut len = [bytes.len() as u64];
    comm.try_broadcast(0, &mut len).map_err(net)?;
    if len[0] > cap as u64 {
        return Err(format!("catch-up snapshot of {} bytes, this model needs ≤ {cap}", len[0]));
    }
    bytes.resize(len[0] as usize, 0);
    comm.try_broadcast(0, &mut bytes).map_err(net)?;
    let c = Checkpoint::decode(&bytes)?;
    ts.restore(model, &c)?;
    *step = c.step;
    Ok(())
}

/// The reaction to a lost peer: shrink and re-rendezvous, rebuild the
/// synchronizer for the new `(world, rank)`, and catch every survivor up
/// to the new rank 0. The caller then retries whatever was interrupted.
fn recover(
    ec: ElasticComm,
    cfg: &ElasticTrainConfig,
    ts: &mut TrainStep,
    model: &mut Linear,
    step: &mut u64,
) -> Result<ElasticComm, String> {
    let mut ec = ec.shrink_and_reconnect()?;
    ts.sync = cfg.algo.build(cfg.dim + 1, cfg.seed ^ 0x5EED, ec.rank());
    catch_up(&mut ec.comm, ts, model, step, cfg.seed)
        .map_err(|e| format!("catch-up after recovery: {e}"))?;
    Ok(ec)
}

/// Runs the elastic training loop on `ec` under the (per-rank) fault
/// plan. Returns this rank's report; a scripted casualty returns early
/// with `killed: true` while its peers shrink and finish without it.
pub fn train_elastic(
    mut ec: ElasticComm,
    cfg: &ElasticTrainConfig,
    plan: &FaultPlan,
) -> Result<ElasticRunReport, String> {
    if a2sgd_trace::enabled() {
        a2sgd_trace::set_thread_rank(ec.orig_rank);
    }
    let probe = Probe::new(cfg);
    let mut model = probe.model();
    let mut ts = TrainStep::new(
        &mut model,
        cfg.algo.build(cfg.dim + 1, cfg.seed ^ 0x5EED, ec.rank()),
        OptKind::Sgd { momentum: cfg.momentum, weight_decay: 0.0 },
        cfg.schedule,
        None,
        false,
    );
    let mut step = 0u64;
    if let Some(path) = &cfg.resume_from {
        let c = Checkpoint::read(path)?;
        if c.seed != cfg.seed {
            return Err(format!("checkpoint seed {:#x} != config seed {:#x}", c.seed, cfg.seed));
        }
        ts.restore(&mut model, &c)?;
        step = c.step;
    }
    // Everyone adopts rank 0's state — no-op on a fresh start, the resume
    // fan-out on a cold restart.
    catch_up(&mut ec.comm, &mut ts, &mut model, &mut step, cfg.seed)?;

    let ckpt = cfg.checkpoint_every.zip(cfg.ckpt_dir.clone());
    let mut member = Membership::new(ec.rank(), ec.world());
    let mut first_sync_pending = false;
    // Counters accumulate in the report; `seal` fills in the final state.
    let mut rep = ElasticRunReport::default();
    let seal = |mut rep: ElasticRunReport, model: &mut Linear, world, step, killed| {
        flatten_params(model, &mut rep.final_params);
        rep.final_loss = full_loss(cfg, &rep.final_params);
        (rep.world_at_end, rep.steps_done, rep.killed) = (world, step, killed);
        rep
    };

    while step < cfg.iters {
        if plan.kill_at_iter == Some(step) {
            // Scripted death: drop everything without a goodbye — to the
            // peers this is indistinguishable from a SIGKILL.
            a2sgd_trace::instant("elastic/killed", a2sgd_trace::Args::Value(step as f64));
            return Ok(seal(rep, &mut model, ec.world(), step, true));
        }

        // Heartbeat plane: notice silent deaths between collectives.
        let healthy = member.beat(ec.comm.transport_mut()).is_empty()
            && match probe.step(cfg, &mut model, &mut ts, &mut ec.comm, step) {
                Ok(out) => {
                    if out.plan == Plan::Local {
                        rep.local_steps += 1;
                    } else {
                        rep.sync_steps += 1;
                        if std::mem::take(&mut first_sync_pending) {
                            a2sgd_trace::instant(
                                "elastic/first_sync",
                                a2sgd_trace::Args::Value(step as f64),
                            );
                        }
                    }
                    step += 1;
                    ts.checkpoint_if_due(&mut model, ckpt.as_ref(), ec.rank(), step, cfg.seed)?;
                    true
                }
                Err(e) => {
                    // A bad frame is a peer out of step with this one: the
                    // census below settles who is left, as for a dead link.
                    let (TransportError::PeerClosed { peer, .. }
                    | TransportError::SendFailed { peer, .. }
                    | TransportError::BadFrame { peer, .. }) = e;
                    a2sgd_trace::instant(
                        "elastic/peer_dead",
                        a2sgd_trace::Args::Value(peer as f64),
                    );
                    false
                }
            };
        if !healthy {
            // Shrink-and-continue, then retry the interrupted step in the
            // smaller world.
            ec = recover(ec, cfg, &mut ts, &mut model, &mut step)?;
            member = Membership::new(ec.rank(), ec.world());
            rep.recoveries += 1;
            first_sync_pending = true;
        }
    }

    // Algorithm 1 lines 9–10, elastic to the end: a death here recovers
    // and retries like any other step.
    while ts.resync(&mut model, &mut ec.comm).is_err() {
        ec = recover(ec, cfg, &mut ts, &mut model, &mut step)?;
        rep.recoveries += 1;
    }

    Ok(seal(rep, &mut model, ec.world(), step, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn dense_and_a2sgd_agree_across_ranks_and_converge() {
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let cfg = ElasticTrainConfig { algo, ..ElasticTrainConfig::probe(11) };
            // Plain (non-elastic) loop over the in-proc backend: the step
            // is backend-agnostic, so this pins convergence and cross-rank
            // agreement cheaply.
            let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
                let probe = Probe::new(&cfg);
                let mut model = probe.model();
                let mut ts = TrainStep::new(
                    &mut model,
                    cfg.algo.build(cfg.dim + 1, cfg.seed ^ 0x5EED, h.rank()),
                    OptKind::Sgd { momentum: cfg.momentum, weight_decay: 0.0 },
                    cfg.schedule,
                    None,
                    false,
                );
                for step in 0..cfg.iters {
                    probe.step(&cfg, &mut model, &mut ts, h, step).unwrap();
                }
                // Algorithm 1 lines 9–10: collapse residual drift.
                ts.resync(&mut model, h).unwrap();
                let mut w = Vec::new();
                flatten_params(&mut model, &mut w);
                (full_loss(&cfg, &w), w)
            });
            let (loss0, w0) = &out[0];
            let (loss1, w1) = &out[1];
            assert_eq!(
                w0.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                w1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{}: ranks diverged",
                algo.name()
            );
            assert_eq!(loss0, loss1);
            let start = full_loss(&cfg, &vec![0.0; cfg.dim + 1]);
            // The two-mean quantizer trades per-step accuracy for the
            // O(1) packet, so it needs a looser bar at equal iterations.
            let bar = if algo == AlgoKind::Dense { 0.05 } else { 0.3 };
            assert!(
                *loss0 < start * bar,
                "{} failed to converge: {loss0} (start {start})",
                algo.name()
            );
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let cfg = ElasticTrainConfig::probe(3);
        let (a, b) = (Probe::new(&cfg), Probe::new(&cfg));
        assert_eq!((&a.x, &a.y), (&b.x, &b.y));
        // Different ranks see different batches of the same step.
        let batch = |rank: usize| {
            let first = (4 * 3 + rank) * cfg.batch_per_worker;
            a.rows((first..first + cfg.batch_per_worker).map(|i| i % cfg.samples)).1
        };
        assert_ne!(batch(1), batch(2));
    }
}
