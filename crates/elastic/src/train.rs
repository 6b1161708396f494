//! Shrink-and-continue training.
//!
//! [`train_elastic`] is a synchronous data-parallel SGD loop built
//! entirely on the comm layer's *fallible* surface: every collective is a
//! `try_*` call, so a dying rank surfaces as a [`TransportError`] value at
//! the exact iteration it happened, and the loop's reaction — census,
//! shrink, re-rendezvous, catch-up, retry the same step — is ordinary
//! control flow instead of unwinding.
//!
//! The model is a deterministic least-squares probe (`min_w ½‖Xw − y‖²`
//! over a SplitMix64-synthesized dataset): small enough that a soak test
//! can run dozens of iterations over real sockets in seconds, convex
//! enough that "still converges after losing a rank" is a crisp,
//! assertable claim. Gradients sync either densely
//! ([`SyncKind::Dense`], exact averaging) or through the paper's A2SGD
//! two-mean encoding ([`SyncKind::A2sgd`]): each rank ships only
//! `(µ⁺, µ⁻, n⁺, n⁻)` — the O(1) packet — keeps its residual ε locally,
//! and reconstructs `ε + sign·µ̄±` from the count-weighted global means.
//!
//! Recovery protocol, in step order:
//!
//! 1. a collective returns `Err` (or a heartbeat marks a peer dead);
//! 2. [`ElasticComm::shrink_and_reconnect`] — census, identical shrunken
//!    [`cluster_comm::WorldSpec`] on every survivor, fresh TCP world on
//!    the next epoch's master port;
//! 3. catch-up: the new rank 0 broadcasts `(step, w, velocity)` so every
//!    survivor — including a cold restart that loaded an
//!    [`a2sgd::Checkpoint`] — resumes from the same consistent state;
//! 4. the interrupted step is retried in the shrunken world.
//!
//! Because the loop is synchronous, no survivor can have applied the
//! interrupted step (the collective needs every rank), so retrying it is
//! exact, not a heuristic.

use crate::fault::{splitmix64, FaultPlan};
use crate::membership::Membership;
use crate::recover::ElasticComm;
use a2sgd::{Checkpoint, SchedCheckpoint};
use a2sgd_sched::{SchedKind, SchedState, SyncDecision, SyncObservation, SyncSchedule};
use cluster_comm::{CommHandle, TransportError};
use std::path::PathBuf;

/// Gradient synchronization flavor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncKind {
    /// Exact dense allreduce-average.
    #[default]
    Dense,
    /// A2SGD two-mean averaging: O(1) bytes per rank on the wire, local
    /// residual feedback (Algorithm 1 of the paper).
    A2sgd,
}

/// Configuration for one elastic run. Everything is derived from `seed`,
/// so two runs with equal configs are bit-identical.
#[derive(Debug, Clone)]
pub struct ElasticTrainConfig {
    /// Model/feature dimension.
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
    /// Master seed: dataset, hidden target, fault schedules.
    pub seed: u64,
    /// Gradient sync flavor.
    pub sync: SyncKind,
    /// Sync schedule: which steps run `sync` at all. `Local` steps apply
    /// the purely local SGD update (zero wire traffic); the `Sync` step
    /// closing an H-step window averages *parameters* as the
    /// pseudo-gradient `Δ = w_anchor − w` through the same `sync` path, so
    /// under [`SyncKind::A2sgd`] a whole window of training still costs
    /// one 64-bit packet. Degenerate (length-1) windows take the classic
    /// gradient path, making `fixed1` bit-identical to `every`.
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
            sync: SyncKind::Dense,
            schedule: SchedKind::EveryStep,
            checkpoint_every: None,
            ckpt_dir: None,
            resume_from: None,
        }
    }
}

/// What one rank's elastic run produced.
#[derive(Debug, Clone)]
pub struct ElasticRunReport {
    /// Full-dataset loss at the final parameters.
    pub final_loss: f64,
    /// Final parameter vector — bit-identical across survivors (the loop
    /// closes with Algorithm 1's parameter re-synchronization, which
    /// collapses A2SGD's per-rank residual drift).
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

/// Feature `j` of sample `i` — pure function of the seed.
fn feature(seed: u64, i: usize, j: usize, dim: usize) -> f32 {
    unit(splitmix64(seed ^ (1 + i as u64 * dim as u64 + j as u64))) * 2.0 - 1.0
}

/// The hidden target weight vector the labels are synthesized from.
fn hidden_w(seed: u64, dim: usize) -> Vec<f32> {
    (0..dim).map(|j| unit(splitmix64(seed ^ 0x57A7 ^ (j as u64) << 32)) * 2.0 - 1.0).collect()
}

fn label(seed: u64, i: usize, dim: usize, wstar: &[f32]) -> f32 {
    (0..dim).map(|j| feature(seed, i, j, dim) * wstar[j]).sum()
}

/// Mean-squared loss `½·mean((x·w − y)²)` over the whole dataset.
pub fn full_loss(cfg: &ElasticTrainConfig, w: &[f32]) -> f64 {
    let wstar = hidden_w(cfg.seed, cfg.dim);
    let mut acc = 0.0f64;
    for i in 0..cfg.samples {
        let pred: f32 = (0..cfg.dim).map(|j| feature(cfg.seed, i, j, cfg.dim) * w[j]).sum();
        let err = (pred - label(cfg.seed, i, cfg.dim, &wstar)) as f64;
        acc += 0.5 * err * err;
    }
    acc / cfg.samples as f64
}

/// This rank's local mini-batch gradient at `step` — sample indices are a
/// pure function of `(step, world, rank)`, so the shard layout is
/// identical on every run and re-derives cleanly after a shrink.
fn local_grad(
    cfg: &ElasticTrainConfig,
    step: u64,
    world: usize,
    rank: usize,
    w: &[f32],
) -> Vec<f32> {
    let wstar = hidden_w(cfg.seed, cfg.dim);
    let mut g = vec![0.0f32; cfg.dim];
    let b = cfg.batch_per_worker;
    for k in 0..b {
        let i = ((step as usize * world + rank) * b + k) % cfg.samples;
        let pred: f32 = (0..cfg.dim).map(|j| feature(cfg.seed, i, j, cfg.dim) * w[j]).sum();
        let err = pred - label(cfg.seed, i, cfg.dim, &wstar);
        for (j, gj) in g.iter_mut().enumerate() {
            *gj += err * feature(cfg.seed, i, j, cfg.dim);
        }
    }
    for gj in &mut g {
        *gj /= b as f32;
    }
    g
}

/// One fallible gradient sync. Dense: exact average. A2SGD: allgather the
/// O(1) `(µ⁺, µ⁻, n⁺, n⁻)` packet and shift each sign class of `g` from
/// its local mean to the count-weighted global one (the residual stays
/// local). `g` is untouched when the exchange fails.
fn sync_gradient(
    comm: &mut CommHandle,
    kind: SyncKind,
    g: &mut [f32],
) -> Result<(), TransportError> {
    match kind {
        SyncKind::Dense => comm.try_allreduce_avg(g),
        SyncKind::A2sgd => {
            let means = a2sgd::split_means(g);
            let packet = [
                means.mu_pos.to_bits() as u64,
                means.mu_neg.to_bits() as u64,
                means.n_pos as u64,
                means.n_neg as u64,
            ];
            let all = comm.try_allgather(&packet)?;
            let (mut pos, mut neg, mut np, mut nn) = (0.0f64, 0.0f64, 0u64, 0u64);
            for p in &all {
                let (mp, mn) = (f32::from_bits(p[0] as u32), f32::from_bits(p[1] as u32));
                pos += mp as f64 * p[2] as f64;
                neg += mn as f64 * p[3] as f64;
                np += p[2];
                nn += p[3];
            }
            let mu_pos = if np > 0 { (pos / np as f64) as f32 } else { 0.0 };
            let mu_neg = if nn > 0 { (neg / nn as f64) as f32 } else { 0.0 };
            let (d_pos, d_neg) = means.shift_to(mu_pos, mu_neg);
            a2sgd::shift_by_sign(g, d_pos, d_neg);
            Ok(())
        }
    }
}

/// Post-(re)connect state alignment: the current rank 0 broadcasts
/// `(step, w, velocity)` and everyone adopts it. f32 payloads travel as
/// exact bit patterns, so survivors stay bit-identical.
fn catch_up(
    comm: &mut CommHandle,
    w: &mut [f32],
    vel: &mut [f32],
    step: &mut u64,
) -> Result<(), TransportError> {
    let mut hdr = [*step];
    comm.try_broadcast(0, &mut hdr)?;
    *step = hdr[0];
    comm.try_broadcast(0, w)?;
    comm.try_broadcast(0, vel)?;
    Ok(())
}

/// Schedule-phase alignment, run right after [`catch_up`] whenever a
/// non-trivial schedule is configured: the current rank 0 broadcasts its
/// window phase (`local_in_window`, the adaptive period, the adaptive
/// reference dispersion as exact bits) plus the window-anchor parameters,
/// so survivors — and a cold restart that loaded the checkpoint's
/// [`SchedCheckpoint`] — re-enter the period at the same point instead of
/// restarting the window from scratch.
fn catch_up_schedule(
    comm: &mut CommHandle,
    schedule: &mut dyn SyncSchedule,
    anchor: &mut [f32],
) -> Result<(), TransportError> {
    let s = schedule.state();
    let mut hdr = [s.local_in_window, s.current_h, s.ref_dispersion.to_bits()];
    comm.try_broadcast(0, &mut hdr)?;
    schedule.load_state(SchedState {
        local_in_window: hdr[0],
        current_h: hdr[1],
        ref_dispersion: f64::from_bits(hdr[2]),
    });
    comm.try_broadcast(0, anchor)?;
    Ok(())
}

/// Rank-agreed dispersion for adaptive schedules: every rank contributes
/// `(Σ(pre−post)², Σpost²)` over the quantity it just synchronized, the
/// sums are combined in rank order from exact f64 bit patterns, and the
/// ratio is identical everywhere — safe to feed a schedule controller
/// that must stay in lockstep.
fn gathered_dispersion(
    comm: &mut CommHandle,
    pre: &[f32],
    post: &[f32],
) -> Result<f64, TransportError> {
    let mut drift = 0.0f64;
    let mut norm = 0.0f64;
    for (a, b) in pre.iter().zip(post) {
        let d = (*a - *b) as f64;
        drift += d * d;
        norm += (*b as f64) * (*b as f64);
    }
    let all = comm.try_allgather(&[drift.to_bits(), norm.to_bits()])?;
    let (mut dsum, mut nsum) = (0.0f64, 0.0f64);
    for lane in &all {
        dsum += f64::from_bits(lane[0]);
        nsum += f64::from_bits(lane[1]);
    }
    Ok(dsum / (nsum + 1e-24))
}

/// Rank 0 snapshots `(step, w, vel)` — plus the schedule phase and window
/// anchor under a non-trivial schedule — whenever `step` lands on the
/// checkpoint cadence. The schedule block makes a cold restart bit-exact
/// even from a snapshot taken mid-window.
fn maybe_checkpoint(
    cfg: &ElasticTrainConfig,
    rank: usize,
    step: u64,
    w: &[f32],
    vel: &[f32],
    schedule: &dyn SyncSchedule,
    anchor: &[f32],
) -> Result<(), String> {
    let (Some(every), Some(dir)) = (cfg.checkpoint_every, &cfg.ckpt_dir) else {
        return Ok(());
    };
    if rank != 0 || every == 0 || step % every != 0 {
        return Ok(());
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    let sched = (!schedule.is_every_step()).then(|| {
        let s = schedule.state();
        SchedCheckpoint {
            local_in_window: s.local_in_window,
            current_h: s.current_h,
            ref_dispersion: s.ref_dispersion,
            anchor: anchor.to_vec(),
        }
    });
    let c = Checkpoint {
        step,
        seed: cfg.seed,
        params: w.to_vec(),
        velocity: vec![vel.to_vec()],
        sched,
    };
    c.write(&dir.join(Checkpoint::file_name(step)))
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
    let mut w = vec![0.0f32; cfg.dim];
    let mut vel = vec![0.0f32; cfg.dim];
    let mut step = 0u64;
    let mut schedule = cfg.schedule.build();
    let scheduled = !cfg.schedule.is_every_step();
    let mut ckpt_sched: Option<SchedCheckpoint> = None;
    if let Some(path) = &cfg.resume_from {
        let c = Checkpoint::read(path)?;
        if c.seed != cfg.seed {
            return Err(format!("checkpoint seed {:#x} != config seed {:#x}", c.seed, cfg.seed));
        }
        w = c.params;
        vel = c.velocity.into_iter().next().unwrap_or_else(|| vec![0.0; cfg.dim]);
        step = c.step;
        ckpt_sched = c.sched;
    }
    // Everyone adopts rank 0's state — no-op on a fresh start, the resume
    // fan-out on a cold restart.
    catch_up(&mut ec.comm, &mut w, &mut vel, &mut step).map_err(|e| e.to_string())?;
    let mut anchor = w.clone();
    if scheduled {
        // A checkpoint written mid-window carries the schedule phase and
        // the window anchor; only the loading rank has them, and the
        // schedule catch-up fans both out below.
        if let Some(sc) = ckpt_sched {
            schedule.load_state(SchedState {
                local_in_window: sc.local_in_window,
                current_h: sc.current_h,
                ref_dispersion: sc.ref_dispersion,
            });
            if sc.anchor.len() == cfg.dim {
                anchor = sc.anchor;
            }
        }
        catch_up_schedule(&mut ec.comm, schedule.as_mut(), &mut anchor)
            .map_err(|e| e.to_string())?;
    }

    let mut member = Membership::new(ec.rank(), ec.world());
    let mut recoveries = 0usize;
    let mut sync_steps = 0u64;
    let mut local_steps = 0u64;
    let mut first_sync_pending = false;

    while step < cfg.iters {
        if plan.kill_at_iter == Some(step) {
            // Scripted death: drop everything without a goodbye — to the
            // peers this is indistinguishable from a SIGKILL.
            if a2sgd_trace::enabled() {
                a2sgd_trace::instant("elastic/killed", a2sgd_trace::Args::Value(step as f64));
            }
            let final_loss = full_loss(cfg, &w);
            return Ok(ElasticRunReport {
                final_loss,
                final_params: w,
                world_at_end: ec.world(),
                recoveries,
                steps_done: step,
                sync_steps,
                local_steps,
                killed: true,
            });
        }

        // Heartbeat plane: notice silent deaths between collectives.
        let failed = if member.beat(ec.comm.transport_mut()).is_empty() {
            let decision = if scheduled { schedule.decide(step) } else { SyncDecision::Sync };
            match decision {
                SyncDecision::Local => {
                    // Purely local SGD update: zero wire traffic and no
                    // collective that could surface a peer death.
                    let g = local_grad(cfg, step, ec.world(), ec.rank(), &w);
                    for j in 0..cfg.dim {
                        vel[j] = cfg.momentum * vel[j] + g[j];
                        w[j] -= cfg.lr * vel[j];
                    }
                    schedule.record(SyncDecision::Local);
                    local_steps += 1;
                    step += 1;
                    maybe_checkpoint(cfg, ec.rank(), step, &w, &vel, schedule.as_ref(), &anchor)?;
                    false
                }
                SyncDecision::Sync => {
                    let mut g = local_grad(cfg, step, ec.world(), ec.rank(), &w);
                    let window_len = if scheduled { schedule.local_in_window() + 1 } else { 1 };
                    let want_disp = scheduled && schedule.wants_dispersion();
                    let res: Result<(), TransportError> = if window_len == 1 {
                        // Degenerate window: the classic gradient path —
                        // bit-identical to the unscheduled loop.
                        (|| {
                            let pre = want_disp.then(|| g.clone());
                            sync_gradient(&mut ec.comm, cfg.sync, &mut g)?;
                            if let Some(p) = pre {
                                let d = gathered_dispersion(&mut ec.comm, &p, &g)?;
                                schedule
                                    .observe_sync(&SyncObservation { dispersion: d, window_len });
                            }
                            for j in 0..cfg.dim {
                                vel[j] = cfg.momentum * vel[j] + g[j];
                                w[j] -= cfg.lr * vel[j];
                            }
                            Ok(())
                        })()
                    } else {
                        // Window close: take the local step into scratch
                        // state, average parameters as the pseudo-gradient
                        // Δ = anchor − w through the same sync path, and
                        // commit only on success — a mid-sync peer death
                        // leaves (w, vel) untouched, so the retried step
                        // replays exactly like any other.
                        (|| {
                            let mut vel2 = vel.clone();
                            let mut w2 = w.clone();
                            for j in 0..cfg.dim {
                                vel2[j] = cfg.momentum * vel2[j] + g[j];
                                w2[j] -= cfg.lr * vel2[j];
                            }
                            let mut delta: Vec<f32> =
                                anchor.iter().zip(&w2).map(|(a, b)| a - b).collect();
                            let pre = want_disp.then(|| delta.clone());
                            sync_gradient(&mut ec.comm, cfg.sync, &mut delta)?;
                            if let Some(p) = pre {
                                let d = gathered_dispersion(&mut ec.comm, &p, &delta)?;
                                schedule
                                    .observe_sync(&SyncObservation { dispersion: d, window_len });
                            }
                            for j in 0..cfg.dim {
                                w[j] = anchor[j] - delta[j];
                            }
                            vel = vel2;
                            Ok(())
                        })()
                    };
                    match res {
                        Ok(()) => {
                            if first_sync_pending {
                                first_sync_pending = false;
                                if a2sgd_trace::enabled() {
                                    a2sgd_trace::instant(
                                        "elastic/first_sync",
                                        a2sgd_trace::Args::Value(step as f64),
                                    );
                                }
                            }
                            if scheduled {
                                schedule.record(SyncDecision::Sync);
                                anchor.copy_from_slice(&w);
                            }
                            sync_steps += 1;
                            step += 1;
                            maybe_checkpoint(
                                cfg,
                                ec.rank(),
                                step,
                                &w,
                                &vel,
                                schedule.as_ref(),
                                &anchor,
                            )?;
                            false
                        }
                        Err(e) => {
                            if a2sgd_trace::enabled() {
                                let peer = match &e {
                                    TransportError::PeerClosed { peer, .. }
                                    | TransportError::SendFailed { peer, .. } => *peer,
                                };
                                a2sgd_trace::instant(
                                    "elastic/peer_dead",
                                    a2sgd_trace::Args::Value(peer as f64),
                                );
                            }
                            true
                        }
                    }
                }
            }
        } else {
            true
        };

        if failed {
            // Shrink-and-continue: census, re-rendezvous, catch-up, and
            // retry the interrupted step in the smaller world.
            ec = ec.shrink_and_reconnect()?;
            catch_up(&mut ec.comm, &mut w, &mut vel, &mut step)
                .map_err(|e| format!("catch-up after recovery: {e}"))?;
            if scheduled {
                // Survivors were in lockstep already, but the broadcast also
                // rehydrates the phase on a replacement that started cold.
                catch_up_schedule(&mut ec.comm, schedule.as_mut(), &mut anchor)
                    .map_err(|e| format!("schedule catch-up after recovery: {e}"))?;
            }
            member = Membership::new(ec.rank(), ec.world());
            recoveries += 1;
            first_sync_pending = true;
        }
    }

    // Algorithm 1 lines 9–10: final parameter re-synchronization. Under
    // A2SGD sync the per-rank residual feedback makes workers drift; the
    // closing average collapses them to one model (a no-op disguised as an
    // average under dense sync, where ranks are already bit-identical).
    // Elastic to the end: a death here recovers and retries like any
    // other step.
    loop {
        match ec.comm.try_allreduce_avg(&mut w) {
            Ok(()) => break,
            Err(_) => {
                ec = ec.shrink_and_reconnect()?;
                catch_up(&mut ec.comm, &mut w, &mut vel, &mut step)
                    .map_err(|e| format!("catch-up after recovery: {e}"))?;
                recoveries += 1;
            }
        }
    }

    Ok(ElasticRunReport {
        final_loss: full_loss(cfg, &w),
        final_params: w,
        world_at_end: ec.world(),
        recoveries,
        steps_done: step,
        sync_steps,
        local_steps,
        killed: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster_comm::{run_cluster, NetworkProfile};

    #[test]
    fn both_sync_flavors_agree_across_ranks_and_converge() {
        for kind in [SyncKind::Dense, SyncKind::A2sgd] {
            let cfg = ElasticTrainConfig { sync: kind, ..ElasticTrainConfig::probe(11) };
            // Plain (non-elastic) loop over the in-proc backend: the sync
            // and SGD math is backend-agnostic, so this pins convergence
            // and cross-rank agreement cheaply.
            let out = run_cluster(2, NetworkProfile::infiniband_100g(), |h| {
                let mut w = vec![0.0f32; cfg.dim];
                let mut vel = vec![0.0f32; cfg.dim];
                for step in 0..cfg.iters {
                    let mut g = local_grad(&cfg, step, h.world(), h.rank(), &w);
                    sync_gradient(h, cfg.sync, &mut g).unwrap();
                    for j in 0..cfg.dim {
                        vel[j] = cfg.momentum * vel[j] + g[j];
                        w[j] -= cfg.lr * vel[j];
                    }
                }
                // Algorithm 1 lines 9–10: collapse residual drift.
                h.allreduce_avg(&mut w);
                (full_loss(&cfg, &w), w)
            });
            let (loss0, w0) = &out[0];
            let (loss1, w1) = &out[1];
            assert_eq!(
                w0.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                w1.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "{kind:?}: ranks diverged"
            );
            assert_eq!(loss0, loss1);
            let start = full_loss(&cfg, &vec![0.0; cfg.dim]);
            // The two-mean quantizer trades per-step accuracy for the
            // O(1) packet, so it needs a looser bar at equal iterations.
            let bar = if kind == SyncKind::Dense { 0.05 } else { 0.3 };
            assert!(*loss0 < start * bar, "{kind:?} failed to converge: {loss0} (start {start})");
        }
    }

    #[test]
    fn dataset_is_deterministic() {
        let cfg = ElasticTrainConfig::probe(3);
        let w = vec![0.1f32; cfg.dim];
        let a = local_grad(&cfg, 4, 3, 1, &w);
        let b = local_grad(&cfg, 4, 3, 1, &w);
        assert_eq!(a, b);
        // Different ranks see different batches.
        assert_ne!(a, local_grad(&cfg, 4, 3, 2, &w));
    }
}
