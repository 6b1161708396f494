//! Shrink-and-continue training: a **recovery policy** on the trainer's
//! one loop ([`a2sgd::trainer::Recovery`]), which hands it every transport
//! failure with the replica exactly as it was before the failed step. What
//! lives here is what is genuinely elastic — the kill script, the
//! heartbeat, and the reaction to an `Err`:
//!
//! 1. every survivor runs the transport membership census
//!    ([`CommHandle::classify_survivors`]) and gets the **same**
//!    alive-vector — the goodbye/half-close protocol guarantees agreement
//!    without a coordinator — from which each *locally* derives the
//!    identical shrunken [`WorldSpec`] and its new dense rank, and
//!    reconnects through the epoch-offset master port;
//! 2. the synchronizer is rebuilt for the new `(world, rank)` — its state
//!    after a failed exchange is unspecified;
//! 3. catch-up: the new rank 0 broadcasts its training state (step,
//!    parameters, velocity, schedule phase + anchor), so survivors —
//!    and a cold restart that loaded an [`a2sgd::Checkpoint`] — resume
//!    from one state, and the loop retries from that step.
//!
//! The loop is synchronous, so no survivor can have applied the
//! interrupted step and retrying it is exact. `Topology::Hier` is refused:
//! a 4 → 3 world has no valid `group_size` (ROADMAP open item 9).

use crate::fault::FaultPlan;
use crate::membership::Membership;
use a2sgd::step::{Plan, StepOutcome, TrainStep};
use a2sgd::trainer::{train_rank, Recovery, Topology, TrainConfig, TrainReport};
use a2sgd::Checkpoint;
use cluster_comm::{CommHandle, TransportError, WorldSpec};
use mini_nn::flat::{flatten_params, param_count};
use mini_nn::module::Module;
use std::path::PathBuf;

/// A TCP communicator bundled with what it can rebuild itself from — the
/// world's spec (base master address; generation `epoch` connects to
/// `spec.with_epoch(epoch)`) and this rank's original id, its trace
/// identity: what [`train_elastic`] starts from.
pub struct ElasticComm {
    comm: CommHandle,
    spec: WorldSpec,
    epoch: u32,
    orig_rank: usize,
}

impl ElasticComm {
    /// Connects `rank` of `spec` over TCP at generation `epoch`.
    pub fn connect(rank: usize, spec: &WorldSpec, epoch: u32) -> Result<Self, String> {
        let comm = CommHandle::tcp_from_spec(rank, &spec.with_epoch(epoch))?;
        Ok(ElasticComm { comm, spec: spec.clone(), epoch, orig_rank: rank })
    }
}

/// What an elastic run adds to a [`TrainConfig`].
#[derive(Debug, Clone, Default)]
pub struct Elastic {
    /// This rank's fault script.
    pub plan: FaultPlan,
    /// Where the current rank 0 writes a snapshot every
    /// [`TrainConfig::checkpoint_every`] steps (required when that is set).
    pub ckpt_dir: Option<PathBuf>,
    /// Cold-restart source: load this checkpoint before training; its
    /// state then flows to every rank through the catch-up broadcast.
    pub resume_from: Option<PathBuf>,
}

/// One rank's elastic run: the trainer's report, plus what it cannot hold.
#[derive(Debug, Clone)]
pub struct ElasticRunReport {
    /// The trainer's report; `iters` counts the global steps this rank
    /// advanced through.
    pub report: TrainReport,
    /// Final flat parameters — bit-identical across survivors after the
    /// closing re-synchronization.
    pub final_params: Vec<f32>,
    /// World size when training finished.
    pub world_at_end: usize,
    /// Shrink-and-continue recoveries performed.
    pub recoveries: usize,
    /// True for a scripted casualty (it returns at its death, and its
    /// peers recover without it).
    pub killed: bool,
}

/// Post-(re)connect state alignment: everyone restores the current rank
/// 0's [`TrainStep::capture`], broadcast in the checkpoint codec — one
/// bit-exact encoding for disk and wire, schedule phase and anchor included.
fn catch_up(
    comm: &mut CommHandle,
    ts: &mut TrainStep,
    model: &mut dyn Module,
    step: &mut u64,
    seed: u64,
) -> Result<(), String> {
    let net = |e: TransportError| e.to_string();
    let mut bytes = ts.capture(model, *step, seed).encode();
    // Rank 0's snapshot can outgrow ours only by a velocity we lack (4 bytes
    // a parameter): bound the announced length before allocating for it.
    let cap = bytes.len() + 4 * param_count(model);
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

/// The shrink-and-continue policy for one rank.
struct Policy<'a> {
    cfg: &'a TrainConfig,
    elastic: &'a Elastic,
    spec: WorldSpec,
    epoch: u32,
    orig_rank: usize,
    member: Membership,
    recoveries: usize,
    killed: bool,
    first_sync_pending: bool,
}

impl Recovery for Policy<'_> {
    fn start(
        &mut self,
        comm: &mut CommHandle,
        ts: &mut TrainStep,
        model: &mut dyn Module,
    ) -> Result<u64, String> {
        if a2sgd_trace::enabled() {
            a2sgd_trace::set_thread_rank(self.orig_rank);
        }
        let mut step = 0;
        if let Some(path) = &self.elastic.resume_from {
            let c = Checkpoint::read(path)?;
            if c.seed != self.cfg.seed {
                return Err(format!("checkpoint seed {:#x} is not the run's", c.seed));
            }
            ts.restore(model, &c)?;
            step = c.step;
        }
        // Everyone adopts rank 0's state — no-op on a fresh start, the
        // resume fan-out on a cold restart.
        catch_up(comm, ts, model, &mut step, self.cfg.seed)?;
        Ok(step)
    }

    fn before_step(&mut self, comm: &mut CommHandle, step: u64) -> Result<bool, TransportError> {
        if self.elastic.plan.kill_at_iter == Some(step) {
            // Scripted death: the loop returns and the caller drops the
            // communicator without a goodbye — to the peers this is
            // indistinguishable from a SIGKILL.
            a2sgd_trace::instant("elastic/killed", a2sgd_trace::Args::Value(step as f64));
            self.killed = true;
            return Ok(false);
        }
        // Heartbeat plane: notice silent deaths between collectives.
        match self.member.beat(comm.transport_mut()).first() {
            None => Ok(true),
            Some(&peer) => Err(TransportError::PeerClosed {
                rank: comm.rank(),
                peer,
                tag: None,
                cause: "heartbeat".into(),
            }),
        }
    }

    fn after_step(&mut self, done: &StepOutcome, step: u64) {
        if done.plan != Plan::Local && std::mem::take(&mut self.first_sync_pending) {
            a2sgd_trace::instant("elastic/first_sync", a2sgd_trace::Args::Value(step as f64));
        }
    }

    fn on_err(
        &mut self,
        err: TransportError,
        comm: &mut CommHandle,
        ts: &mut TrainStep,
        model: &mut dyn Module,
        step: &mut u64,
    ) -> Result<CommHandle, String> {
        // A bad frame is a peer out of step with this one: the census
        // settles who is left, as for a dead link.
        let (TransportError::PeerClosed { peer, .. }
        | TransportError::SendFailed { peer, .. }
        | TransportError::BadFrame { peer, .. }) = err;
        a2sgd_trace::instant("elastic/peer_dead", a2sgd_trace::Args::Value(peer as f64));

        // Census, then the shrunken world one epoch up, recorded as the
        // `elastic/rerendezvous` span `trace_report --recovery` audits
        // between `elastic/peer_dead` and `elastic/first_sync`. The spent
        // communicator goes when the loop adopts the new one.
        let t0 = a2sgd_trace::now_ns();
        let alive = comm
            .classify_survivors()
            .ok_or_else(|| format!("backend {} has no membership census", comm.backend_name()))?;
        assert!(alive[comm.rank()], "census claims the caller itself is dead");
        let new_rank = alive[..comm.rank()].iter().filter(|&&a| a).count();
        (self.spec, self.epoch) = (self.spec.shrink(&alive), self.epoch + 1);
        let mut next = CommHandle::tcp_from_spec(new_rank, &self.spec.with_epoch(self.epoch))
            .map_err(|e| format!("re-rendezvous epoch {}: {e}", self.epoch))?;
        let world = a2sgd_trace::Args::Value(next.world() as f64);
        a2sgd_trace::closed_span("elastic/rerendezvous", t0, world);

        ts.sync = self.cfg.build_sync(param_count(model), &mut next);
        catch_up(&mut next, ts, model, step, self.cfg.seed)
            .map_err(|e| format!("catch-up after recovery: {e}"))?;
        self.member = Membership::new(next.rank(), next.world());
        self.recoveries += 1;
        self.first_sync_pending = true;
        Ok(next)
    }
}

/// Runs `cfg` on `ec`'s TCP world (`cfg.backend` is not consulted) with
/// the shrink-and-continue policy and `elastic`'s fault script. A scripted
/// casualty returns at its death; its peers finish without it.
pub fn train_elastic(
    ec: ElasticComm,
    cfg: &TrainConfig,
    elastic: &Elastic,
) -> Result<ElasticRunReport, String> {
    if let Topology::Hier { group_size } = cfg.topology {
        let why = "a shrunken world need not divide into groups (ragged groups: ROADMAP item 9)";
        return Err(format!("elastic runs are flat: group_size {group_size} refused, {why}"));
    }
    let ckpt = match (cfg.checkpoint_every, &elastic.ckpt_dir) {
        (None, _) => None,
        (Some(every), Some(dir)) => Some((every as u64, dir.clone())),
        (Some(_), None) => {
            return Err("TrainConfig::checkpoint_every is set but Elastic::ckpt_dir is not".into())
        }
    };
    let ElasticComm { mut comm, spec, epoch, orig_rank } = ec;
    let mut policy = Policy {
        cfg,
        elastic,
        spec,
        epoch,
        orig_rank,
        member: Membership::new(comm.rank(), comm.world()),
        recoveries: 0,
        killed: false,
        first_sync_pending: false,
    };
    let (report, mut model) = train_rank(cfg, &mut comm, ckpt.as_ref(), &mut policy)?;
    let mut final_params = Vec::new();
    flatten_params(model.as_mut(), &mut final_params);
    Ok(ElasticRunReport {
        report,
        final_params,
        world_at_end: comm.world(),
        recoveries: policy.recoveries,
        killed: policy.killed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2sgd::trainer::OptKind;
    use a2sgd::{AlgoKind, SchedKind};
    use cluster_comm::{CommBackend, NetworkProfile};
    use mini_nn::models::{ModelKind, Preset};
    use mini_nn::schedule::LrSchedule;

    #[test]
    fn hierarchy_is_refused_before_any_collective() {
        // A one-rank world needs no peer; the refusal must come before the
        // start-up catch-up broadcast, naming why and where it is tracked.
        let spec = WorldSpec::single_host("127.0.0.1:0", 1);
        let ec = ElasticComm::connect(0, &spec, 0).expect("rendezvous");
        let cfg = TrainConfig {
            model: ModelKind::Fnn3,
            preset: Preset::Scaled,
            algo: AlgoKind::A2sgd,
            workers: 4,
            epochs: 1,
            batch_per_worker: 8,
            train_size: 64,
            eval_size: 16,
            lr: LrSchedule::constant(0.01),
            opt: OptKind::Sgd { momentum: 0.9, weight_decay: 0.0 },
            seed: 1,
            backend: CommBackend::Tcp,
            bucket_bytes: None,
            overlap_backward: false,
            topology: Topology::Hier { group_size: 2 },
            schedule: SchedKind::EveryStep,
            profile: NetworkProfile::infiniband_100g(),
            grad_hist_iters: vec![],
            checkpoint_every: None,
            trace: None,
        };
        let err = train_elastic(ec, &cfg, &Elastic::default()).expect_err("Hier must be refused");
        assert!(err.contains("group_size 2"), "{err}");
        assert!(err.contains("ROADMAP item 9"), "{err}");
    }
}
