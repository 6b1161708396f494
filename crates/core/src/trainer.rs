//! Synchronous data-parallel distributed training over the simulated
//! cluster — the pipeline behind the paper's Figures 3–8 and Table 2.
//!
//! Every worker thread owns a model replica (identical seed ⇒ identical
//! init, the moral equivalent of an initial broadcast), a disjoint data
//! shard, a private optimizer, and a [`gradcomp::GradientSynchronizer`].
//! Per iteration: forward/backward → flatten gradient → synchronize →
//! scatter → optimizer step. Time is reported as two sums that are never
//! mixed: `compute_seconds`, the measured wall time of each step outside
//! its collective calls, and `comm_seconds`, what the communicators' own
//! ledgers charged — the Hockney price of each collective in-proc (a
//! function of the frames alone, hence reproducible), measured wall time
//! inside collective calls on TCP. `total_sim_seconds` is their sum.
//!
//! The per-rank loop over global steps is the workspace's only training
//! loop. Whatever can lose a peer hands its typed error to one [`Recovery`]
//! policy: [`train`] aborts, `a2sgd-elastic` shrinks the world and goes on
//! through [`train_rank`].

use crate::checkpoint::{Checkpoint, ENV_CKPT_DIR};
use crate::metrics;
use crate::registry::AlgoKind;
use crate::step::{phase, Plan, StepOutcome, TrainStep};
use a2sgd_sched::SchedKind;
use cluster_comm::{
    run_cluster, CommBackend, CommHandle, NetworkProfile, TrafficStats, TransportError,
};
use gradcomp::{GradientSynchronizer, Ledger, SyncStats};
use mini_nn::flat::{flatten_grads, param_count};
use mini_nn::loss::softmax_cross_entropy;
use mini_nn::models::{LstmLmConfig, ModelKind, Preset};
use mini_nn::module::{Mode, Module, ModuleExt};
use mini_nn::schedule::LrSchedule;
use mini_tensor::stats::Histogram;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use synthdata::{BatchIter, MarkovText, Shard, SyntheticImages, VisionSpec};

/// Optimizer selection (Table 1's "LR Policy" column: LARS is used for the
/// VGG-16 large-batch run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptKind {
    /// Momentum SGD with weight decay.
    Sgd {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
    },
    /// Layer-wise adaptive rate scaling.
    Lars {
        /// Momentum coefficient.
        momentum: f32,
        /// L2 weight decay.
        weight_decay: f32,
        /// Trust coefficient.
        trust: f32,
    },
}

/// Communicator topology the gradient synchronization runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One flat communicator over all workers — every algorithm exchanges
    /// across the whole world directly.
    #[default]
    Flat,
    /// The paper's two-level cluster shape: workers are partitioned into
    /// groups of `group_size` (rank `r` in group `r / group_size`), each
    /// group runs an exact dense allreduce on its cheap intra plane, the
    /// group leaders run [`TrainConfig::algo`] across groups, and the
    /// result is broadcast back within each group
    /// ([`gradcomp::HierarchicalSynchronizer`]). With A2SGD inside, the
    /// inter-group traffic is the O(1) packet per leader.
    Hier {
        /// Ranks per group; must divide `workers`. `1` degenerates to the
        /// flat algorithm bit-for-bit (every rank is a leader).
        group_size: usize,
    },
}

/// Full experiment description.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Which of the four evaluation models.
    pub model: ModelKind,
    /// Paper-scale or CI-scale model widths.
    pub preset: Preset,
    /// Gradient-synchronization algorithm.
    pub algo: AlgoKind,
    /// Number of data-parallel workers.
    pub workers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-worker mini-batch size (paper: global batch 128).
    pub batch_per_worker: usize,
    /// Training-set size (images / sequences).
    pub train_size: usize,
    /// Held-out evaluation-set size.
    pub eval_size: usize,
    /// Learning-rate schedule.
    pub lr: LrSchedule,
    /// Optimizer.
    pub opt: OptKind,
    /// Master seed (model init, data synthesis, stochastic compressors).
    pub seed: u64,
    /// Communication data plane. [`CommBackend::InProc`] (the default)
    /// spawns thread ranks in this process with priced communication;
    /// [`CommBackend::Tcp`] makes *this process* one rank of a TCP
    /// cluster, joining the `A2SGD_RANK`/`A2SGD_WORLD`/`A2SGD_MASTER_ADDR`
    /// rendezvous with measured traffic and wall time.
    pub backend: CommBackend,
    /// Bucket size cap (bytes) for the pipelined gradient exchange:
    /// `Some(cap)` cuts the flat gradient at layer boundaries into
    /// ≤`cap`-byte buckets whose exchanges overlap the remaining
    /// encode/decode compute; `None` (the default everywhere the paper's
    /// numbers are regenerated) keeps the whole model as one bucket.
    /// Results are bit-identical either way — bucket boundaries derive
    /// from the parameter layout only, and every synchronizer's
    /// cross-bucket statistics stay global — so this knob trades latency,
    /// never semantics. Note the wire cost of bucketing is honest: each
    /// sub-byte-packed bucket pads to whole bytes and re-ships its scale
    /// word, and the A2SGD family (whose packet is already O(1)) ignores
    /// bucketing entirely.
    pub bucket_bytes: Option<usize>,
    /// Overlap bucket synchronization with the backward pass itself (the
    /// DDP hook shape): when `true`, a [`crate::overlap::HookedStep`]
    /// rides [`mini_nn::module::Module::backward_params`] and submits each
    /// bucket to the sync session the moment its last layer's gradient
    /// lands — the output layer's bucket is on the wire (streaming
    /// synchronizers) or staged (global-statistics synchronizers) while
    /// earlier layers are still backpropagating. Results are **bit-identical**
    /// either way, for every synchronizer, bucket cap, world size and
    /// backend (CI-enforced); this knob only moves exchange time under
    /// backward compute (reported as `avg_overlap_seconds`). Default
    /// `false`: the paper's regenerated numbers keep the single-shot
    /// reference path.
    pub overlap_backward: bool,
    /// Communicator topology: [`Topology::Flat`] (the default) runs
    /// `algo` across the whole world; [`Topology::Hier`] wraps it in the
    /// two-level dense-intra / algo-inter hierarchy. Composes with
    /// `overlap_backward` and every `schedule` (the hierarchy does not
    /// stream, so its hooked session is arrival marks plus the ordinary
    /// exchange once backward returns — bit-identical by construction).
    pub topology: Topology,
    /// Sync schedule: *when* to communicate, orthogonal to `algo`'s *how*.
    /// [`SchedKind::EveryStep`] (the default) keeps the classic trainer
    /// byte-for-byte. Periodic schedules skip the synchronizer entirely on
    /// `Local` steps (0 wire bits, traced as a `sched/local` instant) and
    /// on the `Sync` step closing an H-step window apply the local
    /// optimizer step first, then average **parameters** as the
    /// pseudo-gradient `Δ = w_anchor − w` through the configured
    /// synchronizer/topology path — exact model averaging under dense, the
    /// O(1) two-means packet (plus a local residual) under A2SGD. A `Sync`
    /// closing a degenerate window (zero local steps — every step of
    /// `fixed1`, or a post-local warmup) takes the classic gradient path,
    /// which is why `fixed1` is bit-identical to `every`. Under
    /// `overlap_backward` the hooks engage on exactly those gradient-path
    /// steps; `Local` and window-closing steps have nothing to stream and
    /// run the plain backward pass.
    pub schedule: SchedKind,
    /// Modeled network (in-proc backend only; TCP measures instead).
    pub profile: NetworkProfile,
    /// Iterations at which worker 0 records a gradient histogram
    /// (Figure 1); empty to disable.
    pub grad_hist_iters: Vec<usize>,
    /// Checkpoint cadence: `Some(k)` has worker 0 snapshot the full
    /// training state (parameters, optimizer velocity, seed, step) every
    /// `k` iterations into the directory named by the `A2SGD_CKPT_DIR`
    /// environment variable (see [`crate::checkpoint::Checkpoint`]);
    /// [`train`] panics at start-up when that variable is unset
    /// ([`train_rank`] takes the directory from its caller). `None`
    /// (the default) never checkpoints. State is bit-identical across ranks
    /// after each synchronized step, so the single rank-0 copy is a
    /// consistent global snapshot.
    pub checkpoint_every: Option<usize>,
    /// Span-trace output directory: `Some(dir)` records every rank's
    /// transport/collective/session/trainer spans into
    /// `dir/trace-<pid>.jsonl` (read back with `a2sgd_trace::load_dir`;
    /// the `trace_report` binary merges them into one Chrome trace and
    /// audits them). `None` (the default)
    /// falls back to the `A2SGD_TRACE=<dir>` environment — which is also
    /// how forked TCP rank processes inherit the setting — and records
    /// nothing when that is unset.
    pub trace: Option<std::path::PathBuf>,
}

impl TrainConfig {
    /// The algorithm label as the figures print it: the bare registry name
    /// under [`Topology::Flat`], `hier(dense, <name>)` under
    /// [`Topology::Hier`], the whole thing wrapped as
    /// `sched(<schedule>, <inner>)` when a non-degenerate sync schedule is
    /// configured.
    pub fn algo_label(&self) -> String {
        let inner = match self.topology {
            Topology::Flat => self.algo.name().to_string(),
            Topology::Hier { .. } => format!("hier(dense, {})", self.algo.name()),
        };
        if self.schedule.is_every_step() {
            inner
        } else {
            format!("sched({}, {inner})", self.schedule.label())
        }
    }

    /// The run's synchronizer for `n` parameters on `comm`: the registry's
    /// `algo`, wrapped in the two-level hierarchy under [`Topology::Hier`].
    /// Built at start-up, and by a recovery policy for each new world.
    pub fn build_sync(&self, n: usize, comm: &mut CommHandle) -> Box<dyn GradientSynchronizer> {
        let sync = self.algo.build(n, self.seed ^ 0x5EED, comm.rank());
        let Topology::Hier { group_size } = self.topology else { return sync };
        assert!(
            group_size >= 1 && comm.world() % group_size == 0,
            "group_size {group_size} must divide workers {}",
            comm.world()
        );
        let topo = cluster_comm::HierarchicalComm::from_flat(comm, group_size);
        Box::new(gradcomp::HierarchicalSynchronizer::new(sync, topo))
    }

    /// Refuses, before any collective, a size no run can finish with, by
    /// name: [`train`] panics with the `Err`, [`train_rank`] returns it.
    fn validate(&self) -> Result<(), String> {
        let (w, e, b, v) = (self.workers, self.epochs, self.batch_per_worker, self.eval_size);
        let zero = [(w, "workers"), (e, "epochs"), (b, "batch_per_worker"), (v, "eval_size")];
        let field = zero.iter().find(|z| z.0 == 0).map(|z| z.1);
        field.map_or(Ok(()), |f| Err(format!("TrainConfig::{f} must be at least 1")))
    }
}

/// Per-epoch observables.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Mean training loss across iterations (worker 0).
    pub train_loss: f64,
    /// Evaluation metric: top-1 % for classifiers, perplexity for the LM.
    pub metric: f64,
    /// Cumulative simulated seconds at epoch end.
    pub sim_seconds: f64,
}

/// Everything a training run produces.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Configuration echo (model/algo/workers) for table labels.
    pub label: String,
    /// Per-epoch curve.
    pub epochs: Vec<EpochStats>,
    /// Final evaluation metric.
    pub final_metric: f64,
    /// Total simulated wall time: `compute_seconds + comm_seconds`.
    pub total_sim_seconds: f64,
    /// Measured wall seconds of worker 0's steps (batch → forward →
    /// backward → codec → optimizer) outside their collective calls — host
    /// dependent, not reproducible run to run.
    pub compute_seconds: f64,
    /// Communication seconds charged to worker 0's steps and the closing
    /// re-synchronization ([`gradcomp::SyncStats::comm_seconds`]): in-proc
    /// the Hockney price of every collective under
    /// [`TrainConfig::profile`], bit-equal run to run; on TCP the measured
    /// wall time inside collective calls.
    pub comm_seconds: f64,
    /// Average simulated time per iteration.
    pub avg_iter_seconds: f64,
    /// Global steps this worker advanced through (for an elastic run: up
    /// to its death, or from its resume point).
    pub iters: usize,
    /// Of `iters`, the steps on which the synchronizer actually ran
    /// (equals `iters` under [`SchedKind::EveryStep`]).
    pub sync_steps: usize,
    /// Of `iters`, the communication-free local-SGD steps a periodic
    /// schedule skipped the synchronizer on (0 under
    /// [`SchedKind::EveryStep`]).
    pub local_steps: usize,
    /// Logical wire bits per iteration per worker. With a periodic
    /// schedule this is averaged over **all** steps — local steps
    /// contribute 0 — so it is directly the effective bits/step the
    /// (period × compressor) grid compares.
    pub wire_bits_per_iter: u64,
    /// Of `wire_bits_per_iter`, the bits on the hierarchical *intra-group*
    /// plane (0 under [`Topology::Flat`]).
    pub intra_wire_bits_per_iter: u64,
    /// Of `wire_bits_per_iter`, the bits on the hierarchical *inter-group*
    /// plane — with A2SGD inside, exactly the O(1) packet on leaders and 0
    /// on members (0 under [`Topology::Flat`]).
    pub inter_wire_bits_per_iter: u64,
    /// Total physical bytes this rank's *flat world* communicator moved
    /// over the whole run — payloads plus frame headers. On the TCP
    /// backend this is measured socket traffic; in-proc it counts mailbox
    /// bytes. (Hierarchical sub-communicators account separately, via the
    /// intra/inter wire-bit splits. After an elastic recovery: the last
    /// communicator generation's.)
    pub measured_wire_bytes: u64,
    /// Of `measured_wire_bytes`, the bytes moved *inside* per-step
    /// synchronization calls (gradient or pseudo-gradient exchanges plus
    /// any schedule bookkeeping collectives) — i.e. excluding the
    /// run-constant tail traffic (final Algorithm-1 re-average, metric
    /// broadcast), so periodic-vs-every-step wire reductions compare the
    /// traffic the schedule actually governs.
    pub measured_sync_wire_bytes: u64,
    /// Total frames the flat world communicator put on the wire over the
    /// whole run (collective payload frames plus barrier control frames).
    pub messages: u64,
    /// Of `measured_wire_bytes`, the framing overhead beyond payload
    /// bytes — frame headers and empty control frames (0 in-proc, where a
    /// send is a bare memcpy).
    pub framing_bytes: u64,
    /// Mean compression (encode/decode compute) time per iteration
    /// (worker 0).
    pub avg_compress_seconds: f64,
    /// Mean measured wall time inside collective calls per iteration
    /// (worker 0) — the communication half of the sync cost, separable
    /// from `avg_compress_seconds` in the figure/table outputs.
    pub avg_exchange_seconds: f64,
    /// Mean exchange time per iteration hidden under backward compute
    /// (worker 0): wall time streamed buckets spent in flight before the
    /// post-backward drain. Non-zero only with
    /// [`TrainConfig::overlap_backward`] and a streaming synchronizer.
    pub avg_overlap_seconds: f64,
    /// Simulated throughput in samples/second (global): each step counts
    /// a batch per rank of the world it ran in.
    pub throughput: f64,
    /// Max replica parameter divergence before the final sync — evidence
    /// of A2SGD's local-residual drift (≈ 0 for dense).
    pub replica_divergence: f64,
    /// Gradient histograms captured at requested iterations (worker 0).
    pub grad_histograms: Vec<(usize, Histogram)>,
    /// Compute threads each rank's kernels ran on: the host's cores divided
    /// by the ranks sharing it, or `RAYON_NUM_THREADS` when that is set
    /// (see [`thread_budget`]).
    pub threads_per_rank: usize,
}

/// Builds the run's datasets: the first `train_size` indices are the
/// training split, the next `eval_size` the held-out split. Both share the
/// class templates (different noise/jitter per index). Construction is a
/// pure function of the config, which is what lets every TCP rank process
/// rebuild identical data without any exchange.
fn build_datasets(cfg: &TrainConfig) -> (Option<Arc<SyntheticImages>>, Option<Arc<MarkovText>>) {
    let vision: Option<Arc<SyntheticImages>> = (!cfg.model.is_language_model()).then(|| {
        let spec = match cfg.model {
            ModelKind::Fnn3 => VisionSpec::mnist_like(),
            _ => VisionSpec::cifar_like(),
        };
        Arc::new(SyntheticImages::new(spec, cfg.train_size + cfg.eval_size, cfg.seed ^ 0xDA7A))
    });
    let lm: Option<Arc<MarkovText>> = cfg.model.is_language_model().then(|| {
        let lmc = LstmLmConfig::preset(cfg.preset);
        let seq = 16;
        let tokens = (cfg.train_size + cfg.eval_size + 1) * seq + 1;
        Arc::new(MarkovText::new(lmc.vocab, 4, tokens, seq, cfg.seed ^ 0x1A7A))
    });
    (vision, lm)
}

/// Completes a rank's report from its totals: `sum` over its steps'
/// exchanges, the `samples` those steps processed and its world
/// communicator's `traffic`.
fn finish(
    mut r: TrainReport,
    sum: &SyncStats,
    samples: usize,
    traffic: TrafficStats,
) -> TrainReport {
    let iters = r.iters;
    let per_iter = |total: u64| if iters > 0 { total / iters as u64 } else { 0 };
    let avg = |total: f64| if iters > 0 { total / iters as f64 } else { 0.0 };
    r.final_metric = r.epochs.last().map_or(f64::NAN, |e| e.metric);
    r.total_sim_seconds = r.compute_seconds + r.comm_seconds;
    r.avg_iter_seconds = avg(r.total_sim_seconds);
    r.wire_bits_per_iter = per_iter(sum.wire_bits);
    r.intra_wire_bits_per_iter = per_iter(sum.intra_wire_bits);
    r.inter_wire_bits_per_iter = per_iter(sum.inter_wire_bits);
    r.measured_wire_bytes = traffic.wire_bytes;
    r.messages = traffic.messages;
    r.framing_bytes = traffic.wire_bytes.saturating_sub(traffic.bytes_sent);
    r.avg_compress_seconds = avg(sum.compress_seconds);
    r.avg_exchange_seconds = avg(sum.exchange_seconds);
    r.avg_overlap_seconds = avg(sum.overlap_seconds);
    r.throughput = metrics::throughput(samples, r.total_sim_seconds);
    r
}

/// What the training loop does where a run can lose a peer. Every method
/// defaults to the abort policy [`train`] runs; `a2sgd-elastic` ships
/// shrink-and-continue.
pub trait Recovery: Send {
    /// Once, before the first step: the global step to start from.
    fn start(
        &mut self,
        _: &mut CommHandle,
        _: &mut TrainStep,
        _: &mut dyn Module,
    ) -> Result<u64, String> {
        Ok(0)
    }

    /// Before global step `step`: `Ok(false)` ends this rank's run here,
    /// and an `Err` goes to [`Recovery::on_err`] as a failed step's does.
    fn before_step(&mut self, _: &mut CommHandle, _step: u64) -> Result<bool, TransportError> {
        Ok(true)
    }

    /// After global step `step` succeeded with `done`.
    fn after_step(&mut self, _done: &StepOutcome, _step: u64) {}

    /// `err` failed a step, the closing re-synchronization or the report
    /// agreement on `comm` at global step `*step`: the communicator to go on
    /// with, `ts`, `model` and `*step` agreed across its ranks, or `Err`.
    fn on_err(
        &mut self,
        err: TransportError,
        _comm: &mut CommHandle,
        _ts: &mut TrainStep,
        _model: &mut dyn Module,
        step: &mut u64,
    ) -> Result<CommHandle, String> {
        Err(format!("training step {step}: {err}"))
    }
}

/// [`train`]'s policy: a lost peer is fatal.
struct Abort;
impl Recovery for Abort {}

/// Runs the experiment.
///
/// On the in-proc backend this spawns `cfg.workers` thread ranks and
/// returns worker 0's report. On the TCP backend the calling process is
/// one rank of an externally-launched cluster (see
/// `cluster_comm::run_multiprocess`). Either way the report's shared
/// scalars agree on every rank: `replica_divergence` is allreduced (max)
/// and rank 0's evaluation metrics are broadcast before the workers
/// return, so a TCP rank no longer reports rank-local numbers
/// (`train_loss` remains each rank's own shard loss).
pub fn train(cfg: &TrainConfig) -> TrainReport {
    cfg.validate().unwrap_or_else(|e| panic!("{e}"));
    let cfg = cfg.clone();
    // Resolved once, before any rank starts: a cadence with nowhere to
    // write is a configuration error, not a silent no-op.
    let ckpt: Option<(u64, PathBuf)> = cfg.checkpoint_every.map(|every| {
        let dir = std::env::var(ENV_CKPT_DIR).unwrap_or_else(|_| {
            panic!("TrainConfig::checkpoint_every is set but {ENV_CKPT_DIR} names no directory")
        });
        (every as u64, PathBuf::from(dir))
    });

    // Tracing lifecycle: explicit config wins, the A2SGD_TRACE environment
    // (inherited by forked TCP rank processes) is the fallback. Each
    // process writes its own `trace-<pid>.jsonl` at the end of the run.
    let tracing = match &cfg.trace {
        Some(dir) => {
            a2sgd_trace::enable(dir);
            true
        }
        None => a2sgd_trace::init_from_env(),
    };

    let report = match cfg.backend {
        CommBackend::InProc => {
            let (vision, lm) = build_datasets(&cfg);
            let (cfgr, ckpt) = (&cfg, ckpt.as_ref());
            run_cluster(cfg.workers, cfg.profile, move |comm| {
                run_worker(cfgr, ckpt, comm, vision.as_deref(), lm.as_deref(), &mut Abort)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .0
            })
            .swap_remove(0)
        }
        CommBackend::Tcp => {
            let mut comm = CommHandle::tcp_from_env()
                .unwrap_or_else(|e| panic!("TCP backend needs the rendezvous env: {e}"));
            assert_eq!(
                comm.world(),
                cfg.workers,
                "A2SGD_WORLD disagrees with TrainConfig::workers"
            );
            train_rank(&cfg, &mut comm, ckpt.as_ref(), &mut Abort)
                .unwrap_or_else(|e| panic!("{e}"))
                .0
        }
    };
    if tracing {
        a2sgd_trace::flush_process_file();
        a2sgd_trace::disable();
    }
    report
}

/// One rank on a communicator the caller connected, under `recovery`, with
/// checkpoint cadence and directory `ckpt`: this rank's report and model.
pub fn train_rank(
    cfg: &TrainConfig,
    comm: &mut CommHandle,
    ckpt: Option<&(u64, PathBuf)>,
    recovery: &mut dyn Recovery,
) -> Result<(TrainReport, Box<dyn Module>), String> {
    cfg.validate()?;
    let (vision, lm) = build_datasets(cfg);
    run_worker(cfg, ckpt, comm, vision.as_deref(), lm.as_deref(), recovery)
}

/// Compute threads for one rank: `cores` divided among the `ranks_on_host`
/// ranks that share them, at least one — unless `RAYON_NUM_THREADS`
/// (`env_override`) names a width, which wins as it does everywhere else.
/// Two ranks on two cores get one thread each instead of two pools of two.
pub fn thread_budget(env_override: Option<usize>, cores: usize, ranks_on_host: usize) -> usize {
    env_override.filter(|&t| t > 0).unwrap_or((cores / ranks_on_host.max(1)).max(1))
}

/// One rank's run, inside its thread budget: every `par_*` call the rank
/// makes — GEMM stripes, conv tasks, the `mean2` sweeps — is that wide.
fn run_worker(
    cfg: &TrainConfig,
    ckpt: Option<&(u64, PathBuf)>,
    comm: &mut CommHandle,
    vision: Option<&SyntheticImages>,
    lm: Option<&MarkovText>,
    recovery: &mut dyn Recovery,
) -> Result<(TrainReport, Box<dyn Module>), String> {
    let threads = thread_budget(
        std::env::var("RAYON_NUM_THREADS").ok().and_then(|s| s.parse().ok()),
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        comm.ranks_on_host(),
    );
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap_or_else(|e| panic!("rank {}: thread pool: {e:?}", comm.rank()))
        .install(|| run_rank(cfg, ckpt, comm, vision, lm, recovery))
}

/// One rank's run, Algorithm 1 as one loop over global steps: data →
/// forward → loss, then the shared [`TrainStep`], then the closing
/// re-synchronization and report agreement. Every failure reaches one
/// recovery site, where `recovery` decides how the run goes on.
fn run_rank(
    cfg: &TrainConfig,
    ckpt: Option<&(u64, PathBuf)>,
    comm: &mut CommHandle,
    vision: Option<&SyntheticImages>,
    lm: Option<&MarkovText>,
    recovery: &mut dyn Recovery,
) -> Result<(TrainReport, Box<dyn Module>), String> {
    let threads = rayon::current_num_threads();
    if a2sgd_trace::enabled() {
        a2sgd_trace::set_thread_rank(comm.rank());
        a2sgd_trace::instant("pool/width", a2sgd_trace::Args::Value(threads as f64));
        // Announce the world plane, then drop a clock-alignment instant
        // right after a barrier: every rank's "sync_point" lands at the
        // same real moment, which is what the merger shifts process
        // clocks by.
        comm.set_plane("world");
        comm.barrier();
        a2sgd_trace::mark_sync_point();
    }
    let mut model = cfg.model.build(cfg.preset, cfg.seed);
    let n = param_count(model.as_mut());
    let mut ts = TrainStep::new(
        model.as_mut(),
        cfg.build_sync(n, comm),
        cfg.opt,
        cfg.schedule,
        cfg.bucket_bytes,
        cfg.overlap_backward,
    );

    let label = format!("{}/{}/P{}", cfg.model.name(), cfg.algo_label(), cfg.workers);
    let mut r = TrainReport { label, threads_per_rank: threads, ..TrainReport::default() };
    // This rank's steps' exchanges, and the samples they processed.
    let (mut sum, mut samples) = (SyncStats::default(), 0);

    // The configured world's smallest shard fixes the epoch length: every
    // rank plans it, and after a shrink still maps a step to its epoch.
    let train_len = lm.map_or(cfg.train_size, |m| m.num_examples().min(cfg.train_size));
    let ipe = (train_len / cfg.workers / cfg.batch_per_worker) as u64;
    assert!(ipe > 0, "shard too small for batch size");
    let total = cfg.epochs as u64 * ipe;

    let mut step = recovery.start(comm, &mut ts, model.as_mut())?;
    let first = step;
    let (mut shard, mut shard_key) = (Shard::range(0, 0), None);
    let (mut loss_sum, mut loss_n) = (0.0f64, 0usize);
    let mut recovered = false;
    let (divergence, resync_seconds, metric_bits) = 'run: loop {
        let err = 'step: {
            if step >= total {
                // ---- Algorithm 1 lines 9–10, then the report agreement: the
                // max divergence and rank 0's metrics, as f64 bits.
                let before = Ledger::read(comm);
                let mut bits: Vec<u64> = r.epochs.iter().map(|e| e.metric.to_bits()).collect();
                let closed = ts.resync(model.as_mut(), comm).and_then(|div| {
                    let seconds = before.spent(comm).comm_seconds;
                    let divs = comm.try_allgather(&[div.to_bits()])?;
                    comm.try_broadcast(0, &mut bits)?;
                    let div = divs.iter().map(|v| f64::from_bits(v[0])).fold(0.0f64, f64::max);
                    Ok((div, seconds, bits))
                });
                match closed {
                    Ok(closed) => break 'run closed,
                    Err(e) => break 'step e,
                }
            }
            match recovery.before_step(comm, step) {
                Ok(true) => {}
                Ok(false) => {
                    r.iters = (step - first) as usize;
                    return Ok((finish(r, &sum, samples, comm.stats()), model));
                }
                Err(e) => break 'step e,
            }
            // DistributedSampler semantics: a fresh global permutation per
            // epoch, interleaved across the live world's ranks (see
            // `Shard::new_permuted`).
            let (epoch, it) = ((step / ipe) as usize, (step % ipe) as usize);
            let key = Some((epoch, comm.rank(), comm.world()));
            if shard_key != key {
                let seed = cfg.seed ^ 0xB00C ^ (epoch as u64).wrapping_mul(0x9E37_79B9);
                shard = Shard::new_permuted(train_len, comm.rank(), comm.world(), seed);
                shard_key = key;
            }
            let t0 = Instant::now();

            // ---- batch ------------------------------------------------
            let data_ns = a2sgd_trace::now_ns();
            let lo = it * cfg.batch_per_worker;
            let idxs = &shard.indices()[lo..lo + cfg.batch_per_worker];
            let (x, targets) = match (vision, lm) {
                (Some(d), _) => synthdata::stack(d, idxs),
                (_, Some(m)) => m.lm_batch(idxs),
                _ => unreachable!("one dataset must exist"),
            };
            phase("phase/data", data_ns);

            // ---- forward / loss ----------------------------------------
            let fwd_ns = a2sgd_trace::now_ns();
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            let lo = softmax_cross_entropy(&logits, &targets);
            phase("phase/forward", fwd_ns);

            // ---- backward → sync → apply (the shared step) --------------
            let global_iter = step as usize;
            let want_hist = comm.rank() == 0 && cfg.grad_hist_iters.contains(&global_iter);
            let epoch_frac = epoch as f32 + it as f32 / ipe as f32;
            // World bytes attributable to this step's synchronization
            // (0 on local steps — nothing flies).
            let step_bytes_before = comm.stats().wire_bytes;
            let ran = ts.run(model.as_mut(), comm, step, cfg.lr.lr_at(epoch_frac), |m, hook| {
                m.backward_params(&lo.dlogits, hook);
                if want_hist {
                    let mut local = Vec::with_capacity(n);
                    flatten_grads(m, &mut local);
                    r.grad_histograms.push((global_iter, grad_histogram(&local)));
                }
            });
            let done = match ran {
                Ok(done) => done,
                Err(e) => break 'step e,
            };
            sum.wire_bits += done.stats.wire_bits;
            sum.intra_wire_bits += done.stats.intra_wire_bits;
            sum.inter_wire_bits += done.stats.inter_wire_bits;
            sum.compress_seconds += done.stats.compress_seconds;
            sum.exchange_seconds += done.stats.exchange_seconds;
            sum.overlap_seconds += done.stats.overlap_seconds;
            r.compute_seconds += t0.elapsed().as_secs_f64() - done.stats.exchange_seconds;
            r.comm_seconds += done.stats.comm_seconds;
            r.measured_sync_wire_bytes += comm.stats().wire_bytes - step_bytes_before;
            if done.plan == Plan::Local {
                r.local_steps += 1;
            } else {
                r.sync_steps += 1;
            }
            samples += cfg.batch_per_worker * comm.world();
            loss_sum += lo.loss as f64;
            loss_n += 1;
            recovery.after_step(&done, step);
            step += 1;

            // ---- checkpoint (rank 0, outside the step's timed wall): every
            // rank holds the same state after a synchronized step, so rank
            // 0's copy is a consistent global snapshot ----------------------
            if let Some((_, dir)) =
                ckpt.filter(|(k, _)| comm.rank() == 0 && *k > 0 && step % k == 0)
            {
                let path = dir.join(Checkpoint::file_name(step));
                std::fs::create_dir_all(dir)
                    .map_err(|e| e.to_string())
                    .and_then(|()| ts.capture(model.as_mut(), step, cfg.seed).write(&path))
                    .map_err(|e| format!("checkpoint {path:?}: {e}"))?;
                a2sgd_trace::instant("checkpoint/written", a2sgd_trace::Args::Value(step as f64));
            }

            // ---- evaluation at the epoch's end (worker 0, outside every
            // step's timed wall) ------------------------------------------
            if step % ipe == 0 {
                let metric =
                    if comm.rank() == 0 { evaluate(cfg, model.as_mut(), vision, lm) } else { 0.0 };
                r.epochs.push(EpochStats {
                    epoch: epoch + 1,
                    train_loss: loss_sum / loss_n as f64,
                    metric,
                    sim_seconds: r.compute_seconds + r.comm_seconds,
                });
                (loss_sum, loss_n) = (0.0, 0);
            }
            continue 'run;
        };

        // ---- the one recovery site --------------------------------------
        let epoch = step / ipe;
        *comm = recovery.on_err(err, comm, &mut ts, model.as_mut(), &mut step)?;
        recovered = true;
        // A catch-up may move `step` across an epoch boundary: keep one
        // record per finished epoch, so the metric broadcast agrees.
        if step / ipe != epoch {
            (loss_sum, loss_n) = (0.0, 0);
        }
        let (mut e, sim_seconds) = (r.epochs.len(), r.compute_seconds + r.comm_seconds);
        r.epochs.resize_with((step / ipe) as usize, || {
            e += 1;
            EpochStats { epoch: e, train_loss: f64::NAN, metric: 0.0, sim_seconds }
        });
    };
    r.iters = (step - first) as usize;
    r.comm_seconds += resync_seconds;
    r.replica_divergence = divergence;
    for (e, &m) in r.epochs.iter_mut().zip(&metric_bits) {
        e.metric = f64::from_bits(m);
    }

    // ---- audit instants: the communicators' own accounting, embedded in
    // the trace so `trace_report` can cross-check span algebra against it.
    if a2sgd_trace::enabled() {
        let s = comm.stats();
        let val = |name: &'static str, v: f64| {
            a2sgd_trace::instant(name, a2sgd_trace::Args::Value(v));
        };
        // After a recovery the world ledger covers only the last
        // communicator, the spans every one: a recovered rank leaves the
        // world figures out (`audit` does not ask for them in recovery mode).
        if !recovered {
            val("audit/wire_bytes/world", s.wire_bytes as f64);
            val("audit/messages/world", s.messages as f64);
            val("audit/bytes_sent/world", s.bytes_sent as f64);
        }
        if let Some((intra, inter)) = ts.sync.plane_traffic() {
            val("audit/wire_bytes/intra", intra.wire_bytes as f64);
            val("audit/messages/intra", intra.messages as f64);
            val("audit/bytes_sent/intra", intra.bytes_sent as f64);
            if let Some(inter) = inter {
                val("audit/wire_bytes/inter", inter.wire_bytes as f64);
                val("audit/messages/inter", inter.messages as f64);
                val("audit/bytes_sent/inter", inter.bytes_sent as f64);
            }
        }
        val("audit/overlap_seconds", sum.overlap_seconds);
        val("audit/exchange_seconds", sum.exchange_seconds);
        val("audit/overlap_enabled", if cfg.overlap_backward { 1.0 } else { 0.0 });
        if !cfg.schedule.is_every_step() {
            // The schedule's own ledger: `trace_report` checks these
            // against the per-step sched/local + sched/sync instants and
            // requires local + sync == total (the steps this rank ran: a
            // catch-up may replay or skip local ones).
            val("audit/sched/local_steps", r.local_steps as f64);
            val("audit/sched/sync_steps", r.sync_steps as f64);
            val("audit/sched/total_steps", (r.local_steps + r.sync_steps) as f64);
        }
    }

    Ok((finish(r, &sum, samples, comm.stats()), model))
}

/// Figure-1 capture: a ±3σ histogram of the local (pre-sync) gradient.
fn grad_histogram(flat: &[f32]) -> Histogram {
    let s = mini_tensor::stats::summary(flat);
    let range = (3.0 * s.std()).max(1e-6) as f32;
    let mut h = Histogram::new(-range, range, 41);
    h.add_all(flat);
    h
}

fn evaluate(
    cfg: &TrainConfig,
    model: &mut dyn Module,
    vision: Option<&SyntheticImages>,
    lm: Option<&MarkovText>,
) -> f64 {
    if let Some(d) = vision {
        let shard = Shard::range(cfg.train_size, cfg.train_size + cfg.eval_size);
        let bi = BatchIter::new(d, &shard, cfg.batch_per_worker.min(cfg.eval_size));
        let mut correct = 0usize;
        let mut total = 0usize;
        for (x, y) in bi {
            let logits = model.forward(&x, Mode::Eval);
            let out = softmax_cross_entropy(&logits, &y);
            correct += out.correct;
            total += y.len();
        }
        metrics::top1_accuracy(correct, total) as f64
    } else {
        let m = lm.unwrap();
        // Evaluate on the held-out tail of the corpus.
        let start = cfg.train_size;
        let end = (start + cfg.eval_size).min(m.num_examples());
        let mut ce_sum = 0.0f64;
        let mut batches = 0usize;
        let b = cfg.batch_per_worker.min(end - start).max(1);
        let mut i = start;
        while i + b <= end {
            let idxs: Vec<usize> = (i..i + b).collect();
            let (x, targets) = m.lm_batch(&idxs);
            let logits = model.forward(&x, Mode::Eval);
            let out = softmax_cross_entropy(&logits, &targets);
            ce_sum += out.loss as f64;
            batches += 1;
            i += b;
        }
        metrics::perplexity(ce_sum / batches.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(algo: AlgoKind, workers: usize) -> TrainConfig {
        TrainConfig {
            model: ModelKind::Fnn3,
            preset: Preset::Scaled,
            algo,
            workers,
            epochs: 2,
            batch_per_worker: 16,
            train_size: 320,
            eval_size: 160,
            lr: LrSchedule::constant(0.01),
            opt: OptKind::Sgd { momentum: 0.9, weight_decay: 0.0 },
            seed: 42,
            backend: CommBackend::InProc,
            bucket_bytes: None,
            overlap_backward: false,
            topology: Topology::Flat,
            schedule: SchedKind::EveryStep,
            profile: NetworkProfile::infiniband_100g(),
            grad_hist_iters: vec![0, 5],
            checkpoint_every: None,
            trace: None,
        }
    }

    #[test]
    fn thread_budget_is_cores_over_ranks_on_host_unless_overridden() {
        assert_eq!(thread_budget(None, 2, 2), 1, "the benchmark box: one thread per rank");
        assert_eq!(thread_budget(None, 2, 1), 2, "a lone rank keeps both cores");
        assert_eq!(thread_budget(None, 16, 4), 4);
        assert_eq!(thread_budget(None, 2, 8), 1, "never zero");
        assert_eq!(thread_budget(Some(3), 2, 8), 3, "RAYON_NUM_THREADS wins");
        assert_eq!(thread_budget(Some(0), 16, 4), 4, "0 names no width");
    }

    #[test]
    fn dense_training_learns_something() {
        let r = train(&tiny_cfg(AlgoKind::Dense, 2));
        assert_eq!(r.epochs.len(), 2);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert!(r.epochs[1].train_loss < r.epochs[0].train_loss + 0.1);
        assert!(r.total_sim_seconds > 0.0);
        assert_eq!(r.grad_histograms.len(), 2);
    }

    #[test]
    fn a2sgd_training_learns_and_uses_64_bits() {
        let r = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert_eq!(r.wire_bits_per_iter, 64);
        // Replicas drifted (local residuals) but stayed bounded.
        assert!(r.replica_divergence > 0.0);
        assert!(r.replica_divergence < 1.0, "divergence {}", r.replica_divergence);
    }

    #[test]
    fn dense_replicas_do_not_diverge() {
        let r = train(&tiny_cfg(AlgoKind::Dense, 2));
        assert!(r.replica_divergence < 1e-5, "dense divergence {}", r.replica_divergence);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        let b = train(&tiny_cfg(AlgoKind::A2sgd, 2));
        assert_eq!(a.final_metric, b.final_metric);
        let ea: Vec<f64> = a.epochs.iter().map(|e| e.train_loss).collect();
        let eb: Vec<f64> = b.epochs.iter().map(|e| e.train_loss).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn bucketed_training_is_bit_identical_to_whole_model() {
        // The bucket cap is a latency knob, not a semantics knob: the full
        // training trajectory — losses, metrics, divergence — must be
        // bit-identical with pipelined 4 KiB buckets.
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4)] {
            let whole = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.bucket_bytes = Some(4096);
            let bucketed = train(&cfg);
            assert_eq!(whole.final_metric, bucketed.final_metric, "{}", algo.name());
            assert_eq!(whole.replica_divergence, bucketed.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = whole.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = bucketed.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
        }
        // Dense and A2SGD also keep identical wire accounting (no per-
        // bucket padding/scale overhead in their encodings).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let whole = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.bucket_bytes = Some(4096);
            assert_eq!(whole.wire_bits_per_iter, train(&cfg).wire_bits_per_iter);
        }
    }

    #[test]
    fn hook_driven_training_is_bit_identical_to_single_shot() {
        // overlap_backward only moves exchange time under backward
        // compute; the training trajectory must be bit-identical for both
        // the streaming (Dense) and staged (A2SGD/QSGD) session paths,
        // with and without bucketing.
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::Qsgd(4)] {
            for cap in [None, Some(4096)] {
                let reference = train(&tiny_cfg(algo, 2));
                let mut cfg = tiny_cfg(algo, 2);
                cfg.overlap_backward = true;
                cfg.bucket_bytes = cap;
                let hooked = train(&cfg);
                assert_eq!(reference.final_metric, hooked.final_metric, "{}", algo.name());
                assert_eq!(
                    reference.replica_divergence,
                    hooked.replica_divergence,
                    "{}",
                    algo.name()
                );
                let la: Vec<u64> =
                    reference.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                let lb: Vec<u64> = hooked.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
                assert_eq!(la, lb, "{} cap {cap:?}", algo.name());
                assert_eq!(reference.grad_histograms.len(), hooked.grad_histograms.len());
            }
        }
    }

    #[test]
    fn report_splits_compress_and_exchange_time() {
        let r = train(&tiny_cfg(AlgoKind::TopK(0.01), 2));
        assert!(r.avg_compress_seconds > 0.0);
        // In-proc collectives are priced, not timed; the measured wall time
        // inside them is still accumulated and must be finite/non-negative.
        assert!(r.avg_exchange_seconds >= 0.0 && r.avg_exchange_seconds.is_finite());
    }

    /// `comm_seconds` is a price list applied to the frames, not a
    /// measurement: moved by the profile and by nothing the host does, and
    /// never mixed into the losses. (That it is bit-equal run to run and
    /// under overlap is the `comm_s` field of `tests/fingerprint.rs`.)
    #[test]
    fn comm_seconds_are_a_reproducible_price() {
        let losses = |r: &TrainReport| -> Vec<u64> {
            r.epochs.iter().map(|e| e.train_loss.to_bits()).collect()
        };
        let mut slow = tiny_cfg(AlgoKind::Dense, 2);
        slow.profile = NetworkProfile::ethernet_1g();
        let (fast, slow) = (train(&tiny_cfg(AlgoKind::Dense, 2)), train(&slow));
        assert!(slow.comm_seconds > fast.comm_seconds, "1 GbE must price dense above InfiniBand");
        assert_eq!(losses(&fast), losses(&slow));
        for r in [&fast, &slow] {
            assert!(r.comm_seconds > 0.0 && r.compute_seconds > 0.0);
            assert_eq!(r.total_sim_seconds, r.compute_seconds + r.comm_seconds);
        }
    }

    #[test]
    fn hier_group_size_one_is_bit_identical_to_flat() {
        // Singleton groups make every rank a leader and the intra plane a
        // no-op: the hierarchical wrapper must reproduce the flat run
        // bit-for-bit, including the wire accounting (all bits inter).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let flat = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.topology = Topology::Hier { group_size: 1 };
            let hier = train(&cfg);
            assert_eq!(flat.final_metric, hier.final_metric, "{}", algo.name());
            assert_eq!(flat.replica_divergence, hier.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = flat.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = hier.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
            assert_eq!(flat.wire_bits_per_iter, hier.wire_bits_per_iter, "{}", algo.name());
            assert_eq!(hier.intra_wire_bits_per_iter, 0);
            assert_eq!(hier.inter_wire_bits_per_iter, hier.wire_bits_per_iter);
        }
    }

    #[test]
    fn hier_a2sgd_trains_with_o1_inter_traffic() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 4);
        cfg.topology = Topology::Hier { group_size: 2 };
        let r = train(&cfg);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        // Worker 0 leads group 0: its inter-plane traffic is exactly the
        // O(1) A2SGD packet per iteration, independent of model size.
        assert_eq!(r.inter_wire_bits_per_iter, 64);
        assert!(r.intra_wire_bits_per_iter > 0, "dense intra plane must carry the gradient");
        assert_eq!(r.wire_bits_per_iter, r.intra_wire_bits_per_iter + r.inter_wire_bits_per_iter);
        assert!(r.label.contains("hier(dense, A2SGD)"), "label {}", r.label);
    }

    #[test]
    fn fixed1_schedule_is_bit_identical_to_every_step() {
        // Degenerate windows take the classic gradient path, so `fixed1`
        // must reproduce the unscheduled trainer bit-for-bit (the full
        // 11-algorithm matrix runs in tests/sched_parity.rs).
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd] {
            let every = train(&tiny_cfg(algo, 2));
            let mut cfg = tiny_cfg(algo, 2);
            cfg.schedule = SchedKind::Fixed(1);
            let fixed1 = train(&cfg);
            assert_eq!(every.final_metric, fixed1.final_metric, "{}", algo.name());
            assert_eq!(every.replica_divergence, fixed1.replica_divergence, "{}", algo.name());
            let la: Vec<u64> = every.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let lb: Vec<u64> = fixed1.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(la, lb, "{}", algo.name());
            assert_eq!(every.wire_bits_per_iter, fixed1.wire_bits_per_iter, "{}", algo.name());
            assert_eq!(fixed1.sync_steps, fixed1.iters);
            assert_eq!(fixed1.local_steps, 0);
        }
    }

    #[test]
    fn fixed_period_skips_syncs_and_cuts_wire_bits() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 2);
        cfg.schedule = SchedKind::Fixed(4);
        let r = train(&cfg);
        assert_eq!(r.sync_steps + r.local_steps, r.iters);
        assert_eq!(r.sync_steps, r.iters / 4, "one sync per 4-step window");
        // Effective bits/step: the 64-bit packet amortized over the window.
        assert_eq!(r.wire_bits_per_iter, 64 * r.sync_steps as u64 / r.iters as u64);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert!(r.label.contains("sched(fixed4, A2SGD)"), "label {}", r.label);
    }

    #[test]
    fn post_local_warmup_counts_windows_correctly() {
        let mut cfg = tiny_cfg(AlgoKind::Dense, 2);
        cfg.schedule = SchedKind::PostLocal { warmup: 5, h: 4 };
        let r = train(&cfg);
        // 5 warmup syncs, then 4-step windows over the remaining steps.
        let expect_syncs = 5 + (r.iters - 5) / 4;
        assert_eq!(r.sync_steps, expect_syncs);
        assert_eq!(r.sync_steps + r.local_steps, r.iters);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
    }

    #[test]
    fn adaptive_schedule_trains_on_both_dispersion_paths() {
        // The A2SGD family: free dispersion from the gathered two-means
        // packets, so a sync costs the packet and nothing else; Dense: the
        // explicit 128-bit drift allgather fallback. All must agree across
        // ranks (the run would deadlock otherwise) and train.
        for algo in [AlgoKind::A2sgd, AlgoKind::A2sgdCarry, AlgoKind::Dense] {
            let mut cfg = tiny_cfg(algo, 2);
            cfg.schedule = SchedKind::Adaptive(2);
            // 16 iterations: 64 bits per sync amortize to whole bits.
            cfg.train_size = 256;
            let r = train(&cfg);
            assert_eq!(r.sync_steps + r.local_steps, r.iters, "{}", algo.name());
            assert!(r.local_steps > 0, "{} adaptive never went local", algo.name());
            assert!(r.final_metric > 30.0, "{} accuracy {}", algo.name(), r.final_metric);
            if algo != AlgoKind::Dense {
                let bits = r.wire_bits_per_iter * r.iters as u64;
                assert_eq!(bits, 64 * r.sync_steps as u64, "{} pays past its packet", algo.name());
            }
        }
    }

    #[test]
    fn scheduled_hier_composes_with_o1_inter_traffic() {
        let mut cfg = tiny_cfg(AlgoKind::A2sgd, 4);
        cfg.topology = Topology::Hier { group_size: 2 };
        cfg.schedule = SchedKind::Fixed(4);
        let r = train(&cfg);
        assert!(r.final_metric > 30.0, "accuracy {} too low", r.final_metric);
        assert_eq!(r.sync_steps, r.iters / 4);
        // The O(1) inter-plane claim survives the composition: 64 bits per
        // sync, amortized over the window.
        assert_eq!(r.inter_wire_bits_per_iter, 64 * r.sync_steps as u64 / r.iters as u64);
        assert!(r.label.contains("sched(fixed4, hier(dense, A2SGD))"), "label {}", r.label);
    }

    #[test]
    fn scheduled_runs_are_deterministic() {
        for sched in [SchedKind::Fixed(4), SchedKind::Adaptive(2)] {
            let mut cfg = tiny_cfg(AlgoKind::A2sgd, 2);
            cfg.schedule = sched;
            let a = train(&cfg);
            let b = train(&cfg);
            assert_eq!(a.final_metric, b.final_metric);
            assert_eq!(a.sync_steps, b.sync_steps);
            let ea: Vec<u64> = a.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            let eb: Vec<u64> = b.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
            assert_eq!(ea, eb);
        }
    }

    /// When the workers do not divide `train_size`, shards differ by one
    /// sample from rank to rank. Every rank must still plan the same epoch
    /// length, or the ranks wait forever in mismatched collectives.
    #[test]
    fn uneven_shards_agree_on_the_epoch_length() {
        // Shards of 32 and 31 at P = 2, of 32, 32 and 31 at P = 3: two
        // batches of 16 on some ranks, one on the rest.
        for (workers, train_size) in [(2, 63), (3, 95)] {
            let mut cfg = tiny_cfg(AlgoKind::Dense, workers);
            cfg.train_size = train_size;
            // A hung world cannot be joined: wait for it on a channel.
            let (tx, rx) = std::sync::mpsc::channel();
            let world = std::thread::spawn(move || {
                let iters = run_cluster(workers, cfg.profile, |comm| {
                    train_rank(&cfg, comm, None, &mut Abort).map(|(r, _)| r.iters)
                });
                let _ = tx.send(iters);
            });
            let iters = match rx.recv_timeout(std::time::Duration::from_secs(60)) {
                Ok(iters) => iters,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    panic!("P = {workers}, train_size {train_size}: hung")
                }
                Err(_) => std::panic::resume_unwind(world.join().unwrap_err()),
            };
            world.join().unwrap();
            let iters: Vec<usize> = iters.into_iter().map(Result::unwrap).collect();
            assert_eq!(iters, vec![2; workers], "P = {workers}: one step per epoch on every rank");
        }
    }

    /// An empty held-out set is refused by name before any collective. It
    /// used to panic on rank 0 after a vision model's first epoch, and to
    /// report the LSTM's perplexity as 1.0.
    fn refuses_an_empty_eval_set(model: ModelKind) {
        let mut cfg = tiny_cfg(AlgoKind::Dense, 2);
        (cfg.model, cfg.eval_size) = (model, 0);
        for (err, messages) in run_cluster(2, cfg.profile, |comm| {
            (train_rank(&cfg, comm, None, &mut Abort).err(), comm.stats().messages)
        }) {
            assert_eq!(err.as_deref(), Some("TrainConfig::eval_size must be at least 1"));
            assert_eq!(messages, 0, "refused after a collective");
        }
        let panic = std::panic::catch_unwind(|| train(&cfg)).unwrap_err();
        assert_eq!(
            panic.downcast_ref::<String>().unwrap(),
            "TrainConfig::eval_size must be at least 1"
        );
    }

    #[test]
    fn empty_eval_set_is_refused_for_a_vision_model() {
        refuses_an_empty_eval_set(ModelKind::Fnn3);
    }

    #[test]
    fn empty_eval_set_is_refused_for_the_language_model() {
        refuses_an_empty_eval_set(ModelKind::LstmPtb);
    }

    #[test]
    fn wire_accounting_matches_formula() {
        for algo in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::TopK(0.01)] {
            let r = train(&tiny_cfg(algo, 2));
            let mut m = ModelKind::Fnn3.build(Preset::Scaled, 42);
            let n = param_count(m.as_mut());
            let expect = algo.build(n, 0, 0).wire_bits_formula(n);
            assert_eq!(r.wire_bits_per_iter, expect, "{}", algo.name());
        }
    }
}
