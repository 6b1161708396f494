//! Layer pass: a harness-owned replica of the trainer's step, composed only
//! of public calls into each crate, with a span around every call.
//!
//! Thread ranks share one clock (one `Instant` origin) and use the
//! workload's own data plane: `run_cluster` mailboxes for the in-proc
//! workloads, `run_cluster_tcp_threads` loopback sockets for the TCP ones.
//! The replica mirrors `a2sgd::trainer::run_worker` for an unscheduled,
//! flat-topology run — including its seed derivations, which the trainer
//! keeps private — and the pass checks the mirror by comparing the
//! replica's first-epoch loss with `train()`'s.

use crate::alloc;
use crate::spans::{self, Recorder, Span};
use crate::stats;
use crate::workloads::{Workload, EPOCHS};
use a2sgd::trainer::OptKind;
use a2sgd::{HookLayout, HookedStep, TrainConfig};
use cluster_comm::{run_cluster, run_cluster_tcp_threads, CommHandle};
use gradcomp::SyncStats;
use mini_nn::flat::{flatten_grads, param_count, param_sizes, scatter_grads};
use mini_nn::loss::softmax_cross_entropy;
use mini_nn::models::LstmLmConfig;
use mini_nn::module::{Mode, ModuleExt};
use mini_nn::optim::Sgd;
use mini_tensor::Tensor;
use std::time::Instant;
use synthdata::{Dataset, MarkovText, Shard, SyntheticImages, VisionSpec};

/// The training set, built the way `a2sgd::trainer::build_datasets` does.
enum Data {
    Vision(SyntheticImages),
    Text(MarkovText),
}

impl Data {
    fn new(cfg: &TrainConfig) -> Self {
        let examples = cfg.train_size + cfg.eval_size;
        if cfg.model.is_language_model() {
            let seq = 16;
            let vocab = LstmLmConfig::preset(cfg.preset).vocab;
            Data::Text(MarkovText::new(vocab, 4, (examples + 1) * seq + 1, seq, cfg.seed ^ 0x1A7A))
        } else {
            let spec = match cfg.model {
                mini_nn::models::ModelKind::Fnn3 => VisionSpec::mnist_like(),
                _ => VisionSpec::cifar_like(),
            };
            Data::Vision(SyntheticImages::new(spec, examples, cfg.seed ^ 0xDA7A))
        }
    }

    /// Lazy per-sample synthesis plus batch assembly.
    fn batch(&self, idxs: &[usize]) -> (Tensor, Vec<usize>) {
        match self {
            Data::Text(m) => m.lm_batch(idxs),
            Data::Vision(d) => {
                let (first, _) = d.sample(idxs[0]);
                let per = first.numel();
                let mut dims = vec![idxs.len()];
                dims.extend_from_slice(first.shape().dims());
                let mut data = vec![0.0f32; idxs.len() * per];
                let mut labels = Vec::with_capacity(idxs.len());
                for (bi, &i) in idxs.iter().enumerate() {
                    let (xi, yi) = d.sample(i);
                    data[bi * per..(bi + 1) * per].copy_from_slice(xi.as_slice());
                    labels.push(yi);
                }
                (Tensor::from_vec(data, &dims[..]), labels)
            }
        }
    }
}

/// Counts read at one step's boundaries on one rank.
#[derive(Debug, Clone, Copy, Default)]
struct StepCounts {
    messages: u64,
    payload_bytes: u64,
    wire_bytes: u64,
    sync: SyncStats,
    loss: f32,
}

/// What one rank of a replica run hands back.
struct RankOut {
    spans: Vec<Span>,
    counts: Vec<StepCounts>,
    max_inflight: usize,
    params: usize,
    /// `(allocations, bytes)` of the whole process between the post-warm-up
    /// barrier and the closing one.
    allocs: (u64, u64),
}

/// Shape of one replica run.
#[derive(Clone, Copy)]
pub struct ReplicaPlan {
    pub world: usize,
    /// Steps per epoch (the sampler reshuffles and the learning-rate clock
    /// advances as in a long run of that epoch length).
    pub steps: usize,
    /// Steps to run in all.
    pub total: usize,
    /// Leading steps excluded from every statistic.
    pub warmup: usize,
    /// Record child spans on every odd step and count allocations. Even
    /// steps stay untraced, so traced and untraced steps alternate under
    /// the same host conditions and their difference is the tracing cost.
    pub traced: bool,
}

impl ReplicaPlan {
    fn traces(&self, step: usize) -> bool {
        self.traced && step % 2 == 1
    }
}

fn replica_rank(
    cfg: &TrainConfig,
    data: &Data,
    plan: ReplicaPlan,
    origin: Instant,
    comm: &mut CommHandle,
) -> RankOut {
    let rank = comm.rank();
    let mut model = cfg.model.build(cfg.preset, cfg.seed);
    let n = param_count(model.as_mut());
    let mut sync = cfg.algo.build(n, cfg.seed ^ 0x5EED, rank);
    let OptKind::Sgd { momentum, weight_decay } = cfg.opt else {
        panic!("benchmark workloads train with momentum SGD");
    };
    let mut opt = Sgd::new(momentum, weight_decay);
    let bounds = match cfg.bucket_bytes {
        Some(cap) => gradcomp::bucket_bounds(&param_sizes(model.as_mut()), cap),
        None => vec![0..n; 1],
    };
    let layout = cfg.overlap_backward.then(|| HookLayout::of(model.as_mut(), cfg.bucket_bytes));
    let mut flats = [Vec::with_capacity(n), Vec::with_capacity(n)];

    let (b, k) = (cfg.batch_per_worker, plan.steps);
    let mut rec = Recorder::new(origin, plan.total * 6);
    let mut counts = Vec::with_capacity(plan.total);
    let mut allocs_at_start = (0, 0);
    for epoch in 0..plan.total.div_ceil(k) {
        // Past the workload's own epochs the schedule of epochs (sampler
        // permutation, learning rate) replays from its start, so every
        // replica step runs at a learning rate a long run also uses.
        let e = epoch % EPOCHS;
        let shard = Shard::new_permuted(
            cfg.train_size,
            rank,
            cfg.workers,
            cfg.seed ^ 0xB00C ^ (e as u64).wrapping_mul(0x9E37_79B9),
        );
        for it in 0..k.min(plan.total - epoch * k) {
            let step = epoch * k + it;
            if step == plan.warmup {
                comm.barrier();
                allocs_at_start = alloc::snapshot();
            }
            let before = comm.stats();
            rec.begin_step(step, plan.traces(step));

            rec.open("data.batch");
            let (x, targets) = data.batch(&shard.indices()[it * b..(it + 1) * b]);
            rec.close();

            rec.open("nn.forward");
            model.zero_grad();
            let logits = model.forward(&x, Mode::Train);
            rec.close();

            rec.open("nn.loss");
            let lo = softmax_cross_entropy(&logits, &targets);
            rec.close();

            let flat = &mut flats[step % 2];
            let sync_stats = if let Some(layout) = &layout {
                // Hooked: buckets go to the session (and, for Dense, onto
                // the wire) from inside backward; `finish` drains the tail.
                let mut hooked = HookedStep::begin(layout, sync.as_mut(), flat, comm);
                rec.open("nn.backward");
                let _ = model.backward_hooked(&lo.dlogits, &mut hooked);
                rec.close();
                rec.open("compress.sync");
                let s = hooked.finish();
                rec.close();
                s
            } else {
                rec.open("nn.backward");
                let _ = model.backward(&lo.dlogits);
                rec.close();
                rec.open("nn.flatten");
                flatten_grads(model.as_mut(), flat);
                rec.close();
                rec.open("compress.sync");
                let s = sync.sync_bucketed(flat, &bounds, comm);
                rec.close();
                s
            };

            rec.open("nn.scatter");
            scatter_grads(model.as_mut(), flat);
            rec.close();

            rec.open("nn.optim");
            opt.step(model.as_mut(), cfg.lr.lr_at(e as f32 + it as f32 / k as f32));
            rec.close();

            rec.end_step();
            let after = comm.stats();
            counts.push(StepCounts {
                messages: after.messages - before.messages,
                payload_bytes: after.bytes_sent - before.bytes_sent,
                wire_bytes: after.wire_bytes - before.wire_bytes,
                sync: sync_stats,
                loss: lo.loss,
            });
        }
    }
    comm.barrier();
    let end = alloc::snapshot();
    RankOut {
        spans: rec.into_spans(),
        counts,
        max_inflight: comm.max_inflight(),
        params: n,
        allocs: (end.0 - allocs_at_start.0, end.1 - allocs_at_start.1),
    }
}

/// Runs `f` on `world` thread ranks over the workload's data plane.
pub fn on_cluster<T: Send>(
    w: &Workload,
    world: usize,
    f: impl Fn(&mut CommHandle) -> T + Sync,
) -> Vec<T> {
    if w.tcp {
        run_cluster_tcp_threads(world, f)
    } else {
        run_cluster(world, cluster_comm::NetworkProfile::infiniband_100g(), f)
    }
}

/// Per-step statistics of one replica run (rank 0 unless stated).
pub struct ReplicaStats {
    /// Wall ms of every untraced post-warm-up step.
    pub step_ms: Vec<f64>,
    /// Wall ms of every traced post-warm-up step.
    pub traced_step_ms: Vec<f64>,
    /// Mean loss over the first epoch (or the whole run if shorter) —
    /// `train()`'s `epochs[0].train_loss` if the replica prices the same work.
    pub first_epoch_loss: f64,
    /// `(sync wire bits, sync wire bytes)` of every step from the first.
    traffic: Vec<(u64, u64)>,
    pub params: usize,
    pub wire_bits_per_step: f64,
    pub messages_per_step: f64,
    pub payload_bytes_per_step: f64,
    pub framing_bytes_per_step: f64,
    pub encode_ms: f64,
    pub exchange_ms: f64,
    pub overlap_ms: f64,
    pub max_inflight: usize,
    pub rank_skew_ms: f64,
    pub allocs_per_step: f64,
    pub alloc_kib_per_step: f64,
    /// All ranks' spans, for the trace file.
    pub spans: Vec<Vec<Span>>,
    plan: ReplicaPlan,
}

pub fn run_replica(w: &Workload, seed: u64, plan: ReplicaPlan) -> ReplicaStats {
    let cfg = w.config(seed, plan.world, EPOCHS, plan.steps);
    let data = Data::new(&cfg);
    let origin = Instant::now();
    alloc::set_counting(plan.traced);
    let mut ranks = on_cluster(w, plan.world, |comm| replica_rank(&cfg, &data, plan, origin, comm));
    alloc::set_counting(false);
    let spans: Vec<Vec<Span>> = ranks.iter_mut().map(|r| std::mem::take(&mut r.spans)).collect();

    let step_ends = |rank: &[Span]| -> Vec<u64> {
        rank.iter().filter(|s| s.parent.is_none()).map(|s| s.end_ns).collect()
    };
    let skews: Vec<f64> = match spans.as_slice() {
        [a, b, ..] => step_ends(a)
            .iter()
            .zip(step_ends(b))
            .skip(plan.warmup)
            .map(|(&x, y)| x.abs_diff(y) as f64 / 1e6)
            .collect(),
        _ => vec![0.0],
    };

    let r0 = &ranks[0];
    let step_ms = |traced: bool| -> Vec<f64> {
        spans[0]
            .iter()
            .filter(|s| s.parent.is_none() && s.step >= plan.warmup)
            .filter(|s| plan.traces(s.step) == traced)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let timed = &r0.counts[plan.warmup..];
    let steps = timed.len() as f64;
    let total = |f: fn(&StepCounts) -> u64| timed.iter().map(f).sum::<u64>() as f64;
    let med_ms = |f: fn(&SyncStats) -> f64| {
        stats::median(&timed.iter().map(|c| f(&c.sync) * 1e3).collect::<Vec<_>>())
    };
    let rank_steps = steps * plan.world as f64;
    ReplicaStats {
        step_ms: step_ms(false),
        traced_step_ms: step_ms(true),
        first_epoch_loss: stats::mean(
            &r0.counts.iter().take(plan.steps).map(|c| c.loss as f64).collect::<Vec<_>>(),
        ),
        traffic: r0.counts.iter().map(|c| (c.sync.wire_bits, c.wire_bytes)).collect(),
        params: r0.params,
        wire_bits_per_step: total(|c| c.sync.wire_bits) / steps,
        messages_per_step: total(|c| c.messages) / steps,
        payload_bytes_per_step: total(|c| c.payload_bytes) / steps,
        framing_bytes_per_step: total(|c| c.wire_bytes - c.payload_bytes) / steps,
        encode_ms: med_ms(|s| s.compress_seconds),
        exchange_ms: med_ms(|s| s.exchange_seconds),
        overlap_ms: med_ms(|s| s.overlap_seconds),
        max_inflight: r0.max_inflight,
        rank_skew_ms: stats::median(&skews),
        allocs_per_step: r0.allocs.0 as f64 / rank_steps,
        alloc_kib_per_step: r0.allocs.1 as f64 / 1024.0 / rank_steps,
        spans,
        plan,
    }
}

/// One row of the per-layer table.
pub struct LayerRow {
    pub name: &'static str,
    /// Median over traced steps of the time this span name took in the step.
    pub median_ms: f64,
    /// Median over traced steps of the name's self time.
    pub self_ms: f64,
    /// `median_ms` as a share of the median traced step.
    pub share: f64,
}

impl ReplicaStats {
    /// `(sync wire bits, sync wire bytes)` summed over the first `steps`
    /// steps — what a `train()` run of that length reports as
    /// `wire_bits_per_iter · iters` and `measured_sync_wire_bytes`. `None`
    /// when the replica ran fewer steps.
    pub fn head_traffic(&self, steps: usize) -> Option<(u64, u64)> {
        let head = self.traffic.get(..steps)?;
        Some(head.iter().fold((0, 0), |acc, t| (acc.0 + t.0, acc.1 + t.1)))
    }

    /// Mean wall ms of every step but the first, traced or not: the
    /// replica's counterpart of `train()`'s marginal step time, which is a
    /// mean over a run's steps and leaves out the first the same way.
    pub fn mean_step_ms(&self) -> f64 {
        let roots: Vec<f64> = self.spans[0]
            .iter()
            .filter(|s| s.parent.is_none() && s.step >= 1)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        stats::mean(&roots)
    }

    /// Rank 0's step roots of the traced post-warm-up steps, by span index.
    fn traced_roots(&self) -> impl Iterator<Item = (usize, &Span)> {
        self.spans[0].iter().enumerate().filter(|(_, s)| {
            s.parent.is_none() && s.step >= self.plan.warmup && self.plan.traces(s.step)
        })
    }

    /// Rank 0's spans grouped by name over the traced post-warm-up steps,
    /// step root first.
    pub fn layer_rows(&self) -> Vec<LayerRow> {
        let all = &self.spans[0];
        let traced: Vec<usize> = self.traced_roots().map(|(_, s)| s.step).collect();
        let mut names: Vec<&'static str> = Vec::new();
        for s in all {
            if !names.contains(&s.name) {
                names.push(s.name);
            }
        }
        let step_median = stats::median(&self.traced_step_ms);
        names
            .into_iter()
            .map(|name| {
                let (mut dur, mut own) =
                    (vec![0.0f64; self.plan.total], vec![0.0; self.plan.total]);
                for (i, s) in all.iter().enumerate().filter(|(_, s)| s.name == name) {
                    dur[s.step] += s.dur_ns() as f64 / 1e6;
                    own[s.step] += spans::self_ns(all, i) as f64 / 1e6;
                }
                let pick = |v: &[f64]| traced.iter().map(|&step| v[step]).collect::<Vec<_>>();
                let median_ms = stats::median(&pick(&dur));
                LayerRow {
                    name,
                    median_ms,
                    self_ms: stats::median(&pick(&own)),
                    share: median_ms / step_median,
                }
            })
            .collect()
    }

    /// Median over traced steps of (time covered by child spans ÷ step time).
    pub fn layer_sum_share(&self) -> f64 {
        let all = &self.spans[0];
        let shares: Vec<f64> = self
            .traced_roots()
            .map(|(i, s)| spans::covered_ns(all, i) as f64 / s.dur_ns() as f64)
            .collect();
        stats::median(&shares)
    }
}

/// The table written to `layers.txt`.
pub fn layers_txt(w: &Workload, stats: &ReplicaStats, rows: &[LayerRow]) -> String {
    let mut out = format!(
        "{}: replica step, rank 0, medians over {} traced steps\n{:<16} {:>11} {:>11} {:>7}\n",
        w.name,
        stats.traced_step_ms.len(),
        "span",
        "median_ms",
        "self_ms",
        "share"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>11.4} {:>11.4} {:>6.1}%\n",
            r.name,
            r.median_ms,
            r.self_ms,
            r.share * 100.0
        ));
    }
    out
}
