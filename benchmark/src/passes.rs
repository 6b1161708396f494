//! The two passes over one workload: end to end (tracing off, fresh
//! processes) and layer by layer (the replica step, traced on alternate steps).

use crate::e2e::{E2e, SEEDS_PER_CALL};
use crate::hostref::{self, Host};
use crate::layers::{self, ReplicaPlan};
use crate::metrics::Values;
use crate::workloads::{Workload, EPOCHS, WORLD};
use crate::{probes, spans, stats};
use std::path::PathBuf;

/// What the command line asked for.
#[derive(Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Measuring budget per workload and pass; 0 with `quick`.
    pub seconds: f64,
    /// Smoke-test sizes (one set-up run, one ten-step run, a twenty-step
    /// layer pass): numbers are produced, none is trustworthy.
    pub quick: bool,
}

/// Post-warm-up steps a replica run must time: a p95 with ten samples
/// beyond it.
const MIN_TIMED_STEPS: usize = 200;
/// Relative distance allowed between the replica's first-epoch loss and
/// `train()`'s.
const LOSS_TOLERANCE: f64 = 0.05;

impl Plan {
    fn setup_runs(&self) -> usize {
        if self.quick {
            1
        } else {
            9
        }
    }

    /// Long runs a pass makes whatever the budget: one per seed of the call.
    pub fn min_long_runs(&self) -> usize {
        if self.quick {
            1
        } else {
            SEEDS_PER_CALL
        }
    }

    /// `(epochs, steps per epoch)` of a long run of `w`.
    fn long_shape(&self, w: &Workload) -> (usize, usize) {
        if self.quick {
            (1, 10)
        } else {
            (EPOCHS, w.steps)
        }
    }

    /// A fresh end-to-end pass over `w`; the caller feeds it runs.
    pub fn e2e(&self, w: &'static Workload) -> E2e {
        let (epochs, steps) = self.long_shape(w);
        E2e::new(w, self.seed, epochs, steps)
    }

    /// The whole end-to-end pass over one workload (the driver's mode; the
    /// full run interleaves workloads itself).
    pub fn e2e_pass(&self, w: &'static Workload) -> E2e {
        let (mut pass, mut host) = (self.e2e(w), Host::default());
        self.setup(&mut pass, &mut host);
        while pass.wants_long(self.min_long_runs(), self.seconds) {
            pass.long(&mut host);
        }
        pass
    }

    pub fn setup(&self, pass: &mut E2e, host: &mut Host) {
        for _ in 0..self.setup_runs() {
            pass.short(host);
        }
    }
}

/// Everything the layer pass over one workload produced.
pub struct LayerOutcome {
    pub values: Values,
    pub attempted: u64,
    pub errors: Vec<String>,
    /// `bench.calib_ms` timed before and after the pass.
    pub calib: (f64, f64),
}

/// Where results go: next to the build, `<target dir>/benchmark/`, with a
/// directory per workload for its `trace.json` and `layers.txt`.
pub fn out_root() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let target =
        exe.parent().and_then(|release| release.parent()).expect("exe in <target>/release");
    target.join("benchmark")
}

pub fn layer_pass(plan: &Plan, w: &'static Workload) -> LayerOutcome {
    let mut errors = Vec::new();
    let calib_first = probes::calib_ms();

    // `train()` itself: the loss the replica must reproduce and the step
    // time it is compared with.
    let (mut reference, mut host) = (plan.e2e(w), Host::default());
    for _ in 0..plan.setup_runs().min(3) {
        reference.short(&mut host);
    }
    for _ in 0..plan.min_long_runs() {
        reference.long(&mut host);
    }
    let train = reference.metrics().and(reference.first_long().cloned());
    errors.append(&mut reference.errors);
    let Some(train_report) = train else {
        errors.push("no reference train() run to compare the replica with".into());
        return LayerOutcome {
            values: vec![],
            attempted: reference.attempted,
            errors,
            calib: (calib_first, calib_first),
        };
    };
    let train_step_ms = stats::median(&reference.step_samples());
    let train_loss = train_report.epoch_losses[0];

    // One two-rank run alternating untraced and traced steps, long enough
    // for `MIN_TIMED_STEPS` of each and for the whole of a long run's
    // traffic; then the single-worker baseline.
    let (_, steps) = plan.long_shape(w);
    let (warmup, min_timed) = if plan.quick { (2, 9) } else { (10, MIN_TIMED_STEPS) };
    let raw_step_ms = stats::median(&reference.raw_step_samples());
    let steps_for = |share: f64| (plan.seconds * share * 1e3 / raw_step_ms.max(0.05)) as usize;
    let replica = |world, total, traced| {
        layers::run_replica(w, plan.seed, ReplicaPlan { world, steps, total, warmup, traced })
    };
    let total = steps_for(0.5).max(warmup + 2 * min_timed).max(train_report.iters);
    let (traced, traced_host) = host.around(|| replica(WORLD, total, true));
    let single = replica(1, steps_for(0.1).max(warmup + min_timed / 4), false);

    let off = (traced.first_epoch_loss - train_loss).abs() / train_loss;
    if off.is_nan() || off > LOSS_TOLERANCE {
        errors.push(format!(
            "replica's first-epoch loss {} is {:.1} % off train()'s {train_loss}: the layer table \
             does not price the trainer's work",
            traced.first_epoch_loss,
            off * 100.0
        ));
    }
    // Same seed, same work: the replica's first steps move exactly what the
    // `train()` run of that many steps reports.
    let iters = train_report.iters;
    let head = traced.head_traffic(iters).map(|(bits, bytes)| (bits / iters as u64, bytes));
    if head != Some((train_report.wire_bits_per_iter, train_report.sync_wire_bytes)) {
        errors.push(format!(
            "replica's first {iters} steps: (wire bits per step, sync wire bytes) = {head:?}, \
             train() reports ({}, {})",
            train_report.wire_bits_per_iter, train_report.sync_wire_bytes
        ));
    }

    let trace_json = spans::chrome_trace_json(&traced.spans);
    for (rank, s) in traced.spans.iter().enumerate() {
        if let Err(e) = spans::check_well_formed(s) {
            errors.push(format!("rank {rank} trace malformed: {e}"));
        }
    }
    if let Err(e) = a2sgd_trace::json::validate(&trace_json) {
        errors.push(format!("trace.json does not parse: {e}"));
    }
    let rows = traced.layer_rows();
    let dir = out_root().join(w.name);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("trace.json"), &trace_json))
        .and_then(|()| {
            std::fs::write(dir.join("layers.txt"), layers::layers_txt(w, &traced, &rows))
        });
    if let Err(e) = written {
        errors.push(format!("write {}: {e}", dir.display()));
    }

    let span_ms = |name: &str| rows.iter().find(|r| r.name == name).map_or(0.0, |r| r.median_ms);
    // Like with like: `train()`'s marginal step is a mean over its steps at
    // the host's nominal speed, so it is compared with the replica's mean
    // step brought to that speed by the reference passes around its run.
    let replica_step_ms = traced.mean_step_ms() / hostref::slowdown(&traced_host.ref_ms);
    let step_p50 = stats::median(&traced.step_ms);
    let traced_p50 = stats::median(&traced.traced_step_ms);
    let single_p50 = stats::median(&single.step_ms);
    let mut values: Values = vec![
        ("data.batch_ms", span_ms("data.batch")),
        ("nn.forward_ms", span_ms("nn.forward")),
        ("nn.loss_ms", span_ms("nn.loss")),
        ("nn.backward_ms", span_ms("nn.backward")),
        ("nn.flatten_ms", span_ms("nn.flatten")),
        ("nn.scatter_ms", span_ms("nn.scatter")),
        ("nn.optim_ms", span_ms("nn.optim")),
        ("nn.param_count", traced.params as f64),
        ("compress.sync_ms", span_ms("compress.sync")),
        ("compress.encode_ms", traced.encode_ms),
        ("compress.wire_bits_per_step", traced.wire_bits_per_step),
        ("compress.ratio", 32.0 * traced.params as f64 / traced.wire_bits_per_step),
        ("comm.exchange_ms", traced.exchange_ms),
        ("comm.overlap_ms", traced.overlap_ms),
        ("comm.messages_per_step", traced.messages_per_step),
        ("comm.payload_bytes_per_step", traced.payload_bytes_per_step),
        ("comm.framing_bytes_per_step", traced.framing_bytes_per_step),
        ("comm.max_inflight", traced.max_inflight as f64),
        ("comm.rank_skew_ms", traced.rank_skew_ms),
        ("core.step_ms_p50", step_p50),
        (
            "core.step_self_ms",
            rows.iter().find(|r| r.name == spans::STEP).map_or(0.0, |r| r.self_ms),
        ),
        ("core.layer_sum_share", traced.layer_sum_share()),
        ("core.step_gap_pct", (train_step_ms - replica_step_ms) / train_step_ms * 100.0),
        ("core.single_worker_step_ms", single_p50),
        ("core.scaling_efficiency", single_p50 / step_p50),
        ("core.allocs_per_step", traced.allocs_per_step),
        ("core.alloc_kib_per_step", traced.alloc_kib_per_step),
        ("trace.overhead_pct", (traced_p50 - step_p50) / step_p50 * 100.0),
    ];
    // Absent in `--quick`: too few steps for a p95 with ten samples beyond.
    values.extend(stats::tail_percentile(&traced.step_ms, 95.0).map(|v| ("core.step_ms_p95", v)));
    values.extend(probes::run(w, plan.seed, traced.params, if plan.quick { 5 } else { 30 }));
    let calib_last = probes::calib_ms();
    values.push(("bench.calib_ms", (calib_first + calib_last) / 2.0));
    values.push(("bench.host_ref_ms", stats::median(&reference.host_ref_samples())));

    LayerOutcome {
        values,
        attempted: reference.attempted + 2,
        errors,
        calib: (calib_first, calib_last),
    }
}
