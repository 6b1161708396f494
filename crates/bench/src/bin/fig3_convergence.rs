//! Figures 3 / 6 / 7 / 8 regenerator: convergence accuracy (top-1 % or
//! perplexity) per epoch for Dense, TopK, QSGD, GaussianK, A2SGD — plus
//! the two-level `hier(dense, a2sgd)` topology alongside the flat five.
//!
//! `--workers 8` reproduces Figure 3; 2/4/16 reproduce Figures 6/7/8.
//! `--model fnn3|vgg16|resnet20|lstm|all` selects the workload (default:
//! the two fast ones). Paper shape to verify: A2SGD tracks Dense most
//! closely; TopK is the best of the rest; QSGD trails.
//!
//! `--backend tcp` runs every combination as a real multi-process TCP
//! cluster over loopback (fork-launcher re-exec): the companion
//! `*_traffic.csv` then carries *measured socket bytes* next to the
//! logical wire-bit accounting. `--algo <name>` restricts the sweep to one
//! algorithm (with `--group-size N` for the hierarchical topology) — the
//! same flags the launcher passes its children.
//!
//! `--trace-out <dir>` records a span trace of every rank into
//! `<dir>/<model>_<algo>/` (per-process `trace-*.jsonl`; forked TCP ranks
//! inherit the setting through `A2SGD_TRACE`). Merge and audit with the
//! `trace_report` binary. `--overlap` turns on hook-driven
//! backward-overlapped synchronization on every combination (compose with
//! `--bucket-bytes N` for multi-bucket pipelines worth looking at).
//!
//! `--schedule <spec>` composes a sync schedule with every combination
//! (`every`, `fixed<H>`, `postlocal<W>+<H>`, `adaptive<H0>` — the
//! [`a2sgd::SchedKind`] spellings); `--schedule sweep` crosses the combo
//! list with {every, fixed4, fixed8, adaptive4}, the (period × compressor)
//! grid. The traffic CSV then carries `syncs_per_run` and
//! `effective_bits_per_step` so one table compares the compressors'
//! reduction in *space* against the schedules' reduction in *time*.
//!
//! Run: `cargo run --release -p a2sgd-bench --bin fig3_convergence -- --workers 8 --model fnn3`

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::report::Table;
use a2sgd::trainer::{train, Topology, TrainConfig, TrainReport};
use a2sgd::SchedKind;
use a2sgd_bench::{results_dir, Args};
use cluster_comm::{run_multiprocess, CommBackend};
use mini_nn::models::ModelKind;

fn models_from(arg: &str) -> Vec<ModelKind> {
    match arg {
        "fnn3" => vec![ModelKind::Fnn3],
        "vgg16" => vec![ModelKind::Vgg16],
        "resnet20" => vec![ModelKind::ResNet20],
        "lstm" => vec![ModelKind::LstmPtb],
        "all" => ModelKind::ALL.to_vec(),
        "fast" => vec![ModelKind::Fnn3, ModelKind::LstmPtb],
        other => panic!("unknown --model {other}"),
    }
}

fn model_cli_name(model: ModelKind) -> &'static str {
    match model {
        ModelKind::Fnn3 => "fnn3",
        ModelKind::Vgg16 => "vgg16",
        ModelKind::ResNet20 => "resnet20",
        ModelKind::LstmPtb => "lstm",
    }
}

/// The sweep: the paper's five flat algorithms plus the two-level
/// hierarchy with A2SGD across group leaders (two groups when the worker
/// count allows).
fn combos(workers: usize) -> Vec<(AlgoKind, Topology)> {
    let mut v: Vec<(AlgoKind, Topology)> =
        AlgoKind::paper_five().into_iter().map(|a| (a, Topology::Flat)).collect();
    if workers >= 2 && workers % 2 == 0 {
        v.push((AlgoKind::A2sgd, Topology::Hier { group_size: workers / 2 }));
    }
    v
}

// ---- report <-> f32 lanes (bit-exact, for the fork-launcher's typed
// result frames) ------------------------------------------------------

fn push_u64(out: &mut Vec<f32>, v: u64) {
    out.push(f32::from_bits((v >> 32) as u32));
    out.push(f32::from_bits(v as u32));
}

fn take_u64(it: &mut std::slice::Iter<'_, f32>) -> u64 {
    let hi = it.next().expect("truncated report").to_bits() as u64;
    let lo = it.next().expect("truncated report").to_bits() as u64;
    (hi << 32) | lo
}

fn encode_report(rep: &TrainReport) -> Vec<f32> {
    let mut out = Vec::new();
    push_u64(&mut out, rep.epochs.len() as u64);
    for e in &rep.epochs {
        push_u64(&mut out, e.metric.to_bits());
    }
    push_u64(&mut out, rep.final_metric.to_bits());
    push_u64(&mut out, rep.wire_bits_per_iter);
    push_u64(&mut out, rep.intra_wire_bits_per_iter);
    push_u64(&mut out, rep.inter_wire_bits_per_iter);
    push_u64(&mut out, rep.measured_wire_bytes);
    push_u64(&mut out, rep.messages);
    push_u64(&mut out, rep.framing_bytes);
    push_u64(&mut out, rep.iters as u64);
    push_u64(&mut out, rep.avg_compress_seconds.to_bits());
    push_u64(&mut out, rep.avg_exchange_seconds.to_bits());
    push_u64(&mut out, rep.avg_overlap_seconds.to_bits());
    push_u64(&mut out, rep.sync_steps as u64);
    push_u64(&mut out, rep.local_steps as u64);
    push_u64(&mut out, rep.measured_sync_wire_bytes);
    push_u64(&mut out, rep.compute_seconds.to_bits());
    push_u64(&mut out, rep.comm_seconds.to_bits());
    out
}

/// The slice of the report the figure needs, decoded from a child's lanes.
struct ComboOut {
    epoch_metrics: Vec<f64>,
    final_metric: f64,
    wire_bits_per_iter: u64,
    intra_wire_bits_per_iter: u64,
    inter_wire_bits_per_iter: u64,
    measured_wire_bytes: u64,
    messages: u64,
    framing_bytes: u64,
    iters: u64,
    avg_compress_seconds: f64,
    avg_exchange_seconds: f64,
    avg_overlap_seconds: f64,
    sync_steps: u64,
    local_steps: u64,
    measured_sync_wire_bytes: u64,
    compute_seconds: f64,
    comm_seconds: f64,
}

fn decode_report(lanes: &[f32]) -> ComboOut {
    let mut it = lanes.iter();
    let epochs = take_u64(&mut it) as usize;
    let epoch_metrics = (0..epochs).map(|_| f64::from_bits(take_u64(&mut it))).collect();
    ComboOut {
        epoch_metrics,
        final_metric: f64::from_bits(take_u64(&mut it)),
        wire_bits_per_iter: take_u64(&mut it),
        intra_wire_bits_per_iter: take_u64(&mut it),
        inter_wire_bits_per_iter: take_u64(&mut it),
        measured_wire_bytes: take_u64(&mut it),
        messages: take_u64(&mut it),
        framing_bytes: take_u64(&mut it),
        iters: take_u64(&mut it),
        avg_compress_seconds: f64::from_bits(take_u64(&mut it)),
        avg_exchange_seconds: f64::from_bits(take_u64(&mut it)),
        avg_overlap_seconds: f64::from_bits(take_u64(&mut it)),
        sync_steps: take_u64(&mut it),
        local_steps: take_u64(&mut it),
        measured_sync_wire_bytes: take_u64(&mut it),
        compute_seconds: f64::from_bits(take_u64(&mut it)),
        comm_seconds: f64::from_bits(take_u64(&mut it)),
    }
}

fn from_report(rep: &TrainReport) -> ComboOut {
    decode_report(&encode_report(rep))
}

/// Runs one configured combination on the selected backend and returns
/// rank 0's report slice. The TCP path spawns `cfg.workers` child processes
/// of this binary (each re-enters `main`, parses the same combo from its
/// argv, and lands in the `run_multiprocess` child branch here).
fn run_combo(mut cfg: TrainConfig, tcp: bool, trace_dir: Option<&std::path::Path>) -> ComboOut {
    if let Some(dir) = trace_dir {
        // Stale trace-*.jsonl files from a previous run would merge into
        // this run's timeline and double every audit sum.
        let _ = std::fs::remove_dir_all(dir);
    }
    if !tcp {
        cfg.trace = trace_dir.map(|p| p.to_path_buf());
        return from_report(&train(&cfg));
    }
    cfg.backend = CommBackend::Tcp;
    // Forked rank processes pick the trace directory up from the
    // environment (train's A2SGD_TRACE fallback) — argv stays combo-only.
    if let Some(dir) = trace_dir {
        std::env::set_var("A2SGD_TRACE", dir);
    }
    let workers = cfg.workers;
    let w = workers.to_string();
    let bb;
    let mut child_args = vec![
        "--backend",
        "tcp",
        "--model",
        model_cli_name(cfg.model),
        "--algo",
        cfg.algo.name(),
        "--workers",
        &w,
    ];
    let gs;
    if let Topology::Hier { group_size } = cfg.topology {
        gs = group_size.to_string();
        child_args.extend_from_slice(&["--group-size", &gs]);
    }
    let sl;
    if !cfg.schedule.is_every_step() {
        sl = cfg.schedule.label();
        child_args.extend_from_slice(&["--schedule", &sl]);
    }
    if cfg.overlap_backward {
        child_args.push("--overlap");
    }
    if let Some(cap) = cfg.bucket_bytes {
        bb = cap.to_string();
        child_args.extend_from_slice(&["--bucket-bytes", &bb]);
    }
    let outs = run_multiprocess(workers, &child_args, move |_rank| encode_report(&train(&cfg)));
    if trace_dir.is_some() {
        std::env::remove_var("A2SGD_TRACE");
    }
    decode_report(&outs[0])
}

fn main() {
    let args = Args::parse();
    let workers: usize = args.get_or("workers", 8);
    let tcp = args.get("backend") == Some("tcp");
    let overlap = args.has("overlap");
    let bucket_bytes = match args.get_or("bucket-bytes", 0usize) {
        0 => None,
        cap => Some(cap),
    };
    let trace_root = args.get("trace-out").map(std::path::PathBuf::from);
    let models = models_from(args.get("model").unwrap_or("fast"));
    // `--schedule <spec>` composes one schedule with every combo;
    // `sweep` crosses the combo list with the (period × compressor) grid.
    let schedules: Vec<SchedKind> = match args.get("schedule") {
        None => vec![SchedKind::EveryStep],
        Some("sweep") => {
            vec![
                SchedKind::EveryStep,
                SchedKind::Fixed(4),
                SchedKind::Fixed(8),
                SchedKind::Adaptive(4),
            ]
        }
        Some(s) => {
            vec![SchedKind::parse(s).unwrap_or_else(|| panic!("unknown --schedule {s}"))]
        }
    };
    // `--algo` narrows the sweep to one combination — how the TCP
    // launcher's children find their combo, and a handy manual filter.
    let only: Option<(AlgoKind, Topology)> = args.get("algo").map(|a| {
        let algo = AlgoKind::parse(a).unwrap_or_else(|| panic!("unknown --algo {a}"));
        let topology = match args.get_or("group-size", 0usize) {
            0 => Topology::Flat,
            gs => Topology::Hier { group_size: gs },
        };
        (algo, topology)
    });
    let fig = match workers {
        2 => "Figure 6",
        4 => "Figure 7",
        8 => "Figure 3",
        16 => "Figure 8",
        _ => "custom",
    };
    let backend_name = if tcp { "tcp" } else { "inproc" };
    println!("== {fig}: Convergence with {workers} workers ({backend_name}) ==\n");

    for model in models {
        let sweep: Vec<(AlgoKind, Topology)> = only.map_or_else(|| combos(workers), |c| vec![c]);
        let metric_name = if model.is_language_model() { "perplexity" } else { "top-1 %" };
        println!("--- {} ({metric_name}) ---", model.name());

        let mut curves: Vec<(String, ComboOut)> = Vec::new();
        for (algo, topology) in sweep {
            for &schedule in &schedules {
                let mut cfg = scaled_convergence_config(model, algo, workers, 17);
                cfg.topology = topology;
                cfg.schedule = schedule;
                cfg.overlap_backward = overlap;
                cfg.bucket_bytes = bucket_bytes;
                let label = cfg.algo_label();
                // One trace directory per (model, combo): merged separately, so
                // each timeline is one coherent run.
                let combo_trace = trace_root.as_ref().map(|root| {
                    let slug: String = label
                        .chars()
                        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                        .collect();
                    root.join(format!("{}_{slug}", model_cli_name(model)))
                });
                let out = run_combo(cfg, tcp, combo_trace.as_deref());
                eprintln!(
                    "  {label} final {metric_name} = {:.2} (effective {} bits/step/worker \
                 [intra {} | inter {}], {} syncs / {} iters, measured {} B \
                 [sync-governed {} B] in {} frames [framing {} B], \
                 t_compress {:.1}µs + t_exchange {:.1}µs [overlapped {:.1}µs] /iter, \
                 sim {:.3}s = compute {:.3}s + comm {:.6}s)",
                    out.final_metric,
                    out.wire_bits_per_iter,
                    out.intra_wire_bits_per_iter,
                    out.inter_wire_bits_per_iter,
                    out.sync_steps,
                    out.iters,
                    out.measured_wire_bytes,
                    out.measured_sync_wire_bytes,
                    out.messages,
                    out.framing_bytes,
                    out.avg_compress_seconds * 1e6,
                    out.avg_exchange_seconds * 1e6,
                    out.avg_overlap_seconds * 1e6,
                    out.compute_seconds + out.comm_seconds,
                    out.compute_seconds,
                    out.comm_seconds
                );
                curves.push((label, out));
            }
        }

        let suffix = model.name().to_lowercase().replace('-', "");
        let epochs = curves[0].1.epoch_metrics.len();
        let mut header: Vec<String> = vec!["epoch".into()];
        header.extend(curves.iter().map(|(n, _)| n.clone()));
        let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&format!("{fig} — {} ({metric_name})", model.name()), &hdr);
        for e in 0..epochs {
            let mut row = vec![(e + 1).to_string()];
            for (_, c) in &curves {
                row.push(format!("{:.2}", c.epoch_metrics[e]));
            }
            t.row(&row);
        }
        println!("{}", t.render());
        let path = results_dir().join(format!("fig3_w{workers}_{suffix}.csv"));
        t.save_csv(&path).expect("write csv");

        // Traffic companion: logical bits (with the hierarchy's intra /
        // inter split) next to the bytes the transport actually moved —
        // measured socket traffic under `--backend tcp`.
        let mut tr = Table::new(
            &format!("{fig} — {} wire traffic per worker ({backend_name})", model.name()),
            &[
                "algorithm",
                "effective_bits_per_step",
                "intra_wire_bits_per_iter",
                "inter_wire_bits_per_iter",
                "measured_wire_bytes_total",
                "measured_sync_wire_bytes_total",
                "messages_total",
                "framing_bytes_total",
                "iters",
                "syncs_per_run",
                "local_steps",
            ],
        );
        for (label, c) in &curves {
            tr.row(&[
                label.clone(),
                c.wire_bits_per_iter.to_string(),
                c.intra_wire_bits_per_iter.to_string(),
                c.inter_wire_bits_per_iter.to_string(),
                c.measured_wire_bytes.to_string(),
                c.measured_sync_wire_bytes.to_string(),
                c.messages.to_string(),
                c.framing_bytes.to_string(),
                c.iters.to_string(),
                c.sync_steps.to_string(),
                c.local_steps.to_string(),
            ]);
        }
        let tpath = results_dir().join(format!("fig3_w{workers}_{suffix}_traffic.csv"));
        tr.save_csv(&tpath).expect("write traffic csv");
        println!("CSV: {} + {}\n", path.display(), tpath.display());
    }
}
