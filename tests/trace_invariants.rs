//! Structural invariants of the tracing subsystem, checked on traces from
//! real training runs rather than hand-built event streams:
//!
//! - span begin/end events balance (including nesting) on every thread;
//! - timestamps recorded "at now" (instants, span ends) are monotonic
//!   per thread — `now_ns()` never runs backwards;
//! - the merged Chrome trace-event JSON is well-formed and maps ranks to
//!   Chrome processes;
//! - the trainer emits one `phase/data` span per step on every rank;
//! - the trace passes `a2sgd_trace::audit`, the auditor `trace_report`
//!   runs: per-plane wire bytes and messages equal `TrafficStats`, every
//!   transport flow id pairs, and on the hook-overlap TCP scenario the
//!   summed `bucket/inflight` spans reproduce the `overlap_seconds` the
//!   runtime reported about itself and intersect the backward pass.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::AlgoKind;
use a2sgd::trainer::train;
use a2sgd_repro::cluster_comm::{run_multiprocess, tag_space, tcp_child_rank, CommBackend};
use a2sgd_trace::{Args, Ph, ThreadTrace, TraceData};
use mini_nn::models::ModelKind;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// The recorder is process-global; traced tests must not interleave.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn tmp_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("a2sgd_trace_inv_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn small_cfg(algo: AlgoKind, workers: usize) -> a2sgd::trainer::TrainConfig {
    let mut c = scaled_convergence_config(ModelKind::Fnn3, algo, workers, 7);
    c.epochs = 2;
    c.train_size = 320;
    c.eval_size = 160;
    c
}

/// Balanced spans; monotonic "recorded at now" timestamps; async
/// begin/end balance per (name, id).
fn check_stream(t: &ThreadTrace) {
    let mut span_stack = 0i64;
    let mut last_now = 0u64;
    let mut async_open: HashMap<(&str, u64), i64> = HashMap::new();
    for ev in &t.events {
        match ev.ph {
            Ph::SpanBegin => span_stack += 1,
            Ph::SpanEnd => {
                span_stack -= 1;
                assert!(span_stack >= 0, "thread {}: span end without begin", t.name);
                // Closed spans push their end at the moment it happened,
                // so end timestamps advance monotonically even though
                // nested begins are back-dated.
                assert!(ev.t_ns >= last_now, "thread {}: span end went backwards", t.name);
                last_now = ev.t_ns;
            }
            Ph::Instant => {
                assert!(ev.t_ns >= last_now, "thread {}: instant went backwards", t.name);
                last_now = ev.t_ns;
            }
            Ph::AsyncBegin => *async_open.entry((ev.name, ev.id)).or_default() += 1,
            Ph::AsyncEnd => {
                let open = async_open.entry((ev.name, ev.id)).or_default();
                *open -= 1;
                assert!(*open >= 0, "thread {}: async end before begin: {}", t.name, ev.name);
            }
            Ph::FlowOut | Ph::FlowIn => {}
        }
    }
    assert_eq!(span_stack, 0, "thread {}: unbalanced spans at end of stream", t.name);
    for ((name, id), open) in async_open {
        assert_eq!(open, 0, "thread {}: async {name}#{id} never ended", t.name);
    }
}

/// The auditor `trace_report` runs passes the trace.
fn check_audit(data: &TraceData) {
    let report = a2sgd_trace::audit(data, tag_space, false);
    assert!(report.failures.is_empty(), "{}\n{:?}", report.lines.join("\n"), report.failures);
}

#[test]
fn traced_inproc_run_satisfies_stream_invariants() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmp_dir("inproc");
    let mut cfg = small_cfg(AlgoKind::A2sgd, 2);
    cfg.trace = Some(dir.clone());
    let rep = train(&cfg);
    assert!(rep.final_metric > 30.0, "traced run must still train");

    let data = a2sgd_trace::load_dir(&dir).unwrap();
    assert_eq!(data.dropped, 0, "small run must not overflow the event buffer");
    let ranks: Vec<_> = data.threads.iter().filter_map(|t| t.rank).collect();
    assert!(ranks.contains(&0) && ranks.contains(&1), "both thread ranks declared: {ranks:?}");
    for t in &data.threads {
        assert!(!t.events.is_empty(), "thread {} recorded nothing", t.name);
        check_stream(t);
    }
    check_audit(&data);

    // The thread budget — the host's cores over the two thread ranks that
    // share them, or RAYON_NUM_THREADS when the environment names a width —
    // is in the report and, once per rank, in the trace.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let named: Option<usize> = std::env::var("RAYON_NUM_THREADS").ok().and_then(|s| s.parse().ok());
    let want = named.unwrap_or((cores / 2).max(1));
    assert_eq!(rep.threads_per_rank, want);
    for t in data.threads.iter().filter(|t| t.rank.is_some()) {
        let widths: Vec<Args> =
            t.events.iter().filter(|e| e.name == "pool/width").map(|e| e.args).collect();
        assert_eq!(widths, [Args::Value(want as f64)], "rank {:?}", t.rank);
    }

    // Batch assembly is a phase of its own: one `phase/data` span per
    // training step on every rank.
    for t in data.threads.iter().filter(|t| t.rank.is_some()) {
        let spans =
            t.events.iter().filter(|e| e.ph == Ph::SpanBegin && e.name == "phase/data").count();
        assert_eq!(spans, rep.iters, "rank {:?}", t.rank);
    }

    // The merged document must be valid JSON with ranks as processes.
    let chrome = a2sgd_trace::chrome_trace_json(&data);
    a2sgd_trace::json::validate(&chrome).unwrap();
    assert!(chrome.contains("\"rank 0\"") && chrome.contains("\"rank 1\""));
    let _ = std::fs::remove_dir_all(&dir);
}

/// On the hook-overlap TCP scenario the trace must *reproduce* the overlap
/// number the runtime reported, from span algebra alone — the auditor's
/// `Σ (bucket/inflight)` vs `audit/overlap_seconds` on every rank, within
/// max(2 ms, 5 %) — and show those exchanges inside the backward pass.
#[test]
fn trace_overlap_matches_reported_overlap_tcp() {
    let _g = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Re-exec'd rank children re-enter this test fn; they must keep the
    // parent's A2SGD_TRACE (and not wipe its directory) so every rank's
    // trace lands in one place. run_multiprocess dispatches them to the
    // closure and exits the process there.
    let dir = if tcp_child_rank().is_some() {
        PathBuf::new() // unused: the child exits inside run_multiprocess
    } else {
        let dir = tmp_dir("overlap_tcp");
        // Forked rank processes inherit the trace directory via the env;
        // each writes its own trace-<pid>.jsonl before reporting back.
        std::env::set_var("A2SGD_TRACE", &dir);
        dir
    };
    let outs =
        run_multiprocess(2, &["trace_overlap_matches_reported_overlap_tcp", "--exact"], |_| {
            let mut c = small_cfg(AlgoKind::Dense, 2);
            c.backend = CommBackend::Tcp;
            c.overlap_backward = true;
            c.bucket_bytes = Some(1024);
            let rep = train(&c);
            vec![rep.final_metric as f32]
        });
    std::env::remove_var("A2SGD_TRACE");
    assert_eq!(outs.len(), 2);

    let data = a2sgd_trace::load_dir(&dir).unwrap();
    assert_eq!(data.dropped, 0, "small run must not overflow the event buffer");
    for t in &data.threads {
        check_stream(t);
    }
    // Both TCP rank processes reported an overlap figure for the audit to
    // reproduce.
    let mut reporting: Vec<_> = data
        .threads
        .iter()
        .filter(|t| t.events.iter().any(|e| e.name == "audit/overlap_seconds"))
        .filter_map(|t| t.rank)
        .collect();
    reporting.sort_unstable();
    assert_eq!(reporting, [0, 1], "ranks reporting overlap_seconds");
    check_audit(&data);
    let _ = std::fs::remove_dir_all(&dir);
}
