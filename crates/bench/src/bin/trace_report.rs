//! Audits a recorded trace directory against the runtime's own counters.
//!
//! Run: `trace_report --dir <trace-dir> [--out merged.json] [--recovery]`
//!
//! Loads every per-process trace file written by a traced training run
//! (`a2sgd_trace::load_dir` aligns their clocks), validates the merged
//! Chrome trace-event JSON and writes it to `--out`, then prints what
//! `a2sgd_trace::audit` recomputed from span algebra: per-plane wire bytes
//! and messages against `TrafficStats`, overlap seconds and the overlap
//! claim, the sched ledger, flow pairing and — with `--recovery`, for
//! `a2sgd-elastic` soak runs — the elastic death → re-rendezvous → first
//! sync timeline. Exits 1 if any check fails, so CI can gate on it.

use a2sgd_bench::Args as Cli;
use cluster_comm::tag_space;

fn main() {
    let cli = Cli::parse();
    let Some(dir) = cli.get("dir") else {
        eprintln!("usage: trace_report --dir <trace-dir> [--out merged.json] [--recovery]");
        std::process::exit(2);
    };
    let data = a2sgd_trace::load_dir(std::path::Path::new(dir)).unwrap_or_else(|e| {
        eprintln!("trace_report: {e}");
        std::process::exit(2);
    });
    let chrome = a2sgd_trace::chrome_trace_json(&data);
    let mut report = a2sgd_trace::audit(&data, tag_space, cli.has("recovery"));

    if let Err(e) = a2sgd_trace::json::validate(&chrome) {
        report.failures.push(format!("merged Chrome trace is not valid JSON: {e}"));
    }
    if let Some(out) = cli.get("out") {
        if let Some(parent) = std::path::Path::new(out).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(out, &chrome).unwrap_or_else(|e| {
            eprintln!("trace_report: write {out}: {e}");
            std::process::exit(2);
        });
        println!("merged Chrome trace: {out} ({} bytes)", chrome.len());
    }
    for line in &report.lines {
        println!("{line}");
    }

    if report.failures.is_empty() {
        println!("\ntrace audit PASSED");
    } else {
        println!("\ntrace audit FAILED:");
        for f in &report.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
