//! Table 2 regenerator: gradient-synchronization complexities and scaling
//! efficiency at 8 workers.
//!
//! Columns 1–3 (computation complexity, wire bits) are the registry's
//! closed forms (`AlgoKind::complexity` / `AlgoKind::wire_bits`) — no
//! synchronizer is built for them; the scaling-efficiency column is
//! *measured* on
//! the simulated cluster exactly as the paper defines it
//! (§4.3): `SE = throughput(algo, P=8) / throughput(Dense, P=2)` on the
//! scaled workloads.
//!
//! Run: `cargo run --release -p a2sgd-bench --bin table2_complexity -- --model fnn3`

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::metrics::scaling_efficiency;
use a2sgd::registry::AlgoKind;
use a2sgd::report::{fmt_bits, Table};
use a2sgd::trainer::train;
use a2sgd_bench::{results_dir, Args};
use mini_nn::models::ModelKind;

fn models_from(arg: &str) -> Vec<ModelKind> {
    match arg {
        "fnn3" => vec![ModelKind::Fnn3],
        "all" => ModelKind::ALL.to_vec(),
        "fast" => vec![ModelKind::Fnn3, ModelKind::LstmPtb],
        other => panic!("unknown --model {other} (fnn3|fast|all)"),
    }
}

fn main() {
    let args = Args::parse();
    let models = models_from(args.get("model").unwrap_or("fast"));
    let algos = AlgoKind::paper_five();

    // ---- Columns 1–3: asymptotic complexity + wire bits at paper n ------
    println!("== Table 2 (columns 1–3): complexities and per-worker traffic ==\n");
    let mut t = Table::new(
        "Table 2 — complexity",
        &["Algorithm", "Computation", "Wire (formula)", "Wire @ LSTM-PTB (66M)"],
    );
    let n = 66_034_000usize;
    for algo in algos {
        // As-measured encodings: sparse frames carry index+value records
        // (64 bits per kept coordinate), not the paper's value-only 32k.
        let formula = match algo {
            AlgoKind::Dense => "32n".to_string(),
            AlgoKind::TopK(_) | AlgoKind::GaussianK(_) => "64k".to_string(),
            AlgoKind::Qsgd(_) => "2.8n + 32".to_string(),
            AlgoKind::A2sgd => "64".to_string(),
            _ => "-".to_string(),
        };
        t.row(&[
            algo.name().into(),
            algo.complexity().into(),
            formula,
            fmt_bits(algo.wire_bits(n)),
        ]);
    }
    println!("{}", t.render());

    // ---- Column 4: measured scaling efficiency --------------------------
    println!("== Table 2 (column 4): scaling efficiency at 8 workers ==");
    println!("(simulated-cluster throughput, normalised by Dense @ 2 workers)\n");
    let mut csv = Table::new("table2", &["model", "algo", "SE_8"]);
    for model in models {
        let dense2 = train(&scaled_convergence_config(model, AlgoKind::Dense, 2, 23));
        let mut t = Table::new(
            &format!("Scaling efficiency — {}", model.name()),
            &["Algorithm", "thr(P=8) samp/s", "SE (×)"],
        );
        for algo in algos {
            let rep = train(&scaled_convergence_config(model, algo, 8, 23));
            let se = scaling_efficiency(rep.throughput, dense2.throughput);
            t.row(&[algo.name().into(), format!("{:.1}", rep.throughput), format!("{se:.2}")]);
            csv.row(&[model.name().into(), algo.name().into(), format!("{se:.3}")]);
            let split = format!(
                "sim {:.3}s = compute {:.3}s + comm {:.6}s",
                rep.total_sim_seconds, rep.compute_seconds, rep.comm_seconds
            );
            eprintln!("  {} {}: SE {se:.2} ({split})", model.name(), algo.name());
        }
        println!("{}", t.render());
    }
    let path = results_dir().join("table2_scaling.csv");
    csv.save_csv(&path).expect("write csv");
    println!("CSV: {}", path.display());
    println!("\nPaper shape to verify: A2SGD and GaussianK top the column; QSGD lowest; Dense in between.");
}
