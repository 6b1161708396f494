//! Compares every gradient-synchronization algorithm in the workspace —
//! the paper's five plus the extensions — on one workload, including
//! rows that compose a compressor with a sync schedule (local SGD):
//! compressors shrink each sync in *space*, schedules skip syncs in
//! *time*, and the two multiply.
//!
//! Run: `cargo run --release --example compare_compressors`

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::metrics::compression_ratio;
use a2sgd::registry::AlgoKind;
use a2sgd::report::{fmt_seconds, Table};
use a2sgd::trainer::{train, Topology};
use a2sgd::SchedKind;
use mini_nn::models::ModelKind;

fn main() {
    let algos = [
        (AlgoKind::Dense, Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::TopK(0.001), Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::GaussianK(0.001), Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::Qsgd(4), Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::A2sgd, Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::A2sgdCarry, Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::RandK(0.001), Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::TernGrad, Topology::Flat, SchedKind::EveryStep),
        (AlgoKind::SignSgd, Topology::Flat, SchedKind::EveryStep),
        // The two-level topology: dense inside each 2-rank group, the
        // O(1) A2SGD packet across the two group leaders.
        (AlgoKind::A2sgd, Topology::Hier { group_size: 2 }, SchedKind::EveryStep),
        // Schedule composition: the same synchronizers firing every 8th
        // step only. Dense shows the pure time-axis saving; A2SGD stacks
        // it on the O(1) packet (64 bits / 8 steps = 8 effective
        // bits/step); adaptive widens the window as training flattens.
        (AlgoKind::Dense, Topology::Flat, SchedKind::Fixed(8)),
        (AlgoKind::A2sgd, Topology::Flat, SchedKind::Fixed(8)),
        (AlgoKind::A2sgd, Topology::Flat, SchedKind::Adaptive(4)),
    ];
    println!("Comparing {} synchronization configurations on FNN-3 (4 workers)\n", algos.len());

    let mut t = Table::new(
        "algorithm comparison",
        &[
            "algorithm",
            "final top-1 %",
            "eff bits/step/worker",
            "ratio vs dense",
            "syncs/iters",
            "messages",
            "framing B",
            "sim time (s)",
            "= compute",
            "+ comm",
            "t_compress/iter",
            "t_exchange/iter",
        ],
    );
    let mut n_params = 0usize;
    for (algo, topology, schedule) in algos {
        let mut cfg = scaled_convergence_config(ModelKind::Fnn3, algo, 4, 13);
        cfg.topology = topology;
        cfg.schedule = schedule;
        if n_params == 0 {
            let mut m = cfg.model.build(cfg.preset, cfg.seed);
            n_params = mini_nn::flat::param_count(m.as_mut());
        }
        let rep = train(&cfg);
        let label = rep.label.clone();
        t.row(&[
            label.clone(),
            format!("{:.2}", rep.final_metric),
            rep.wire_bits_per_iter.to_string(),
            format!("{:.0}×", compression_ratio(n_params, rep.wire_bits_per_iter)),
            format!("{}/{}", rep.sync_steps, rep.iters),
            rep.messages.to_string(),
            rep.framing_bytes.to_string(),
            format!("{:.3}", rep.total_sim_seconds),
            format!("{:.3}", rep.compute_seconds),
            format!("{:.6}", rep.comm_seconds),
            fmt_seconds(rep.avg_compress_seconds),
            fmt_seconds(rep.avg_exchange_seconds),
        ]);
        eprintln!("  done: {label}");
    }
    println!("{}", t.render());
    println!(
        "Note the A2SGD family's constant 64-bit rows; `sim time` is \
         measured compute (host dependent) plus priced communication (the Hockney cost of \
         every collective on the profile's network — reproducible), shown apart; the last \
         two columns split per-iteration sync cost into compression compute vs measured \
         time inside collective calls. `eff bits/step/worker` amortizes wire traffic over ALL \
         optimizer steps, so the sched(...) rows divide the per-sync payload by the \
         window length — `syncs/iters` shows how many steps actually hit the network. \
         `messages` counts rank-0's point-to-point sends and `framing B` its wire bytes \
         beyond the raw payload (zero on the in-proc backend, 16 B/frame over TCP). The \
         hier(dense, A2SGD) row pays a dense intra-group exchange but keeps the \
         leader-to-leader plane at the same constant 64 bits."
    );
}
