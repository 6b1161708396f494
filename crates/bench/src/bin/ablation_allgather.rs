//! §4.4 ablation: Allreduce- vs Allgather-based exchange.
//!
//! The paper observed Gaussian-K beating A2SGD on per-iteration time for
//! the largest model *because* Gaussian-K used Allgather, and proposed an
//! Allgather-based A2SGD as future work. Both shipped two-level
//! synchronizers (`A2sgd`, `A2sgdCarry`) exchange by that gather; the
//! allreduce curve is Algorithm 1 line 5 as written, priced analytically —
//! no shipped type runs it. This charts the modeled cost of both
//! two-means exchanges next to Dense and Gaussian-K across network
//! profiles and worker counts, plus the collective crossover that
//! explains it.
//!
//! Run: `cargo run --release -p a2sgd-bench --bin ablation_allgather`

use a2sgd::report::{fmt_seconds, Table};
use cluster_comm::{CostModel, NetworkProfile};

fn main() {
    println!("== Ablation: Allreduce vs Allgather exchange (paper §4.4) ==");
    println!("two-means AR = allreduce (Alg. 1 line 5 as written; priced, not shipped)");
    println!("two-means AG = gather (§4.4; shipped A2sgd and A2sgdCarry)\n");
    let profiles = [
        NetworkProfile::infiniband_100g(),
        NetworkProfile::ethernet_10g(),
        NetworkProfile::ethernet_1g(),
    ];
    let n: usize = 66_034_000; // LSTM-PTB
    let k = (n as f64 * 0.001) as usize;

    for profile in profiles {
        let m = CostModel::new(profile);
        let mut t = Table::new(
            &format!("exchange cost on {} (LSTM-PTB)", profile.name),
            &["P", "Dense AR", "GaussianK AG(32k)", "two-means AR(64b)", "two-means AG(64b)"],
        );
        for p in [2usize, 4, 8, 16, 32] {
            t.row(&[
                p.to_string(),
                fmt_seconds(m.allreduce(4.0 * n as f64, p)),
                fmt_seconds(m.ring_allgather(4.0 * k as f64, p)),
                fmt_seconds(m.recursive_doubling_allreduce(8.0, p)),
                fmt_seconds(m.ring_allgather(8.0, p)),
            ]);
        }
        println!("{}", t.render());
    }

    println!("Collective crossover (100 Gbps IB, P = 8): message size where ring allreduce overtakes recursive doubling:");
    let m = CostModel::new(NetworkProfile::infiniband_100g());
    let mut prev_better = "rd";
    for exp in 0..24 {
        let bytes = (1u64 << exp) as f64;
        let ring = m.ring_allreduce(bytes, 8);
        let rd = m.recursive_doubling_allreduce(bytes, 8);
        let now = if ring < rd { "ring" } else { "rd" };
        if now != prev_better {
            println!(
                "  crossover near {} bytes (ring {} vs rd {})",
                bytes,
                fmt_seconds(ring),
                fmt_seconds(rd)
            );
            prev_better = now;
        }
    }
    println!("\nTakeaway: at 64-bit payloads latency dominates, so AR(recursive-doubling) and AG are within a small factor — and both are orders of magnitude below any O(n)/O(k) exchange. The paper's §4.4 gap between A2SGD and Gaussian-K disappears once A2SGD also uses the latency-optimal small-message pattern.");
}
