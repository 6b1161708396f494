//! Criterion bench behind Figure 4: one full synchronization round
//! (compress + exchange + reconstruct) per algorithm on a 4-rank cluster,
//! at the paper's FNN-3 gradient size.

use a2sgd::registry::{AlgoKind, PAPER_DENSITY};
use a2sgd_bench::synthetic_gradient;
use cluster_comm::{run_cluster, NetworkProfile};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_sync_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_round");
    group.sample_size(10);
    let n = 199_210; // paper FNN-3 gradient
    for algo in AlgoKind::all(PAPER_DENSITY) {
        group.bench_with_input(BenchmarkId::new("fnn3_n", algo.name()), &algo, |b, &algo| {
            b.iter(|| {
                run_cluster(4, NetworkProfile::infiniband_100g(), move |h| {
                    let mut g = synthetic_gradient(n, 1 + h.rank() as u64);
                    let mut s = algo.build(n, 5, h.rank());
                    let st = s.synchronize(&mut g, h);
                    std::hint::black_box(st.wire_bits)
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sync_round);
criterion_main!(benches);
