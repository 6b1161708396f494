//! Criterion benches of the A2SGD kernels themselves: the split-means
//! sweep, the sign-shift sweep, and the two back to back — the whole of
//! A2SGD's per-iteration compute (the 64-bit exchange sits between them) —
//! and, beside them, what one fork/join on the pool costs.

use a2sgd::mean2::{shift_by_sign, split_means};
use a2sgd_bench::synthetic_gradient;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_means(c: &mut Criterion) {
    let mut group = c.benchmark_group("a2sgd_kernels");
    group.sample_size(10);
    // 199 210 is the paper's FNN-3 gradient.
    for &n in &[65_536usize, 199_210, 1_048_576, 16_777_216] {
        let g = synthetic_gradient(n, n as u64);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("split_means", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(split_means(g)))
        });
        // Shifts away from zero keep every value in its class, so one
        // buffer is shifted in place sample after sample: the row times the
        // sweep, not a copy of the gradient.
        let mut buf = g.clone();
        group.bench_function(&format!("shift_by_sign/{n}"), |b| {
            b.iter(|| {
                shift_by_sign(&mut buf, 1e-9, -1e-9);
                std::hint::black_box(buf[0])
            })
        });
        // A round on that buffer in place. Global means at or beyond the
        // local ones shift each class away from zero (d_pos ≥ 0, d_neg ≤ 0),
        // so every value keeps its class sample after sample.
        group.bench_function(&format!("full_round/{n}"), |b| {
            b.iter(|| {
                let m = split_means(&buf);
                let (d_pos, d_neg) = m.shift_to(m.mu_pos + 1e-9, m.mu_neg + 1e-9);
                shift_by_sign(&mut buf, d_pos, d_neg);
                std::hint::black_box(buf[0])
            })
        });
    }
    group.finish();
}

/// The price of one fork/join on the pool: a two-item `par_for_n` of empty
/// closures at the default width. `PAR_THRESHOLD` and `PAR_FLOPS` exist to
/// keep work smaller than a few of these sequential.
fn bench_fork_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork_join");
    group.bench_function("noop_x2", |b| {
        b.iter(|| {
            mini_tensor::par::par_for_n(2, |i| {
                std::hint::black_box(i);
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_means, bench_fork_join);
criterion_main!(benches);
