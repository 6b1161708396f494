//! Criterion microbenches behind Figure 2: per-algorithm compression
//! compute on bell-shaped synthetic gradients.
//!
//! Two groups price the `lstm_qsgd` step's non-LSTM half at its real sizes:
//! * `qsgd_codec` — QSGD(4)'s `prepare` / `encode` / `accumulate` on the
//!   scaled LSTM-PTB's 50 760 parameters as one bucket (one frame), in a
//!   one-lane pool;
//! * `ops/softmax_ce` — one `softmax_cross_entropy` over that workload's
//!   256 × 200 logits.

use a2sgd::split_means;
use a2sgd_bench::synthetic_gradient;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gradcomp::gaussiank::GaussianK;
use gradcomp::topk::TopK;
use gradcomp::{Codec, Qsgd, QsgdImpl, TernGrad};
use mini_nn::loss::softmax_cross_entropy;
use mini_tensor::rng::SeedRng;

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("compression");
    group.sample_size(10);
    for &n in &[65_536usize, 1_048_576] {
        let g = synthetic_gradient(n, n as u64);
        let k = (n / 1000).max(1);
        group.throughput(Throughput::Elements(n as u64));

        group.bench_with_input(BenchmarkId::new("a2sgd_split_means", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(split_means(g)))
        });
        group.bench_with_input(BenchmarkId::new("topk_select", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(TopK::select(g, k).len()))
        });
        group.bench_with_input(BenchmarkId::new("gaussiank_threshold", n), &g, |b, g| {
            b.iter(|| std::hint::black_box(GaussianK::estimate_threshold(g, k)))
        });
        group.bench_with_input(BenchmarkId::new("qsgd_fast", n), &g, |b, g| {
            let mut q = Qsgd::new(4, QsgdImpl::Fast, 7);
            b.iter(|| std::hint::black_box(q.quantize(g).norm))
        });
        group.bench_with_input(BenchmarkId::new("terngrad", n), &g, |b, g| {
            let mut t = TernGrad::new(7);
            b.iter(|| {
                let mut tmp = g.clone();
                std::hint::black_box(t.ternarize(&mut tmp))
            })
        });
    }
    // QSGD reference (O(n²)) only at a bounded size.
    let g = synthetic_gradient(4096, 9);
    group.bench_function("qsgd_reference_4096", |b| {
        let mut q = Qsgd::new(4, QsgdImpl::Reference, 7);
        b.iter(|| std::hint::black_box(q.quantize(&g).norm))
    });
    group.finish();
}

fn bench_qsgd_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("qsgd_codec");
    group.sample_size(30);
    let one_lane = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let n = 50_760;
    let mut g = synthetic_gradient(n, 26);
    let mut q = Qsgd::new(4, QsgdImpl::Fast, 7);
    let all = 0..n;
    group.bench_function(&format!("prepare/{n}"), |b| {
        b.iter(|| one_lane.install(|| q.prepare(&mut g)))
    });
    q.prepare(&mut g);
    let frame = q.encode(&all, &g);
    group.bench_function(&format!("encode/{n}"), |b| {
        b.iter(|| one_lane.install(|| std::hint::black_box(q.encode(&all, &g))))
    });
    let mut out = vec![0.0f32; n];
    group.bench_function(&format!("accumulate/{n}"), |b| {
        b.iter(|| one_lane.install(|| q.accumulate(&all, &frame, &mut out, 0.5).unwrap()))
    });
    group.finish();
}

fn bench_softmax_ce(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    group.sample_size(30);
    let mut rng = SeedRng::new(27);
    let logits = rng.randn_tensor(&[256, 200], 2.0);
    let targets: Vec<usize> = (0..256).map(|_| rng.below(200)).collect();
    group.bench_function("softmax_ce/256x200", |b| {
        b.iter(|| std::hint::black_box(softmax_cross_entropy(&logits, &targets).loss))
    });
    group.finish();
}

criterion_group!(benches, bench_compression, bench_qsgd_codec, bench_softmax_ce);
criterion_main!(benches);
