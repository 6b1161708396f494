//! Criterion bench behind the kernel-perf ledger (`BENCH_kernels.json`):
//! the packed register-tiled [`Gemm`] core, measured single-threaded
//! (`run_st` / `run_packed(.., false)` never enter the pool) so the numbers
//! are kernel shape, not core count.
//! The row-parallel triple loops it replaced are gone; their medians stay
//! in the ledger as the frozen `*/legacy/*` baseline rows.
//!
//! Three groups:
//! * `gemm_st` — square 128/256/512 products.
//! * `gemm_layers` — the real workspace shapes: FNN-3's first layer, the
//!   VGG entry/middle im2col products, and an LSTM-PTB gate block.
//! * `gemm_prepacked` — the weight-stationary path (`pack_a`/`pack_b` once,
//!   `run_packed` per item) that conv reuses across batch images and the
//!   LSTM across timesteps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mini_tensor::gemm::Gemm;
use mini_tensor::rng::SeedRng;

fn operands(g: &Gemm, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut rng = SeedRng::new(seed);
    let a = rng.randn_tensor(&[g.a_len()], 1.0).into_vec();
    let b = rng.randn_tensor(&[g.b_len()], 1.0).into_vec();
    let c = vec![0.0f32; g.c_len()];
    (a, b, c)
}

fn bench_square(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_st");
    group.sample_size(10);
    for s in [128usize, 256, 512] {
        let g = Gemm::nn(s, s, s);
        let (a, b, mut cbuf) = operands(&g, s as u64);
        group.bench_with_input(BenchmarkId::new("packed", s), &s, |bch, _| {
            bch.iter(|| {
                g.run_st(&a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
    }
    group.finish();
}

/// The workspace's real hot shapes: (label, descriptor).
fn layer_shapes() -> Vec<(&'static str, Gemm)> {
    vec![
        // FNN-3 paper fc1 forward at batch 32: x[32,784] · W[206,784]ᵀ.
        ("fnn3_fc1", Gemm::nt(32, 784, 206)),
        // VGG entry conv as im2col: W[64, 3·3·3] · col[27, 32·32].
        ("vgg_conv1", Gemm::nn(64, 27, 1024)),
        // VGG middle conv: W[128, 128·3·3] · col[1152, 16·16].
        ("vgg_convm", Gemm::nn(128, 1152, 256)),
        // LSTM-PTB gate block: x[20, 650] · w_ih[2600, 650]ᵀ.
        ("lstm_gates", Gemm::nt(20, 650, 2600)),
    ]
}

fn bench_layers(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_layers");
    group.sample_size(10);
    for (label, g) in layer_shapes() {
        let (a, b, mut cbuf) = operands(&g, 17);
        group.bench_with_input(BenchmarkId::new("packed", label), &g, |bch, g| {
            bch.iter(|| {
                g.run_st(&a, &b, &mut cbuf);
                std::hint::black_box(cbuf[0])
            })
        });
    }
    group.finish();
}

fn bench_prepacked(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_prepacked");
    group.sample_size(10);
    // Weight-stationary conv product: A = filter matrix, packed once for
    // the whole batch; B = per-image im2col columns.
    let g = Gemm::nn(128, 1152, 256);
    let (a, b, mut cbuf) = operands(&g, 23);
    group.bench_function("vgg_convm/pack_each", |bch| {
        bch.iter(|| {
            g.run_st(&a, &b, &mut cbuf);
            std::hint::black_box(cbuf[0])
        })
    });
    let pa = g.pack_a(&a);
    let mut pb = g.pack_b(&b);
    group.bench_function("vgg_convm/weights_prepacked", |bch| {
        bch.iter(|| {
            g.pack_b_into(&b, &mut pb);
            g.run_packed(&pa, &pb, &mut cbuf, false);
            std::hint::black_box(cbuf[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_square, bench_layers, bench_prepacked);
criterion_main!(benches);
