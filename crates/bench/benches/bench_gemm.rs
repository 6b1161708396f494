//! Criterion bench behind the kernel-perf ledger (`BENCH_kernels.json`):
//! the packed register-tiled [`Gemm`] core, measured single-threaded
//! (`run_st` / `run_packed(.., false)` never enter the pool) so the numbers
//! are kernel shape, not core count.
//! The row-parallel triple loops it replaced are gone; their medians stay
//! in the ledger as the frozen `*/legacy/*` baseline rows.
//!
//! Twelve groups:
//! * `gemm_st` — square 128/256/512 products.
//! * `gemm_layers` — the real workspace shapes as bare products on stored
//!   operands: FNN-3's first layer, the VGG entry/middle conv products on a
//!   ready column matrix (no gather is timed), and an LSTM-PTB gate block;
//!   and FNN-3's first-layer weight gradient, added in place by `run_add`
//!   inside a one-lane pool.
//! * `gemm_rows` — `run_packed` at k 36, n 1024 over m ∈ {2, 4, 6, 8, 12,
//!   16}: what the row-panel plan prices (the scaled ResNet-20's conv
//!   products have 4, 8 or 16 rows).
//! * `gemm_prepacked` — the weight-stationary path (`pack_a`/`pack_b` once,
//!   `run_packed` per item) that conv reuses across batch images and the
//!   LSTM across timesteps.
//! * `pack` — `pack_b_into` alone on FNN-3's fc1 weight, the transposed B
//!   every `Linear` forward packs.
//! * `conv_layers` — whole `conv2d_forward` / `conv2d_backward` calls, the
//!   padded copy of the source included, inside a one-lane pool, and the
//!   weight-only `conv2d_backward_weight` (what a first layer runs, and
//!   the dW half of every backward row); the ResNet stem has its forward
//!   and weight-only rows.
//! * `relu` — one `Relu::forward`.
//! * `batchnorm` — one `BatchNorm2d` forward and one backward at each of
//!   the scaled ResNet-20's three stage shapes.
//! * `lstm` — one `Lstm` layer forward and one backward, one lane.
//! * `ops` — the gate nonlinearities `ops::{tanh,sigmoid}_in_place`.
//! * `rng` — one MNIST batch's pixel noise through `SeedRng::fill_randn`.
//! * `data` — one training batch of each synthetic image set, stacked by
//!   `synthdata::stack` as the trainer does.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mini_nn::layers::{BatchNorm2d, Lstm, Relu};
use mini_nn::module::{Mode, Module};
use mini_tensor::conv::{conv2d_backward, conv2d_backward_weight, conv2d_forward, Conv2dSpec};
use mini_tensor::gemm::Gemm;
use mini_tensor::ops;
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;
use synthdata::{Shard, SyntheticImages, VisionSpec};

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
        // VGG entry conv's product: W[64, 3·3·3] · col[27, 32·32].
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
    // FNN-3 fc1's weight gradient at batch 32, added in place as `Linear`
    // adds it: dW[206,784] += dyᵀ · x with dy [32,206], x [32,784] (k = 32).
    // `run_add` fans out above `PAR_FLOPS`, so it runs in a one-lane pool.
    let one_lane = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let g = Gemm::tn(206, 32, 784);
    let (a, b, mut cbuf) = operands(&g, 19);
    group.bench_function("packed/fnn3_fc1_dw", |bch| {
        bch.iter(|| {
            one_lane.install(|| g.run_add(&a, &b, &mut cbuf));
            std::hint::black_box(cbuf[0])
        })
    });
    group.finish();
}

/// The row-panel plan's price list: one `run_packed` (sequential, so one
/// lane) at the k and n of a stage-0 conv forward (4·3·3 taps, 32·32
/// positions) over the row counts the plan covers differently.
fn bench_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_rows");
    group.sample_size(30);
    for m in [2usize, 4, 6, 8, 12, 16] {
        let g = Gemm::nn(m, 36, 1024);
        let (a, b, mut cbuf) = operands(&g, 61);
        let (pa, pb) = (g.pack_a(&a), g.pack_b(&b));
        group.bench_function(&format!("run_packed/k36_n1024/m{m}"), |bch| {
            bch.iter(|| {
                g.run_packed(&pa, &pb, &mut cbuf, false);
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
    // the whole batch; B = one image's patch matrix, here a stored one.
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

fn bench_pack(c: &mut Criterion) {
    let mut group = c.benchmark_group("pack");
    group.sample_size(10);
    // x[32,784] · W[206,784]ᵀ: W is stored n×k, so its panels are transposed.
    let g = Gemm::nt(32, 784, 206);
    let (_, b, _) = operands(&g, 31);
    let mut pb = g.pack_b(&b);
    group.bench_function("b_trans/fnn3_fc1", |bch| {
        bch.iter(|| {
            g.pack_b_into(&b, &mut pb);
            std::hint::black_box(&pb);
        })
    });
    group.finish();
}

fn c3(in_c: usize, out_c: usize, stride: usize) -> Conv2dSpec {
    Conv2dSpec { in_c, out_c, k: 3, stride, pad: 1 }
}

/// The convolution rows: whole `conv2d_forward` / `conv2d_backward` calls
/// (padded copy + GEMM + stores) at batch 8 and pool width 1 — what one
/// rank gets on the 2-core box — over the scaled ResNet-20's five conv
/// shapes and the VGG entry conv. `(label, spec, input side)`.
fn conv_shapes() -> Vec<(&'static str, Conv2dSpec, usize)> {
    vec![
        ("4to4_32x32", c3(4, 4, 1), 32),
        ("4to8_s2_32x32", c3(4, 8, 2), 32),
        ("8to8_16x16", c3(8, 8, 1), 16),
        ("8to16_s2_16x16", c3(8, 16, 2), 16),
        ("16to16_8x8", c3(16, 16, 1), 8),
        ("vgg_3to64_32x32", c3(3, 64, 1), 32),
    ]
}

/// Operands of one conv call at batch 8: `(x, weight, dout)`.
fn conv_operands(rng: &mut SeedRng, spec: &Conv2dSpec, side: usize) -> [Tensor; 3] {
    let (oh, ow) = spec.out_hw(side, side);
    [
        rng.randn_tensor(&[8, spec.in_c, side, side], 1.0),
        rng.randn_tensor(&[spec.out_c, spec.in_c, spec.k, spec.k], 0.1),
        rng.randn_tensor(&[8, spec.out_c, oh, ow], 1.0),
    ]
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_layers");
    group.sample_size(30);
    let one_lane = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let mut rng = SeedRng::new(29);
    for (label, spec, side) in conv_shapes() {
        let [x, w, dout] = conv_operands(&mut rng, &spec, side);
        group.bench_function(&format!("forward/{label}"), |bch| {
            bch.iter(|| one_lane.install(|| conv2d_forward(&x, &w, None, &spec)))
        });
        group.bench_function(&format!("backward/{label}"), |bch| {
            bch.iter(|| one_lane.install(|| conv2d_backward(&x, &w, &dout, &spec)))
        });
        // The dW half alone: `backward − backward_weight` is the dx half.
        group.bench_function(&format!("backward_weight/{label}"), |bch| {
            bch.iter(|| one_lane.install(|| conv2d_backward_weight(&x, &w, &dout, &spec)))
        });
    }
    // What training runs for the scaled ResNet-20's first layer (the stem):
    // the forward, and no input gradient.
    let stem = c3(3, 4, 1);
    let [x, w, dout] = conv_operands(&mut rng, &stem, 32);
    group.bench_function("forward/stem_3to4_32x32", |bch| {
        bch.iter(|| one_lane.install(|| conv2d_forward(&x, &w, None, &stem)))
    });
    group.bench_function("backward_weight/stem_3to4_32x32", |bch| {
        bch.iter(|| one_lane.install(|| conv2d_backward_weight(&x, &w, &dout, &stem)))
    });
    group.finish();
}

/// One `Relu::forward` over 32 768 activations (a stage-0 feature map of
/// the scaled ResNet-20 at batch 8): mask capture + clamp.
fn bench_relu(c: &mut Criterion) {
    let mut group = c.benchmark_group("relu");
    group.sample_size(30);
    let x = SeedRng::new(31).randn_tensor(&[8, 4, 32, 32], 1.0);
    let mut relu = Relu::new();
    group.bench_function(&format!("forward/{}", x.numel()), |bch| {
        bch.iter(|| relu.forward(&x, Mode::Train))
    });
    group.finish();
}

/// One `BatchNorm2d` train-mode forward (statistics, x̂ and y) and one
/// backward over a feature map of each stage of the scaled ResNet-20 at
/// batch 8.
fn bench_batchnorm(c: &mut Criterion) {
    let mut group = c.benchmark_group("batchnorm");
    group.sample_size(30);
    let mut rng = SeedRng::new(37);
    for (ch, side) in [(4usize, 32usize), (8, 16), (16, 8)] {
        let shape = [8, ch, side, side];
        let (x, dout) = (rng.randn_tensor(&shape, 1.0), rng.randn_tensor(&shape, 1.0));
        let mut bn = BatchNorm2d::new("bn", ch);
        let label = format!("{ch}c_{side}x{side}_b8");
        group.bench_function(&format!("forward/{label}"), |bch| {
            bch.iter(|| bn.forward(&x, Mode::Train))
        });
        // Backward runs on the cached forward, which a filter may have skipped.
        bn.forward(&x, Mode::Train);
        group.bench_function(&format!("backward/{label}"), |bch| bch.iter(|| bn.backward(&dout)));
    }
    group.finish();
}

/// One `Lstm` layer of the scaled LSTM-PTB (E 32, H 48) over the
/// `lstm_qsgd` batch — 16 sequences of 16 steps — in a one-lane pool.
fn bench_lstm(c: &mut Criterion) {
    let mut group = c.benchmark_group("lstm");
    group.sample_size(30);
    let one_lane = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let mut rng = SeedRng::new(41);
    let mut lstm = Lstm::new("lstm", 32, 48, &mut rng);
    let (x, dout) = (rng.randn_tensor(&[16, 16, 32], 1.0), rng.randn_tensor(&[16, 16, 48], 1.0));
    group.bench_function("forward/b16_t16_e32_h48", |bch| {
        bch.iter(|| one_lane.install(|| lstm.forward(&x, Mode::Train)))
    });
    // Backward runs on the cached forward, which a filter may have skipped.
    one_lane.install(|| lstm.forward(&x, Mode::Train));
    group.bench_function("backward/b16_t16_e32_h48", |bch| {
        bch.iter(|| one_lane.install(|| lstm.backward(&dout)))
    });
    group.finish();
}

/// The gate nonlinearities over one layer's gate pre-activations at that
/// shape (B·T·4H = 49 152), copy-in from a fixed input included.
fn bench_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops");
    group.sample_size(30);
    let src = SeedRng::new(43).randn_tensor(&[16 * 16 * 4 * 48], 2.0).into_vec();
    let mut buf = src.clone();
    for (name, f) in
        [("tanh", ops::tanh_in_place as fn(&mut [f32])), ("sigmoid", ops::sigmoid_in_place)]
    {
        group.bench_function(&format!("{name}/{}", src.len()), |bch| {
            bch.iter(|| {
                buf.copy_from_slice(&src);
                f(&mut buf);
                std::hint::black_box(buf[0])
            })
        });
    }
    group.finish();
}

/// One `fnn3_*` batch's pixel noise: 32 × 784 normals.
fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("rng");
    group.sample_size(30);
    let mut rng = SeedRng::new(47);
    let mut buf = vec![0.0f32; 32 * 28 * 28];
    group.bench_function(&format!("randn/{}", buf.len()), |bch| {
        bch.iter(|| {
            rng.fill_randn(&mut buf);
            std::hint::black_box(buf[0])
        })
    });
    group.finish();
}

/// One step's batch of the MNIST stand-in at the `fnn3_*` batch (32) and
/// of the CIFAR stand-in at the `resnet20_topk` batch (8), on the first
/// indices of a permuted shard, the way the trainer assembles them.
fn bench_data(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group.sample_size(30);
    for (name, spec, batch) in [
        ("mnist_batch", VisionSpec::mnist_like(), 32),
        ("cifar_batch", VisionSpec::cifar_like(), 8),
    ] {
        let d = SyntheticImages::new(spec, 60_000, 53);
        let shard = Shard::new_permuted(60_000, 0, 2, 59);
        let idxs = &shard.indices()[..batch];
        group.bench_function(&format!("{name}/b{batch}"), |bch| {
            bch.iter(|| std::hint::black_box(synthdata::stack(&d, idxs)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_square,
    bench_layers,
    bench_rows,
    bench_prepacked,
    bench_pack,
    bench_conv,
    bench_relu,
    bench_batchnorm,
    bench_lstm,
    bench_ops,
    bench_rng,
    bench_data
);
criterion_main!(benches);
