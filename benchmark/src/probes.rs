//! Isolated probes: single public functions timed at the workload's own
//! shapes, median of `calls` calls after three discarded ones. Inputs come
//! from the harness's seeded generator; the functions see only the data.

use crate::layers::on_cluster;
use crate::metrics::Values;
use crate::stats;
use crate::workloads::{Workload, WORLD};
use a2sgd::A2sgd;
use gradcomp::GradientSynchronizer;
use mini_tensor::conv::{conv2d_backward, conv2d_forward, Conv2dSpec};
use mini_tensor::rng::SeedRng;
use std::hint::black_box;
use std::time::Instant;

const DISCARD: usize = 3;

/// Median milliseconds of `f` over `calls` timed calls.
fn time_ms(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..DISCARD + calls)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .skip(DISCARD)
        .collect();
    stats::median(&samples)
}

/// A fixed scalar loop that touches no repository code: if it drifts
/// between two run sets, the host changed, not the program.
pub fn calib_ms() -> f64 {
    time_ms(5, || {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4_000_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
    })
}

fn randn(rng: &mut SeedRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.randn()).collect()
}

/// `tensor`, `core` and `comm` probes for one workload; `n` is its model's
/// parameter count.
pub fn run(w: &Workload, seed: u64, n: usize, calls: usize) -> Values {
    let mut rng = SeedRng::new(seed ^ 0x009B_0BE5);
    let mut out = Values::new();

    let g = w.dominant_gemm;
    let (a, b) = (randn(&mut rng, g.a_len()), randn(&mut rng, g.b_len()));
    let mut c = vec![0.0f32; g.c_len()];
    let gemm_ms = time_ms(calls, || g.run(black_box(&a), black_box(&b), black_box(&mut c)));
    out.push(("tensor.gemm_ms", gemm_ms));
    out.push(("tensor.gemm_gflops", 2.0 * (g.m * g.k * g.n) as f64 / (gemm_ms * 1e6)));

    // The widest stage of the scaled ResNet-20: 16 channels at 8×8, batch 8.
    let spec = Conv2dSpec { in_c: 16, out_c: 16, k: 3, stride: 1, pad: 1 };
    let x = rng.randn_tensor(&[8, 16, 8, 8], 1.0);
    let weight = rng.randn_tensor(&[16, 16, 3, 3], 0.1);
    let dout = rng.randn_tensor(&[8, 16, 8, 8], 1.0);
    out.push((
        "tensor.conv_fwd_ms",
        time_ms(calls, || {
            black_box(conv2d_forward(black_box(&x), &weight, None, &spec));
        }),
    ));
    out.push((
        "tensor.conv_bwd_ms",
        time_ms(calls, || {
            black_box(conv2d_backward(black_box(&x), &weight, &dout, &spec));
        }),
    ));

    let grad = randn(&mut rng, n);
    out.push((
        "core.split_means_ms",
        time_ms(calls, || {
            black_box(a2sgd::split_means(black_box(&grad)));
        }),
    ));

    // Two ranks on the workload's own data plane; rank 0's timings count.
    let comm_ms = on_cluster(w, WORLD, |comm| {
        let mut local = grad.clone();
        let mut sync = A2sgd::new();
        let round = time_ms(calls, || {
            black_box(sync.synchronize(&mut local, comm));
        });
        let allreduce = time_ms(calls, || comm.allreduce_avg(&mut local));
        let packet = time_ms(calls, || {
            black_box(comm.allgather(&[black_box(0x0123_4567_89AB_CDEFu64)]));
        });
        [round, allreduce, packet]
    });
    out.push(("core.a2sgd_round_ms", comm_ms[0][0]));
    out.push(("comm.allreduce_ms", comm_ms[0][1]));
    out.push(("comm.packet_ms", comm_ms[0][2]));
    out
}
