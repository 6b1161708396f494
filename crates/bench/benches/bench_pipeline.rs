//! Synchronous vs pipelined vs hook-driven bucket exchange on the TCP
//! loopback backend: what does communication/compute overlap buy a dense
//! gradient, and why doesn't A2SGD care?
//!
//! Each iteration stands up a 2-rank loopback cluster (rendezvous
//! included) and runs a burst of synchronization steps:
//!
//! * `dense/serial_buckets` — one bucket at a time, each allreduce waited
//!   before the next launches (the old blocking shape; max 1 frame in
//!   flight);
//! * `dense/pipelined_buckets` — the bucketed pipeline: every bucket's
//!   exchange launched before any is waited (asserted ≥ 2 — in fact all —
//!   frames concurrently in flight via the handle tag accounting);
//! * `dense/single_shot` — the whole model as one bucket, for reference;
//! * `dense/hooked_backward` — the full backward-overlap path: a real
//!   model's `backward_params` drives `HookedStep`, so buckets stream to
//!   the wire *during* backprop (asserted via tag accounting);
//! * `a2sgd/*` — the same contrasts for the 64-bit two-means packet, which
//!   is one tiny frame regardless of bucketing: pipelining is a dense-path
//!   win, not something A2SGD needs (its hooked variant measures pure
//!   hook-bookkeeping overhead on a step that streams nothing).

use a2sgd::algorithm::A2sgd;
use a2sgd::overlap::{HookLayout, HookedStep};
use a2sgd::registry::AlgoKind;
use cluster_comm::{run_cluster_tcp_threads, CommHandle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gradcomp::{DenseSgd, GradientSynchronizer};
use mini_nn::models::{ModelKind, Preset};
use mini_nn::module::{Mode, ModuleExt};
use mini_tensor::rng::SeedRng;
use mini_tensor::Tensor;
use std::ops::Range;

const WORLD: usize = 2;
const N: usize = 256 * 1024; // 1 MiB gradient
const BUCKETS: usize = 16;
const ROUNDS: usize = 4;

fn bounds(n: usize, buckets: usize) -> Vec<Range<usize>> {
    (0..buckets).map(|i| i * (n / buckets)..(i + 1) * (n / buckets)).collect()
}

fn gradient(rank: usize) -> Vec<f32> {
    (0..N).map(|i| ((rank * 37 + i * 13) % 29) as f32 * 0.05 - 0.7).collect()
}

/// One bucket at a time: launch, then immediately wait — the synchronous
/// baseline the bucketed pipeline replaces.
fn dense_serial(h: &mut CommHandle) -> f32 {
    let mut g = gradient(h.rank());
    let inv = 1.0 / h.world() as f32;
    for _ in 0..ROUNDS {
        for r in bounds(N, BUCKETS) {
            let handle = h.start_allreduce(g[r.clone()].to_vec());
            let sum = handle.wait(h).expect("serial allreduce").expect_reduced();
            for (dst, s) in g[r].iter_mut().zip(sum) {
                *dst = s * inv;
            }
            assert!(h.inflight() == 0, "serial path must not overlap");
        }
    }
    assert_eq!(h.max_inflight(), 1, "serial baseline: one frame in flight at a time");
    g[0]
}

/// The pipelined bucket path; asserts the acceptance criterion that ≥ 2
/// exchanges were actually concurrent (tag accounting, not timing luck).
fn dense_pipelined(h: &mut CommHandle) -> f32 {
    let mut g = gradient(h.rank());
    let mut sync = DenseSgd::new();
    let b = bounds(N, BUCKETS);
    for _ in 0..ROUNDS {
        sync.sync_bucketed(&mut g, &b, h);
    }
    assert!(
        h.max_inflight() >= 2,
        "pipelined path had only {} exchange(s) in flight",
        h.max_inflight()
    );
    g[0]
}

fn dense_single_shot(h: &mut CommHandle) -> f32 {
    let mut g = gradient(h.rank());
    let mut sync = DenseSgd::new();
    for _ in 0..ROUNDS {
        sync.synchronize(&mut g, h);
    }
    g[0]
}

/// The backward-overlap path end to end: per-layer hooks on a real model
/// submit per-layer buckets mid-backprop. Dense streams them to the wire
/// (overlap asserted); A2SGD stages and ships its O(1) packet at finish.
fn hooked_backward(h: &mut CommHandle, algo: AlgoKind) -> f32 {
    let mut model = ModelKind::Fnn3.build(Preset::Scaled, 17);
    let layout = HookLayout::of(model.as_mut(), Some(4096));
    let mut sync = algo.build(layout.total(), 17, h.rank());
    let mut flat = Vec::new();
    let x = SeedRng::new(18 + h.rank() as u64).randn_tensor(&[8, 1, 28, 28], 1.0);
    let mut out = 0.0;
    for _ in 0..ROUNDS {
        model.zero_grad();
        let y = model.forward(&x, Mode::Train);
        let mut step = HookedStep::begin(&layout, sync.as_mut(), &mut flat, h);
        model.backward_params(&Tensor::ones(y.shape().clone()), &mut step);
        step.finish();
        out = flat[0];
    }
    if matches!(algo, AlgoKind::Dense) {
        assert!(
            h.max_inflight() >= 2,
            "hooked dense path had only {} exchange(s) in flight",
            h.max_inflight()
        );
    }
    out
}

fn a2sgd_rounds(h: &mut CommHandle, bucketed: bool) -> f32 {
    let mut g = gradient(h.rank());
    let mut sync = A2sgd::new();
    let b = bounds(N, BUCKETS);
    for _ in 0..ROUNDS {
        if bucketed {
            sync.sync_bucketed(&mut g, &b, h);
        } else {
            sync.synchronize(&mut g, h);
        }
    }
    g[0]
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_tcp_loopback");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("dense", "serial_buckets"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, dense_serial))
    });
    group.bench_with_input(BenchmarkId::new("dense", "pipelined_buckets"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, dense_pipelined))
    });
    group.bench_with_input(BenchmarkId::new("dense", "single_shot"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, dense_single_shot))
    });
    group.bench_with_input(BenchmarkId::new("dense", "hooked_backward"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, |h| hooked_backward(h, AlgoKind::Dense)))
    });
    group.bench_with_input(BenchmarkId::new("a2sgd", "hooked_backward"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, |h| hooked_backward(h, AlgoKind::A2sgd)))
    });
    group.bench_with_input(BenchmarkId::new("a2sgd", "single_shot"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, |h| a2sgd_rounds(h, false)))
    });
    group.bench_with_input(BenchmarkId::new("a2sgd", "bucketed_noop"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, |h| a2sgd_rounds(h, true)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
