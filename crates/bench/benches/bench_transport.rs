//! In-proc vs TCP-loopback transport comparison: what does the same
//! exchange cost on a memcpy mailbox vs a real socket, for a dense f32
//! gradient (ring allreduce) vs A2SGD's packed-u64 64-bit packet
//! (byte-frame allgather)?
//!
//! Each iteration stands up a 4-rank cluster (threads; the TCP variant
//! includes the loopback rendezvous) and runs a burst of exchanges, so the
//! numbers compare whole data planes, not just steady-state copies.
//!
//! `tcp_loopback/fnn3_dense_4buckets` is the dense baseline's own exchange:
//! two TCP thread ranks allreduce FNN-3's 199 210-float gradient in the
//! four layer-aligned 64 KiB-capped buckets the trainer cuts, through the
//! pipelined bucket path, for enough rounds that the rendezvous is a small
//! part of the row. The row ÷ `FNN3_ROUNDS` is one step's exchange.

use cluster_comm::{
    run_cluster, run_cluster_tcp_threads, CollectiveAlgo, CommHandle, NetworkProfile, Payload,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gradcomp::{bucket_bounds, DenseSgd, GradientSynchronizer};
use mini_nn::flat::param_sizes;
use mini_nn::models::{ModelKind, Preset};
use std::ops::Range;

const WORLD: usize = 4;
const ROUNDS: usize = 16;

/// Dense path: the bandwidth-bound f32 ring allreduce.
fn dense_rounds(h: &mut CommHandle, n: usize) -> f32 {
    let mut d = vec![1.0f32; n];
    for _ in 0..ROUNDS {
        h.allreduce_sum_with(&mut d, CollectiveAlgo::Ring);
    }
    d[0]
}

/// Packed path: the latency-bound 64-bit packet as an opaque byte frame.
fn packed_rounds(h: &mut CommHandle) -> u64 {
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        let word = (h.rank() as u64) << 32 | round as u64;
        for frame in h.allgather_bytes(Payload::PackedU64(vec![word])) {
            acc = acc.wrapping_add(frame.expect_u64()[0]);
        }
    }
    acc
}

/// Rounds per cluster of the FNN-3 row.
const FNN3_ROUNDS: usize = 200;

/// FNN-3's gradient cut as the trainer cuts it at a 64 KiB cap: four
/// layer-aligned buckets.
fn fnn3_buckets() -> Vec<Range<usize>> {
    let sizes = param_sizes(ModelKind::Fnn3.build(Preset::Paper, 1).as_mut());
    let bounds = bucket_bounds(&sizes, 65_536);
    assert_eq!(bounds.len(), 4, "FNN-3 cuts into four layer-aligned buckets");
    bounds
}

/// FNN-3's dense exchange, `FNN3_ROUNDS` times.
fn fnn3_dense_rounds(h: &mut CommHandle, bounds: &[Range<usize>]) -> f32 {
    let n = bounds.last().map_or(0, |b| b.end);
    let mut g: Vec<f32> = (0..n).map(|i| (i % 29) as f32 * 0.05).collect();
    let mut sync = DenseSgd::new();
    for _ in 0..FNN3_ROUNDS {
        sync.sync_bucketed(&mut g, bounds, h);
    }
    g[0]
}

fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport_exchange");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("inproc", "a2sgd_packet_u64"), &(), |b, _| {
        b.iter(|| run_cluster(WORLD, NetworkProfile::infiniband_100g(), packed_rounds))
    });
    group.bench_with_input(BenchmarkId::new("tcp_loopback", "a2sgd_packet_u64"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(WORLD, packed_rounds))
    });
    let n = 16_384usize; // 64 KiB dense gradient
    group.bench_with_input(BenchmarkId::new("inproc", "dense_grad_64KiB"), &n, |b, &n| {
        b.iter(|| {
            run_cluster(WORLD, NetworkProfile::infiniband_100g(), move |h| dense_rounds(h, n))
        })
    });
    group.bench_with_input(BenchmarkId::new("tcp_loopback", "dense_grad_64KiB"), &n, |b, &n| {
        b.iter(|| run_cluster_tcp_threads(WORLD, move |h| dense_rounds(h, n)))
    });
    let bounds = fnn3_buckets();
    group.bench_with_input(BenchmarkId::new("tcp_loopback", "fnn3_dense_4buckets"), &(), |b, _| {
        b.iter(|| run_cluster_tcp_threads(2, |h| fnn3_dense_rounds(h, &bounds)))
    });
    group.finish();
}

criterion_group!(benches, bench_transport);
criterion_main!(benches);
