//! Pins the checkpoint codec's serialize/restore cost — the price of one
//! `TrainConfig::checkpoint_every` tick. The in-memory encode/decode pair
//! isolates the hand-rolled codec itself; the file round-trip adds the
//! atomic temp-write + rename the trainer actually performs, so the gap
//! between the two rows is pure filesystem tax.

use a2sgd::{Checkpoint, SchedCheckpoint, SchedState};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// 16 Ki parameters (64 KiB) plus a momentum velocity of the same shape —
/// the bucket-sized state a worker snapshots per checkpoint tick.
fn sample(n: usize) -> Checkpoint {
    let values: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
    Checkpoint {
        step: 1234,
        seed: 0xE1A5_71C0,
        params: values.clone(),
        velocity: values,
        sched: None,
    }
}

/// The same snapshot cut mid-window under a sync schedule: the codec
/// carries the window phase plus a full anchor lane, so the sched row
/// prices one extra parameter-sized copy over the baseline.
fn sample_sched(n: usize) -> Checkpoint {
    let mut c = sample(n);
    c.sched = Some(SchedCheckpoint {
        state: SchedState { local_in_window: 3, current_h: 8, ref_dispersion: 0.25 },
        anchor: c.params.clone(),
    });
    c
}

fn bench_elastic(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint");
    let ckpt = sample(16 * 1024);
    let encoded = ckpt.encode();

    group.bench_with_input(BenchmarkId::new("codec", "encode_64KiB"), &(), |b, _| {
        b.iter(|| black_box(ckpt.encode()))
    });
    group.bench_with_input(BenchmarkId::new("codec", "decode_64KiB"), &(), |b, _| {
        b.iter(|| Checkpoint::decode(black_box(&encoded)).unwrap())
    });

    let ckpt_sched = sample_sched(16 * 1024);
    let encoded_sched = ckpt_sched.encode();
    group.bench_with_input(BenchmarkId::new("codec", "encode_64KiB_sched"), &(), |b, _| {
        b.iter(|| black_box(ckpt_sched.encode()))
    });
    group.bench_with_input(BenchmarkId::new("codec", "decode_64KiB_sched"), &(), |b, _| {
        b.iter(|| Checkpoint::decode(black_box(&encoded_sched)).unwrap())
    });

    let dir = std::env::temp_dir().join(format!("a2sgd_bench_elastic_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(Checkpoint::file_name(ckpt.step));
    group.bench_with_input(BenchmarkId::new("file", "write_read_64KiB"), &(), |b, _| {
        b.iter(|| {
            ckpt.write(&path).unwrap();
            black_box(Checkpoint::read(&path).unwrap())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench_elastic);
criterion_main!(benches);
