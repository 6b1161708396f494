//! Pins the tracing subsystem's overhead, above all the **disabled** path:
//! every transport send and collective carries an `a2sgd_trace::enabled()`
//! check plus a `now_ns()` that must short-circuit to 0, so the disabled
//! cost is paid by every untraced training run. The enabled path is
//! benchmarked alongside for scale (it buys a push into a capped buffer).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

const BATCH: usize = 1024;

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_record");

    // Baseline: the timestamp gate alone (returns 0 while disabled).
    a2sgd_trace::disable();
    group.bench_with_input(BenchmarkId::new("disabled", "now_ns"), &(), |b, _| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..BATCH {
                acc = acc.wrapping_add(a2sgd_trace::now_ns());
            }
            black_box(acc)
        })
    });

    // The shape hot paths emit: a closed span per transport frame — a
    // no-op while disabled.
    group.bench_with_input(BenchmarkId::new("disabled", "closed_span"), &(), |b, _| {
        b.iter(|| {
            for i in 0..BATCH {
                let t0 = a2sgd_trace::now_ns();
                a2sgd_trace::closed_span(
                    "send/bytes",
                    t0,
                    a2sgd_trace::Args::Wire { from: 0, to: 1, tag: i as u64, bytes: 64 },
                );
            }
        })
    });

    // Enabled path, for scale: real timestamps + buffer pushes. The buffer
    // is capped: once full, new events are dropped and counted, so a long
    // benchmark run stays bounded.
    let dir = std::env::temp_dir().join(format!("a2sgd_bench_trace_{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    a2sgd_trace::enable(&dir);
    group.bench_with_input(BenchmarkId::new("enabled", "closed_span"), &(), |b, _| {
        b.iter(|| {
            for i in 0..BATCH {
                let t0 = a2sgd_trace::now_ns();
                a2sgd_trace::closed_span(
                    "send/bytes",
                    t0,
                    a2sgd_trace::Args::Wire { from: 0, to: 1, tag: i as u64, bytes: 64 },
                );
            }
        })
    });
    a2sgd_trace::disable();
    a2sgd_trace::reset();
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
