//! Thin parallel helpers over rayon.
//!
//! Small inputs run sequentially (threshold [`PAR_THRESHOLD`]) so unit tests
//! and tiny layers do not pay fork/join overhead; large flattened-gradient
//! kernels split across the rayon pool, as wide as the calling thread's
//! `ThreadPool::install` says (the trainer installs each rank's thread
//! budget; tests pin a width the same way).

use rayon::prelude::*;

/// Below this many elements kernels run sequentially. At the threshold a
/// sweep is ~10 µs of work (`split_means/65536@1` in `BENCH_kernels.json`:
/// 0.018 ms) against a ~2 µs fork/join (`fork_join/noop_x2@2`) and a helper
/// that takes tens of µs to wake, so the ledger supports nothing lower.
pub const PAR_THRESHOLD: usize = 1 << 15;

/// Chunk size used when splitting a large slice across the pool.
pub const PAR_CHUNK: usize = 1 << 14;

/// Range reduction: splits `0..n` into chunks, maps each `[lo, hi)` with
/// `f`, and combines partial results with `+`. `z` is the identity.
pub fn par_reduce_indexed<T, F>(n: usize, z: T, f: F) -> T
where
    T: std::ops::Add<Output = T> + Send + Sync + Copy,
    F: Fn(usize, usize) -> T + Sync + Send,
{
    if n < PAR_THRESHOLD {
        return f(0, n);
    }
    let nchunks = n.div_ceil(PAR_CHUNK);
    (0..nchunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * PAR_CHUNK;
            let hi = (lo + PAR_CHUNK).min(n);
            f(lo, hi)
        })
        .reduce(|| z, |a, b| a + b)
}

/// Runs `f(i)` for each `i` in `0..n` across the pool (used for batch/row
/// level parallelism in matmul and conv).
pub fn par_for_n<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    if n <= 1 {
        for i in 0..n {
            f(i);
        }
    } else {
        (0..n).into_par_iter().for_each(f);
    }
}

/// Runs `f(chunk_index, chunk)` over disjoint `chunk`-sized mutable windows
/// of `y` (the last window may be shorter), in parallel when there is more
/// than one window. This is the safe replacement for the old `SendPtr` raw
/// pointer hack: disjointness comes from `chunks_mut`, not from `unsafe`.
///
/// `chunk` must be non-zero unless `y` is empty.
pub fn par_chunks_mut<F>(y: &mut [f32], chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync + Send,
{
    if y.is_empty() {
        return;
    }
    assert!(chunk > 0, "par_chunks_mut: zero chunk size over {} elements", y.len());
    if y.len() <= chunk {
        f(0, y);
    } else {
        y.par_chunks_mut(chunk).enumerate().for_each(|(i, c)| f(i, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_reduce_matches_seq() {
        let n = PAR_THRESHOLD * 3 + 5;
        let x: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let par: f64 =
            par_reduce_indexed(n, 0.0, |lo, hi| x[lo..hi].iter().map(|v| *v as f64).sum::<f64>());
        let seq: f64 = x.iter().map(|v| *v as f64).sum();
        assert!((par - seq).abs() < 1e-6);
    }

    #[test]
    fn par_chunks_mut_covers_all_windows() {
        let n = 1000;
        let mut y = vec![0.0f32; n];
        par_chunks_mut(&mut y, 64, |i, c| {
            for v in c.iter_mut() {
                *v = i as f32;
            }
        });
        for (j, v) in y.iter().enumerate() {
            assert_eq!(*v, (j / 64) as f32);
        }
        // Empty slice: no calls, no panic (chunk size irrelevant).
        let mut empty: [f32; 0] = [];
        par_chunks_mut(&mut empty, 0, |_, _| panic!("called on empty input"));
    }
}
