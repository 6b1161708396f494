//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! path-depends on this shim instead (see the root `Cargo.toml`
//! `[workspace.dependencies]`). It implements exactly the parallel-iterator
//! surface the workspace uses — `par_chunks{,_mut}`, `into_par_iter` on
//! `Range<usize>`, `map`/`for_each`/`enumerate`/`zip`/`collect`/`reduce`,
//! and `ThreadPoolBuilder::num_threads(n).build()?.install(..)` — with real
//! fork-join parallelism over **one process-wide pool of parked helper
//! threads** (see [`pool`]): items go into a shared queue, the calling
//! thread always drains it itself, and at most `width − 1` helpers are woken
//! to drain it alongside. Nothing is spawned per call. Work items here are
//! coarse (≥ 2^14-element chunks, whole images, matrix rows), so one mutex
//! pop per item is noise next to the kernel work.
//!
//! The *width* of a call is a property of the calling thread:
//! [`ThreadPool::install`] pins it for the duration of a closure (a
//! thread-local over the shared helpers, not a second set of threads);
//! outside any `install` it is the global width, `RAYON_NUM_THREADS` or the
//! host's `available_parallelism`, resolved once per process.

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

mod pool;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    /// The width [`ThreadPool::install`] pinned on this thread; 0 outside
    /// any `install`. Helper threads, and a caller while it works its own
    /// job, sit at 1, so a `par_*` call made from inside an item runs inline.
    static WIDTH: Cell<usize> = const { Cell::new(0) };
}

/// Width of a `par_*` call made from this thread: the enclosing
/// [`ThreadPool::install`]'s, otherwise the global pool's —
/// `RAYON_NUM_THREADS` when set to a positive integer, else
/// `available_parallelism()`, read once per process as the real rayon's
/// global pool does.
pub fn current_num_threads() -> usize {
    static GLOBAL: OnceLock<usize> = OnceLock::new();
    match WIDTH.get() {
        0 => *GLOBAL.get_or_init(|| {
            std::env::var("RAYON_NUM_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
        }),
        w => w,
    }
}

/// Builds a [`ThreadPool`] of a chosen width.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Why [`ThreadPoolBuilder::build`] failed. The shim's build cannot fail (no
/// thread is started until a call needs one); the type keeps call sites
/// spelled as the real crate wants them.
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl ThreadPoolBuilder {
    /// A builder at the default width (the global pool's).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the pool width; 0 keeps the default.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// No thread is started here: helpers are shared by every pool of the
    /// process and start when a call first needs them.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool { width: self.num_threads })
    }
}

/// A width that `par_*` calls can be run under — in this shim a number over
/// the process-wide helpers, not threads of its own.
#[derive(Debug)]
pub struct ThreadPool {
    /// 0: the global width.
    width: usize,
}

impl ThreadPool {
    /// Runs `op` with every `par_*` call it makes from this thread `width`
    /// lanes wide; the previous width is back when it returns or unwinds.
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                WIDTH.set(self.0);
            }
        }
        let _restore = Restore(WIDTH.replace(self.width));
        op()
    }
}

/// Runs `f` over `items` on the calling thread and up to
/// `current_num_threads() − 1` pool helpers, returning results in item
/// order. With 0/1 items or at width one it is a plain sequential map: no
/// lock, no queue, no other thread.
fn execute<I, R, F>(items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let n = items.len();
    let lanes = current_num_threads().min(n);
    if lanes <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    // Neither lock is held while `f` runs, so a panicking item poisons
    // neither; the panic reaches this thread through `fork_join`.
    pool::fork_join(lanes - 1, &|| {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let next = queue.lock().expect("held only to pop").next();
            match next {
                Some((i, item)) => local.push((i, f(item))),
                None => break,
            }
        }
        collected.lock().expect("held only to extend").extend(local);
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in collected.into_inner().expect("held only to extend") {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item was run")).collect()
}

/// An eagerly materialized parallel iterator over `items`.
pub struct ParIter<I> {
    items: Vec<I>,
}

impl<I: Send> ParIter<I> {
    /// Runs `f` on every item across the pool.
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(I) + Sync,
    {
        execute(self.items, f);
    }

    /// Lazy parallel map; consumed by `collect`/`reduce`.
    pub fn map<R, F>(self, f: F) -> ParMap<I, F>
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        ParMap { items: self.items, f }
    }

    /// Pairs every item with its index, like `Iterator::enumerate`.
    pub fn enumerate(self) -> ParIter<(usize, I)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Zips two parallel iterators, truncating to the shorter side.
    pub fn zip<J: Send>(self, other: ParIter<J>) -> ParIter<(I, J)> {
        ParIter { items: self.items.into_iter().zip(other.items).collect() }
    }
}

/// A mapped parallel iterator (the result of [`ParIter::map`]).
pub struct ParMap<I, F> {
    items: Vec<I>,
    f: F,
}

impl<I, F> ParMap<I, F>
where
    I: Send,
{
    /// Executes the map across the pool and collects in item order.
    pub fn collect<C, R>(self) -> C
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        C: FromIterator<R>,
    {
        execute(self.items, self.f).into_iter().collect()
    }

    /// Executes the map across the pool, then folds the ordered results
    /// with `op` starting from `identity()`.
    pub fn reduce<R, ID, OP>(self, identity: ID, op: OP) -> R
    where
        R: Send,
        F: Fn(I) -> R + Sync,
        ID: Fn() -> R,
        OP: Fn(R, R) -> R,
    {
        execute(self.items, self.f).into_iter().fold(identity(), op)
    }

    /// Runs the mapped closure for every item, discarding results.
    pub fn for_each<R>(self)
    where
        R: Send,
        F: Fn(I) -> R + Sync,
    {
        execute(self.items, self.f);
    }
}

/// `into_par_iter()` — implemented for the index ranges the kernels use.
pub trait IntoParallelIterator {
    /// Element type of the resulting parallel iterator.
    type Item: Send;
    /// Converts into a [`ParIter`].
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

/// `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks (last may be shorter).
    fn par_chunks(&self, size: usize) -> ParIter<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParIter<&[T]> {
        ParIter { items: self.chunks(size).collect() }
    }
}

/// `par_chunks_mut` on mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over disjoint mutable `size`-element chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter { items: self.chunks_mut(size).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_collect_preserves_order() {
        let squares: Vec<usize> = (0..1000).into_par_iter().map(|i| i * i).collect();
        assert_eq!(squares.len(), 1000);
        for (i, s) in squares.iter().enumerate() {
            assert_eq!(*s, i * i);
        }
    }

    #[test]
    fn chunks_mut_zip_for_each_touches_everything() {
        let n = 10_000;
        let x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y = vec![0.0f32; n];
        y.par_chunks_mut(64).zip(x.par_chunks(64)).for_each(|(yc, xc)| {
            for (a, b) in yc.iter_mut().zip(xc) {
                *a = 2.0 * b;
            }
        });
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn enumerate_indices_match() {
        let mut data = vec![0usize; 500];
        data.par_chunks_mut(7).enumerate().for_each(|(c, chunk)| {
            for v in chunk.iter_mut() {
                *v = c;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 7);
        }
    }

    #[test]
    fn reduce_matches_sequential_sum() {
        let total = (0..257usize).into_par_iter().map(|i| i as u64).reduce(|| 0, |a, b| a + b);
        assert_eq!(total, 256 * 257 / 2);
    }

    #[test]
    fn empty_range_is_fine() {
        let v: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(v.is_empty());
    }

    /// Runs `op` with `par_*` calls `n` lanes wide.
    fn at_width<R: Send>(n: usize, op: impl FnOnce() -> R + Send) -> R {
        crate::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(op)
    }

    #[test]
    fn install_pins_the_width_and_restores_it() {
        let outside = crate::current_num_threads();
        at_width(3, || {
            assert_eq!(crate::current_num_threads(), 3);
            at_width(5, || assert_eq!(crate::current_num_threads(), 5));
            assert_eq!(crate::current_num_threads(), 3);
            // Width 0 is the builder's default: the global width.
            at_width(0, || assert_eq!(crate::current_num_threads(), outside));
            let sum = (0..100usize).into_par_iter().map(|i| i as u64).reduce(|| 0, |a, b| a + b);
            assert_eq!(sum, 99 * 100 / 2);
        });
        assert_eq!(crate::current_num_threads(), outside);
        let unwound = std::panic::catch_unwind(|| at_width(7, || panic!("inside install")));
        assert!(unwound.is_err());
        assert_eq!(crate::current_num_threads(), outside);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_and_the_pool_goes_on() {
        for width in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                at_width(width, || (0..64usize).into_par_iter().for_each(|i| assert_ne!(i, 37)))
            });
            let payload = caught.expect_err("item 37 panics");
            let msg = payload.downcast_ref::<String>().expect("assert_ne! formats a String");
            assert!(msg.contains("37"), "unexpected panic payload: {msg}");
            let after: Vec<usize> =
                at_width(width, || (0..64usize).into_par_iter().map(|i| i + 1).collect());
            assert_eq!(after, (1..=64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_call_from_inside_an_item_runs_inline() {
        const LANES: usize = 4;
        // One item per lane, each held at the barrier until all four run at
        // once: the caller and three distinct helpers.
        let all_lanes = std::sync::Barrier::new(LANES);
        let outer_threads: Vec<std::thread::ThreadId> = at_width(LANES, || {
            (0..LANES)
                .into_par_iter()
                .map(|_| {
                    all_lanes.wait();
                    assert_eq!(crate::current_num_threads(), 1);
                    let me = std::thread::current().id();
                    let inner: Vec<std::thread::ThreadId> =
                        (0..8usize).into_par_iter().map(|_| std::thread::current().id()).collect();
                    assert!(inner.iter().all(|&t| t == me), "nested items left their lane");
                    me
                })
                .collect()
        });
        let distinct: std::collections::HashSet<_> = outer_threads.iter().collect();
        assert_eq!(distinct.len(), LANES);
        assert!(outer_threads.contains(&std::thread::current().id()), "the caller works too");
    }

    #[test]
    fn concurrent_callers_share_the_helpers() {
        // The in-proc rank shape: two threads, each two lanes wide, calling
        // at the same moment, round after round.
        const ROUNDS: usize = 200;
        let same_moment = std::sync::Arc::new(std::sync::Barrier::new(2));
        let callers: Vec<_> = (0..2usize)
            .map(|caller| {
                let same_moment = same_moment.clone();
                std::thread::Builder::new().spawn(move || {
                    at_width(2, || {
                        for round in 0..ROUNDS {
                            same_moment.wait();
                            let got: Vec<usize> = (0..33usize)
                                .into_par_iter()
                                .map(|i| i * 1000 + round * 2 + caller)
                                .collect();
                            let want: Vec<usize> =
                                (0..33).map(|i| i * 1000 + round * 2 + caller).collect();
                            assert_eq!(got, want);
                        }
                    })
                })
            })
            .collect();
        for caller in callers {
            caller.expect("the test's own thread starts").join().expect("a caller panicked");
        }
    }
}
