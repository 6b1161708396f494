//! Offline stand-in for the `criterion` crate (see the root `Cargo.toml`;
//! the build environment cannot reach crates.io). Implements the bench
//! surface the workspace uses — `criterion_group!`/`criterion_main!`,
//! benchmark groups, `BenchmarkId`, `Throughput`, `Bencher::iter` — with a
//! plain best/mean timing loop instead of criterion's statistics.
//!
//! CLI compatibility with the real harness:
//!
//! * `--test` runs every benchmark body exactly once and reports `ok`
//!   (what CI's bench-smoke job uses),
//! * a bare positional argument filters benchmark ids by substring,
//! * other flags cargo passes (`--bench`, …) are accepted and ignored.

use std::time::Instant;

/// Top-level harness state, constructed by [`criterion_group!`].
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Builds from process CLI args (see module docs for the dialect).
    pub fn from_args() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => test_mode = true,
                s if s.starts_with('-') => {} // --bench etc.: ignore
                s => filter = Some(s.to_string()),
            }
        }
        Criterion { test_mode, filter }
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup { c: self, name: name.to_string(), sample_size: 10 }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = id.to_string();
        run_one(self, &full, 10, f);
        self
    }
}

/// A group of benchmarks sharing a name prefix and sample size.
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples to take per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Records the per-iteration throughput unit (reported only; the shim
    /// does not convert timings).
    pub fn throughput(&mut self, _t: Throughput) -> &mut Self {
        self
    }

    /// Benchmarks `f` with a borrowed input.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        let samples = self.sample_size;
        run_one(self.c, &full, samples, |b| f(b, input));
        self
    }

    /// Benchmarks a closure with no input.
    pub fn bench_function<F>(&mut self, id: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        let samples = self.sample_size;
        run_one(self.c, &full, samples, f);
        self
    }

    /// Ends the group (formatting no-op in the shim).
    pub fn finish(&mut self) {}
}

fn run_one<F>(c: &Criterion, id: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    if let Some(filter) = &c.filter {
        if !id.contains(filter.as_str()) {
            return;
        }
    }
    let mut b = Bencher { test_mode: c.test_mode, samples, best_s: f64::INFINITY, mean_s: 0.0 };
    f(&mut b);
    if c.test_mode {
        println!("test {id} ... ok");
    } else if b.best_s.is_finite() {
        println!(
            "{id}: best {:.4} ms, mean {:.4} ms ({samples} samples)",
            b.best_s * 1e3,
            b.mean_s * 1e3
        );
    }
}

/// Passed to benchmark closures; [`Bencher::iter`] times the payload.
pub struct Bencher {
    test_mode: bool,
    samples: usize,
    best_s: f64,
    mean_s: f64,
}

impl Bencher {
    /// Times `f`: once in `--test` mode, otherwise one warmup plus
    /// `sample_size` timed samples (best + mean retained).
    pub fn iter<O, F>(&mut self, mut f: F)
    where
        F: FnMut() -> O,
    {
        if self.test_mode {
            std::hint::black_box(f());
            return;
        }
        std::hint::black_box(f()); // warmup
        let mut total = 0.0;
        let mut best = f64::INFINITY;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            std::hint::black_box(f());
            let dt = t0.elapsed().as_secs_f64();
            total += dt;
            best = best.min(dt);
        }
        self.best_s = best;
        self.mean_s = total / self.samples as f64;
    }
}

/// A benchmark's identifier within a group: `function_name/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Function name + parameter value.
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: format!("{function}/{parameter}") }
    }

    /// Parameter-only id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Per-iteration work declared for throughput reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Opaque value barrier, re-exported for compatibility.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a bench group function runnable by [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::from_args();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("split_means", 65_536).id, "split_means/65536");
        assert_eq!(BenchmarkId::from_parameter("dense").id, "dense");
    }

    #[test]
    fn iter_runs_payload_in_test_mode() {
        let mut c = Criterion { test_mode: true, filter: None };
        let mut ran = 0;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(10);
            g.bench_with_input(BenchmarkId::new("f", 1), &3usize, |b, &x| {
                b.iter(|| {
                    ran += x;
                })
            });
            g.finish();
        }
        assert_eq!(ran, 3); // exactly one execution in --test mode
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut c = Criterion { test_mode: true, filter: Some("zzz".into()) };
        let mut ran = false;
        c.bench_function("abc", |b| b.iter(|| ran = true));
        assert!(!ran);
    }

    #[test]
    fn timed_mode_records_samples() {
        let mut c = Criterion { test_mode: false, filter: None };
        c.bench_function("quick", |b| b.iter(|| std::hint::black_box(1 + 1)));
    }
}
