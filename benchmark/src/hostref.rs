//! The host reference: a frozen miniature of a two-rank training loop that
//! calls no repository code, timed between the end-to-end runs.
//!
//! The build box is a small VM on a shared host whose speed moves by a
//! factor of up to two for minutes at a time, for every real program at once
//! (all four workloads move together, correlation 0.97–0.99 between
//! 24-second medians) while tight scalar, FMA or streaming loops do not
//! notice. What notices is a program shaped like the workloads: two threads
//! that allocate and touch fresh megabytes every step, run small GEMMs and
//! libm activations over them, and meet at a barrier. This module is that
//! program, kept as plain as possible so that it never needs to change. The
//! end-to-end pass divides each run's wall time by how slow the reference
//! ran just before and after it (README, "Host reference").

use std::hint::black_box;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

const STEPS: usize = 40;
const M: usize = 32;
const K: usize = 512;
const N: usize = 128;
const EXCHANGE: usize = 4096;

fn worker(id: usize, barrier: &Barrier, slots: &[Mutex<Vec<f32>>; 2]) -> f32 {
    let mut w: Vec<f32> = (0..K * N)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) >> 8 & 1023) as f32 * 1e-4 - 0.05)
        .collect();
    let mut sink = 0.0f32;
    for step in 0..STEPS {
        // A fresh input batch.
        let x: Vec<f32> = (0..M * K)
            .map(|i| (((i + step) as u32).wrapping_mul(40_503) >> 4 & 255) as f32 * 1e-2 - 1.0)
            .collect();
        // Forward: y = act(x · w), a plain row-by-row product.
        let mut y = vec![0.0f32; M * N];
        for i in 0..M {
            for k in 0..K {
                let v = x[i * K + k];
                let (row, out) = (&w[k * N..(k + 1) * N], &mut y[i * N..(i + 1) * N]);
                for (o, &wk) in out.iter_mut().zip(row) {
                    *o += v * wk;
                }
            }
        }
        for v in &mut y {
            *v = v.tanh() + 1.0 / (1.0 + (-*v).exp());
        }
        // A strided gather into a fresh buffer of a megabyte or more, the
        // size changing from step to step (im2col, activations kept for
        // backward).
        let len = ((1 << 20) + (step % 5) * (200 << 10)) / 4;
        let col: Vec<f32> = (0..len).map(|i| x[(i * 37) % (M * K)]).collect();
        // Backward: g = xᵀ · y over a quarter of the rows.
        let mut g = vec![0.0f32; K * N];
        for k in 0..K {
            for i in (0..M).step_by(4) {
                let v = x[i * K + k];
                let (row, out) = (&y[i * N..(i + 1) * N], &mut g[k * N..(k + 1) * N]);
                for (o, &yi) in out.iter_mut().zip(row) {
                    *o += v * yi;
                }
            }
        }
        for (i, wi) in w.iter_mut().enumerate() {
            *wi -= 1e-4 * g[i] + 1e-9 * col[i % len];
        }
        // Exchange a 16 KiB slice with the other thread.
        slots[id].lock().unwrap().copy_from_slice(&g[..EXCHANGE]);
        barrier.wait();
        sink += slots[1 - id].lock().unwrap().iter().sum::<f32>();
        barrier.wait();
        black_box((&x, &y, &col, &g));
    }
    sink + w[0]
}

/// Wall milliseconds of one pass of the reference: two threads, forty steps.
pub fn run_ms() -> f64 {
    let barrier = Barrier::new(2);
    let slots = [Mutex::new(vec![0.0f32; EXCHANGE]), Mutex::new(vec![0.0f32; EXCHANGE])];
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for id in 0..2 {
            let (barrier, slots) = (&barrier, &slots);
            s.spawn(move || black_box(worker(id, barrier, slots)));
        }
    });
    t0.elapsed().as_secs_f64() * 1e3
}

/// The reference pass on a quiet host of the build box's kind. Only fixes
/// the scale at which normalised times read; any constant would compare
/// parent and change alike.
pub const NOMINAL_MS: f64 = 40.0;

/// How much of the reference's slowdown a training step shares, as an
/// exponent: when the reference runs `r` times slower than nominal, a run of
/// any of the four workloads is taken to run `r^SHARE` times slower. Fitted
/// over a quarter-hour of interleaved runs (README, "Host reference").
pub const SHARE: f64 = 0.7;

/// The factor by which the host slows a training run, given the reference
/// passes around it.
pub fn slowdown(ref_ms: &[f64]) -> f64 {
    let mean = ref_ms.iter().sum::<f64>() / ref_ms.len() as f64;
    (mean / NOMINAL_MS).powf(SHARE)
}

/// A reference pass this recent still describes the host.
const FRESH: Duration = Duration::from_millis(20);

/// `(stolen, wanted)` CPU ticks of the whole machine since boot, from the
/// first line of `/proc/stat`: time the hypervisor ran someone else while a
/// virtual CPU had work, and all time the virtual CPUs had work. Zeros where
/// the file or the column is missing.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|cpu| cpu.strip_prefix("cpu "))
        .map(|cpu| cpu.split_whitespace().filter_map(|t| t.parse().ok()).collect())
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    match ticks[..] {
        [user, nice, system, _idle, _iowait, irq, softirq, steal, ..] => {
            (steal, user + nice + system + irq + softirq + steal)
        }
        _ => (0, 0),
    }
}

/// What the host did around and during a piece of timed work.
#[derive(Debug, Clone, Copy)]
pub struct HostState {
    /// Milliseconds of the reference passes before and after the work.
    pub ref_ms: [f64; 2],
    /// Share of the CPU time the machine asked for during the work that the
    /// hypervisor gave to someone else.
    pub stolen: f64,
}

/// Brackets timed work with reference passes. Two pieces of work that
/// follow each other directly share the pass between them.
#[derive(Default)]
pub struct Host {
    last: Option<(Instant, f64)>,
}

impl Host {
    /// Runs `work` and returns what it returned, with the host's state.
    pub fn around<T>(&mut self, work: impl FnOnce() -> T) -> (T, HostState) {
        let before = match self.last {
            Some((at, ms)) if at.elapsed() < FRESH => ms,
            _ => run_ms(),
        };
        let (stolen0, wanted0) = cpu_ticks();
        let out = work();
        let (stolen1, wanted1) = cpu_ticks();
        let after = run_ms();
        self.last = Some((Instant::now(), after));
        let stolen = (stolen1 - stolen0) as f64 / (wanted1 - wanted0).max(1) as f64;
        (out, HostState { ref_ms: [before, after], stolen })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_one_at_nominal_and_sublinear() {
        assert_eq!(slowdown(&[NOMINAL_MS]), 1.0);
        assert_eq!(slowdown(&[NOMINAL_MS - 5.0, NOMINAL_MS + 5.0]), 1.0);
        let twice = slowdown(&[2.0 * NOMINAL_MS]);
        assert!(twice > 1.0 && twice < 2.0, "{twice}");
    }

    #[test]
    fn the_reference_runs_and_the_host_is_read() {
        let (ms, host) = Host::default().around(run_ms);
        assert!(ms > 0.0 && host.ref_ms.iter().all(|&r| r > 0.0));
        assert!((0.0..=1.0).contains(&host.stolen), "{}", host.stolen);
        let (stolen, wanted) = cpu_ticks();
        assert!(stolen <= wanted);
    }
}
