//! "Zero thread spawns per step" as a test: the process's thread count does
//! not move with the number of `par_*` calls. Its own test binary with one
//! test, so no other test's threads come and go while it counts.
#![cfg(target_os = "linux")]

use rayon::prelude::*;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("a Threads: line");
    line.trim().parse().expect("a thread count")
}

fn at_width<R: Send>(n: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(n).build().unwrap().install(op)
}

fn sum_of_squares() -> u64 {
    (0..64u64).collect::<Vec<_>>().into_par_iter().map(|i| i * i).reduce(|| 0, |a, b| a + b)
}

#[test]
fn thread_count_does_not_move_with_the_number_of_calls() {
    const WANT: u64 = 63 * 64 * 127 / 6;
    let before = os_threads();
    at_width(1, || {
        for _ in 0..100 {
            assert_eq!(sum_of_squares(), WANT);
        }
    });
    assert_eq!(os_threads(), before, "width 1 started a helper");

    at_width(4, || {
        assert_eq!(sum_of_squares(), WANT);
        let after_first = os_threads();
        assert_eq!(after_first, before + 3, "width 4 is the caller plus three helpers");
        for _ in 0..1000 {
            assert_eq!(sum_of_squares(), WANT);
        }
        assert_eq!(os_threads(), after_first, "a call after the first started a thread");
    });
}
