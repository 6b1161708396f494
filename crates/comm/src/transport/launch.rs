//! Launchers for the TCP backend.
//!
//! * [`run_cluster_tcp`] — the real thing: forks `world` OS processes by
//!   re-executing the current binary (the classic fork-pattern for test
//!   binaries and examples), wires them together over loopback TCP, and
//!   collects each rank's `Vec<f32>` result through a result file.
//! * [`run_cluster_tcp_threads`] — same sockets, one process: every rank is
//!   a thread with its own [`Tcp`] endpoint over 127.0.0.1. No process
//!   overhead, so benches and property tests can afford it.
//!
//! A child process recognizes itself by `A2SGD_RANK` in its environment
//! ([`tcp_child_rank`]) and **exits the process** inside the launcher after
//! reporting its result — callers below the launch call in child mode never
//! run, which is what makes the re-exec pattern safe inside `#[test]` fns
//! (spawned with `<test_name> --exact`).

use crate::collective::CommHandle;
use crate::transport::rendezvous::WorldSpec;
use crate::transport::tcp::{self, MasterEndpoint, Tcp};
use crate::transport::wire;
use std::io::Write;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Environment variable pointing children at the result-file directory.
pub const ENV_OUT_DIR: &str = "A2SGD_OUT_DIR";
/// Override (seconds) for the parent's child-exit deadline — the knob
/// slower CI runners and long multi-process sweeps widen without editing
/// source (e.g. `A2SGD_CHILD_DEADLINE_SECS=240`).
pub const ENV_CHILD_DEADLINE: &str = "A2SGD_CHILD_DEADLINE_SECS";

const DEFAULT_LAUNCH_TIMEOUT: Duration = Duration::from_secs(120);

/// `Some(rank)` when this process is a launched TCP child (i.e.
/// `A2SGD_RANK` is set), `None` in a parent/standalone process.
pub fn tcp_child_rank() -> Option<usize> {
    std::env::var(tcp::ENV_RANK).ok().and_then(|v| v.parse().ok())
}

/// Resolved launcher knobs — the one place the child-deadline environment
/// is interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// How long the parent waits for every child to exit before killing
    /// the brood and failing the run.
    pub child_deadline: Duration,
}

impl LaunchConfig {
    /// `A2SGD_CHILD_DEADLINE_SECS`'s value when it parses as whole
    /// seconds; otherwise (unset *or* unparsable) the 120 s default.
    pub fn resolve(child_deadline: Option<&str>) -> Self {
        let deadline = child_deadline
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_secs)
            .unwrap_or(DEFAULT_LAUNCH_TIMEOUT);
        LaunchConfig { child_deadline: deadline }
    }

    /// Reads [`Self::resolve`]'s input from the process environment.
    pub fn from_env() -> Self {
        Self::resolve(std::env::var(ENV_CHILD_DEADLINE).ok().as_deref())
    }
}

fn launch_timeout() -> Duration {
    LaunchConfig::from_env().child_deadline
}

/// Picks a currently-free loopback port. There is a small window between
/// dropping the probe listener and rank 0 re-binding; acceptable for
/// loopback test orchestration (a collision fails the run loudly).
fn free_loopback_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral probe");
    let addr = l.local_addr().expect("probe addr").to_string();
    drop(l);
    addr
}

fn result_path(dir: &std::path::Path, rank: usize) -> PathBuf {
    dir.join(format!("rank_{rank}.frame"))
}

/// Generic multi-process fan-out over a typed [`WorldSpec`]: in a child
/// (env says so) runs `child(rank)`, writes the result file, and exits the
/// process; in the parent spawns one copy of the current executable per
/// rank with the spec lowered into the rendezvous environment plus
/// `child_args` (pass `&[test_name, "--exact"]` from inside a `#[test]`),
/// waits for them under the [`LaunchConfig`] deadline, and returns the
/// per-rank results in rank order.
///
/// The deadline (default 120 s; see [`LaunchConfig::resolve`]) turns a hung rendezvous or deadlocked collective into a
/// loud failure instead of a stalled CI job: all children are killed and
/// the parent panics. A child that exits nonzero short-circuits the wait
/// the same way — its siblings are killed immediately rather than idling
/// out the full deadline inside collectives that can no longer complete.
pub fn run_multiprocess_spec<C>(spec: &WorldSpec, child_args: &[&str], child: C) -> Vec<Vec<f32>>
where
    C: FnOnce(usize) -> Vec<f32>,
{
    let world = spec.world();
    assert!(world >= 1);
    if let Some(rank) = tcp_child_rank() {
        let out = child(rank);
        let dir = std::env::var(ENV_OUT_DIR).expect("child without A2SGD_OUT_DIR");
        let bytes = wire::encode_frame(rank as u64, wire::PayloadRef::F32Dense(&out));
        std::fs::write(result_path(std::path::Path::new(&dir), rank), bytes)
            .expect("write result file");
        let _ = std::io::stdout().flush();
        // Leave before the harness runs anything else in this process.
        std::process::exit(0);
    }

    static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().expect("current_exe");
    let out_dir = std::env::temp_dir().join(format!(
        "a2sgd-launch-{}-{}",
        std::process::id(),
        LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&out_dir).expect("create result dir");

    let mut children = Vec::with_capacity(world);
    for rank in 0..world {
        let mut cmd = Command::new(&exe);
        cmd.args(child_args);
        for (k, v) in spec.env_for(rank) {
            cmd.env(k, v);
        }
        let c = cmd
            .env(ENV_OUT_DIR, &out_dir)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn rank {rank}: {e}"));
        children.push(c);
    }

    let deadline = Instant::now() + launch_timeout();
    let mut statuses: Vec<Option<std::process::ExitStatus>> = vec![None; world];
    while statuses.iter().any(|s| s.is_none()) {
        for (rank, c) in children.iter_mut().enumerate() {
            if statuses[rank].is_none() {
                statuses[rank] = c.try_wait().unwrap_or_else(|e| panic!("wait rank {rank}: {e}"));
            }
        }
        // Fast-fail: the moment one rank dies nonzero, its siblings are
        // stuck in collectives that will never complete — kill them now
        // instead of letting the run idle out the full deadline.
        let failed = statuses.iter().enumerate().find_map(|(r, s)| match s {
            Some(st) if !st.success() => Some((r, *st)),
            _ => None,
        });
        if let Some((rank, status)) = failed {
            let survivors: Vec<usize> =
                statuses.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(r, _)| r).collect();
            for c in &mut children {
                let _ = c.kill();
                let _ = c.wait(); // reap — no zombies while the binary lives on
            }
            let _ = std::fs::remove_dir_all(&out_dir);
            panic!("TCP child rank {rank} failed: {status} (killed sibling ranks {survivors:?})");
        }
        if Instant::now() >= deadline && statuses.iter().any(|s| s.is_none()) {
            for c in &mut children {
                let _ = c.kill();
                let _ = c.wait(); // reap — no zombies while the binary lives on
            }
            let hung: Vec<usize> =
                statuses.iter().enumerate().filter(|(_, s)| s.is_none()).map(|(r, _)| r).collect();
            let _ = std::fs::remove_dir_all(&out_dir);
            panic!("TCP launch timed out after {:?}; hung ranks {hung:?}", launch_timeout());
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut results = Vec::with_capacity(world);
    for (rank, status) in statuses.iter().enumerate() {
        let status = status.unwrap();
        if !status.success() {
            let _ = std::fs::remove_dir_all(&out_dir);
            panic!("TCP child rank {rank} failed: {status}");
        }
        let bytes = std::fs::read(result_path(&out_dir, rank))
            .unwrap_or_else(|e| panic!("rank {rank} exited 0 but left no result file: {e}"));
        let (tag, data) = wire::read_frame(&mut &bytes[..])
            .unwrap_or_else(|e| panic!("rank {rank} result file corrupt: {e}"));
        assert_eq!(tag as usize, rank, "result file rank mismatch");
        results.push(data.expect_f32());
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    results
}

/// [`run_multiprocess_spec`] for a flat single-host world of `world` ranks
/// on a fresh loopback port.
pub fn run_multiprocess<C>(world: usize, child_args: &[&str], child: C) -> Vec<Vec<f32>>
where
    C: FnOnce(usize) -> Vec<f32>,
{
    run_multiprocess_spec(&WorldSpec::single_host(free_loopback_addr(), world), child_args, child)
}

/// Multi-process TCP collective runner: spawns `world` local processes of
/// the current binary over loopback and runs `f` on each rank's measured
/// TCP [`CommHandle`]. Returns the per-rank results in rank order (parent
/// only; children exit inside — see [`run_multiprocess`]).
///
/// From a `#[test]`, pass `child_args = &[test_name, "--exact"]` so the
/// re-executed test binary runs only the calling test. From a plain `main`
/// (examples/binaries), pass `&[]`.
pub fn run_cluster_tcp<F>(world: usize, child_args: &[&str], f: F) -> Vec<Vec<f32>>
where
    F: FnOnce(&mut CommHandle) -> Vec<f32>,
{
    run_multiprocess(world, child_args, |_| {
        let mut h = CommHandle::tcp_from_env().expect("TCP rendezvous failed");
        f(&mut h)
    })
}

/// In-process variant: `world` threads, each with its own [`Tcp`] endpoint
/// over real loopback sockets (per-thread rendezvous against a pre-bound
/// master listener, so there is no port race). Same data plane as
/// [`run_cluster_tcp`] without the process-management overhead — the right
/// tool for benches and high-iteration tests.
pub fn run_cluster_tcp_threads<T, F>(world: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&mut CommHandle) -> T + Sync,
{
    assert!(world >= 1);
    let master = TcpListener::bind("127.0.0.1:0").expect("bind master listener");
    let master_addr = master.local_addr().expect("master addr").to_string();
    let mut master_slot = Some(master);
    let mut results: Vec<Option<T>> = (0..world).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut joins = Vec::with_capacity(world);
        for (rank, slot) in results.iter_mut().enumerate() {
            let endpoint = if rank == 0 {
                MasterEndpoint::Listener(master_slot.take().unwrap())
            } else {
                MasterEndpoint::Addr(master_addr.clone())
            };
            let f = &f;
            joins.push(s.spawn(move || {
                let t = Tcp::connect_parts(rank, world, endpoint, None, tcp::rendezvous_deadline())
                    .unwrap_or_else(|e| panic!("rank {rank} rendezvous failed: {e}"));
                let mut h = CommHandle::new(Box::new(t), None);
                *slot = Some(f(&mut h));
            }));
        }
        for j in joins {
            j.join().expect("TCP rank thread panicked");
        }
    });
    results.into_iter().map(|r| r.expect("rank produced no result")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_config_parses_or_defaults() {
        // Pure input — no env races.
        let secs = |c: Option<&str>| LaunchConfig::resolve(c).child_deadline;
        assert_eq!(secs(Some("240")), Duration::from_secs(240));
        assert_eq!(secs(Some("nonsense")), Duration::from_secs(120));
        assert_eq!(secs(None), Duration::from_secs(120));
    }

    #[test]
    fn thread_cluster_runs_collectives() {
        let sums = run_cluster_tcp_threads(3, |h| {
            let mut v = vec![h.rank() as f32 + 1.0];
            h.allreduce_sum(&mut v);
            v[0]
        });
        assert_eq!(sums, vec![6.0, 6.0, 6.0]);
    }

    #[test]
    fn thread_cluster_world_one_is_local() {
        let out = run_cluster_tcp_threads(1, |h| {
            let mut v = vec![5.0f32];
            h.allreduce_sum(&mut v);
            (h.rank(), v[0])
        });
        assert_eq!(out, vec![(0, 5.0)]);
    }
}
