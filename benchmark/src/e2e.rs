//! End-to-end pass: `a2sgd::train` in fresh child processes, tracing off.
//!
//! A run is one re-exec of this binary per rank (TCP workloads get one
//! process per rank through `WorldSpec::env_for`; in-proc workloads one
//! process whose `train` call spawns the thread ranks). The parent times
//! spawn → exit; rank 0 prints its `TrainReport` essentials as one text
//! line, so counts never squeeze through an `f32`.
//!
//! Every run is bracketed by passes of the host reference (`hostref`), and
//! its wall time is divided by the slowdown they show: the shared host moves
//! the raw times of all four workloads together by more than any bound.

use crate::hostref::{self, Host, HostState};
use crate::metrics::Values;
use crate::stats;
use crate::workloads::{Workload, WORLD};
use cluster_comm::WorldSpec;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A child that has not finished by then is stuck; it ends itself.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);
const RESULT_TAG: &str = "a2sgd-benchmark-result";

/// What rank 0 of a child run reports back.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildReport {
    pub iters: usize,
    pub wire_bits_per_iter: u64,
    pub sync_wire_bytes: u64,
    pub divergence: f64,
    pub hwm_kb: u64,
    pub epoch_losses: Vec<f64>,
}

impl ChildReport {
    fn to_line(&self) -> String {
        let losses: Vec<String> = self.epoch_losses.iter().map(f64::to_string).collect();
        format!(
            "{RESULT_TAG} iters={} wire_bits={} sync_bytes={} div={} hwm_kb={} losses={}",
            self.iters,
            self.wire_bits_per_iter,
            self.sync_wire_bytes,
            self.divergence,
            self.hwm_kb,
            losses.join(",")
        )
    }

    fn parse_line(line: &str) -> Result<Self, String> {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(RESULT_TAG) {
            return Err(format!("not a result line: `{line}`"));
        }
        let mut get = |key: &str| -> Result<&str, String> {
            fields
                .next()
                .and_then(|f| f.strip_prefix(key)?.strip_prefix('='))
                .ok_or_else(|| format!("result line lacks `{key}`: `{line}`"))
        };
        fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("bad number `{s}` in result line"))
        }
        Ok(ChildReport {
            iters: num(get("iters")?)?,
            wire_bits_per_iter: num(get("wire_bits")?)?,
            sync_wire_bytes: num(get("sync_bytes")?)?,
            divergence: num(get("div")?)?,
            hwm_kb: num(get("hwm_kb")?)?,
            epoch_losses: get("losses")?.split(',').map(num).collect::<Result<_, _>>()?,
        })
    }

    pub fn train_loss_mean(&self) -> f64 {
        stats::mean(&self.epoch_losses)
    }

    pub fn wire_bytes_per_step(&self) -> f64 {
        self.sync_wire_bytes as f64 / self.iters as f64
    }

    /// The per-run correctness checks; `Err` names the first one that fails.
    fn check(&self, w: &Workload, want_iters: usize) -> Result<(), String> {
        if self.iters != want_iters {
            return Err(format!("ran {} steps, expected {want_iters}", self.iters));
        }
        if let Some(bad) = self.epoch_losses.iter().find(|l| !l.is_finite()) {
            return Err(format!("non-finite training loss {bad}"));
        }
        if let Some(want) = w.expected_wire_bits() {
            if self.wire_bits_per_iter != want {
                return Err(format!("wire bits/step {} ≠ {want}", self.wire_bits_per_iter));
            }
        }
        if self.divergence.is_nan() || self.divergence >= w.divergence_limit() {
            return Err(format!(
                "replica divergence {} not below {}",
                self.divergence,
                w.divergence_limit()
            ));
        }
        Ok(())
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:")?.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Child entry point: one `a2sgd::train` call, then the result line (rank 0
/// of a TCP world, or the single in-proc process).
pub fn child_main(w: &Workload, seed: u64, epochs: usize, steps: usize) {
    std::thread::spawn(|| {
        std::thread::sleep(CHILD_DEADLINE);
        eprintln!("benchmark child exceeded {CHILD_DEADLINE:?}; giving up");
        std::process::exit(3);
    });
    let report = a2sgd::trainer::train(&w.config(seed, WORLD, epochs, steps));
    if cluster_comm::tcp_child_rank().unwrap_or(0) == 0 {
        let out = ChildReport {
            iters: report.iters,
            wire_bits_per_iter: report.wire_bits_per_iter,
            sync_wire_bytes: report.measured_sync_wire_bytes,
            divergence: report.replica_divergence,
            hwm_kb: vm_hwm_kb(),
            epoch_losses: report.epochs.iter().map(|e| e.train_loss).collect(),
        };
        println!("{}", out.to_line());
    }
}

/// Ports tried for rank 0's rendezvous listener: below the kernel's
/// ephemeral range (32768 up by default), which a port probed with `bind(0)`
/// comes from. An ephemeral port can be handed to an outgoing connection
/// between the probe and rank 0's bind — also to one of rank 1's own connect
/// attempts, which then connects to itself and holds the port (seen once in
/// some four hundred runs: "Address already in use").
const RENDEZVOUS_PORTS: std::ops::Range<u32> = 10_000..30_000;

/// A free loopback `host:port` for rank 0's rendezvous listener. Successive
/// calls walk through [`RENDEZVOUS_PORTS`] from a start that depends on the
/// process, so neither an earlier run's socket nor another benchmark on the
/// box is in the way; the probe socket is dropped before rank 0 re-binds.
fn free_loopback_addr() -> std::io::Result<String> {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let span = RENDEZVOUS_PORTS.end - RENDEZVOUS_PORTS.start;
    let start = std::process::id().wrapping_mul(7919);
    let mut last_err = None;
    for _ in 0..64 {
        let offset = start.wrapping_add(NEXT.fetch_add(1, Ordering::Relaxed)) % span;
        let port = (RENDEZVOUS_PORTS.start + offset) as u16;
        match TcpListener::bind(("127.0.0.1", port)) {
            Ok(probe) => return Ok(probe.local_addr()?.to_string()),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("64 ports were tried"))
}

/// Runs `epochs` × `steps` training steps of `w` in fresh processes.
/// Returns the parent-side wall seconds from first spawn to last exit, and
/// rank 0's checked report.
pub fn launch(
    w: &Workload,
    seed: u64,
    epochs: usize,
    steps: usize,
) -> Result<(f64, ChildReport), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let spec = match w.tcp {
        true => Some(WorldSpec::single_host(
            free_loopback_addr().map_err(|e| format!("probe a loopback port: {e}"))?,
            WORLD,
        )),
        false => None,
    };
    let t0 = Instant::now();
    let mut children: Vec<Child> = Vec::new();
    for rank in 0..spec.as_ref().map_or(1, WorldSpec::world) {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--epochs", &epochs.to_string()])
            .args(["--steps", &steps.to_string()])
            .stdin(Stdio::null())
            .stdout(if rank == 0 { Stdio::piped() } else { Stdio::null() });
        if let Some(spec) = &spec {
            cmd.envs(spec.env_for(rank));
        }
        match cmd.spawn() {
            Ok(child) => children.push(child),
            Err(e) => {
                // Leave no rank behind waiting for a peer that never starts.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(format!("spawn rank {rank}: {e}"));
            }
        }
    }
    // Every child ends by itself (done, panicked, or its own deadline), so
    // plain blocking waits reap them all; an error on one wait must not
    // skip the others.
    let outputs: Vec<_> = children.into_iter().map(Child::wait_with_output).collect();
    let outputs: Vec<_> =
        outputs.into_iter().collect::<Result<_, _>>().map_err(|e| format!("wait: {e}"))?;
    let wall = t0.elapsed().as_secs_f64();
    if let Some((rank, out)) = outputs.iter().enumerate().find(|(_, o)| !o.status.success()) {
        return Err(format!("rank {rank} ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&outputs[0].stdout);
    let line = stdout
        .lines()
        .rfind(|l| l.starts_with(RESULT_TAG))
        .ok_or_else(|| "rank 0 printed no result line".to_string())?;
    let report = ChildReport::parse_line(line)?;
    report.check(w, epochs * steps)?;
    Ok((wall, report))
}

/// Long runs of one call cycle through this many seeds derived from
/// `--seed`; loss and wire bytes are reported as the mean over them. The
/// acceptance driver changes the seed from call to call, and the mean loss of
/// one hundred FNN-3 steps moves by ±15 % from seed to seed; eight seeds a
/// call keep the call-to-call spread inside a third of the metric's bound.
pub const SEEDS_PER_CALL: usize = 8;

/// Seed of the `i`-th long run: the given seed first (the layer pass checks
/// its replica against that run), then Weyl steps away from it, then round
/// again — a repeated seed must repeat its result bit for bit.
fn long_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i % SEEDS_PER_CALL) as u64 * 0x9E37_79B9_7F4A_7C15)
}

/// A run under more steal than this measures the hypervisor's other guests:
/// it is set aside while enough runs under less remain. A quiet hour shows
/// 0–1 % steal, a stormy one 20–85 %.
const STEAL_LIMIT: f64 = 0.05;
/// Fewer runs than this under the steal limit, and all runs count.
const MIN_CLEAN_RUNS: usize = 3;

/// A timed run: parent-side wall seconds, and the host around it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub host: HostState,
}

impl Timed {
    /// Wall seconds on a host running the reference at its nominal speed.
    pub fn normal_s(&self) -> f64 {
        self.wall_s / hostref::slowdown(&self.host.ref_ms)
    }
}

/// The runs of `all` under the steal limit, or all of them when those are
/// fewer than [`MIN_CLEAN_RUNS`].
fn clean(all: &[Timed]) -> Vec<Timed> {
    let clean: Vec<Timed> =
        all.iter().copied().filter(|run| run.host.stolen <= STEAL_LIMIT).collect();
    if clean.len() >= MIN_CLEAN_RUNS {
        clean
    } else {
        all.to_vec()
    }
}

/// One long run: its seed, timing, rank 0's report.
struct LongRun {
    seed: u64,
    timed: Timed,
    report: ChildReport,
}

/// The end-to-end samples of one workload, filled one run at a time so the
/// caller decides the interleaving across workloads.
pub struct E2e {
    pub w: &'static Workload,
    seed: u64,
    /// Shape of a long run: the workload's `EPOCHS` × `steps`, or smaller
    /// for `--quick` and for the layer pass's reference run.
    epochs: usize,
    steps: usize,
    setup_runs: Vec<Timed>,
    longs: Vec<LongRun>,
    long_runs_started: usize,
    /// Wall seconds spent in long runs so far, and in the last one.
    long_spent_s: f64,
    long_last_s: f64,
    pub attempted: u64,
    pub errors: Vec<String>,
}

impl E2e {
    pub fn new(w: &'static Workload, seed: u64, epochs: usize, steps: usize) -> Self {
        E2e {
            w,
            seed,
            epochs,
            steps,
            setup_runs: vec![],
            longs: vec![],
            long_runs_started: 0,
            long_spent_s: 0.0,
            long_last_s: 0.0,
            attempted: 0,
            errors: vec![],
        }
    }

    fn run(
        &mut self,
        host: &mut Host,
        seed: u64,
        epochs: usize,
        steps: usize,
    ) -> Option<(Timed, ChildReport)> {
        self.attempted += 1;
        let (launched, host) = host.around(|| launch(self.w, seed, epochs, steps));
        launched
            .map(|(wall_s, report)| (Timed { wall_s, host }, report))
            .map_err(|e| self.errors.push(format!("{epochs}x{steps}-step run, seed {seed}: {e}")))
            .ok()
    }

    /// One 1-step run: a `setup_s` sample.
    pub fn short(&mut self, host: &mut Host) {
        if let Some((timed, _)) = self.run(host, self.seed, 1, 1) {
            self.setup_runs.push(timed);
        }
    }

    /// One long run: a `step_ms_p50` sample.
    pub fn long(&mut self, host: &mut Host) {
        let t0 = Instant::now();
        let seed = long_seed(self.seed, self.long_runs_started);
        self.long_runs_started += 1;
        if let Some((timed, report)) = self.run(host, seed, self.epochs, self.steps) {
            self.longs.push(LongRun { seed, timed, report });
        }
        self.long_last_s = t0.elapsed().as_secs_f64();
        self.long_spent_s += self.long_last_s;
    }

    /// True until `min_runs` long runs were started, and then while one more
    /// still fits a budget of `seconds` of long-run time.
    pub fn wants_long(&self, min_runs: usize, seconds: f64) -> bool {
        self.long_runs_started < min_runs || self.long_spent_s + self.long_last_s <= seconds * 1.15
    }

    /// The report of the long run made with the given seed itself.
    pub fn first_long(&self) -> Option<&ChildReport> {
        self.longs.first().map(|run| &run.report)
    }

    /// Marginal milliseconds per step of each long run that counts, by the
    /// clock `seconds` reads off a timed run.
    fn step_samples_by(&self, seconds: fn(&Timed) -> f64) -> Vec<f64> {
        let setup = stats::median(&self.setup_samples_by(seconds));
        let steps = self.epochs * self.steps;
        clean(&self.long_timings())
            .iter()
            .map(|run| stats::marginal_step_ms(seconds(run), setup, steps))
            .collect()
    }

    fn setup_samples_by(&self, seconds: fn(&Timed) -> f64) -> Vec<f64> {
        clean(&self.setup_runs).iter().map(seconds).collect()
    }

    /// Marginal milliseconds per step of each long run that counts, at the
    /// host's nominal speed.
    pub fn step_samples(&self) -> Vec<f64> {
        self.step_samples_by(Timed::normal_s)
    }

    /// The same by the wall clock, the host as slow as it was.
    pub fn raw_step_samples(&self) -> Vec<f64> {
        self.step_samples_by(|t| t.wall_s)
    }

    /// Seconds of each 1-step run that counts, at the host's nominal speed.
    pub fn setup_samples(&self) -> Vec<f64> {
        self.setup_samples_by(Timed::normal_s)
    }

    /// Milliseconds of every host reference pass around this pass's runs.
    pub fn host_ref_samples(&self) -> Vec<f64> {
        let timed = self.setup_runs.iter().copied().chain(self.long_timings());
        timed.flat_map(|t| t.host.ref_ms).collect()
    }

    /// The timings as taken, for the log: of the 1-step runs, of the long runs.
    pub fn setup_timings(&self) -> &[Timed] {
        &self.setup_runs
    }

    pub fn long_timings(&self) -> Vec<Timed> {
        self.longs.iter().map(|run| run.timed).collect()
    }

    /// The end-to-end metrics. Also records an error when two long runs of
    /// one seed differ in what must repeat exactly.
    pub fn metrics(&mut self) -> Option<Values> {
        if self.setup_runs.is_empty() || self.longs.is_empty() {
            return None;
        }
        for (i, run) in self.longs.iter().enumerate() {
            let twin = self.longs[..i].iter().find(|earlier| earlier.seed == run.seed);
            if let Some(twin) = twin.filter(|t| {
                t.report.epoch_losses != run.report.epoch_losses
                    || t.report.sync_wire_bytes != run.report.sync_wire_bytes
            }) {
                self.errors.push(format!(
                    "seed {} twice, two results: loss {:?} / {} sync bytes, then {:?} / {}",
                    run.seed,
                    twin.report.epoch_losses,
                    twin.report.sync_wire_bytes,
                    run.report.epoch_losses,
                    run.report.sync_wire_bytes
                ));
            }
        }
        // The first runs carry the distinct seeds.
        let seeded = &self.longs[..self.longs.len().min(SEEDS_PER_CALL)];
        let over_seeds = |f: fn(&ChildReport) -> f64| {
            stats::mean(&seeded.iter().map(|run| f(&run.report)).collect::<Vec<_>>())
        };
        let rss: Vec<f64> =
            self.longs.iter().map(|run| run.report.hwm_kb as f64 / 1024.0).collect();
        Some(vec![
            ("step_ms_p50", stats::median(&self.step_samples())),
            ("setup_s", stats::median(&self.setup_samples())),
            ("train_loss_mean", over_seeds(ChildReport::train_loss_mean)),
            ("wire_bytes_per_step", over_seeds(ChildReport::wire_bytes_per_step)),
            ("peak_rss_mb", stats::median(&rss)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn report() -> ChildReport {
        ChildReport {
            iters: 1000,
            wire_bits_per_iter: 64,
            // Above 2^24: would not survive a trip through one f32.
            sync_wire_bytes: 796_904_001,
            divergence: 0.012_345_678_901_234,
            hwm_kb: 23_456,
            epoch_losses: vec![0.1 + 0.2, 1e-9, 2.5],
        }
    }

    #[test]
    fn result_line_round_trips_bit_exactly() {
        let r = report();
        assert_eq!(ChildReport::parse_line(&r.to_line()), Ok(r));
        assert!(ChildReport::parse_line("something else").is_err());
        assert!(ChildReport::parse_line(&format!("{RESULT_TAG} iters=3")).is_err());
    }

    fn timed(wall_s: f64, ref_ms: f64, stolen: f64) -> Timed {
        Timed { wall_s, host: HostState { ref_ms: [ref_ms; 2], stolen } }
    }

    #[test]
    fn times_are_brought_to_the_nominal_host() {
        assert_eq!(timed(2.0, hostref::NOMINAL_MS, 0.0).normal_s(), 2.0);
        let slow_host = timed(2.0, 2.0 * hostref::NOMINAL_MS, 0.0).normal_s();
        assert!(slow_host > 1.0 && slow_host < 2.0, "{slow_host}");
    }

    #[test]
    fn runs_under_steal_are_set_aside_while_enough_remain() {
        let quiet = |wall_s| timed(wall_s, 40.0, 0.01);
        let stormy = |wall_s| timed(wall_s, 40.0, 0.4);
        let runs = [quiet(1.0), stormy(5.0), quiet(1.1), quiet(0.9), stormy(7.0)];
        let walls = |v: Vec<Timed>| v.iter().map(|t| t.wall_s).collect::<Vec<_>>();
        assert_eq!(walls(clean(&runs)), [1.0, 1.1, 0.9]);
        // Two quiet runs are too few to stand for the call: all four count.
        assert_eq!(walls(clean(&runs[1..])), [5.0, 1.1, 0.9, 7.0]);
        let mut pass = E2e::new(&WORKLOADS[3], 1, 1, 11);
        pass.setup_runs = vec![quiet(0.5), quiet(0.5), quiet(0.5), stormy(3.0)];
        assert_eq!(pass.setup_samples().len(), 3);
    }

    #[test]
    fn rendezvous_ports_lie_below_the_ephemeral_range_and_move_on() {
        let port = |addr: String| addr.rsplit(':').next().unwrap().parse::<u32>().unwrap();
        let (a, b) = (port(free_loopback_addr().unwrap()), port(free_loopback_addr().unwrap()));
        assert!(RENDEZVOUS_PORTS.contains(&a) && RENDEZVOUS_PORTS.contains(&b) && a != b);
    }

    #[test]
    fn long_runs_cycle_through_distinct_seeds() {
        let seeds: Vec<u64> = (0..2 * SEEDS_PER_CALL).map(|i| long_seed(41, i)).collect();
        assert_eq!(seeds[0], 41, "the first long run uses the given seed");
        assert_eq!(seeds[..SEEDS_PER_CALL], seeds[SEEDS_PER_CALL..], "then the cycle repeats");
        let mut distinct = seeds[..SEEDS_PER_CALL].to_vec();
        distinct.dedup();
        assert_eq!(distinct.len(), SEEDS_PER_CALL);
        // Neighbouring driver seeds must not share derived seeds.
        assert!((1..SEEDS_PER_CALL).all(|i| !seeds.contains(&long_seed(42, i))));
    }

    #[test]
    fn checks_name_what_failed() {
        let a2sgd = &WORKLOADS[0];
        let r = report();
        assert_eq!(r.check(a2sgd, 1000), Ok(()));
        assert!(r.check(a2sgd, 999).unwrap_err().contains("steps"));
        let nan = ChildReport { epoch_losses: vec![f64::NAN], ..report() };
        assert!(nan.check(a2sgd, 1000).unwrap_err().contains("non-finite"));
        let fat = ChildReport { wire_bits_per_iter: 128, ..report() };
        assert!(fat.check(a2sgd, 1000).unwrap_err().contains("wire bits"));
        let apart = ChildReport { divergence: f64::NAN, ..report() };
        assert!(apart.check(a2sgd, 1000).unwrap_err().contains("divergence"));
        let dense = &WORKLOADS[1];
        let drift = ChildReport { wire_bits_per_iter: 32 * 199_210, ..report() };
        assert!(drift.check(dense, 1000).unwrap_err().contains("divergence"));
    }
}
