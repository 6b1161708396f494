//! The training fingerprint: a fixed in-proc grid of `train` runs, one row
//! per run of every deterministic report field (f64s as hex bits; measured
//! seconds, throughput and threads per rank left out; `params` is the
//! digest of the final parameters, which no relation reads), compared with the
//! committed `fingerprint.golden`; and the trainer's bit-identity contracts
//! as relations between rows. Row tags: `b1k` = 1 KiB buckets, `ov` =
//! `overlap_backward`, `fixed1` = `SchedKind::Fixed(1)`, `hier1` =
//! `Topology::Hier { group_size: 1 }`. `ov` ≡ no `ov` on the whole line;
//! `fixed1` ≡ unscheduled on all but the label; `b1k` ≡ `plain` on the
//! trajectory, on the wire too unless the codec pads each bucket, with more
//! messages and priced seconds, except in the A2SGD family, whose whole line
//! is equal; `hier1` ≡ flat on the trajectory and wire bits, all of them
//! inter. Determinism and pool-width invariance are the golden compare: CI
//! runs it under `RAYON_NUM_THREADS=1` and `=4`. A mismatch names each moved
//! field, writes the whole actual grid to `$CARGO_TARGET_TMPDIR` and prints
//! the `cp` that adopts it. On a host whose GEMM microkernel is not the one
//! the golden header records, the compare is skipped and the relations run.

use a2sgd::experiments::scaled_convergence_config;
use a2sgd::registry::{AlgoKind, PAPER_DENSITY, PAPER_QSGD_LEVELS};
use a2sgd::trainer::{train, EpochStats, Topology, TrainConfig, TrainReport};
use a2sgd::SchedKind;
use mini_nn::models::ModelKind;
use std::sync::Mutex;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fingerprint.golden");
const ACTUAL: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/fingerprint.actual");
const KERNEL: &str = "# microkernel: ";

/// What a run computed.
const TRAJECTORY: &[&str] =
    &["loss", "metric", "final", "div", "iters", "sync_steps", "local_steps", "hists"];
/// What it put on the wire, in logical bits and in bytes.
const WIRE: &[&str] = &["wire", "intra", "inter", "bytes", "sync_bytes", "framing"];
/// The communicators' ledger: frames and their priced seconds.
const LEDGER: &[&str] = &["messages", "comm_s"];
const FIELDS: &[&[&str]] = &[TRAJECTORY, WIRE, LEDGER];
const LINE: &[&[&str]] = &[&["label"], TRAJECTORY, WIRE, LEDGER];

/// The base run: scaled FNN-3 at `workers`, 2 epochs over 640 training and
/// 160 held-out samples, batch 16, seed 42, histograms at steps 0 and 5.
fn fnn3(algo: AlgoKind, workers: usize) -> TrainConfig {
    let mut c = scaled_convergence_config(ModelKind::Fnn3, algo, workers, 42);
    (c.epochs, c.train_size, c.eval_size, c.batch_per_worker) = (2, 640, 160, 16);
    c.grad_hist_iters = vec![0, 5];
    c
}

/// `c` with the `+`-joined row tags applied.
fn tagged(mut c: TrainConfig, tags: &str) -> TrainConfig {
    for tag in tags.split('+') {
        match tag {
            "plain" => {}
            "b1k" => c.bucket_bytes = Some(1024),
            "ov" => c.overlap_backward = true,
            "fixed1" => c.schedule = SchedKind::Fixed(1),
            "hier1" => c.topology = Topology::Hier { group_size: 1 },
            _ => panic!("unknown row tag {tag}"),
        }
    }
    c
}

/// Row `id` of report `r`.
fn row(id: String, r: &TrainReport) -> String {
    let hex = |x: f64| format!("{:016x}", x.to_bits());
    let epochs = |f: fn(&EpochStats) -> f64| {
        r.epochs.iter().map(|e| hex(f(e))).collect::<Vec<_>>().join(",")
    };
    let fields = [
        ("label", r.label.replace(' ', "")),
        ("loss", epochs(|e| e.train_loss)),
        ("metric", epochs(|e| e.metric)),
        ("final", hex(r.final_metric)),
        ("div", hex(r.replica_divergence)),
        ("comm_s", hex(r.comm_seconds)),
        ("wire", r.wire_bits_per_iter.to_string()),
        ("intra", r.intra_wire_bits_per_iter.to_string()),
        ("inter", r.inter_wire_bits_per_iter.to_string()),
        ("bytes", r.measured_wire_bytes.to_string()),
        ("sync_bytes", r.measured_sync_wire_bytes.to_string()),
        ("messages", r.messages.to_string()),
        ("framing", r.framing_bytes.to_string()),
        ("iters", r.iters.to_string()),
        ("sync_steps", r.sync_steps.to_string()),
        ("local_steps", r.local_steps.to_string()),
        ("hists", r.grad_histograms.len().to_string()),
        ("params", format!("{:#018x}", r.param_digest)),
    ];
    fields.iter().fold(id, |line, (k, v)| line + &format!(" {k}={v}"))
}

fn id_of(row: &str) -> &str {
    row.split(' ').next().unwrap_or_default()
}

/// Field `name` of a row ("" when it has none).
fn field<'a>(row: &'a str, name: &str) -> &'a str {
    row.split(' ').skip(1).find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')).unwrap_or("")
}

/// A moved `field=value` as the failure shows it: f64 bits also decoded.
fn shown(kv: &str) -> String {
    let f = |h: &str| u64::from_str_radix(h, 16).ok().filter(|_| h.len() == 16).map(f64::from_bits);
    let vals: Option<Vec<_>> = kv.split(['=', ',']).skip(1).map(f).collect();
    let vals = vals.map(|v| v.iter().map(f64::to_string).collect::<Vec<_>>().join(", "));
    vals.map_or(kv.to_string(), |v| format!("{kv} ({v})"))
}

/// The actual grid as far as this process knows it: the golden rows, with
/// every section that found a mismatch replaced by its own rows.
static GRID: Mutex<Vec<String>> = Mutex::new(Vec::new());

fn write_actual(golden: &str, kernel: &str, section: &str, rows: &[String]) {
    let mut grid = GRID.lock().unwrap_or_else(|e| e.into_inner());
    if grid.is_empty() {
        grid.extend(golden.lines().filter(|l| !l.starts_with('#')).map(String::from));
    }
    grid.retain(|l| !l.starts_with(section));
    grid.extend_from_slice(rows);
    // Stable: sections in order, each section's rows in the order they ran.
    grid.sort_by_key(|l| l.bytes().next());
    let header = "# Training fingerprint: crates/core/tests/fingerprint.rs";
    let text = format!("{header}\n{KERNEL}{kernel}\n{}\n", grid.join("\n"));
    std::fs::write(ACTUAL, text).unwrap_or_else(|e| panic!("{ACTUAL}: {e}"));
}

/// One section of the grid: its rows, and everything that failed on them.
#[derive(Default)]
struct Section {
    name: &'static str,
    rows: Vec<String>,
    failures: Vec<String>,
}

impl Section {
    /// Trains `cfg` as row `<section>.<id>`.
    fn run(&mut self, id: &str, cfg: &TrainConfig) {
        let row = row(format!("{}.{id}", self.name), &train(cfg));
        println!("{row}");
        self.rows.push(row);
    }

    fn get(&self, id: &str, name: &str) -> &str {
        let id = format!("{}.{id}", self.name);
        field(self.rows.iter().find(|r| id_of(r) == id).expect("row ran"), name)
    }

    /// Relation: rows `a` and `b` agree on every field of `groups`.
    fn same(&mut self, a: &str, b: &str, groups: &[&[&str]], why: &str) {
        for f in groups.concat() {
            let (x, y) = (self.get(a, f).to_string(), self.get(b, f).to_string());
            if x != y {
                self.failures.push(format!("{a} ≢ {b} ({why}) on {f}: {x} vs {y}"));
            }
        }
    }

    /// Runs `cfg` plain, with `b1k` and with `b1k+ov` as rows `<id>.<tags>`,
    /// and relates them.
    fn bucketed_rows(&mut self, kind: AlgoKind, id: &str, cfg: TrainConfig) {
        for t in ["plain", "b1k", "b1k+ov"] {
            self.run(&format!("{id}.{t}"), &tagged(cfg.clone(), t));
        }
        self.same(&format!("{id}.b1k+ov"), &format!("{id}.b1k"), LINE, "overlap");
        self.buckets(kind, &format!("{id}.b1k"), &format!("{id}.plain"));
    }

    /// Relation: row `bucketed` ≡ row `whole` as far as buckets allow `kind`.
    fn buckets(&mut self, kind: AlgoKind, bucketed: &str, whole: &str) {
        let pads = matches!(kind, AlgoKind::Qsgd(_) | AlgoKind::TernGrad | AlgoKind::SignSgd);
        let a2sgd = matches!(kind, AlgoKind::A2sgd | AlgoKind::A2sgdCarry);
        let groups: &[&[&str]] = if a2sgd { LINE } else { &[TRAJECTORY, WIRE] };
        self.same(bucketed, whole, if pads { &[TRAJECTORY] } else { groups }, "buckets");
        // Non-negative f64 bits order as their values.
        let n = |id, f| {
            u64::from_str_radix(self.get(id, f), if f == "comm_s" { 16 } else { 10 }).unwrap()
        };
        if !a2sgd
            && n(whole, "messages") > 0
            && LEDGER.iter().any(|f| n(bucketed, f) <= n(whole, f))
        {
            self.failures.push(format!("{bucketed}: buckets must add messages and priced seconds"));
        }
    }

    /// Compares the rows with the golden file, unless it was recorded on the
    /// other microkernel, then fails with every moved field and broken relation.
    fn finish(mut self) {
        let golden = std::fs::read_to_string(GOLDEN).unwrap_or_default();
        let kernel = mini_tensor::gemm::microkernel();
        let section = format!("{}.", self.name);
        let want: Vec<&str> = golden.lines().filter(|l| l.starts_with(&section)).collect();
        let mut moved = Vec::new();
        for row in &self.rows {
            let was = want.iter().find(|w| id_of(w) == id_of(row)).map_or("", |w| *w);
            for (w, now) in was.split(' ').zip(row.split(' ')).skip(1).filter(|(w, n)| w != n) {
                moved.push(format!("row {}: {} -> {}", id_of(row), shown(w), shown(now)));
            }
            if was.split(' ').count() != row.split(' ').count() {
                moved.push(format!("row {}: {was:?} -> {row:?}", id_of(row)));
            }
        }
        if want.len() != self.rows.len() {
            moved.push(format!("{} golden rows, {} run", want.len(), self.rows.len()));
        }
        match golden.lines().find_map(|l| l.strip_prefix(KERNEL)) {
            Some(k) if k != kernel => println!("note: {GOLDEN} is {k}'s, compare skipped"),
            _ if moved.is_empty() => {}
            _ => {
                write_actual(&golden, kernel, &section, &self.rows);
                self.failures.extend(moved);
                self.failures.push(format!("whole actual grid: {ACTUAL}; adopt with"));
                self.failures.push(format!("  cp {ACTUAL} {GOLDEN}"));
            }
        }
        assert!(self.failures.is_empty(), "section {}:\n{}", self.name, self.failures.join("\n"));
    }
}

/// (A) Every registry kind at P = 4: plain, buckets, overlap, `fixed1`
/// alone and with both, and `hier1` for Dense and A2SGD.
#[test]
fn a_every_kind_at_four_workers() {
    let mut s = Section { name: "A", ..Default::default() };
    for kind in AlgoKind::all(PAPER_DENSITY) {
        let id = |t: &str| format!("{}.{t}", kind.name());
        s.bucketed_rows(kind, kind.name(), fnn3(kind, 4));
        for t in ["fixed1", "fixed1+b1k+ov"] {
            s.run(&id(t), &tagged(fnn3(kind, 4), t));
        }
        s.same(&id("fixed1"), &id("plain"), FIELDS, "fixed1");
        s.same(&id("fixed1+b1k+ov"), &id("b1k+ov"), FIELDS, "fixed1");
        if [AlgoKind::Dense, AlgoKind::A2sgd].contains(&kind) {
            let h = id("hier1");
            s.run(&h, &tagged(fnn3(kind, 4), "hier1"));
            s.same(&h, &id("plain"), &[TRAJECTORY, &["wire"]], "hier1");
            if (s.get(&h, "intra"), s.get(&h, "inter")) != ("0", s.get(&h, "wire")) {
                s.failures.push(format!("{h}: every bit must be inter"));
            }
        }
    }
    s.finish();
}

/// (B) The other worlds: Dense, QSGD(4) and A2SGD at P ∈ {1, 2, 3}, plain
/// and with buckets and overlap (P = 3: ranks with uneven shards).
#[test]
fn b_smaller_worlds() {
    let mut s = Section { name: "B", ..Default::default() };
    for p in [1, 2, 3] {
        for kind in [AlgoKind::Dense, AlgoKind::Qsgd(PAPER_QSGD_LEVELS), AlgoKind::A2sgd] {
            let id = |t: &str| format!("P{p}.{}.{t}", kind.name());
            for t in ["plain", "b1k+ov"] {
                s.run(&id(t), &tagged(fnn3(kind, p), t));
            }
            s.buckets(kind, &id("b1k+ov"), &id("plain"));
        }
    }
    s.finish();
}

/// (C) The periodic schedules on A2SGD and Dense at P = 4, and buckets and
/// overlap on A2SGD `PostLocal` and Dense `Fixed(4)`.
#[test]
fn c_periodic_schedules() {
    let mut s = Section { name: "C", ..Default::default() };
    for kind in [AlgoKind::A2sgd, AlgoKind::Dense] {
        for sched in
            [SchedKind::Fixed(4), SchedKind::PostLocal { warmup: 5, h: 4 }, SchedKind::Adaptive(2)]
        {
            let (id, cfg) = (format!("{}.{}", kind.name(), sched.label()), fnn3(kind, 4));
            match (kind, sched) {
                (AlgoKind::A2sgd, SchedKind::PostLocal { .. })
                | (AlgoKind::Dense, SchedKind::Fixed(_)) => {
                    s.bucketed_rows(kind, &id, TrainConfig { schedule: sched, ..cfg })
                }
                _ => s.run(&format!("{id}.plain"), &TrainConfig { schedule: sched, ..cfg }),
            }
        }
    }
    s.finish();
}

/// (D) Groups of two at P = 4 on Dense, A2SGD and Top-K, and buckets and
/// overlap on the last two.
#[test]
fn d_hierarchy_groups_of_two() {
    let mut s = Section { name: "D", ..Default::default() };
    for kind in [AlgoKind::Dense, AlgoKind::A2sgd, AlgoKind::TopK(PAPER_DENSITY)] {
        let id = |t: &str| format!("{}.hier2.{t}", kind.name());
        let both = kind != AlgoKind::Dense;
        for &t in if both { &["plain", "b1k", "b1k+ov"][..] } else { &["plain"] } {
            let topology = Topology::Hier { group_size: 2 };
            s.run(&id(t), &tagged(TrainConfig { topology, ..fnn3(kind, 4) }, t));
        }
        if both {
            s.same(&id("b1k+ov"), &id("b1k"), LINE, "overlap");
            s.same(&id("b1k"), &id("plain"), &[TRAJECTORY, WIRE], "buckets");
        }
    }
    s.finish();
}

/// (E) One short epoch at P = 2 of each larger model as
/// `scaled_convergence_config` sets it up: ResNet-20 on Top-K and on Dense
/// (Top-K applies a few coordinates a step, so only Dense makes every conv
/// weight gradient reach the parameters), the LSTM on QSGD(4) and VGG-16
/// (LARS) on A2SGD.
#[test]
fn e_one_short_epoch_of_each_larger_model() {
    let mut s = Section { name: "E", ..Default::default() };
    for (model, kind) in [
        (ModelKind::ResNet20, AlgoKind::TopK(PAPER_DENSITY)),
        (ModelKind::ResNet20, AlgoKind::Dense),
        (ModelKind::LstmPtb, AlgoKind::Qsgd(PAPER_QSGD_LEVELS)),
        (ModelKind::Vgg16, AlgoKind::A2sgd),
    ] {
        let mut c = scaled_convergence_config(model, kind, 2, 42);
        (c.epochs, c.train_size, c.eval_size) = (1, 4 * c.batch_per_worker, 2 * c.batch_per_worker);
        s.run(&format!("{}.{}", model.name(), kind.name()), &c);
    }
    s.finish();
}
