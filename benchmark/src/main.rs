//! One command that prices a full training step end to end and layer by
//! layer on four workloads. See `benchmark/README.md`.
//!
//! ```text
//! a2sgd-benchmark [--seed N] [--seconds S] [--quick] [--agree]     every workload, both passes
//! a2sgd-benchmark --workload W --seed N --seconds S --trace 0|1    one workload, one pass, JSON
//! ```

mod alloc;
mod e2e;
mod hostref;
mod layers;
mod metrics;
mod passes;
mod probes;
mod spans;
mod stats;
mod workloads;

use metrics::{MetricDef, Values, END_TO_END, PER_LAYER, SETUP_FLOOR_S};
use passes::{LayerOutcome, Plan};
use std::process::ExitCode;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// A later performance claim must also hold on a seed other than this one.
const DEFAULT_SEED: u64 = 20_210_907;
/// Default budget of the full run: some forty long runs per workload.
const FULL_RUN_SECONDS: f64 = 40.0;

struct Args {
    workload: Option<String>,
    child: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    agree: bool,
    epochs: usize,
    steps: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        child: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
        agree: false,
        epochs: 1,
        steps: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read `{v}` as a number"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--child" => a.child = Some(value()?),
            "--seed" => a.seed = num(&flag, value()?)?,
            "--seconds" => a.seconds = Some(num(&flag, value()?)?),
            "--trace" => a.trace = num::<u8>(&flag, value()?)? != 0,
            "--epochs" => a.epochs = num(&flag, value()?)?,
            "--steps" => a.steps = num(&flag, value()?)?,
            "--quick" => a.quick = true,
            "--agree" => a.agree = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}`; the workloads are {}", known.join(", "))
    })
}

/// `{name: {"value": …, "unit": …}, …}` for the metrics of `defs` that have
/// a value.
fn metrics_json<'a>(defs: impl Iterator<Item = &'a MetricDef>, values: &Values) -> String {
    let entries: Vec<String> = defs
        .filter_map(|def| {
            let v = metrics::get(values, def.name)?;
            Some(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", def.name, def.unit))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

/// The result object of one pass, as the acceptance driver reads it.
fn result_json(metrics: String, attempted: u64, failed: usize) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        failed == 0
    )
}

/// Errors for metrics a pass owes but did not produce (or produced as a
/// non-number, which JSON cannot carry).
fn missing<'a>(defs: impl Iterator<Item = &'a MetricDef>, values: &Values) -> Vec<String> {
    defs.filter(|d| !metrics::get(values, d.name).is_some_and(f64::is_finite))
        .map(|d| format!("metric {} missing or not finite", d.name))
        .collect()
}

fn e2e_defs() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().map(|(d, _)| d)
}

/// The acceptance driver's mode: one workload, one pass, the result object
/// as the last line of stdout.
fn run_one(w: &'static Workload, plan: &Plan, trace: bool) -> ExitCode {
    let (json, errors) = if trace {
        let LayerOutcome { values, attempted, mut errors, .. } = passes::layer_pass(plan, w);
        errors.extend(missing(PER_LAYER.iter(), &values));
        (result_json(metrics_json(PER_LAYER.iter(), &values), attempted, errors.len()), errors)
    } else {
        let mut pass = plan.e2e_pass(w);
        let values = pass.metrics().unwrap_or_default();
        let mut errors = std::mem::take(&mut pass.errors);
        errors.extend(missing(e2e_defs(), &values));
        eprintln!(
            "{}: step samples {:.3?} ms, setup samples {:.4?} s\n1-step runs {:.4?}\nlong runs {:.4?}",
            w.name,
            pass.step_samples(),
            pass.setup_samples(),
            pass.setup_timings(),
            pass.long_timings()
        );
        (result_json(metrics_json(e2e_defs(), &values), pass.attempted, errors.len()), errors)
    };
    for e in &errors {
        eprintln!("FAILED {}: {e}", w.name);
    }
    println!("{json}");
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Both passes over one workload.
struct WorkloadResult {
    w: &'static Workload,
    e2e: Values,
    layers: Values,
    /// `bench.calib_ms` at the start and at the end of the layer pass.
    calib: (f64, f64),
    attempted: u64,
    errors: Vec<String>,
}

fn quartile_note(samples: &[f64]) -> String {
    match samples.len() {
        0 | 1 => format!("{} sample", samples.len()),
        n => {
            let (q1, q2, q3) = stats::quartiles(samples);
            let spread = stats::iqr_share(samples) * 100.0;
            format!("{n} samples, quartiles {q1:.4} / {q2:.4} / {q3:.4}, spread {spread:.1} %")
        }
    }
}

/// Both passes over every workload, each workload's table printed as it
/// completes.
fn full_run(plan: &Plan) -> Vec<WorkloadResult> {
    // End to end first: set-up runs, then long runs issued round-robin so a
    // noisy minute costs every workload one sample, not one workload all.
    let mut e2e: Vec<_> = WORKLOADS.iter().map(|w| plan.e2e(w)).collect();
    let mut host = hostref::Host::default();
    for pass in &mut e2e {
        plan.setup(pass, &mut host);
    }
    let wants_long = |p: &e2e::E2e| p.wants_long(plan.min_long_runs(), plan.seconds);
    while e2e.iter().any(wants_long) {
        for pass in e2e.iter_mut().filter(|p| wants_long(p)) {
            pass.long(&mut host);
            eprintln!("{}: long run {:.3?} ms/step", pass.w.name, pass.step_samples().last());
        }
    }

    let mut results = Vec::new();
    for mut pass in e2e {
        let w = pass.w;
        let e2e_values = pass.metrics().unwrap_or_default();
        let layer = passes::layer_pass(plan, w);
        let mut errors = std::mem::take(&mut pass.errors);
        errors.extend(layer.errors);
        errors.extend(missing(e2e_defs(), &e2e_values));
        if !plan.quick {
            errors.extend(missing(PER_LAYER.iter(), &layer.values));
        }
        let attempted = pass.attempted + layer.attempted;

        println!("\n== {} — {}", w.name, w.why);
        println!("   ops attempted {attempted}, failed {}", errors.len());
        println!("   step_ms_p50: {}", quartile_note(&pass.step_samples()));
        println!("   setup_s:     {}", quartile_note(&pass.setup_samples()));
        println!("   host reference: {} (ms)", quartile_note(&pass.host_ref_samples()));
        println!(
            "   {:<30} {:>16} {:<8} {:<7} bound",
            "end-to-end metric", "value", "unit", "better"
        );
        for (def, bound) in &END_TO_END {
            if let Some(v) = metrics::get(&e2e_values, def.name) {
                println!(
                    "   {:<30} {:>16.6} {:<8} {:<7} {:.0} %",
                    def.name,
                    v,
                    def.unit,
                    def.better,
                    bound * 100.0
                );
            }
        }
        println!("   {:<30} {:>16} {:<8} better", "per-layer metric", "value", "unit");
        for def in &PER_LAYER {
            if let Some(v) = metrics::get(&layer.values, def.name) {
                println!("   {:<30} {:>16.6} {:<8} {}", def.name, v, def.unit, def.better);
            }
        }
        println!(
            "   bench.calib_ms first {:.4}, last {:.4}; trace and layer table in {}",
            layer.calib.0,
            layer.calib.1,
            passes::out_root().join(w.name).display()
        );
        results.push(WorkloadResult {
            w,
            e2e: e2e_values,
            layers: layer.values,
            calib: layer.calib,
            attempted,
            errors,
        });
    }
    results
}

fn failures(run: &[WorkloadResult]) -> Vec<String> {
    run.iter().flat_map(|r| r.errors.iter().map(|e| format!("{}: {e}", r.w.name))).collect()
}

/// All results of a full run as one JSON document.
fn results_json(plan: &Plan, run: &[WorkloadResult]) -> String {
    let per_workload: Vec<String> = run
        .iter()
        .map(|r| {
            format!(
                "  \"{}\": {{\"attempted\": {}, \"failed\": {},\n    \"end_to_end\": {},\n    \
                 \"per_layer\": {}}}",
                r.w.name,
                r.attempted,
                r.errors.len(),
                metrics_json(e2e_defs(), &r.e2e),
                metrics_json(PER_LAYER.iter(), &r.layers)
            )
        })
        .collect();
    format!("{{\"seed\": {}, \"workloads\": {{\n{}\n}}}}\n", plan.seed, per_workload.join(",\n"))
}

/// Rows `(workload, metric, a, b, bound)` on which two run sets of the same
/// tree disagree by more than the metric's own bound. The seed is the same,
/// so loss and wire bytes must be bit-equal.
fn disagreements(a: &[WorkloadResult], b: &[WorkloadResult]) -> Vec<String> {
    let mut out = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        for (def, bound) in &END_TO_END {
            let (Some(x), Some(y)) =
                (metrics::get(&ra.e2e, def.name), metrics::get(&rb.e2e, def.name))
            else {
                continue;
            };
            let exact = matches!(def.name, "train_loss_mean" | "wire_bytes_per_step");
            let apart = (x - y).abs();
            let agree = if exact {
                x == y
            } else {
                apart <= bound * x.min(y) || (def.name == "setup_s" && apart <= SETUP_FLOOR_S)
            };
            if !agree {
                out.push(format!("{} {} a={x} b={y} bound={bound}", ra.w.name, def.name));
            }
        }
    }
    out
}

fn run_all(plan: &Plan, agree: bool) -> ExitCode {
    let first = full_run(plan);
    let mut failed = failures(&first);
    let results = passes::out_root().join("results.json");
    match std::fs::write(&results, results_json(plan, &first)) {
        Ok(()) => println!("\nresults written to {}", results.display()),
        Err(e) => failed.push(format!("write {}: {e}", results.display())),
    }
    if agree {
        println!("\n#### second run set, same tree, same seed");
        let second = full_run(plan);
        failed.extend(failures(&second));
        let rows = disagreements(&first, &second);
        println!("\n== agreement of the two run sets");
        for (a, b) in first.iter().zip(&second) {
            println!(
                "   {:<16} bench.calib_ms first/last: a {:.4}/{:.4}, b {:.4}/{:.4}",
                a.w.name, a.calib.0, a.calib.1, b.calib.0, b.calib.1
            );
        }
        match rows.is_empty() {
            true => println!("   every end-to-end metric within its bound"),
            false => rows.iter().for_each(|r| println!("   DISAGREE {r}")),
        }
        // `--quick` numbers are too short to hold any bound.
        if !plan.quick {
            failed.extend(rows.into_iter().map(|r| format!("run sets disagree: {r}")));
        }
    }
    for f in &failed {
        eprintln!("FAILED {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("a2sgd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let named = args.child.as_deref().or(args.workload.as_deref()).map(workload).transpose();
    let w = match named {
        Ok(w) => w,
        Err(e) => {
            eprintln!("a2sgd-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child.is_some() {
        e2e::child_main(w.expect("--child names a workload"), args.seed, args.epochs, args.steps);
        return ExitCode::SUCCESS;
    }
    let plan = Plan {
        seed: args.seed,
        seconds: if args.quick { 0.0 } else { args.seconds.unwrap_or(FULL_RUN_SECONDS) },
        quick: args.quick,
    };
    match w {
        Some(w) => run_one(w, &plan, args.trace),
        None => run_all(&plan, args.agree),
    }
}
