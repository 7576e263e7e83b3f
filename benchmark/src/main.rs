//! `ags-benchmark` — the repo's end-to-end + per-layer benchmark.
//!
//! ```text
//! ags-benchmark run       [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ags-benchmark trace     [--workload W] [--seed N]            (= run --trace 1)
//! ags-benchmark selfcheck [--workload W] [--seed N] [--seconds S] [--runs R]
//! ```
//!
//! `run` measures the end-to-end metrics with tracing off; `trace` is the
//! separate traced run that yields the per-layer metrics. Both print every
//! metric by name and unit and end with one JSON result line; any incorrect
//! output exits non-zero. See `README.md` for definitions.

mod calib;
mod driver;
mod json;
mod proc;
mod report;
mod selfcheck;
mod span;
mod stats;
mod sut;
mod trace;
mod workload;

use calib::HostClock;
use driver::{run_pass, PassOutcome};
use json::Value;
use report::{WorkloadReport, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use sut::StreamOutput;
use workload::Workload;

/// Seed used when `--seed` is not given. A claimed gain must also hold on a
/// second seed.
pub const DEFAULT_SEED: u64 = 7;

/// Measuring time per workload when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u32 = 18;

/// Most passes one run makes, however long it may measure.
const MAX_PASSES: usize = 9;

/// Passes to make when one pass takes `pass_s` and the run may measure for
/// `seconds` (both in reference-host seconds, so the count is a property of
/// the workload, not of the host's mood): three unless they would take more
/// than one and a half times `seconds`, in which case one; beyond three, the
/// largest odd count that fits entirely. Odd counts keep the median an
/// actual measurement. At the default `--seconds` every workload's pass is
/// a quarter or more away from both thresholds, so the count does not flip
/// between runs.
fn plan_passes(seconds: f64, pass_s: f64) -> usize {
    if pass_s <= 0.0 {
        return 1;
    }
    let fit = seconds / pass_s;
    if fit < 2.0 {
        return 1;
    }
    let whole = fit.floor() as usize;
    let odd = if whole % 2 == 0 { whole - 1 } else { whole };
    odd.clamp(3, MAX_PASSES)
}

/// Measures the end-to-end metrics of `workloads` on `seed`, `seconds` per
/// workload, passes interleaved round-robin across workloads; one report
/// per workload, in the order given.
pub fn measure(workloads: &[Workload], seed: u64, seconds: f64) -> Vec<WorkloadReport> {
    let mut clock = HostClock::new();
    // Outputs a workload must reproduce come from the named workload's own
    // passes when it is part of this invocation, else from one extra,
    // unmeasured pass of it.
    let mut extra_reference: Vec<(&'static str, Vec<StreamOutput>)> = Vec::new();
    for name in workloads.iter().filter_map(|w| w.must_equal) {
        let known = |n: &str| n == name;
        if !workloads.iter().any(|w| known(w.name)) && !extra_reference.iter().any(|r| known(r.0)) {
            let reference = workload::by_name(name).expect("must_equal names a workload");
            let pass = run_pass(&reference, seed, &mut clock, false, None);
            extra_reference.push((name, pass.outputs));
        }
    }

    let mut passes: Vec<Vec<PassOutcome>> = vec![Vec::new(); workloads.len()];
    let mut planned = vec![1usize; workloads.len()];
    for k in 0..MAX_PASSES {
        for (i, w) in workloads.iter().enumerate() {
            if k >= planned[i] {
                continue;
            }
            let first_sample = clock.samples_ms().len();
            let pass = run_pass(w, seed, &mut clock, k == 0, None);
            if k == 0 && pass.failures.is_empty() {
                // What every pass costs: its set-ups and its loop (scoring
                // happens once per run).
                let pass_s = pass.setup_raw_s.iter().sum::<f64>() + pass.loop_wall_s;
                let scale = clock.scale_since(first_sample).powf(w.host_exponent);
                planned[i] = plan_passes(seconds, pass_s * scale);
            }
            passes[i].push(pass);
        }
    }

    let scales = clock.scales();
    workloads
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let reference = w.must_equal.and_then(|name| {
                let own = workloads.iter().position(|o| o.name == name);
                own.and_then(|j| passes[j].first())
                    .map(|p| p.outputs.as_slice())
                    .or_else(|| extra_reference.iter().find(|r| r.0 == name).map(|r| &r.1[..]))
            });
            report::end_to_end(w, &passes[i], &scales, reference)
        })
        .collect()
}

/// Parsed command line.
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: "run".into(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: f64::from(DEFAULT_SECONDS),
        trace: false,
        runs: 10,
        out: None,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with('-') {
            args.command = it.next().expect("peeked").clone();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--runs" => {
                args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(2..=100).contains(&args.runs) {
                    return Err("--runs must be in 2..=100".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.command == "trace" {
        args.command = "run".into();
        args.trace = true;
    }
    Ok(args)
}

fn selected(args: &Args) -> Result<Vec<Workload>, String> {
    match &args.workload {
        None => Ok(workload::all()),
        Some(name) => workload::by_name(name).map(|w| vec![w]).ok_or_else(|| {
            let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; choose one of {names:?}")
        }),
    }
}

/// Where trace files go: `benchmark/out` when run from the repo root (as the
/// driver does), `out` when run from inside the package.
fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        if std::path::Path::new("benchmark/Cargo.toml").exists() {
            PathBuf::from("benchmark/out")
        } else {
            PathBuf::from("out")
        }
    })
}

/// Prints the reports and the final result line; returns whether every
/// workload was correct.
fn emit(reports: &[WorkloadReport], table: &[report::MetricDef]) -> bool {
    for report in reports {
        report.print(table);
    }
    let single = reports.len() == 1;
    let mut metrics = Vec::new();
    for report in reports {
        let prefix = if single { String::new() } else { format!("{}/", report.workload) };
        metrics.extend(report.metrics_json(table, &prefix));
    }
    let correct = !reports.is_empty() && reports.iter().all(WorkloadReport::correct);
    let line = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(reports.iter().map(|r| r.attempted).sum::<u64>() as f64)),
        ("failed", Value::Num(reports.iter().map(|r| r.failed).sum::<u64>() as f64)),
        ("metrics", Value::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    correct
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let workloads = selected(&args)?;
    println!(
        "# ags-benchmark {}{}  seed={} seconds={} cpus={}",
        args.command,
        if args.trace { " --trace 1" } else { "" },
        args.seed,
        args.seconds,
        proc::cpus()
    );
    match args.command.as_str() {
        "run" if args.trace => {
            let reports = trace::run(&workloads, args.seed, &out_dir(&args))?;
            Ok(emit(&reports, PER_LAYER))
        }
        "run" => Ok(emit(&measure(&workloads, args.seed, args.seconds), END_TO_END)),
        "selfcheck" => selfcheck::run(&workloads, args.seed, args.seconds, args.runs),
        other => Err(format!("unknown command {other:?}; use run, trace or selfcheck")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ags-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "run",
            "--workload",
            "steady_map",
            "--seed",
            "3",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.command.as_str(), a.seed, a.seconds, a.trace), ("run", 3, 20.0, true));
        assert_eq!(a.workload.as_deref(), Some("steady_map"));
        let b = args(&["--workload", "jerky_track", "--trace", "0"]).unwrap();
        assert_eq!((b.command.as_str(), b.seed, b.trace), ("run", DEFAULT_SEED, false));
        let t = args(&["trace"]).unwrap();
        assert!(t.trace && t.command == "run");
        assert!(args(&["run", "--trace", "2"]).is_err());
        assert!(args(&["run", "--seed"]).is_err());
        assert!(args(&["run", "--seconds", "0"]).is_err());
        assert!(args(&["run", "--bogus"]).is_err());
    }

    #[test]
    fn pass_count_is_odd_and_stable_around_the_reference_sizing() {
        // Passes of 3.7–9 s all plan three passes in an 18 s run.
        for pass_s in [3.7, 4.5, 5.5, 7.0, 9.0] {
            assert_eq!(plan_passes(18.0, pass_s), 3, "{pass_s}");
        }
        assert_eq!(plan_passes(18.0, 3.6), 5);
        assert_eq!(plan_passes(18.0, 2.5), 7);
        assert_eq!(plan_passes(18.0, 9.5), 1);
        assert_eq!(plan_passes(1.0, 7.0), 1, "a smoke run still measures one pass");
        assert_eq!(plan_passes(600.0, 1.0), MAX_PASSES);
        assert_eq!(plan_passes(10.0, 0.0), 1);
    }
}
