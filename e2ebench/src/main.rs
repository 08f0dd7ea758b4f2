//! End-to-end benchmark of the cuBLASTP search paths.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <stream_short|long_homolog|serve_mixed|all> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Inputs are generated from `--seed`, written to disk, and loaded through
//! the same entry points users call. With `--trace 0` the run measures the
//! end-to-end metrics; with `--trace 1` it replays the workload through
//! each layer's public functions inside benchmark-side spans and reports
//! the per-layer metrics. Every report is checked against the CPU
//! reference. Standard error carries a readable summary; the last line of
//! standard output is one JSON object. METRICS.md describes each metric.

mod closed;
mod common;
mod inputs;
mod long_homolog;
mod metrics;
mod replay;
mod serve_mixed;
mod stats;
mod stream_short;
mod tracer;

use std::path::Path;
use std::process::ExitCode;

use common::{Args, Outcome, WorkDir};

const WORKLOADS: &[&str] = &["stream_short", "long_homolog", "serve_mixed"];

/// Clock of each end-to-end metric, for the summary.
fn clock(metric: &str) -> &'static str {
    match metric {
        "device_ms_per_query" => "modelled",
        _ => "measured",
    }
}

fn usage() -> String {
    format!(
        "usage: e2ebench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn run_one(args: &Args) -> Result<Outcome, String> {
    let base = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let work = WorkDir::create(&base, args)?;
    match args.workload.as_str() {
        "stream_short" => stream_short::run(args, &work.0),
        "long_homolog" => long_homolog::run(args, &work.0),
        "serve_mixed" => serve_mixed::run(args, &work.0),
        other => Err(format!("unknown workload {other}")),
    }
}

fn report(args: &Args, out: &Outcome) {
    eprintln!(
        "== {} seed {} ({} s, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    eprintln!(
        "attempted {}  failed {}  mismatched {}  correct {}",
        out.tally.attempted,
        out.tally.failed,
        out.tally.mismatched,
        out.correct()
    );
    for p in &out.problems {
        eprintln!("PROBLEM: {p}");
    }
    for (name, value, unit) in &out.metrics {
        if args.trace {
            eprintln!("{name:<48} {value:>16.4} {unit}");
        } else {
            eprintln!("{name:<24} {value:>14.4} {unit:<6} ({})", clock(name));
        }
    }
    for n in &out.notes {
        eprintln!("{n}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let steal0 = common::cpu_steal_ticks();
    match run_one(&args) {
        Ok(mut out) => {
            if let (Some((s0, t0)), Some((s1, t1))) = (steal0, common::cpu_steal_ticks()) {
                out.notes.push(format!(
                    "host: {:.1} % of CPU time stolen during the run, {} cores",
                    100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64,
                    std::thread::available_parallelism().map_or(1, |n| n.get())
                ));
            }
            report(&args, &out);
            println!("{}", out.json());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {}: invalid run: {e}", args.workload);
            ExitCode::from(3)
        }
    }
}

/// `--workload all`: each workload in a process of its own, one after the
/// other, so that none inherits another's heap and `peak_rss_mb` is its
/// own. Stops at the first invalid run; exits 1 if any run was incorrect.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2ebench: cannot find its own executable: {e}");
            return ExitCode::from(3);
        }
    };
    let mut incorrect = false;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status.map(|s| s.code()) {
            Ok(Some(0)) => {}
            Ok(Some(1)) => incorrect = true,
            Ok(code) => return ExitCode::from(code.map_or(3, |c| c as u8)),
            Err(e) => {
                eprintln!("e2ebench: {w}: cannot start: {e}");
                return ExitCode::from(3);
            }
        }
    }
    if incorrect {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
