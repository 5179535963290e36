//! `lattice-hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1|FILE]`
//!
//! Runs one workload, prints every metric by name with its unit, and
//! ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` (the default) reports the end-to-end
//! metrics; `--trace 1` or `--trace FILE` is the separate traced run,
//! which reports the per-layer metrics and writes its spans as ndjson
//! (to FILE, or under the package's `target/trace/`).

use lattice_hostbench::{default_trace_path, run, RunConfig, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: lattice-hostbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1|FILE]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => trace = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = match trace.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(default_trace_path(workload, seed)),
        Some(path) => Some(PathBuf::from(path)),
    };
    Ok(RunConfig { workload, seed, seconds, trace, size: Size::Full, tamper: false })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lattice-hostbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} seed {} — {} of {} operations failed",
        cfg.workload.name(),
        cfg.seed,
        outcome.tally.failed,
        outcome.tally.attempted
    );
    for line in &outcome.summary {
        println!("{line}");
    }
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    if let (Some(spans), Some(path)) = (&outcome.spans, &cfg.trace) {
        println!("spans (written to {}):", path.display());
        println!("  {:<28} {:>7} {:>12} {:>12}", "name", "count", "total ms", "self ms");
        for (name, count, total, own) in spans {
            println!(
                "  {name:<28} {count:>7} {:>12.3} {:>12.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
