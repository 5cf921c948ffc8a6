//! The repository benchmark: four workloads over the public drivers of
//! `ssp-workloads`, end-to-end metrics with tracing off, per-layer
//! metrics from a traced run.
//!
//! ```text
//! perfbench --workload <steady|storm|shared|service> --seed <n>
//!           --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! A run repeats fixed-size rounds of the workload until `--seconds`
//! have passed (at least [`MIN_ROUNDS`]). Host metrics are the median
//! over rounds; simulated metrics must be identical in every round. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when an
//! output check failed.

mod decor;
mod metrics;
mod round;
mod service;
mod shared;
mod steady;
mod storm;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{e2e_names, layer_names, unit_of};
use round::{median, ratio, Round};

/// Fewest rounds of a run (three set-ups give `setup_s` a median).
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut trace_out) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "steady" | "storm" | "shared" | "service") {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn run_round(workload: &str, seed: u64, tracing: bool) -> Round {
    match workload {
        "steady" => steady::round(seed, tracing),
        "storm" => storm::round(seed, tracing),
        "shared" => shared::round(seed, tracing),
        _ => service::round(seed, tracing),
    }
}

/// Runs rounds until `budget` has passed and at least `min` ran.
fn rounds(workload: &str, seed: u64, tracing: bool, budget: Duration, min: usize) -> Vec<Round> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || t0.elapsed() < budget {
        out.push(run_round(workload, seed, tracing));
        eprintln!(
            "[{workload}] round {} ({}): setup {:.3} s, measured {:.3} s, {} txns",
            out.len(),
            if tracing { "traced" } else { "untraced" },
            out.last().map_or(0.0, |r| r.setup_s),
            out.last().map_or(0.0, |r| r.measure_s),
            out.last().map_or(0, |r| r.committed),
        );
    }
    out
}

/// Host memory high-water mark of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn txn_per_s(r: &Round) -> f64 {
    ratio(r.committed as f64, r.measure_s)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let (plain, traced) = if args.trace {
        // Half the time untraced (the overhead baseline), half traced.
        (
            rounds(&args.workload, args.seed, false, budget / 2, 1),
            rounds(&args.workload, args.seed, true, budget / 2, 1),
        )
    } else {
        (
            rounds(&args.workload, args.seed, false, budget, MIN_ROUNDS),
            Vec::new(),
        )
    };

    // Output checks: every round's own checks, plus identical simulated
    // metrics in every round (tracing must not perturb the simulation).
    let first = &plain[0];
    let mut broken: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (i, r) in plain.iter().chain(&traced).enumerate() {
        broken.extend(r.broken.iter().cloned());
        attempted += r.attempted;
        failed += r.failed;
        let same = |a: &[(String, f64)], b: &[(String, f64)]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
        };
        if !same(&r.exact, &first.exact) || !same(&r.layer_exact, &first.layer_exact) {
            broken.push(format!(
                "round {} simulated metrics differ from round 1",
                i + 1
            ));
            failed += 1;
        }
    }
    for b in &broken {
        eprintln!("[{}] CHECK FAILED: {b}", args.workload);
    }

    let mut values: Vec<(String, f64)> = Vec::new();
    if args.trace {
        let base = median(&plain.iter().map(txn_per_s).collect::<Vec<_>>());
        let with = median(&traced.iter().map(txn_per_s).collect::<Vec<_>>());
        values.push(("trace.overhead_frac".into(), 1.0 - ratio(with, base)));
        values.extend(first.layer_exact.iter().cloned());
        // Host per-layer figures: median over traced rounds.
        let last = traced.last().expect("at least one traced round");
        for (name, _) in &last.layer_host {
            let v: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layer_host.iter().find(|(n, _)| n == name).map(|x| x.1))
                .collect();
            values.push((name.clone(), median(&v)));
        }
        let table = metrics::self_table(last);
        let total: u64 = table.iter().map(|x| x.1).sum();
        values.push((
            "trace.wrapped_frac".into(),
            1.0 - ratio(last.driver_ns as f64, total as f64),
        ));
        eprintln!(
            "[{}] traced host time by layer (self time, last round):",
            args.workload
        );
        for (name, ns) in table.iter().filter(|x| x.1 > 0) {
            eprintln!(
                "  {name:<24} {:>10.3} ms {:>6.1}%",
                *ns as f64 / 1e6,
                100.0 * ratio(*ns as f64, total as f64)
            );
        }
        if let Some(path) = &args.trace_out {
            if let Err(e) = metrics::write_trace(path, &args.workload, last) {
                eprintln!("perfbench: writing {path}: {e}");
            }
        }
    } else {
        values.push((
            "txn_per_s".into(),
            median(&plain.iter().map(txn_per_s).collect::<Vec<_>>()),
        ));
        values.push((
            "setup_s".into(),
            median(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ));
        values.push(("peak_rss_mib".into(), peak_rss_mib()));
        values.push((
            "sim_access_per_s".into(),
            median(
                &plain
                    .iter()
                    .map(|r| ratio(r.sim_accesses as f64, r.measure_s))
                    .collect::<Vec<_>>(),
            ),
        ));
        values.extend(first.exact.iter().cloned());
    }

    let names = if args.trace {
        layer_names()
    } else {
        e2e_names()
    };
    let mut out = String::new();
    for (i, name) in names.iter().enumerate() {
        // A layer this workload does not run reads 0.
        let v = values.iter().find(|(n, _)| n == name).map_or(0.0, |x| x.1);
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metrics::num(v),
            unit_of(name)
        ));
    }
    for (name, _) in &values {
        assert!(
            names.contains(name),
            "metric {name} missing from the metric list"
        );
    }
    let correct = broken.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{out}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
