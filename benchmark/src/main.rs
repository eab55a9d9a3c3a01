//! `pcf-perf`: the repository's performance benchmark.
//!
//! One process runs one workload, closed loop, from outside the stack and
//! through public functions only. `--trace 0` prints the five end-to-end
//! metrics, `--trace 1` the per-layer ones; the last line of standard
//! output is the JSON result. See `README.md` beside this crate.

mod affinity;
mod alloc;
mod events;
mod harness;
mod plan;
mod probes;
mod serve;
mod stats;
mod trace;

use harness::{Config, Metric, Report};
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 5] = [
    "plan-cold",
    "replan-warm",
    "events-revisit",
    "events-churn",
    "serve-mixed",
];

const USAGE: &str = "usage: pcf-perf --workload <plan-cold|replan-warm|events-revisit|\
events-churn|serve-mixed> [--seed N] [--seconds N] [--trace 0|1]\n       pcf-perf --self-test";

enum Mode {
    Run(Config),
    SelfTest,
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(Mode::SelfTest);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?,
            "--trace" => cfg.trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload {:?}", cfg.workload));
    }
    if !(1..=60).contains(&cfg.seconds) {
        return Err(format!("--seconds must be 1..=60, got {}", cfg.seconds));
    }
    Ok(Mode::Run(cfg))
}

/// Writes the trace beside the crate, `out/trace-<workload>.json`, and prints
/// the per-span totals. A failed write is reported and does not fail the run:
/// the metrics do not depend on it.
fn write_trace(cfg: &Config, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{}.json", cfg.workload));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_json(&cfg.workload, cfg.seed, 256)));
    match written {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
    for t in tracer.totals() {
        println!(
            "span {:<24} count {:>8}  total {:>12.3} ms  self {:>12.3} ms",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn result_line(report: &Report) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, Metric { name, value, unit }) in report.metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

fn run(cfg: &Config) -> Result<Report, String> {
    println!(
        "pcf-perf {} seed {} seconds {} trace {} (threads: 1 solver, closed loop, 1 client; \
         available parallelism {})",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    match cfg.workload.as_str() {
        "plan-cold" => plan::run(cfg, false),
        "replan-warm" => plan::run(cfg, true),
        "events-revisit" => events::run(cfg, &events::REVISIT),
        "events-churn" => events::run(cfg, &events::CHURN),
        _ => serve::run(cfg),
    }
}

/// Shows that the output checks can fail: the same checks, fed a plan whose
/// served demand is inflated 1.5x, must report failures.
fn self_test() -> Result<(), String> {
    let base = harness::solve_base(64)?;
    harness::announce_instance(&base);
    let inflated: Vec<f64> = base.epoch.served.iter().map(|d| d * 1.5).collect();
    let plan_detected = plan::self_test_detects_overload(&base, &inflated);
    println!(
        "validate_all: true plan passes, 1.5x served demand fails: {}",
        plan_detected
    );
    let (clean_failed, inflated_failed) = events::self_test_failed_ops(&base, &inflated)?;
    println!(
        "event ops failed: {clean_failed} of 30 on the true plan, {inflated_failed} of 30 at \
         1.5x served demand"
    );
    if plan_detected && clean_failed == 0 && inflated_failed > 0 {
        println!("self-test passed: the checks discriminate");
        Ok(())
    } else {
        Err("self-test failed: a check did not discriminate".into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Mode::SelfTest) => self_test(),
        Ok(Mode::Run(cfg)) => run(&cfg).map(|report| {
            println!(
                "ops attempted {}, failed {}",
                report.attempted, report.failed
            );
            for m in &report.metrics {
                println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_line(&report));
        }),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // No result line: an invalid run must not be read as a measurement.
            eprintln!("pcf-perf: {e}");
            ExitCode::FAILURE
        }
    }
}
