//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p pcf-bench --bin experiments -- all --scale quick
//! cargo run --release -p pcf-bench --bin experiments -- fig11 fig12 --scale medium
//! ```
//!
//! Targets: `fig2 table1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 topsort
//! relaxation srlg bypass dual r3 all`.
//! Scales: `quick` (default), `medium`, `paper`.

#![allow(clippy::disallowed_types, reason = "timing only; nothing is replayed")]

use pcf_bench::Scale;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::quick();
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| {
                        eprintln!("unknown scale; use quick|medium|paper");
                        std::process::exit(2);
                    });
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        targets.push("all".into());
    }
    let all = targets.iter().any(|t| t == "all");
    let want = |name: &str| all || targets.iter().any(|t| t == name);

    println!(
        "# PCF experiments (topologies: {}, big: {}, TMs: {})\n",
        scale.topologies.len(),
        scale.big_topology,
        scale.tm_count
    );
    let t0 = Instant::now();
    if want("fig2") {
        pcf_bench::run_fig2();
        println!();
    }
    if want("table1") {
        pcf_bench::run_table1();
        println!();
    }
    if want("fig8") {
        pcf_bench::run_fig8(&scale);
        println!();
    }
    if want("fig9") {
        pcf_bench::run_fig9(&scale);
        println!();
    }
    if want("fig10") {
        pcf_bench::run_fig10(&scale);
        println!();
    }
    if want("fig11") {
        pcf_bench::run_fig11(&scale);
        println!();
    }
    if want("fig12") {
        pcf_bench::run_fig12(&scale);
        println!();
    }
    if want("fig13") {
        pcf_bench::run_fig13(&scale);
        println!();
    }
    if want("fig14") {
        pcf_bench::run_fig14(&scale);
        println!();
    }
    if want("topsort") {
        pcf_bench::run_topsort(&scale);
        println!();
    }
    if want("relaxation") {
        pcf_bench::run_relaxation_gap(&scale);
        println!();
    }
    if want("srlg") {
        pcf_bench::run_srlg(&scale);
        println!();
    }
    if want("bypass") {
        pcf_bench::run_bypass_ablation(&scale);
        println!();
    }
    if want("dual") {
        pcf_bench::run_dual_vs_cuts(&scale);
        println!();
    }
    if want("r3") {
        pcf_bench::run_r3_comparison(&scale);
        println!();
    }
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
