//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p pcf-bench --bin experiments -- all --scale quick
//! cargo run --release -p pcf-bench --bin experiments -- fig11 fig12 --scale medium
//! ```
//!
//! Targets: `fig2 table1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 topsort
//! relaxation srlg bypass dual r3 all` ([`pcf_bench::TARGETS`]); an
//! unknown one prints this list and exits 2.
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
    let targets = pcf_bench::parse_targets(&targets).unwrap_or_else(|bad| {
        let known: Vec<&str> = pcf_bench::TARGETS.iter().map(|t| t.0).collect();
        eprintln!("unknown target {bad:?}; use {} or all", known.join("|"));
        std::process::exit(2);
    });

    println!(
        "# PCF experiments (topologies: {}, big: {}, TMs: {})\n",
        scale.topologies.len(),
        scale.big_topology,
        scale.tm_count
    );
    let t0 = Instant::now();
    for (_, run) in targets {
        run(&scale);
        println!();
    }
    println!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}
