//! Replaying a day of link churn against a solved PCF plan.
//!
//! Solves PCF-LS on Sprint for single-link failures, then streams a
//! generated flap trace through the replay engine twice — once cold
//! (realize every event) and once with the realization cache — and
//! prints the outcome and the speedup. A final pass injects
//! beyond-budget failure bursts and lets the degradation ladder
//! (DESIGN.md §10) serve them best-effort.
//!
//! Run with `cargo run --release --example failure_replay`.

use pcf_core::{pcf_ls_instance, solve_pcf_ls, DegradeMode, FailureModel, RobustOptions};
use pcf_replay::{replay_trace, EventTrace, FaultInjector, ReplayOptions};
use pcf_topology::zoo;
use pcf_traffic::gravity;

fn main() {
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 1);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let fm = FailureModel::links(1);
    let sol = solve_pcf_ls(&inst, &fm, &RobustOptions::default());
    println!(
        "PCF-LS on {}: guaranteed demand scale {:.4}",
        topo.name(),
        sol.objective
    );
    let served = sol.served(&inst);

    // A day of churn: links flap one at a time, matching the f=1 design.
    let trace = EventTrace::flaps(&topo, 2000, 1, 42);
    println!(
        "replaying {} events ({} concurrent failures at worst)",
        trace.len(),
        trace.max_concurrent_down()
    );

    for (label, cache_capacity) in [("cold ", 0usize), ("cache", 1024)] {
        let opts = ReplayOptions {
            cache_capacity,
            ..ReplayOptions::default()
        };
        let t0 = std::time::Instant::now();
        let report = replay_trace(&inst, &sol.a, &sol.b, &served, &trace, &opts);
        let secs = t0.elapsed().as_secs_f64();
        println!(
            "{label}: {:>8.0} events/s  max util {:.4}  violations {}  \
             latency p50/p99 {}/{} us  hit rate {:.1}%",
            report.events as f64 / secs,
            report.max_utilization,
            report.violations.len(),
            report.latency.p50_ns() / 1_000,
            report.latency.p99_ns() / 1_000,
            100.0 * report.cache.hit_rate(),
        );
        assert!(
            report.congestion_free(),
            "a plan solved for f=1 must survive an f=1 trace"
        );
    }

    // Beyond the budget: bursts failing 2–3 links at once against the
    // f=1 plan. With shedding enabled every event is still served.
    let bursts = FaultInjector::new(7).beyond_budget_bursts(&topo, 20, 1);
    let opts = ReplayOptions {
        degrade: DegradeMode::Shed,
        ..ReplayOptions::default()
    };
    let report = replay_trace(&inst, &sol.a, &sol.b, &served, &bursts, &opts);
    println!(
        "beyond-budget bursts ({} concurrent failures at worst): \
         {} normal / {} rescaled / {} shed / {} failed; \
         total shed {:.3}, worst residual overload {:.4}",
        bursts.max_concurrent_down(),
        report.degrade.normal,
        report.degrade.rescaled,
        report.degrade.shed,
        report.degrade.failed,
        report.total_shed,
        report.worst_overload,
    );
    assert_eq!(report.degrade.failed, 0, "the serving path is total");
}
