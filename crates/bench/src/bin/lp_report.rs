//! Generates `BENCH_lp.json` — the sparse-engine acceptance report.
//!
//! Usage: `cargo run --release -p pcf-bench --bin lp_report [out.json]`
//! (default output path `BENCH_lp.json` in the current directory).
//!
//! Three sections, matching the sparse-LP acceptance criteria:
//!
//! * `warm_vs_cold` — per-cut warm re-solve through [`IncrementalLp`]
//!   against rebuilding and re-solving from scratch, on a transportation
//!   LP sized like the Sprint robust master (the largest instance the
//!   dense engine handled), plus the Sprint pcf-tf robust solve timed
//!   warm and cold on one thread;
//! * `engine_agreement` — pcf-tf at f=1 on Abilene and Sprint under the
//!   sparse (devex + presolve) and dense (Dantzig, no presolve) engines:
//!   objectives must match to 1e-6 and both plans must validate
//!   congestion-free (the simplex engines may legitimately land on
//!   different optimal vertices — alternate optima — so the recorded
//!   `ValidationReport` digests are per engine, not compared);
//! * `large_topologies` — Deltacom and ION pcf-tf at f=1 with the sparse
//!   engine, wall-clock and validation, instances the dense engine did
//!   not reach.
//!
//! The binary exits non-zero if any acceptance bound is violated, so CI
//! can run it as a gate.

use pcf_core::{
    scale_to_mlu, solve_pcf_tf, tunnel_instance, validate_all, FailureModel, Instance,
    RobustOptions, RobustSolution, ValidationReport,
};
use pcf_lp::{EngineKind, IncrementalLp, LpProblem, Pricing, Sense, SimplexOptions, Status, VarId};
use pcf_topology::zoo;
use pcf_traffic::gravity;
use std::time::Instant;

/// Transportation problem `n x n`; returns the variable grid for cuts.
fn transportation_lp(n: usize, opts: &SimplexOptions) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    lp.set_options(opts.clone());
    let mut v = Vec::new();
    for i in 0..n {
        for j in 0..n {
            v.push(lp.add_nonneg(((i * 7 + j * 3) % 10 + 1) as f64));
        }
    }
    for i in 0..n {
        lp.add_eq((0..n).map(|j| (v[i * n + j], 1.0)), 1.0);
    }
    for j in 0..n {
        lp.add_eq((0..n).map(|i| (v[i * n + j], 1.0)), 1.0);
    }
    (lp, v)
}

fn cut_row(v: &[VarId], n: usize, k: usize) -> Vec<(VarId, f64)> {
    (0..n).step_by(2).map(|j| (v[k * n + j], 1.0)).collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    xs[xs.len() / 2]
}

/// Warm re-solve time per appended cut vs. rebuilding from scratch.
///
/// Warm: one `IncrementalLp` absorbs `cuts` rows one at a time, timing only
/// the re-solves. Cold: for each prefix length, rebuild the whole problem
/// and solve from scratch — what every cutting-plane round cost before the
/// incremental engine. Returns `(warm_ns, cold_ns, speedup)` medians.
fn warm_vs_cold_lp(n: usize, cuts: usize, reps: usize) -> (f64, f64, f64) {
    let opts = SimplexOptions::default();
    let mut warm_ns = Vec::new();
    let mut cold_ns = Vec::new();
    for _ in 0..reps {
        let (lp, v) = transportation_lp(n, &opts);
        let mut inc = IncrementalLp::new(lp);
        inc.solve().expect("base transportation LP solves");
        for k in 0..cuts {
            inc.add_le(cut_row(&v, n, k), 0.6);
            let t = Instant::now();
            let sol = inc.solve().expect("warm re-solve succeeds");
            warm_ns.push(t.elapsed().as_nanos() as f64);
            assert_eq!(sol.status, Status::Optimal);
        }
        for upto in 1..=cuts {
            let (mut lp, v) = transportation_lp(n, &opts);
            for k in 0..upto {
                lp.add_le(cut_row(&v, n, k), 0.6);
            }
            let t = Instant::now();
            let sol = lp.solve().expect("cold re-solve succeeds");
            cold_ns.push(t.elapsed().as_nanos() as f64);
            assert_eq!(sol.status, Status::Optimal);
        }
    }
    let w = median(warm_ns);
    let c = median(cold_ns);
    (w, c, c / w)
}

/// The instance the CLI's `solve` command builds for a named topology.
/// `mlu = None` matches `--mlu 0`: no optimal-routing normalization (the
/// MCF LP it solves dwarfs the robust solve on Deltacom/ION-scale inputs).
fn cli_instance(
    name: &str,
    tunnels: usize,
    f: usize,
    mlu: Option<f64>,
) -> (Instance, FailureModel) {
    let topo = zoo::build(name);
    let mut tm = gravity(&topo, 1);
    tm.truncate_to_top_k(200);
    if let Some(target) = mlu {
        let (scaled, _) = scale_to_mlu(&topo, &tm, target);
        tm = scaled;
    }
    let inst = tunnel_instance(&topo, &tm, tunnels);
    (inst, FailureModel::links(f))
}

fn robust_opts(engine: EngineKind) -> RobustOptions {
    let lp = match engine {
        EngineKind::Sparse => SimplexOptions::default(),
        EngineKind::Dense => SimplexOptions {
            engine: EngineKind::Dense,
            pricing: Pricing::Dantzig,
            presolve: false,
            ..SimplexOptions::default()
        },
    };
    RobustOptions {
        lp,
        threads: 1,
        ..RobustOptions::default()
    }
}

/// Exhaustive validation of one engine's plan.
fn validate_plan(inst: &Instance, fm: &FailureModel, sol: &RobustSolution) -> ValidationReport {
    let served: Vec<f64> = inst
        .pair_ids()
        .map(|p| sol.z[p.0] * inst.demand(p))
        .collect();
    validate_all(inst, fm, &sol.a, &sol.b, &served, 1e-6)
}

struct Agreement {
    topo: &'static str,
    obj_sparse: f64,
    obj_dense: f64,
    /// Validation of the sparse engine's plan.
    sparse_plan: ValidationReport,
    /// Validation of the dense engine's plan.
    dense_plan: ValidationReport,
    sparse_secs: f64,
    dense_secs: f64,
}

fn engine_agreement(topo: &'static str) -> Agreement {
    let (inst, fm) = cli_instance(topo, 3, 1, Some(0.6));
    let t = Instant::now();
    let sparse = solve_pcf_tf(&inst, &fm, &robust_opts(EngineKind::Sparse));
    let sparse_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let dense = solve_pcf_tf(&inst, &fm, &robust_opts(EngineKind::Dense));
    let dense_secs = t.elapsed().as_secs_f64();
    Agreement {
        topo,
        obj_sparse: sparse.objective,
        obj_dense: dense.objective,
        sparse_plan: validate_plan(&inst, &fm, &sparse),
        dense_plan: validate_plan(&inst, &fm, &dense),
        sparse_secs,
        dense_secs,
    }
}

struct LargeSolve {
    topo: &'static str,
    nodes: usize,
    links: usize,
    objective: f64,
    solve_secs: f64,
    validate_secs: f64,
    congestion_free: bool,
}

fn large_solve(topo_name: &'static str) -> LargeSolve {
    let topo = zoo::build(topo_name);
    let (nodes, links) = (topo.node_count(), topo.link_count());
    let (inst, fm) = cli_instance(topo_name, 3, 1, None);
    let t = Instant::now();
    let sol = solve_pcf_tf(&inst, &fm, &RobustOptions::default());
    let solve_secs = t.elapsed().as_secs_f64();
    let served: Vec<f64> = inst
        .pair_ids()
        .map(|p| sol.z[p.0] * inst.demand(p))
        .collect();
    let t = Instant::now();
    let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
    let validate_secs = t.elapsed().as_secs_f64();
    LargeSolve {
        topo: topo_name,
        nodes,
        links,
        objective: sol.objective,
        solve_secs,
        validate_secs,
        congestion_free: report.congestion_free(),
    }
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_lp.json".to_string());
    let mut failures = Vec::new();

    println!("warm vs cold (transportation 24x24, 10 cuts, 5 reps)...");
    let (warm_ns, cold_ns, speedup) = warm_vs_cold_lp(24, 10, 5);
    println!(
        "  warm {:.3} ms, cold {:.3} ms, speedup {:.1}x",
        warm_ns / 1e6,
        cold_ns / 1e6,
        speedup
    );
    if speedup < 5.0 {
        failures.push(format!("warm-solve speedup {speedup:.2}x < 5x"));
    }

    let mut agreements = Vec::new();
    for topo in ["Abilene", "Sprint"] {
        println!("engine agreement on {topo} (pcf-tf, f=1)...");
        let a = engine_agreement(topo);
        println!(
            "  sparse {:.9} ({:.2}s, plan digest {:016x}) vs \
             dense {:.9} ({:.2}s, plan digest {:016x})",
            a.obj_sparse,
            a.sparse_secs,
            a.sparse_plan.digest(),
            a.obj_dense,
            a.dense_secs,
            a.dense_plan.digest(),
        );
        let tol = 1e-6 * (1.0 + a.obj_dense.abs());
        if (a.obj_sparse - a.obj_dense).abs() > tol {
            failures.push(format!(
                "{topo}: objective mismatch {} vs {}",
                a.obj_sparse, a.obj_dense
            ));
        }
        for (engine, plan) in [("sparse", &a.sparse_plan), ("dense", &a.dense_plan)] {
            if !plan.congestion_free() {
                failures.push(format!("{topo}: {engine}-engine plan not congestion-free"));
            }
        }
        agreements.push(a);
    }

    let mut larges = Vec::new();
    for topo in ["Deltacom", "ION"] {
        println!("large solve on {topo} (pcf-tf, f=1, sparse engine)...");
        let l = large_solve(topo);
        println!(
            "  objective {:.6}, solve {:.1}s, validate {:.1}s, congestion-free: {}",
            l.objective, l.solve_secs, l.validate_secs, l.congestion_free
        );
        if !l.congestion_free {
            failures.push(format!("{topo}: plan not congestion-free"));
        }
        larges.push(l);
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"lp_sparse\",\n");
    json.push_str(&format!(
        "  \"warm_vs_cold\": {{\"instance\": \"transportation_24x24_10cuts\", \
         \"warm_resolve_ns\": {warm_ns:.1}, \"cold_resolve_ns\": {cold_ns:.1}, \
         \"speedup\": {speedup:.2}}},\n"
    ));
    json.push_str("  \"engine_agreement\": [\n");
    for (i, a) in agreements.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"objective_sparse\": {:.9}, \
             \"objective_dense\": {:.9}, \
             \"sparse_plan_digest\": \"{:016x}\", \
             \"dense_plan_digest\": \"{:016x}\", \
             \"sparse_secs\": {:.3}, \"dense_secs\": {:.3}}}{}\n",
            a.topo,
            a.obj_sparse,
            a.obj_dense,
            a.sparse_plan.digest(),
            a.dense_plan.digest(),
            a.sparse_secs,
            a.dense_secs,
            if i + 1 == agreements.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n  \"large_topologies\": [\n");
    for (i, l) in larges.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"topology\": \"{}\", \"nodes\": {}, \"links\": {}, \
             \"objective\": {:.9}, \"solve_secs\": {:.3}, \"validate_secs\": {:.3}, \
             \"congestion_free\": {}}}{}\n",
            l.topo,
            l.nodes,
            l.links,
            l.objective,
            l.solve_secs,
            l.validate_secs,
            l.congestion_free,
            if i + 1 == larges.len() { "" } else { "," },
        ));
    }
    json.push_str(&format!("  ],\n  \"pass\": {}\n}}\n", failures.is_empty()));
    std::fs::write(&out, &json).expect("write report");
    println!("wrote {out}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("all acceptance bounds met");
}
