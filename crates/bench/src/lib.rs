//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§5).
//!
//! Each `fig*`/`table1` runner reproduces the corresponding artifact's data
//! series and prints it in row/series form (the repository has no plotting
//! dependency; the printed CDF/series data is what the paper's figures
//! plot). The binary `experiments` drives the runners.
//!
//! Scale control: the paper runs Gurobi on all 21 topologies with every
//! node pair. A from-scratch simplex needs smaller masters, so [`Scale`]
//! truncates gravity matrices to the heaviest pairs covering a target
//! demand mass and (below `paper` scale) bounds the topology set. Every
//! truncation is visible in the output and recorded in EXPERIMENTS.md.

#![allow(clippy::disallowed_types, reason = "timing only; nothing is replayed")]

use pcf_core::objective::{overhead_reduction_pct, throughput_overhead};
use pcf_core::realize::{realize_routing, topological_order, FailureState};
use pcf_core::{
    optimal_demand_scale, scale_to_mlu, solve_ffc, solve_pcf_ls, solve_pcf_tf, tunnel_instance,
    FailureModel, Objective, Plan, RobustOptions, ScenarioCoverage, Scheme,
};
use pcf_topology::transform::split_sublinks;
use pcf_topology::{zoo, Topology};
use pcf_traffic::{gravity, TrafficMatrix};
use std::time::Instant;

/// A runner of the `experiments` binary.
pub type Runner = fn(&Scale);

/// The `experiments` targets and their runners, in the order they run.
pub const TARGETS: [(&str, Runner); 15] = [
    ("fig2", |_| run_fig2()),
    ("table1", |_| run_table1()),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("fig10", run_fig10),
    ("fig11", run_fig11),
    ("fig12", run_fig12),
    ("fig13", run_fig13),
    ("fig14", run_fig14),
    ("topsort", run_topsort),
    ("relaxation", run_relaxation_gap),
    ("srlg", run_srlg),
    ("bypass", run_bypass_ablation),
    ("dual", run_dual_vs_cuts),
    ("r3", run_r3_comparison),
];

/// The targets named on the command line, in run order: every one for
/// `all` or for none named, else `Err` with the first unknown name.
pub fn parse_targets(names: &[String]) -> Result<Vec<(&'static str, Runner)>, String> {
    let known = |n: &String| n == "all" || TARGETS.iter().any(|t| t.0 == n);
    if let Some(bad) = names.iter().find(|n| !known(n)) {
        return Err(bad.clone());
    }
    let all = names.is_empty() || names.iter().any(|n| n == "all");
    Ok(TARGETS
        .into_iter()
        .filter(|t| all || names.iter().any(|n| n == t.0))
        .collect())
}

/// Experiment scale knobs.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Keep the heaviest demands covering this fraction of total mass...
    pub mass_fraction: f64,
    /// ...but never more than this many pairs.
    pub max_pairs: usize,
    /// Topologies for the cross-topology figures (11, and the ablations),
    /// by name.
    pub topologies: Vec<&'static str>,
    /// Topologies for the sub-link multi-failure figures (12–14), which
    /// double the link count and design for f = 3; kept smaller so the
    /// sweeps stay tractable.
    pub sublink_topologies: Vec<&'static str>,
    /// The "largest network" used for Figs. 8–10 (the paper uses Deltacom).
    pub big_topology: &'static str,
    /// Number of traffic matrices for Figs. 8 and 10 (paper: 12).
    pub tm_count: usize,
    /// Scenario cap for the optimal baseline (exhaustive when the scenario
    /// space is smaller; sampled otherwise — an upper bound, flagged in the
    /// output).
    pub optimal_cap: usize,
}

impl Scale {
    /// Small and fast: a handful of topologies, Sprint standing in for
    /// Deltacom, 3 traffic matrices. Minutes on one core.
    pub fn quick() -> Self {
        Scale {
            mass_fraction: 0.9,
            max_pairs: 90,
            topologies: vec![
                "Sprint",
                "B4",
                "IBM",
                "Highwinds",
                "CWIX",
                "Quest",
                "Darkstrand",
            ],
            sublink_topologies: vec!["Sprint", "B4", "IBM"],
            big_topology: "Sprint",
            tm_count: 3,
            optimal_cap: 40,
        }
    }

    /// The full configuration: all 21 topologies, Deltacom for Figs. 8–10,
    /// 12 traffic matrices. Hours on one core.
    pub fn paper() -> Self {
        Scale {
            mass_fraction: 0.9,
            max_pairs: 250,
            topologies: zoo::names(),
            sublink_topologies: zoo::names(),
            big_topology: "Deltacom",
            tm_count: 12,
            optimal_cap: 120,
        }
    }

    /// Mid-size default: the topologies up to 50 links, GEANT standing in
    /// for Deltacom, 6 traffic matrices.
    pub fn medium() -> Self {
        Scale {
            mass_fraction: 0.9,
            max_pairs: 160,
            topologies: zoo::TABLE3
                .iter()
                .filter(|&&(_, _, m)| m <= 50)
                .map(|&(n, _, _)| n)
                .collect(),
            sublink_topologies: zoo::TABLE3
                .iter()
                .filter(|&&(_, _, m)| m <= 32)
                .map(|&(n, _, _)| n)
                .collect(),
            big_topology: "GEANT",
            tm_count: 6,
            optimal_cap: 60,
        }
    }

    /// Parses `quick` / `medium` / `paper`.
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "quick" => Some(Scale::quick()),
            "medium" => Some(Scale::medium()),
            "paper" => Some(Scale::paper()),
            _ => None,
        }
    }
}

/// A prepared evaluation input: topology + MLU-normalised, truncated
/// traffic matrix.
pub struct Workload {
    /// The topology.
    pub topo: Topology,
    /// The traffic matrix (scaled to optimal MLU 0.6, truncated per scale).
    pub tm: TrafficMatrix,
    /// Pairs kept by truncation.
    pub kept_pairs: usize,
    /// Pairs before truncation.
    pub total_pairs: usize,
}

/// Builds the paper's §5 workload for a topology: gravity traffic at MLU
/// 0.6, truncated to the scale's heaviest-pair budget.
pub fn workload(topo: &Topology, seed: u64, scale: &Scale) -> Workload {
    let tm = gravity(topo, seed);
    let (mut tm, _) = scale_to_mlu(topo, &tm, 0.6);
    let total_pairs = tm.positive_pairs().len();
    let mut kept = tm.truncate_to_mass(scale.mass_fraction);
    if kept > scale.max_pairs {
        kept = tm.truncate_to_top_k(scale.max_pairs);
    }
    Workload {
        topo: topo.clone(),
        tm,
        kept_pairs: kept,
        total_pairs,
    }
}

/// Plans `scheme` on the workload with `k` tunnels per pair.
///
/// # Panics
/// Panics if the robust solve fails: a runner has no row to print then.
fn plan(scheme: Scheme, w: &Workload, k: usize, fm: &FailureModel, opts: &RobustOptions) -> Plan {
    scheme
        .plan(&w.topo, w.tm.clone(), k, fm, opts, None)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", scheme.as_flag(), w.topo.name()))
}

/// Formats a CDF: sorted values with cumulative fractions.
pub fn cdf(values: &[f64]) -> Vec<(f64, f64)> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = v.len() as f64;
    v.into_iter()
        .enumerate()
        .map(|(i, x)| (x, (i + 1) as f64 / n))
        .collect()
}

fn print_cdf(name: &str, values: &[f64]) {
    let c = cdf(values);
    print!("  {name:<10}");
    for (x, f) in &c {
        print!(" {x:.3}@{f:.2}");
    }
    println!();
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Fig. 2: throughput guarantee on the Fig. 1 topology for FFC-3 / FFC-4 /
/// optimal under one and two failures. Returns rows
/// `(label, f=1 value, f=2 value)`.
pub fn fig2() -> Vec<(&'static str, f64, f64)> {
    use pcf_core::figures::{fig1_instance, fig1_topology};
    let opts = RobustOptions::default();
    let (topo, ids) = fig1_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    let opt = |f: usize| {
        optimal_demand_scale(
            &topo,
            &tm,
            &FailureModel::links(f),
            ScenarioCoverage::Exhaustive,
        )
        .0
    };
    let ffc =
        |k: usize, f: usize| solve_ffc(&fig1_instance(k), &FailureModel::links(f), &opts).objective;
    let pcf = |k: usize, f: usize| {
        solve_pcf_tf(&fig1_instance(k), &FailureModel::links(f), &opts).objective
    };
    vec![
        ("Optimal", opt(1), opt(2)),
        ("FFC-3", ffc(3, 1), ffc(3, 2)),
        ("FFC-4", ffc(4, 1), ffc(4, 2)),
        ("PCF-TF-4", pcf(4, 1), pcf(4, 2)),
    ]
}

/// Prints Fig. 2.
pub fn run_fig2() {
    println!("== Fig. 2: Fig. 1 topology, throughput guarantee ==");
    println!(
        "  {:<10} {:>6} {:>6}   (paper: Optimal 2/1, FFC-3 1.5/0.5, FFC-4 1/0)",
        "scheme", "f=1", "f=2"
    );
    for (name, f1, f2) in fig2() {
        println!("  {name:<10} {f1:>6.3} {f2:>6.3}");
    }
}

/// Table 1: every scheme on the Fig. 5 topology under two simultaneous
/// failures.
pub fn table1() -> Vec<(&'static str, f64)> {
    use pcf_core::figures::{fig5_instance, fig5_topology, Fig5Variant};
    let opts = RobustOptions::default();
    let fm = FailureModel::links(2);
    let (topo, ids) = fig5_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    vec![
        (
            "Optimal",
            optimal_demand_scale(&topo, &tm, &fm, ScenarioCoverage::Exhaustive).0,
        ),
        (
            "FFC",
            solve_ffc(&fig5_instance(Fig5Variant::TunnelsOnly), &fm, &opts).objective,
        ),
        (
            "PCF-TF",
            solve_pcf_tf(&fig5_instance(Fig5Variant::TunnelsOnly), &fm, &opts).objective,
        ),
        (
            "PCF-LS",
            solve_pcf_ls(&fig5_instance(Fig5Variant::UnconditionalLs), &fm, &opts).objective,
        ),
        (
            "PCF-CLS",
            solve_pcf_ls(&fig5_instance(Fig5Variant::ConditionalLs), &fm, &opts).objective,
        ),
        ("R3", pcf_core::solve_r3(&topo, &tm, 2).objective),
    ]
}

/// Prints Table 1.
pub fn run_table1() {
    println!("== Table 1: Fig. 5 topology, 2 simultaneous link failures ==");
    println!("  (paper: Optimal 1, FFC 0, PCF-TF 2/3, PCF-LS 4/5, PCF-CLS 1, R3 0)");
    for (name, v) in table1() {
        println!("  {name:<8} {v:.4}");
    }
}

/// Fig. 8: CDF of demand scale for FFC with 2/3/4 tunnels and the optimal,
/// over `tm_count` gravity matrices on the big topology, f = 1.
pub fn fig8(scale: &Scale) -> Vec<(String, Vec<f64>)> {
    let topo = zoo::build(scale.big_topology);
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    let mut series: Vec<(String, Vec<f64>)> = vec![
        ("FFC(2)".into(), vec![]),
        ("FFC(3)".into(), vec![]),
        ("FFC(4)".into(), vec![]),
        ("Optimal".into(), vec![]),
    ];
    for seed in 0..scale.tm_count as u64 {
        let w = workload(&topo, 100 + seed, scale);
        for (i, k) in [2usize, 3, 4].into_iter().enumerate() {
            let sol = solve_ffc(&tunnel_instance(&w.topo, &w.tm, k), &fm, &opts);
            series[i].1.push(sol.objective);
        }
        let (opt, _, _) = optimal_demand_scale(
            &w.topo,
            &w.tm,
            &fm,
            ScenarioCoverage::Sampled(scale.optimal_cap),
        );
        series[3].1.push(opt);
    }
    series
}

/// Prints Fig. 8.
pub fn run_fig8(scale: &Scale) {
    println!(
        "== Fig. 8: FFC vs tunnel count, {} x{} TMs, f=1 ==",
        scale.big_topology, scale.tm_count
    );
    println!("  (paper: more tunnels hurt FFC; all are below optimal)");
    let series = fig8(scale);
    for (name, values) in &series {
        print_cdf(name, values);
    }
    println!(
        "  means: FFC(2) {:.3}, FFC(3) {:.3}, FFC(4) {:.3}, Optimal {:.3}",
        mean(&series[0].1),
        mean(&series[1].1),
        mean(&series[2].1),
        mean(&series[3].1)
    );
}

/// Fig. 9: demand scale of FFC and PCF-TF at 2/3/4 tunnels, one TM, f = 1.
pub fn fig9(scale: &Scale) -> Vec<(usize, f64, f64)> {
    let topo = zoo::build(scale.big_topology);
    let w = workload(&topo, 100, scale);
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    [2usize, 3, 4]
        .into_iter()
        .map(|k| {
            let inst = tunnel_instance(&w.topo, &w.tm, k);
            let ffc = solve_ffc(&inst, &fm, &opts).objective;
            let tf = solve_pcf_tf(&inst, &fm, &opts).objective;
            (k, ffc, tf)
        })
        .collect()
}

/// Prints Fig. 9.
pub fn run_fig9(scale: &Scale) {
    println!(
        "== Fig. 9: FFC vs PCF-TF as tunnels are added ({}, f=1) ==",
        scale.big_topology
    );
    println!("  (paper: FFC degrades with tunnels, PCF-TF improves)");
    println!("  {:<8} {:>8} {:>8}", "tunnels", "FFC", "PCF-TF");
    for (k, ffc, tf) in fig9(scale) {
        println!("  {k:<8} {ffc:>8.4} {tf:>8.4}");
    }
}

/// One topology/TM evaluation of all schemes for Figs. 10–12.
pub struct SchemeRow {
    /// Topology name.
    pub name: String,
    /// FFC demand scale (the denominator).
    pub ffc: f64,
    /// PCF-TF demand scale.
    pub pcf_tf: f64,
    /// PCF-LS demand scale.
    pub pcf_ls: f64,
    /// PCF-CLS demand scale.
    pub pcf_cls: f64,
    /// Optimal (a sampled upper bound when `optimal_exact` is false).
    pub optimal: f64,
    /// Whether the optimal was exhaustive.
    pub optimal_exact: bool,
}

/// Runs every scheme on one workload. `ffc_tunnels`/`pcf_tunnels` follow
/// the paper (2/3 for single failures, 4/6 for the sub-link experiments).
pub fn scheme_row(
    w: &Workload,
    fm: &FailureModel,
    ffc_tunnels: usize,
    pcf_tunnels: usize,
    optimal_cap: usize,
) -> SchemeRow {
    let opts = RobustOptions::default();
    let [ffc, pcf_tf, pcf_ls, pcf_cls] = Scheme::ALL.map(|scheme| {
        let k = if scheme == Scheme::Ffc {
            ffc_tunnels
        } else {
            pcf_tunnels
        };
        plan(scheme, w, k, fm, &opts).sol.objective
    });
    let (opt, _, exact) =
        optimal_demand_scale(&w.topo, &w.tm, fm, ScenarioCoverage::Sampled(optimal_cap));
    SchemeRow {
        name: w.topo.name().to_string(),
        ffc,
        pcf_tf,
        pcf_ls,
        pcf_cls,
        optimal: opt,
        optimal_exact: exact,
    }
}

/// Fig. 10: demand scale relative to FFC across traffic matrices on the big
/// topology, f = 1.
pub fn fig10(scale: &Scale) -> Vec<SchemeRow> {
    let topo = zoo::build(scale.big_topology);
    let fm = FailureModel::links(1);
    (0..scale.tm_count as u64)
        .map(|seed| {
            let w = workload(&topo, 100 + seed, scale);
            scheme_row(&w, &fm, 2, 3, scale.optimal_cap)
        })
        .collect()
}

fn print_relative(rows: &[SchemeRow]) {
    let rel = |f: fn(&SchemeRow) -> f64| -> Vec<f64> {
        rows.iter().map(|r| f(r) / r.ffc.max(1e-12)).collect()
    };
    let tf = rel(|r| r.pcf_tf);
    let ls = rel(|r| r.pcf_ls);
    let cls = rel(|r| r.pcf_cls);
    let opt = rel(|r| r.optimal);
    print_cdf("PCF-TF", &tf);
    print_cdf("PCF-LS", &ls);
    print_cdf("PCF-CLS", &cls);
    print_cdf("Optimal", &opt);
    println!(
        "  means vs FFC: PCF-TF {:.2}x, PCF-LS {:.2}x, PCF-CLS {:.2}x, Optimal {:.2}x",
        mean(&tf),
        mean(&ls),
        mean(&cls),
        mean(&opt)
    );
    let sampled = rows.iter().filter(|r| !r.optimal_exact).count();
    if sampled > 0 {
        println!("  (optimal sampled on {sampled} rows: upper bound)");
    }
}

/// Prints Fig. 10.
pub fn run_fig10(scale: &Scale) {
    println!(
        "== Fig. 10: benefit over FFC across {} TMs on {} (f=1) ==",
        scale.tm_count, scale.big_topology
    );
    println!("  (paper medians: PCF-TF/LS 1.25x, PCF-CLS 1.37x; CLS near optimal)");
    let rows = fig10(scale);
    print_relative(&rows);
}

/// Fig. 11: every scheme across the scale's topology set, f = 1.
pub fn fig11(scale: &Scale) -> Vec<SchemeRow> {
    let fm = FailureModel::links(1);
    scale
        .topologies
        .iter()
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            scheme_row(&w, &fm, 2, 3, scale.optimal_cap)
        })
        .collect()
}

fn print_rows(rows: &[SchemeRow]) {
    for r in rows {
        println!(
            "  {:<16} FFC {:.3}  TF {:.3}  LS {:.3}  CLS {:.3}  OPT {:.3}{}",
            r.name,
            r.ffc,
            r.pcf_tf,
            r.pcf_ls,
            r.pcf_cls,
            r.optimal,
            if r.optimal_exact { "" } else { "*" }
        );
    }
}

/// Prints Fig. 11.
pub fn run_fig11(scale: &Scale) {
    println!(
        "== Fig. 11: benefit over FFC across {} topologies (f=1) ==",
        scale.topologies.len()
    );
    println!("  (paper means: PCF-TF 1.11x, PCF-LS 1.22x, PCF-CLS 1.44x; max 2.6x)");
    let rows = fig11(scale);
    print_rows(&rows);
    print_relative(&rows);
}

/// Fig. 12: three simultaneous sub-link failures (each link split in two);
/// PCF uses 6 tunnels, FFC 4.
pub fn fig12(scale: &Scale) -> Vec<SchemeRow> {
    let fm = FailureModel::links(3);
    scale
        .sublink_topologies
        .iter()
        .map(|name| {
            let topo = split_sublinks(&zoo::build(name), 2);
            let w = workload(&topo, 100, scale);
            scheme_row(&w, &fm, 4, 6, scale.optimal_cap)
        })
        .collect()
}

/// Prints Fig. 12.
pub fn run_fig12(scale: &Scale) {
    println!(
        "== Fig. 12: 3 simultaneous sub-link failures across {} topologies ==",
        scale.sublink_topologies.len()
    );
    println!("  (paper means: PCF-TF 1.11x, PCF-LS 1.25x, PCF-CLS 1.50x over FFC)");
    let rows = fig12(scale);
    print_rows(&rows);
    print_relative(&rows);
}

/// Fig. 13: % reduction in throughput overhead vs FFC under the f = 3
/// sub-link design. Returns `(name, tf%, ls%, cls%)`.
pub fn fig13(scale: &Scale) -> Vec<(String, f64, f64, f64)> {
    let fm = FailureModel::links(3);
    let opts = RobustOptions {
        objective: Objective::Throughput,
        ..RobustOptions::default()
    };
    scale
        .sublink_topologies
        .iter()
        .map(|name| {
            let topo = split_sublinks(&zoo::build(name), 2);
            let w = workload(&topo, 100, scale);
            let total = w.tm.total();
            let [ffc, tf, ls, cls] = Scheme::ALL.map(|scheme| {
                let k = if scheme == Scheme::Ffc { 4 } else { 6 };
                throughput_overhead(plan(scheme, &w, k, &fm, &opts).sol.objective, total)
            });
            (
                w.topo.name().to_string(),
                overhead_reduction_pct(tf, ffc),
                overhead_reduction_pct(ls, ffc),
                overhead_reduction_pct(cls, ffc),
            )
        })
        .collect()
}

/// Prints Fig. 13.
pub fn run_fig13(scale: &Scale) {
    println!("== Fig. 13: reduction in throughput overhead vs FFC (f=3 sub-links) ==");
    println!("  (paper medians: PCF-TF/LS >16%, PCF-CLS 46%)");
    let rows = fig13(scale);
    for (name, tf, ls, cls) in &rows {
        println!("  {name:<16} TF {tf:>6.1}%  LS {ls:>6.1}%  CLS {cls:>6.1}%");
    }
    let col = |f: fn(&(String, f64, f64, f64)) -> f64| -> Vec<f64> { rows.iter().map(f).collect() };
    print_cdf("PCF-TF%", &col(|r| r.1));
    print_cdf("PCF-LS%", &col(|r| r.2));
    print_cdf("PCF-CLS%", &col(|r| r.3));
}

/// Fig. 14: offline solve time against topology size (sub-links, f = 3).
/// Returns `(name, sublinks, t_pcf_tf, t_pcf_cls, t_optimal_estimate)`.
pub fn fig14(scale: &Scale) -> Vec<(String, usize, f64, f64, f64)> {
    let fm = FailureModel::links(3);
    let opts = RobustOptions::default();
    scale
        .sublink_topologies
        .iter()
        .map(|name| {
            let topo = split_sublinks(&zoo::build(name), 2);
            let w = workload(&topo, 100, scale);
            let [t_tf, t_cls] = [Scheme::PcfTf, Scheme::PcfCls].map(|scheme| {
                let t0 = Instant::now();
                plan(scheme, &w, 6, &fm, &opts);
                t0.elapsed().as_secs_f64()
            });
            // Optimal: time a handful of scenarios and extrapolate to the
            // full C(sublinks, 3) space (the paper truncates at 1 hour).
            let t0 = Instant::now();
            let probes = 3usize;
            let (_, n_eval, _) =
                optimal_demand_scale(&w.topo, &w.tm, &fm, ScenarioCoverage::Sampled(probes));
            let t_opt_each = t0.elapsed().as_secs_f64() / n_eval.max(1) as f64;
            let total_scenarios = fm.scenario_count(&w.topo) as f64;
            (
                w.topo.name().to_string(),
                topo.link_count(),
                t_tf,
                t_cls,
                t_opt_each * total_scenarios,
            )
        })
        .collect()
}

/// Prints Fig. 14.
pub fn run_fig14(scale: &Scale) {
    println!("== Fig. 14: offline solving time vs topology size (f=3 sub-links) ==");
    println!("  (paper: PCF seconds-to-minutes; optimal hours-to-days)");
    println!(
        "  {:<16} {:>9} {:>10} {:>10} {:>14}",
        "topology", "sublinks", "PCF-TF(s)", "PCF-CLS(s)", "optimal est(s)"
    );
    for (name, m, tf, cls, opt) in fig14(scale) {
        println!("  {name:<16} {m:>9} {tf:>10.2} {cls:>10.2} {opt:>14.1}");
    }
}

/// §5.2 per failure state. For each PCF-CLS plan (f = 1): its LS count,
/// whether its LS relation sorts with every LS active (the paper's
/// "already sorted" statistic), its protected states (every single link
/// failure), how many of those activate a cyclic set of LSs, and how many
/// Prop. 7's walk realizes without a cyclic block (`realize_routing` is
/// `Ok` with `bump == 0`). Returns `(name, lss, sorted_all_active,
/// states, cyclic, walked)`.
pub fn topsort(scale: &Scale) -> Vec<(String, usize, bool, usize, usize, usize)> {
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    scale
        .topologies
        .iter()
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            let Plan { inst, sol, .. } = plan(Scheme::PcfCls, &w, 3, &fm, &opts);
            let served = sol.served(&inst);
            let sorted_all_active =
                topological_order(&inst, &sol.b, &vec![true; inst.num_lss()]).is_some();
            let states = fm.enumerate_scenarios(&w.topo);
            let (mut cyclic, mut walked) = (0, 0);
            for sc in &states {
                let state =
                    FailureState::new(&inst, &sc.dead).unwrap_or_else(|e| panic!("{name}: {e}"));
                if topological_order(&inst, &sol.b, &state.ls_active).is_none() {
                    cyclic += 1;
                }
                let routing = realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6);
                if routing.is_ok_and(|r| r.bump == 0) {
                    walked += 1;
                }
            }
            (
                w.topo.name().to_string(),
                inst.num_lss(),
                sorted_all_active,
                states.len(),
                cyclic,
                walked,
            )
        })
        .collect()
}

/// Prints the §5.2 experiment.
pub fn run_topsort(scale: &Scale) {
    println!("== §5.2: PCF-CLS LS order per failure state (f=1) ==");
    println!(
        "  (paper: <=0.59% of LSs pruned by PCF-CLS-TopSort; a state needs a prune only if cyclic)"
    );
    for (name, lss, sorted, states, cyclic, walked) in topsort(scale) {
        let sorted = if sorted { "yes" } else { "no" };
        println!(
            "  {name:<16} LSs {lss:>4}, sorted with all active {sorted:>3}, \
             f=1 states {states:>3}, cyclic {cyclic:>3}, walked {walked:>3}"
        );
    }
}

// ---------------------------------------------------------------------------
// Ablations and extensions beyond the paper's figures.
// ---------------------------------------------------------------------------

/// Ablation: the cost of the paper's `x ∈ [0,1]` relaxation (§3.2). For
/// small scenario spaces the exact integral design (explicit enumeration of
/// every f-subset) is tractable; the relaxed design is never better, and
/// the gap measures the relaxation's conservatism. Returns
/// `(name, relaxed, exact, gap_pct)` per topology.
pub fn relaxation_gap(scale: &Scale, f: usize) -> Vec<(String, f64, f64, f64)> {
    let opts = RobustOptions::default();
    scale
        .topologies
        .iter()
        .filter(|name| {
            // Keep the enumeration tractable.
            let m = zoo::build(name).link_count();
            (f == 1 && m <= 60) || (f == 2 && m <= 32)
        })
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            let inst = tunnel_instance(&w.topo, &w.tm, 3);
            let relaxed = solve_pcf_tf(&inst, &FailureModel::links(f), &opts).objective;
            // Exact: enumerate all f-subsets as explicit scenarios.
            let scenarios: Vec<Vec<pcf_topology::LinkId>> = FailureModel::links(f)
                .enumerate_scenarios(&topo)
                .into_iter()
                .map(|sc| topo.links().filter(|l| sc.dead[l.index()]).collect())
                .collect();
            let exact = solve_pcf_tf(&inst, &FailureModel::Explicit { scenarios }, &opts).objective;
            let gap = if exact > 0.0 {
                100.0 * (1.0 - relaxed / exact)
            } else {
                0.0
            };
            (w.topo.name().to_string(), relaxed, exact, gap)
        })
        .collect()
}

/// Prints the relaxation-gap ablation.
pub fn run_relaxation_gap(scale: &Scale) {
    println!("== Ablation: x ∈ [0,1] relaxation vs exact enumeration (PCF-TF, f=1) ==");
    println!("  (the relaxation is safe — never above exact — and usually tight)");
    for (name, relaxed, exact, gap) in relaxation_gap(scale, 1) {
        println!("  {name:<16} relaxed {relaxed:.4}  exact {exact:.4}  conservatism {gap:.1}%");
    }
}

/// Extension: SRLGs and node failures (§3.5). For each topology, compares
/// PCF-TF's guarantee under (a) single link failures, (b) single SRLG
/// failures where each SRLG couples a node's two highest-capacity links,
/// and (c) single node failures restricted to transit nodes. Returns
/// `(name, links, srlg, node)`.
pub fn srlg_and_node(scale: &Scale) -> Vec<(String, f64, f64, f64)> {
    let opts = RobustOptions::default();
    scale
        .topologies
        .iter()
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            let inst = tunnel_instance(&w.topo, &w.tm, 3);
            let links = solve_pcf_tf(&inst, &FailureModel::links(1), &opts).objective;
            // SRLGs: each node's two fattest incident links share fate
            // (e.g. a shared conduit), plus singleton groups for the rest.
            let mut groups: Vec<Vec<pcf_topology::LinkId>> = Vec::new();
            let mut grouped = vec![false; topo.link_count()];
            for n in topo.nodes() {
                let mut inc: Vec<pcf_topology::LinkId> =
                    topo.incident(n).iter().map(|&(_, l)| l).collect();
                inc.sort_by(|&a, &b| topo.capacity(b).partial_cmp(&topo.capacity(a)).unwrap());
                if inc.len() >= 2 && !grouped[inc[0].index()] && !grouped[inc[1].index()] {
                    grouped[inc[0].index()] = true;
                    grouped[inc[1].index()] = true;
                    groups.push(vec![inc[0], inc[1]]);
                }
            }
            for l in topo.links() {
                if !grouped[l.index()] {
                    groups.push(vec![l]);
                }
            }
            let srlg = solve_pcf_tf(&inst, &FailureModel::srlgs(groups, 1), &opts).objective;
            // Node failures: traffic to/from a failed node is necessarily
            // lost, so guard only transit (non-endpoint) nodes — here, the
            // nodes that carry no demand after truncation.
            let endpoints: std::collections::HashSet<u32> =
                w.tm.positive_pairs()
                    .into_iter()
                    .flat_map(|(s, t, _)| [s.0, t.0])
                    .collect();
            let node_groups: Vec<Vec<pcf_topology::LinkId>> = topo
                .nodes()
                .filter(|n| !endpoints.contains(&n.0))
                .map(|n| topo.incident(n).iter().map(|&(_, l)| l).collect())
                .collect();
            let node = if node_groups.is_empty() {
                f64::NAN
            } else {
                solve_pcf_tf(&inst, &FailureModel::srlgs(node_groups, 1), &opts).objective
            };
            (w.topo.name().to_string(), links, srlg, node)
        })
        .collect()
}

/// Prints the SRLG / node-failure extension.
pub fn run_srlg(scale: &Scale) {
    println!("== Extension: SRLG and node failures (§3.5), PCF-TF f=1 ==");
    println!("  (correlated failures can only lower the guarantee)");
    for (name, links, srlg, node) in srlg_and_node(scale) {
        println!(
            "  {name:<16} links {links:.4}  srlg {srlg:.4}  transit-node {}",
            if node.is_nan() {
                "n/a".into()
            } else {
                format!("{node:.4}")
            }
        );
    }
}

/// Ablation: how many penalized bypass paths the CLS flow support uses
/// (DESIGN.md's tractability restriction). Returns, per topology of the
/// scale, its name and `(objective, seconds)` at widths 1, 2 and 3.
pub fn bypass_path_ablation(scale: &Scale) -> Vec<(String, [(f64, f64); 3])> {
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    scale
        .topologies
        .iter()
        .map(|name| {
            let w = workload(&zoo::build(name), 100, scale);
            let row = [1, 2, 3].map(|paths| {
                let t0 = Instant::now();
                let (inst, _) = pcf_core::pcf_cls_instance(&w.topo, &w.tm, 3, paths, &fm, &opts)
                    .expect("bypass ablation flow stage");
                let obj = solve_pcf_ls(&inst, &fm, &opts).objective;
                (obj, t0.elapsed().as_secs_f64())
            });
            (name.to_string(), row)
        })
        .collect()
}

/// Prints the bypass-path ablation.
pub fn run_bypass_ablation(scale: &Scale) {
    println!("== Ablation: CLS bypass support width 1 / 2 / 3 (f=1, demand scale) ==");
    for (name, row) in bypass_path_ablation(scale) {
        let cells: Vec<String> = row
            .iter()
            .map(|(obj, secs)| format!("{obj:.4} ({secs:.1}s)"))
            .collect();
        println!("  {name:<16} {}", cells.join("  "));
    }
}

/// Ablation: the paper's dualized LP (appendix D2) vs this repo's
/// cutting-plane solver — values must agree; times differ. Returns
/// `(name, cut_value, dual_value, cut_secs, dual_secs)`.
pub fn dual_vs_cuts(scale: &Scale) -> Vec<(String, f64, f64, f64, f64)> {
    let opts = RobustOptions::default();
    let fm = FailureModel::links(1);
    scale
        .topologies
        .iter()
        .filter(|n| zoo::build(n).link_count() <= 32)
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            let inst = tunnel_instance(&w.topo, &w.tm, 3);
            let t0 = Instant::now();
            let cut = solve_pcf_tf(&inst, &fm, &opts).objective;
            let t_cut = t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let dual = pcf_core::dualized::solve_pcf_tf_dual(
                &inst,
                &fm,
                pcf_core::Objective::DemandScale,
                &Default::default(),
            )
            .expect("dual PCF-TF LP solves on zoo instances");
            let t_dual = t0.elapsed().as_secs_f64();
            (w.topo.name().to_string(), cut, dual, t_cut, t_dual)
        })
        .collect()
}

/// Prints the dualized-vs-cutting-plane ablation.
pub fn run_dual_vs_cuts(scale: &Scale) {
    println!("== Ablation: appendix dualization vs cutting planes (PCF-TF, f=1) ==");
    println!("  (same robust optimum by construction; times differ)");
    for (name, cut, dual, t_cut, t_dual) in dual_vs_cuts(scale) {
        println!(
            "  {name:<16} cuts {cut:.4} ({t_cut:.1}s)  dual {dual:.4} ({t_dual:.1}s)  |Δ| {:.1e}",
            (cut - dual).abs()
        );
    }
}

/// Extension: R3 and Generalized-R3 against PCF across topologies
/// (Table 1's comparison widened to the zoo). Returns
/// `(name, r3, generalized_r3, pcf_tf)`.
pub fn r3_comparison(scale: &Scale) -> Vec<(String, f64, f64, f64)> {
    let opts = RobustOptions::default();
    let fm = FailureModel::links(1);
    scale
        .topologies
        .iter()
        .filter(|n| zoo::build(n).link_count() <= 24)
        .map(|name| {
            let topo = zoo::build(name);
            let w = workload(&topo, 100, scale);
            let r3 = pcf_core::solve_r3(&w.topo, &w.tm, 1).objective;
            let gr3 = pcf_core::solve_generalized_r3(&w.topo, &w.tm, 1, &opts).objective;
            let tf = solve_pcf_tf(&tunnel_instance(&w.topo, &w.tm, 3), &fm, &opts).objective;
            (w.topo.name().to_string(), r3, gr3, tf)
        })
        .collect()
}

/// Prints the R3 comparison.
pub fn run_r3_comparison(scale: &Scale) {
    println!("== Extension: R3 vs Generalized-R3 (Prop. 4) vs PCF-TF, f=1 ==");
    for (name, r3, gr3, tf) in r3_comparison(scale) {
        println!("  {name:<16} R3 {r3:.4}  GenR3 {gr3:.4}  PCF-TF {tf:.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_sorted_and_normalised() {
        let c = cdf(&[3.0, 1.0, 2.0]);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].0, 1.0);
        assert!((c[2].1 - 1.0).abs() < 1e-12);
        assert!(c.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }

    #[test]
    fn workload_truncation_reports_counts() {
        let topo = zoo::build("Sprint");
        let scale = Scale::quick();
        let w = workload(&topo, 1, &scale);
        assert!(w.kept_pairs <= w.total_pairs);
        assert!(w.kept_pairs <= scale.max_pairs);
        assert!(w.tm.total() > 0.0);
    }

    #[test]
    fn scale_parse() {
        assert!(Scale::parse("quick").is_some());
        assert!(Scale::parse("medium").is_some());
        assert!(Scale::parse("paper").is_some());
        assert!(Scale::parse("bogus").is_none());
    }

    #[test]
    fn target_parse() {
        let parse = |v: &[&str]| {
            let names: Vec<String> = v.iter().map(|s| s.to_string()).collect();
            parse_targets(&names).map(|t| t.iter().map(|t| t.0).collect::<Vec<_>>())
        };
        let every: Vec<&str> = TARGETS.iter().map(|t| t.0).collect();
        assert_eq!(parse(&[]), Ok(every.clone()));
        assert_eq!(parse(&["all"]), Ok(every));
        assert_eq!(parse(&["topsort", "fig2"]), Ok(vec!["fig2", "topsort"]));
        assert_eq!(parse(&["fig2", "topsrot"]), Err("topsrot".to_string()));
    }

    #[test]
    fn fig2_matches_paper() {
        let rows = fig2();
        let get = |n: &str| rows.iter().find(|r| r.0 == n).unwrap();
        assert!((get("Optimal").1 - 2.0).abs() < 1e-5);
        assert!((get("FFC-3").1 - 1.5).abs() < 1e-5);
        assert!((get("FFC-4").1 - 1.0).abs() < 1e-5);
        assert!((get("FFC-4").2 - 0.0).abs() < 1e-6);
    }
}
