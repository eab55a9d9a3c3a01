//! End-to-end pipeline tests: from a zoo topology and gravity traffic all
//! the way to a validated, congestion-free routing under every targeted
//! failure scenario, for every scheme.

use pcf_core::realize::{realize_routing, topological_order, FailureState};
use pcf_core::validate::validate_all;
use pcf_core::{
    pcf_ls_instance, scale_to_mlu, solve_ffc, solve_pcf_ls, solve_pcf_ls_seeded, solve_pcf_tf,
    tunnel_instance, FailureModel, Instance, RobustOptions, RobustSolution, Scheme,
};
use pcf_topology::{transform::split_sublinks, zoo};
use pcf_traffic::gravity;

fn check(inst: &Instance, sol: &RobustSolution, fm: &FailureModel, label: &str) {
    let report = validate_all(inst, fm, &sol.a, &sol.b, &sol.served(inst), 1e-6);
    assert!(
        report.congestion_free(),
        "{label}: {} violations, first: {:?}",
        report.violations.len(),
        report.violations.first().map(|v| &v.kind)
    );
}

#[test]
fn sprint_ffc_is_congestion_free_under_all_single_failures() {
    let topo = zoo::build("Sprint");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 21), 0.6);
    let fm = FailureModel::links(1);
    let inst = tunnel_instance(&topo, &tm, 2);
    let sol = solve_ffc(&inst, &fm, &RobustOptions::default());
    assert!(sol.objective > 0.2, "FFC too weak: {}", sol.objective);
    check(&inst, &sol, &fm, "FFC");
}

#[test]
fn sprint_pcf_tf_is_congestion_free_under_all_single_failures() {
    let topo = zoo::build("Sprint");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 21), 0.6);
    let fm = FailureModel::links(1);
    let inst = tunnel_instance(&topo, &tm, 3);
    let sol = solve_pcf_tf(&inst, &fm, &RobustOptions::default());
    check(&inst, &sol, &fm, "PCF-TF");
}

#[test]
fn sprint_pcf_ls_is_congestion_free_under_all_single_failures() {
    let topo = zoo::build("Sprint");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 21), 0.6);
    let fm = FailureModel::links(1);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let sol = solve_pcf_ls(&inst, &fm, &RobustOptions::default());
    check(&inst, &sol, &fm, "PCF-LS");
}

#[test]
fn sprint_pcf_cls_is_congestion_free_under_all_single_failures() {
    let topo = zoo::build("Sprint");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 21), 0.6);
    let fm = FailureModel::links(1);
    let cls = Scheme::PcfCls
        .plan(&topo, tm, 3, &fm, &RobustOptions::default(), None)
        .unwrap();
    check(&cls.inst, &cls.sol, &fm, "PCF-CLS");
}

#[test]
fn cls_stage_one_certifies_under_the_callers_options() {
    // Stage 1 (the logical-flow solve) runs under the caller's options and
    // stops on its own certificate, well inside the default round budget.
    for name in ["Abilene", "Sprint", "Quest"] {
        let topo = zoo::build(name);
        let mut tm = gravity(&topo, 1);
        tm.truncate_to_top_k(200);
        let fm = FailureModel::links(1);
        let cls = Scheme::PcfCls
            .plan(&topo, tm, 3, &fm, &RobustOptions::default(), None)
            .unwrap();
        let flow = cls.flow.expect("a PCF-CLS plan reports its stage 1");
        assert!(
            flow.certified,
            "{name}: stage 1 stopped uncertified after {} rounds",
            flow.rounds
        );
    }
}

#[test]
fn b4_sublinks_double_failure_end_to_end() {
    // The Fig. 12 setup in miniature: split links into sub-links, design
    // for f = 2 sub-link failures, then validate over all C(38,2) = 703
    // concrete scenarios.
    let topo = split_sublinks(&zoo::build("B4"), 2);
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 4), 0.6);
    let fm = FailureModel::links(2);
    let inst = tunnel_instance(&topo, &tm, 4);
    let sol = solve_pcf_tf(&inst, &fm, &RobustOptions::default());
    assert!(sol.objective > 0.0);
    check(&inst, &sol, &fm, "PCF-TF sublinks f=2");
}

#[test]
fn node_failures_end_to_end() {
    // §3.5: node failures as link groups. Design against any single node
    // failure; traffic to/from the failed node is lost, but transit pairs
    // must stay congestion-free.
    let topo = zoo::build("B4");
    let tm = {
        // Demands only between nodes 0 and 5 so a middle-node failure is a
        // pure transit event.
        let mut m = pcf_traffic::TrafficMatrix::zeros(topo.node_count());
        m.set_demand(pcf_topology::NodeId(0), pcf_topology::NodeId(5), 1.0);
        m.set_demand(pcf_topology::NodeId(5), pcf_topology::NodeId(0), 1.0);
        m
    };
    // Exclude the endpoints' own groups: protect against any *other* node
    // failing.
    let groups: Vec<Vec<pcf_topology::LinkId>> = topo
        .nodes()
        .filter(|n| n.index() != 0 && n.index() != 5)
        .map(|n| topo.incident(n).iter().map(|&(_, l)| l).collect())
        .collect();
    let fm = FailureModel::srlgs(groups, 1);
    let inst = tunnel_instance(&topo, &tm, 3);
    let sol = solve_pcf_tf(&inst, &fm, &RobustOptions::default());
    assert!(sol.objective > 0.0, "transit pairs survive node failures");
    check(&inst, &sol, &fm, "PCF-TF node failures");
}

#[test]
fn cls_topsort_pipeline_end_to_end() {
    // §5.2 per failure state: over every LS the PCF-CLS relation is
    // cyclic, but a state orders only the LSs it activates. Each single
    // failure of the Sprint plan sorts, and Prop. 7's walk realizes it
    // within capacity.
    let topo = zoo::build("Sprint");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 8), 0.6);
    let fm = FailureModel::links(1);
    let cls = Scheme::PcfCls
        .plan(&topo, tm, 3, &fm, &RobustOptions::default(), None)
        .unwrap();
    let (inst, sol) = (&cls.inst, &cls.sol);
    assert!(sol.objective > 0.0);
    let all = vec![true; inst.num_lss()];
    assert!(topological_order(inst, &sol.b, &all).is_none());
    let served = sol.served(inst);
    let scenarios = fm.enumerate_scenarios(&topo);
    assert_eq!(scenarios.len(), topo.link_count());
    for sc in scenarios {
        let state = FailureState::new(inst, &sc.dead).unwrap();
        assert!(
            topological_order(inst, &sol.b, &state.ls_active).is_some(),
            "{:?}: the active LSs form a cycle",
            sc.dead
        );
        let walk = realize_routing(inst, &state, &sol.a, &sol.b, &served, 1e-6)
            .unwrap_or_else(|e| panic!("{:?}: {e}", sc.dead));
        assert_eq!(walk.bump, 0, "{:?}: a sorted state needs no block", sc.dead);
        assert!(walk.max_utilization(inst) <= 1.0 + 1e-6, "{:?}", sc.dead);
    }
}

/// The PCF-LS instance of a zoo topology as the CLI and the benchmark build
/// it: gravity seed 1, top 200 pairs, 3 tunnels per pair, raw demands.
fn zoo_ls_instance(name: &str) -> Instance {
    let topo = zoo::build(name);
    let mut tm = gravity(&topo, 1);
    tm.truncate_to_top_k(200);
    pcf_ls_instance(&topo, &tm, 3)
}

fn single_threaded() -> RobustOptions {
    RobustOptions {
        threads: 1,
        ..RobustOptions::default()
    }
}

/// `(rounds, cuts, objective bits)` of a from-scratch GEANT PCF-LS f=1 solve:
/// topology, traffic, tunnel selection, and instance are rebuilt too, since
/// tunnel selection is one of the places iteration order used to leak in.
fn geant_fingerprint() -> (usize, usize, u64) {
    let inst = zoo_ls_instance("GEANT");
    let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &single_threaded());
    (sol.rounds, sol.cuts, sol.objective.to_bits())
}

#[test]
fn geant_solve_repeats_exactly_within_one_process() {
    // Every `HashMap::new()` draws fresh hash keys, so two solves in one
    // process see two iteration orders: equality here is a real test that
    // no hash-ordered container reaches the numerics (it failed while
    // `h_coef` and `use_count` were `HashMap`s: 8-10 rounds run to run).
    assert_eq!(geant_fingerprint(), geant_fingerprint());
}

/// Cold and pool-seeded PCF-LS f=1 solves of `name`. Cold: no master solve
/// runs a phase 1 or falls back, and appended cuts are absorbed by dual
/// pivots. Seeded with the cold solve's own pool: the master is rebuilt
/// whole and restarts on the basis the pool carries, which is still optimal
/// — one factorization, no pivot of any kind, one certifying round, no new
/// cut. Both land on the same objective and survive every single-link
/// failure.
fn check_master_lp_counters(name: &str) {
    let inst = zoo_ls_instance(name);
    let fm = FailureModel::links(1);
    let opts = single_threaded();
    let (cold, pool) = solve_pcf_ls_seeded(&inst, &fm, &opts, None).unwrap();
    let (seeded, repool) = solve_pcf_ls_seeded(&inst, &fm, &opts, Some(&pool)).unwrap();
    for (label, sol) in [("cold", &cold), ("seeded", &seeded)] {
        let lp = sol.lp_stats;
        assert_eq!(lp.phase1_iterations, 0, "{name} {label}: {lp:?}");
        assert_eq!(lp.warm_fallbacks, 0, "{name} {label}: {lp:?}");
        // Slack columns alone hand the singleton peel part of every
        // refactored basis; the rest is the Markowitz bump.
        assert!(
            lp.refactors > 0 && lp.refactor_peeled > 0,
            "{name} {label}: {lp:?}"
        );
        check(&inst, sol, &fm, &format!("{name} {label}"));
    }
    let lp = cold.lp_stats;
    assert_eq!(lp.cold_solves, 1, "{name} cold: {lp:?}");
    assert!(lp.dual_iterations > 0, "{name} cold: {lp:?}");
    assert_eq!(cold.seeded_cuts, 0);

    let lp = seeded.lp_stats;
    assert_eq!(
        (lp.cold_solves, lp.warm_solves, lp.refactors),
        (0, 1, 1),
        "{name} seeded: {lp:?}"
    );
    assert_eq!(
        (lp.primal_iterations, lp.dual_iterations),
        (0, 0),
        "{name} seeded: {lp:?}"
    );
    assert_eq!(seeded.seeded_cuts, pool.len());
    assert_eq!(seeded.rounds, 1);
    // No round of a seeded solve starts from the crash basis.
    assert_eq!(seeded.warm_rounds, seeded.rounds);
    assert!(repool.len() <= pool.len());
    assert!(
        (seeded.objective - cold.objective).abs() <= 1e-9,
        "{name}: seeded {} vs cold {}",
        seeded.objective,
        cold.objective
    );
}

#[test]
fn sprint_master_lp_is_phase1_free_cold_and_seeded() {
    check_master_lp_counters("Sprint");
}

#[test]
fn quest_master_lp_is_phase1_free_cold_and_seeded() {
    check_master_lp_counters("Quest");
}
