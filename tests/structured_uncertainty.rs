//! Acceptance regression for structured uncertainty sets: a plan solved
//! against the structured model (SRLGs, node failures, partial-capacity
//! degradation) validates congestion-free over *every* enumerated structured
//! scenario, while a plan designed only for independent single-link failures
//! demonstrably violates the same scenarios. Both directions are asserted,
//! on Abilene and Sprint — if the structured plan ever picks up a violation
//! or the link-only plan stops violating, the uncertainty set has silently
//! degenerated.

use pcf_core::{
    adversary::worst_case_link, pcf_ls_instance, scale_to_mlu, solve_ffc, solve_pcf_ls,
    solve_pcf_tf, tunnel_instance, validate_all, Degradation, FailureModel, GroupBudget, Instance,
    RobustOptions, RobustSolution,
};
use pcf_topology::{zoo, LinkId, NodeId, SrlgSet, Topology};
use pcf_traffic::gravity;

/// The shared both-directions check: the structured plan must be clean over
/// the full enumerated scenario set, the link-only plan must not be.
fn assert_both_directions(
    inst: &Instance,
    fm: &FailureModel,
    structured: &RobustSolution,
    link_only: &RobustSolution,
    label: &str,
) {
    assert!(
        structured.objective > 0.0,
        "{label}: structured plan admits nothing — the uncertainty set is \
         over-constrained and the zero-violations direction would be vacuous"
    );
    let clean = validate_all(
        inst,
        fm,
        &structured.a,
        &structured.b,
        &structured.served(inst),
        1e-6,
    );
    assert!(
        clean.congestion_free(),
        "{label}: structured plan has {} violations over its own scenario \
         set, first: {:?}",
        clean.violations.len(),
        clean.violations.first().map(|v| &v.kind)
    );
    let naive = validate_all(
        inst,
        fm,
        &link_only.a,
        &link_only.b,
        &link_only.served(inst),
        1e-6,
    );
    assert!(
        !naive.violations.is_empty(),
        "{label}: the link-only plan validates clean over the structured \
         scenarios — the regression no longer separates the models"
    );
}

/// SRLG bursts plus a partial-capacity-degradation polytope, solved with
/// PCF-LS. The synthetic SRLGs bundle 3 links per conduit, so any group
/// failure is a triple-link event an `f = 1` link design never planned for;
/// the degradation box additionally lets every link sag to 70% capacity
/// (one link at a time under the 0.3 total-drop budget).
fn srlg_and_degradation(name: &str, seed: u64) {
    let topo = zoo::build(name);
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, seed), 0.6);
    let groups = SrlgSet::synthetic(&topo, 3, 4, seed).link_groups();
    let fm = FailureModel::srlgs(groups, 1).with_degradation(
        &topo,
        Degradation::uniform(topo.link_count(), 0.7).with_budget(0.3),
    );
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let opts = RobustOptions::default();
    let sol = solve_pcf_ls(&inst, &fm, &opts);
    let link_only = solve_pcf_ls(&inst, &FailureModel::links(1), &opts);
    assert_both_directions(&inst, &fm, &sol, &link_only, name);
}

#[test]
fn abilene_srlg_degradation_plan_is_clean_and_link_only_plan_is_not() {
    // Seed 17 is one whose synthetic conduits never disconnect Abilene —
    // a disconnecting group would zero the concurrent scale and make the
    // clean direction vacuous (the objective assert above guards this).
    srlg_and_degradation("Abilene", 17);
}

#[test]
fn sprint_srlg_degradation_plan_is_clean_and_link_only_plan_is_not() {
    srlg_and_degradation("Sprint", 21);
}

/// Node failures composed with degradation: demands flow between two fixed
/// endpoints, every *other* node may fail whole (a transit event killing all
/// its incident links at once), and surviving links may sag to 85%.
fn transit_node_failures(name: &str, src: u32, dst: u32) {
    let topo = zoo::build(name);
    let tm = {
        let mut m = pcf_traffic::TrafficMatrix::zeros(topo.node_count());
        m.set_demand(NodeId(src), NodeId(dst), 1.0);
        m.set_demand(NodeId(dst), NodeId(src), 1.0);
        m
    };
    let transit_groups: Vec<Vec<LinkId>> = topo
        .nodes()
        .filter(|n| n.index() != src as usize && n.index() != dst as usize)
        .map(|n| topo.incident(n).iter().map(|&(_, l)| l).collect())
        .collect();
    let fm = FailureModel::srlgs(transit_groups, 1).with_degradation(
        &topo,
        Degradation::uniform(topo.link_count(), 0.85).with_budget(0.15),
    );
    let inst = tunnel_instance(&topo, &tm, 4);
    let opts = RobustOptions::default();
    let sol = solve_pcf_tf(&inst, &fm, &opts);
    let link_only = solve_pcf_tf(&inst, &FailureModel::links(1), &opts);
    assert_both_directions(&inst, &fm, &sol, &link_only, name);
}

#[test]
fn abilene_transit_node_failures_separate_structured_from_link_only() {
    transit_node_failures("Abilene", 0, 10);
}

#[test]
fn sprint_transit_node_failures_separate_structured_from_link_only() {
    transit_node_failures("Sprint", 0, 9);
}

/// `C(n, k)` without overflow drama at the sizes used here.
fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: usize = 1;
    for i in 0..k {
        c = c * (n - i) / (i + 1);
    }
    c
}

/// `scenario_count` must match the closed form `C(g, f)` for a single SRLG
/// budget over `g` groups (synthetic groups are disjoint, so enumeration
/// produces exactly that many distinct masks), and multiply across
/// conjunctive budgets as an upper bound on the deduplicated enumeration.
#[test]
fn srlg_scenario_count_matches_closed_form() {
    let topo = zoo::build("Abilene");
    for (count, f) in [(4usize, 1usize), (5, 2), (6, 3)] {
        let groups = SrlgSet::synthetic(&topo, 2, count, 7).link_groups();
        let g = groups.len();
        let fm = FailureModel::srlgs(groups, f);
        let expect = binomial(g, f);
        assert_eq!(fm.scenario_count(&topo), expect, "count for C({g},{f})");
        assert_eq!(
            fm.enumerate_scenarios(&topo).len(),
            expect,
            "enumeration for C({g},{f})"
        );
    }

    // Two conjunctive budgets over disjoint group families: the count is
    // the product, and since every cross combination yields a distinct
    // union mask, enumeration matches it exactly here.
    let a = SrlgSet::synthetic(&topo, 2, 3, 1).link_groups();
    let b: Vec<Vec<LinkId>> = topo.links().take(4).map(|l| vec![l]).collect();
    let disjoint = b
        .iter()
        .all(|s| s.iter().all(|l| a.iter().all(|g| !g.contains(l))));
    let fm = FailureModel::structured(vec![GroupBudget::new(a, 1), GroupBudget::new(b, 1)]);
    let product = binomial(3, 1) * binomial(4, 1);
    assert_eq!(fm.scenario_count(&topo), product);
    if disjoint {
        assert_eq!(fm.enumerate_scenarios(&topo).len(), product);
    } else {
        assert!(fm.enumerate_scenarios(&topo).len() <= product);
    }
}

/// Degradation corners multiply into the structured scenario set: every
/// failure mask pairs with each single-link sag corner plus the undegraded
/// corner.
#[test]
fn structured_scenarios_compose_masks_with_degradation_corners() {
    let topo: Topology = zoo::build("Abilene");
    let groups = SrlgSet::synthetic(&topo, 3, 4, 11).link_groups();
    let g = groups.len();
    let fm = FailureModel::srlgs(groups, 1).with_degradation(
        &topo,
        Degradation::uniform(topo.link_count(), 0.7).with_budget(0.3),
    );
    let scenarios = fm.enumerate_scenarios(&topo);
    // The 0.3 budget binds (total room is 0.3 · link_count), so the corner
    // list is exactly one per link; each mask also appears undegraded.
    assert_eq!(scenarios.len(), g * (topo.link_count() + 1));
    assert_eq!(fm.scenario_count(&topo), scenarios.len());
    assert!(scenarios.iter().any(|s| s.undegraded()));
    assert!(scenarios.iter().any(|s| !s.undegraded()));
}

/// A degradation-only model has one failure mask but many scenarios: a plan
/// that fills links to capacity under `links(0)` must fail the 50% sag
/// corners, and `validate_all` has to see them.
#[test]
fn validate_all_sees_the_degradation_polytope() {
    let topo = zoo::build("Abilene");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 17), 0.6);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let plan = solve_pcf_ls(&inst, &FailureModel::links(0), &RobustOptions::default());
    let fm = FailureModel::structured(Vec::new())
        .with_degradation(&topo, Degradation::uniform(topo.link_count(), 0.5));
    let report = validate_all(&inst, &fm, &plan.a, &plan.b, &plan.served(&inst), 1e-6);
    assert_eq!(report.scenarios, topo.link_count() + 2);
    assert!(!report.congestion_free(), "sag corners went unchecked");
}

/// FFC under group budgets (Prop. 1: FFC never beats PCF-TF on the same
/// set), B4 0↔5 over 6 tunnels. A group can take down more of a pair's
/// tunnels than any single link does, so the tunnel-failure bound has to be
/// read off the groups, not `f · p_st`. Two group families: any one transit
/// node (every tunnel crosses a node on two links, which the §3.5
/// relaxation counts twice — FFC's bound follows it and admits nothing),
/// and four 2-link conduits (FFC stays positive).
#[test]
fn ffc_under_group_budgets_is_dominated_by_pcf_tf_and_validates() {
    let topo = zoo::build("B4");
    let mut tm = pcf_traffic::TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(NodeId(0), NodeId(5), 1.0);
    tm.set_demand(NodeId(5), NodeId(0), 1.0);
    let inst = tunnel_instance(&topo, &tm, 6);
    let opts = RobustOptions::default();
    let transit: Vec<Vec<LinkId>> = topo
        .nodes()
        .filter(|n| n.index() != 0 && n.index() != 5)
        .map(|n| topo.incident(n).iter().map(|&(_, l)| l).collect())
        .collect();
    let conduits = SrlgSet::synthetic(&topo, 2, 4, 3).link_groups();
    for (groups, ffc_admits) in [(transit, false), (conduits, true)] {
        let fm = FailureModel::srlgs(groups, 1);
        let ffc = solve_ffc(&inst, &fm, &opts);
        let tf = solve_pcf_tf(&inst, &fm, &opts);
        assert!(
            ffc.objective <= tf.objective + 1e-6,
            "FFC {} beats PCF-TF {}",
            ffc.objective,
            tf.objective
        );
        assert_eq!(ffc.objective > 1e-6, ffc_admits, "FFC {}", ffc.objective);
        let report = validate_all(&inst, &fm, &ffc.a, &ffc.b, &ffc.served(&inst), 1e-6);
        assert!(report.congestion_free(), "{:?}", report.violations.first());
    }
}

/// The constructors are one form: `links(f)` and `node_failures(t, f)` are
/// the group budgets they describe, so spelling the same groups out through
/// `srlgs` changes nothing — scenarios, count, samples, the adversary's
/// per-pair availability and the PCF-LS plan, bit for bit.
#[test]
fn constructors_are_the_one_form() {
    for name in ["Abilene", "Sprint"] {
        let topo = zoo::build(name);
        let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 3), 0.6);
        let inst = pcf_ls_instance(&topo, &tm, 3);
        let opts = RobustOptions::default();
        let singletons: Vec<Vec<LinkId>> = topo.links().map(|l| vec![l]).collect();
        let incident: Vec<Vec<LinkId>> = topo
            .nodes()
            .map(|n| topo.incident(n).iter().map(|&(_, l)| l).collect())
            .collect();
        for f in [1, 2] {
            for (built, spelled) in [
                (
                    FailureModel::links(f),
                    FailureModel::srlgs(singletons.clone(), f),
                ),
                (
                    FailureModel::node_failures(&topo, f),
                    FailureModel::srlgs(incident.clone(), f),
                ),
            ] {
                assert_eq!(
                    built.enumerate_scenarios(&topo),
                    spelled.enumerate_scenarios(&topo)
                );
                assert_eq!(built.scenario_count(&topo), spelled.scenario_count(&topo));
                assert_eq!(
                    built.sample_scenarios(&topo, 10, 9),
                    spelled.sample_scenarios(&topo, 10, 9)
                );
                let x = solve_pcf_ls(&inst, &built, &opts);
                let y = solve_pcf_ls(&inst, &spelled, &opts);
                assert_eq!(x.objective.to_bits(), y.objective.to_bits(), "{name} f={f}");
                assert_eq!((&x.a, &x.b), (&y.a, &y.b), "{name} f={f}");
                for p in inst.pair_ids() {
                    let wx = worst_case_link(&inst, p, &built, &x.a, &x.b).unwrap();
                    let wy = worst_case_link(&inst, p, &spelled, &x.a, &x.b).unwrap();
                    assert_eq!(wx.available.to_bits(), wy.available.to_bits());
                }
            }
        }
    }
}
