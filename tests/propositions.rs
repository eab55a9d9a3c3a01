//! The paper's formal results (Propositions 1–7, Corollary 3.1), checked on
//! concrete instances.
//!
//! These are necessarily finite checks of universally quantified claims —
//! each proposition is exercised on the paper's own examples plus zoo
//! topologies with gravity traffic, across several seeds.

use pcf_core::figures::{fig1_instance, fig4_ls_instance, fig4_topology};
use pcf_core::instance::InstanceBuilder;
use pcf_core::realize::{realize_routing, reservation_matrix, topological_order, FailureState};
use pcf_core::{
    optimal_demand_scale, pcf_ls_instance, solve_ffc, solve_pcf_ls, solve_pcf_tf, solve_r3,
    tunnel_instance, FailureModel, Objective, RobustOptions, ScenarioCoverage,
};
use pcf_topology::zoo;
use pcf_traffic::gravity;

fn opts() -> RobustOptions {
    RobustOptions::default()
}

/// Proposition 1: PCF-TF performs at least as well as FFC for any metric
/// (same instance, same tunnel set).
#[test]
fn prop1_pcf_tf_dominates_ffc() {
    for (name, seed) in [("Sprint", 1u64), ("B4", 2), ("IBM", 3)] {
        let topo = zoo::build(name);
        let tm = gravity(&topo, seed);
        for k in [2, 3] {
            let inst = tunnel_instance(&topo, &tm, k);
            let fm = FailureModel::links(1);
            let ffc = solve_ffc(&inst, &fm, &opts());
            let tf = solve_pcf_tf(&inst, &fm, &opts());
            assert!(
                tf.objective >= ffc.objective - 1e-6 * (1.0 + ffc.objective),
                "{name} k={k}: PCF-TF {} < FFC {}",
                tf.objective,
                ffc.objective
            );
        }
    }
}

/// Proposition 1 also holds for the throughput metric.
#[test]
fn prop1_holds_for_throughput_metric() {
    let topo = zoo::build("B4");
    let tm = gravity(&topo, 7);
    let inst = tunnel_instance(&topo, &tm, 3);
    let fm = FailureModel::links(1);
    let o = RobustOptions {
        objective: Objective::Throughput,
        ..RobustOptions::default()
    };
    let ffc = solve_ffc(&inst, &fm, &o);
    let tf = solve_pcf_tf(&inst, &fm, &o);
    assert!(tf.objective >= ffc.objective - 1e-6 * (1.0 + ffc.objective));
}

/// Proposition 2: PCF-TF's performance cannot decrease as tunnels are
/// added.
#[test]
fn prop2_pcf_tf_monotone_in_tunnels() {
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 4);
    let fm = FailureModel::links(1);
    let mut prev = 0.0f64;
    for k in [2, 3, 4] {
        let inst = tunnel_instance(&topo, &tm, k);
        let sol = solve_pcf_tf(&inst, &fm, &opts());
        assert!(
            sol.objective >= prev - 1e-5 * (1.0 + prev),
            "k={k}: {} < previous {prev}",
            sol.objective
        );
        prev = sol.objective;
    }
}

/// The contrast to Proposition 2: FFC *can* degrade with more tunnels
/// (Fig. 1/Fig. 2: FFC-4 is worse than FFC-3).
#[test]
fn ffc_can_degrade_with_more_tunnels() {
    let fm = FailureModel::links(1);
    let f3 = solve_ffc(&fig1_instance(3), &fm, &opts());
    let f4 = solve_ffc(&fig1_instance(4), &fm, &opts());
    assert!(
        f4.objective < f3.objective - 0.25,
        "FFC-4 {} should be well below FFC-3 {}",
        f4.objective,
        f3.objective
    );
}

/// Proposition 3: the gap between tunnel-based PCF-TF and optimal grows
/// without bound on the Fig. 4 family (here: checked to widen with n).
#[test]
fn prop3_pcf_tf_gap_grows_on_fig4_family() {
    let mut gaps = Vec::new();
    for n in [2usize, 3] {
        let p = n * n;
        let m = 2;
        let (topo, nodes) = fig4_topology(p, n, m);
        // All p * n tunnels.
        let mut b =
            InstanceBuilder::with_demands(&topo, vec![(nodes[0], nodes[m], 1.0)]).no_auto_tunnels();
        for l0 in topo.links().filter(|&l| topo.link(l).touches(nodes[0])) {
            for l1 in topo
                .links()
                .filter(|&l| topo.link(l).touches(nodes[1]) && topo.link(l).touches(nodes[2]))
            {
                b = b.add_tunnel(pcf_paths::Path {
                    nodes: nodes.clone(),
                    links: vec![l0, l1],
                });
            }
        }
        let inst = b.build();
        // Design for n-1 failures.
        let fm_n = FailureModel::links(n - 1);
        let tf = solve_pcf_tf(&inst, &fm_n, &opts());
        let optimal = 1.0 - (n as f64 - 1.0) / p as f64;
        // Paper: PCF-TF <= 1/n; optimal = 1 - (n-1)/p.
        assert!(
            tf.objective <= 1.0 / n as f64 + 1e-5,
            "n={n}: PCF-TF {} above 1/n",
            tf.objective
        );
        gaps.push(optimal - tf.objective);
    }
    assert!(gaps[1] > gaps[0], "gap should widen with n: {gaps:?}");
}

/// Corollary 3.1: with the logical sequence, PCF-LS attains the optimum on
/// Fig. 4 while PCF-TF is stuck at 1/n.
#[test]
fn corollary31_single_ls_recovers_optimum() {
    for (p, n, m) in [(4usize, 2usize, 3usize), (9, 3, 2)] {
        let inst = fig4_ls_instance(p, n, m);
        let fm = FailureModel::links(n - 1);
        let sol = solve_pcf_ls(&inst, &fm, &opts());
        let optimal = 1.0 - (n as f64 - 1.0) / p as f64;
        assert!(
            (sol.objective - optimal).abs() < 1e-5,
            "p={p},n={n},m={m}: LS {} vs optimal {optimal}",
            sol.objective
        );
    }
}

/// Proposition 4 (spirit): the logical-flow-derived PCF-CLS dominates R3 on
/// instances where both are defined.
#[test]
fn prop4_cls_dominates_r3() {
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 3);
    let fm = FailureModel::links(1);
    let r3 = solve_r3(&topo, &tm, 1);
    let cls = pcf_core::Scheme::PcfCls
        .plan(&topo, tm, 3, &fm, &opts(), None)
        .unwrap();
    assert!(
        cls.sol.objective >= r3.objective - 1e-6,
        "CLS {} < R3 {}",
        cls.sol.objective,
        r3.objective
    );
}

/// Propositions 5–6: the reservation matrix is invertible, `U* ∈ [0,1]`,
/// and the realized routing is congestion-free across every targeted
/// scenario.
#[test]
fn prop5_6_realization_is_feasible_everywhere() {
    let topo = zoo::build("B4");
    let tm = gravity(&topo, 11);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let fm = FailureModel::links(1);
    let sol = solve_pcf_ls(&inst, &fm, &opts());
    assert!(sol.objective > 0.0);
    let served = sol.served(&inst);
    for sc in fm.enumerate_scenarios(inst.topo()) {
        let state = FailureState::new(&inst, &sc.dead).unwrap();
        let routing = realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6)
            .expect("Prop 5/6: the linear system must be solvable with U in [0,1]");
        for u in &routing.u {
            assert!((-1e-9..=1.0 + 1e-9).contains(u));
        }
        assert!(
            routing.max_utilization(&inst) <= 1.0 + 1e-6,
            "congestion under {:?}",
            sc.dead
        );
    }
}

/// Proposition 7: for topologically sorted LSs, local proportional routing
/// (the realization's walk, no cyclic block) realizes the same split as the
/// linear system `M × U = D` solved densely.
#[test]
fn prop7_proportional_equals_linear_system() {
    let topo = zoo::build("B4");
    let tm = gravity(&topo, 11);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let fm = FailureModel::links(1);
    let sol = solve_pcf_ls(&inst, &fm, &opts());
    assert!(
        topological_order(&inst, &sol.b, &vec![true; inst.num_lss()]).is_some(),
        "shortest-path LSs must be topologically sorted"
    );
    let served = sol.served(&inst);
    for sc in fm.enumerate_scenarios(inst.topo()).into_iter().step_by(3) {
        let state = FailureState::new(&inst, &sc.dead).unwrap();
        let prop = realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6).unwrap();
        assert_eq!(prop.bump, 0, "a sorted state is walked");
        let m = reservation_matrix(&inst, &state, &sol.a, &sol.b, &prop.pairs);
        let d: Vec<f64> = prop.pairs.iter().map(|p| served[p.0]).collect();
        let lin = pcf_lp::solve_dense(&m, &[d]).unwrap().remove(0);
        for (i, (ul, up)) in lin.iter().zip(&prop.u).enumerate() {
            assert!(
                (ul - up).abs() < 1e-7,
                "pair {:?}: linear {ul} vs proportional {up}",
                prop.pairs[i]
            );
        }
    }
}

/// Sanity anchor for all of the above: no congestion-free scheme can exceed
/// the intrinsic network capability.
#[test]
fn schemes_never_exceed_optimal() {
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 5);
    let fm = FailureModel::links(1);
    let (opt, _, exact) = optimal_demand_scale(&topo, &tm, &fm, ScenarioCoverage::Exhaustive);
    assert!(exact);
    let ffc = solve_ffc(&tunnel_instance(&topo, &tm, 2), &fm, &opts());
    let tf = solve_pcf_tf(&tunnel_instance(&topo, &tm, 3), &fm, &opts());
    let ls = solve_pcf_ls(&pcf_ls_instance(&topo, &tm, 3), &fm, &opts());
    for (name, v) in [
        ("FFC", ffc.objective),
        ("PCF-TF", tf.objective),
        ("PCF-LS", ls.objective),
    ] {
        assert!(
            v <= opt + 1e-5 * (1.0 + opt),
            "{name} {v} exceeds optimal {opt}"
        );
    }
}
