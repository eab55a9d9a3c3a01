//! Full reproduction of the paper's worked numbers: Fig. 2 and Table 1.
//!
//! Every value the paper states for its examples is asserted here,
//! including the optimal and R3 columns.

use pcf_core::figures::{
    fig1_instance, fig1_topology, fig3_instance, fig3_topology, fig5_instance, fig5_topology,
    Fig5Variant,
};
use pcf_core::{
    max_concurrent_flow, optimal_demand_scale, solve_ffc, solve_pcf_ls, solve_pcf_tf, solve_r3,
    FailureModel, RobustOptions, ScenarioCoverage,
};
use pcf_traffic::TrafficMatrix;

fn opts() -> RobustOptions {
    RobustOptions::default()
}

fn assert_value(name: &str, got: f64, want: f64) {
    assert!(
        (got - want).abs() < 1e-5,
        "{name}: got {got}, paper says {want}"
    );
}

/// Fig. 2, f = 1 column: optimal 2, FFC-3 1.5, FFC-4 1.
#[test]
fn fig2_single_failure_column() {
    let (topo, ids) = fig1_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    let (opt, _, exact) = optimal_demand_scale(
        &topo,
        &tm,
        &FailureModel::links(1),
        ScenarioCoverage::Exhaustive,
    );
    assert!(exact);
    assert_value("fig2 optimal f=1", opt, 2.0);
    let f3 = solve_ffc(&fig1_instance(3), &FailureModel::links(1), &opts());
    assert_value("fig2 FFC-3 f=1", f3.objective, 1.5);
    let f4 = solve_ffc(&fig1_instance(4), &FailureModel::links(1), &opts());
    assert_value("fig2 FFC-4 f=1", f4.objective, 1.0);
}

/// Fig. 2, f = 2 column (paper text: "the throughput with the optimal,
/// FFC-3, and FFC-4 are 1, 0.5, and 0 respectively").
#[test]
fn fig2_double_failure_column() {
    let (topo, ids) = fig1_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    let (opt, _, _) = optimal_demand_scale(
        &topo,
        &tm,
        &FailureModel::links(2),
        ScenarioCoverage::Exhaustive,
    );
    assert_value("fig2 optimal f=2", opt, 1.0);
    let f3 = solve_ffc(&fig1_instance(3), &FailureModel::links(2), &opts());
    assert_value("fig2 FFC-3 f=2", f3.objective, 0.5);
    let f4 = solve_ffc(&fig1_instance(4), &FailureModel::links(2), &opts());
    assert_value("fig2 FFC-4 f=2", f4.objective, 0.0);
}

/// Fig. 3 discussion: the network can carry 2/3 under any single link
/// failure when responding optimally, but tunnel reservations cap FFC at
/// 1/2.
#[test]
fn fig3_optimal_vs_ffc() {
    let (topo, ids, _, _) = fig3_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    let (opt, _, _) = optimal_demand_scale(
        &topo,
        &tm,
        &FailureModel::links(1),
        ScenarioCoverage::Exhaustive,
    );
    assert_value("fig3 optimal", opt, 2.0 / 3.0);
    let ffc = solve_ffc(&fig3_instance(), &FailureModel::links(1), &opts());
    assert_value("fig3 FFC", ffc.objective, 0.5);
}

/// Table 1, complete: throughput of every scheme on Fig. 5 under two
/// simultaneous link failures.
#[test]
fn table1_complete() {
    let fm = FailureModel::links(2);
    let (topo, ids) = fig5_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);

    let (opt, _, _) = optimal_demand_scale(&topo, &tm, &fm, ScenarioCoverage::Exhaustive);
    assert_value("table1 Optimal", opt, 1.0);

    let ffc = solve_ffc(&fig5_instance(Fig5Variant::TunnelsOnly), &fm, &opts());
    assert_value("table1 FFC", ffc.objective, 0.0);

    let tf = solve_pcf_tf(&fig5_instance(Fig5Variant::TunnelsOnly), &fm, &opts());
    assert_value("table1 PCF-TF", tf.objective, 2.0 / 3.0);

    let ls = solve_pcf_ls(&fig5_instance(Fig5Variant::UnconditionalLs), &fm, &opts());
    assert_value("table1 PCF-LS", ls.objective, 4.0 / 5.0);

    let cls = solve_pcf_ls(&fig5_instance(Fig5Variant::ConditionalLs), &fm, &opts());
    assert_value("table1 PCF-CLS", cls.objective, 1.0);

    let r3 = solve_r3(&topo, &tm, 2);
    assert_value("table1 R3", r3.objective, 0.0);
}

/// The Fig. 5 no-failure capacity sanity check: s can push 2 units total
/// (4 half-capacity links out of s), so the no-failure optimum is 2.
#[test]
fn fig5_no_failure_capacity() {
    let (topo, ids) = fig5_topology();
    let mut tm = TrafficMatrix::zeros(topo.node_count());
    tm.set_demand(ids.s, ids.t, 1.0);
    let z = max_concurrent_flow(&topo, &tm, None).value();
    assert_value("fig5 no-failure optimum", z, 2.0);
}
