//! The optimal baseline: the network's *intrinsic capability*.
//!
//! The paper compares every congestion-free scheme against "the performance
//! achieved by the optimal network response which involves computing the
//! optimal multi-commodity flow for each failure scenario" (§5). This module
//! provides that baseline:
//!
//! * [`max_concurrent_flow`] — the largest uniform demand scale `z` routable
//!   on the surviving topology (destination-aggregated MCF LP);
//! * [`max_throughput`] — the largest admitted bandwidth `Σ min(d, bw)`;
//! * [`optimal_demand_scale`] / [`optimal_throughput`] — minima over all (or
//!   a sampled subset of) worst-cardinality failure scenarios.
//!
//! The commodity aggregation by destination keeps the LP at
//! `|V| · |arcs|` variables instead of `|V|^2 · |arcs|`, the standard trick
//! for concurrent-flow computations.

use crate::failure::FailureModel;
use pcf_lp::{is_zero, LpProblem, Sense, Status, VarId};
use pcf_topology::{NodeId, Topology};
use pcf_traffic::TrafficMatrix;

/// Outcome of a per-scenario optimal computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum McfResult {
    /// The optimum value.
    Value(f64),
    /// Some demand's endpoints are disconnected in this scenario (demand
    /// scale is 0 by convention).
    Disconnected,
}

impl McfResult {
    /// The numeric value (0 when disconnected).
    pub fn value(self) -> f64 {
        match self {
            McfResult::Value(v) => v,
            McfResult::Disconnected => 0.0,
        }
    }
}

/// Destinations with any positive demand.
fn active_destinations(topo: &Topology, tm: &TrafficMatrix) -> Vec<NodeId> {
    topo.nodes()
        .filter(|&t| topo.nodes().any(|s| s != t && tm.demand(s, t) > 0.0))
        .collect()
}

/// Builds the destination-aggregated MCF skeleton shared by both objectives.
///
/// Returns `(lp, flow_vars)` where `flow_vars[k][arc]` is the flow toward
/// destination `dests[k]` on each directed arc; callers add the balance rows
/// because the right-hand side depends on the objective.
fn flow_skeleton(topo: &Topology, dests: &[NodeId], dead: &[bool]) -> (LpProblem, Vec<Vec<VarId>>) {
    let mut lp = LpProblem::new(Sense::Maximize);
    let mut flows: Vec<Vec<VarId>> = Vec::with_capacity(dests.len());
    for _ in dests {
        flows.push(
            topo.arcs()
                .map(|arc| {
                    let cap = if dead[arc.link().index()] {
                        0.0
                    } else {
                        topo.capacity(arc.link())
                    };
                    lp.add_var(0.0, cap, 0.0)
                })
                .collect(),
        );
    }
    // Arc capacity over all destinations.
    for arc in topo.arcs() {
        if dead[arc.link().index()] {
            continue; // per-variable bounds already force zero
        }
        let row: Vec<(VarId, f64)> = flows.iter().map(|f| (f[arc.index()], 1.0)).collect();
        lp.add_le(row, topo.capacity(arc.link()));
    }
    (lp, flows)
}

/// Maximum concurrent flow: the largest `z` such that `z * d_st` is
/// simultaneously routable for every pair on the surviving links.
///
/// `dead` is a link mask (`None` = no failures). Returns
/// [`McfResult::Disconnected`] if a demanded pair has no surviving path, and
/// `Value(inf)` when the matrix has no demand.
pub fn max_concurrent_flow(
    topo: &Topology,
    tm: &TrafficMatrix,
    dead: Option<&[bool]>,
) -> McfResult {
    let no_fail = vec![false; topo.link_count()];
    let dead = dead.unwrap_or(&no_fail);
    let dests = active_destinations(topo, tm);
    if dests.is_empty() {
        return McfResult::Value(f64::INFINITY);
    }
    // Quick reachability screen (also catches z unbounded... demands exist,
    // so z is bounded by capacity whenever connected).
    for &t in &dests {
        for s in topo.nodes() {
            if s != t
                && tm.demand(s, t) > 0.0
                && pcf_paths::shortest_path_weighted(topo, s, t, |_| 1.0, Some(dead)).is_none()
            {
                return McfResult::Disconnected;
            }
        }
    }
    let (mut lp, flows) = flow_skeleton(topo, &dests, dead);
    let z = lp.add_nonneg(1.0);
    for (k, &t) in dests.iter().enumerate() {
        for v in topo.nodes() {
            if v == t {
                continue;
            }
            // out - in = z * d(v, t)
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for arc in topo.out_arcs(v) {
                row.push((flows[k][arc.index()], 1.0));
            }
            for arc in topo.in_arcs(v) {
                row.push((flows[k][arc.index()], -1.0));
            }
            let d = tm.demand(v, t);
            if d > 0.0 {
                row.push((z, -d));
            }
            lp.add_eq(row, 0.0);
        }
    }
    #[expect(clippy::expect_used, reason = "baseline evaluator; MCF always solves")]
    let sol = lp.solve().expect("MCF LP is structurally valid");
    assert_eq!(sol.status, Status::Optimal, "MCF must be solvable");
    McfResult::Value(sol.objective)
}

/// Maximum throughput: `max Σ bw_st` with `bw_st <= d_st`, routable on the
/// surviving links. Disconnected pairs simply contribute zero.
pub fn max_throughput(topo: &Topology, tm: &TrafficMatrix, dead: Option<&[bool]>) -> f64 {
    let no_fail = vec![false; topo.link_count()];
    let dead = dead.unwrap_or(&no_fail);
    let dests = active_destinations(topo, tm);
    if dests.is_empty() {
        return 0.0;
    }
    let (mut lp, flows) = flow_skeleton(topo, &dests, dead);
    // bw vars per (source, dest) with demand.
    for (k, &t) in dests.iter().enumerate() {
        for v in topo.nodes() {
            if v == t {
                continue;
            }
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for arc in topo.out_arcs(v) {
                row.push((flows[k][arc.index()], 1.0));
            }
            for arc in topo.in_arcs(v) {
                row.push((flows[k][arc.index()], -1.0));
            }
            let d = tm.demand(v, t);
            if d > 0.0 {
                let bw = lp.add_var(0.0, d, 1.0);
                row.push((bw, -1.0));
            }
            lp.add_eq(row, 0.0);
        }
    }
    #[expect(clippy::expect_used, reason = "baseline evaluator; the LP is feasible")]
    let sol = lp.solve().expect("throughput LP is structurally valid");
    assert_eq!(sol.status, Status::Optimal);
    sol.objective
}

/// How to cover the scenario space of a failure model.
#[derive(Debug, Clone, Copy)]
pub enum ScenarioCoverage {
    /// Enumerate every worst-cardinality scenario (exact).
    Exhaustive,
    /// Deterministically sample at most this many scenarios. The resulting
    /// minimum is an *upper bound* of the true worst case.
    Sampled(usize),
}

/// The failure masks `coverage` selects from `fm`, and whether they are the
/// whole set. The MCF baselines model failures only, so degraded corners of
/// a degradation polytope are left out.
fn covered_masks(
    topo: &Topology,
    fm: &FailureModel,
    coverage: ScenarioCoverage,
) -> (Vec<Vec<bool>>, bool) {
    let (scenarios, exact) = match coverage {
        ScenarioCoverage::Exhaustive => (fm.enumerate_scenarios(topo), true),
        ScenarioCoverage::Sampled(k) => {
            let exact = fm.scenario_count(topo) <= k;
            (fm.sample_scenarios(topo, k, 0x5eed), exact)
        }
    };
    let undegraded = scenarios.into_iter().filter(|s| s.undegraded());
    (undegraded.map(|s| s.dead).collect(), exact)
}

/// Optimal demand scale under the failure model: the minimum over scenarios
/// of [`max_concurrent_flow`]. Returns `(value, scenarios_evaluated, exact)`.
pub fn optimal_demand_scale(
    topo: &Topology,
    tm: &TrafficMatrix,
    fm: &FailureModel,
    coverage: ScenarioCoverage,
) -> (f64, usize, bool) {
    let (masks, exact) = covered_masks(topo, fm, coverage);
    let mut worst = f64::INFINITY;
    for mask in &masks {
        let v = max_concurrent_flow(topo, tm, Some(mask)).value();
        if v < worst {
            worst = v;
        }
        if is_zero(worst) {
            break;
        }
    }
    (worst, masks.len(), exact)
}

/// Optimal worst-case throughput under the failure model. Returns
/// `(value, scenarios_evaluated, exact)`.
pub fn optimal_throughput(
    topo: &Topology,
    tm: &TrafficMatrix,
    fm: &FailureModel,
    coverage: ScenarioCoverage,
) -> (f64, usize, bool) {
    let (masks, exact) = covered_masks(topo, fm, coverage);
    let mut worst = f64::INFINITY;
    for mask in &masks {
        let v = max_throughput(topo, tm, Some(mask));
        if v < worst {
            worst = v;
        }
    }
    (worst, masks.len(), exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;
    use pcf_traffic::gravity;

    fn diamond() -> (Topology, TrafficMatrix) {
        let mut t = Topology::new("diamond");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("t");
        t.add_link(s, a, 1.0);
        t.add_link(a, d, 1.0);
        t.add_link(s, b, 1.0);
        t.add_link(b, d, 1.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(s, d, 1.0);
        (t, tm)
    }

    #[test]
    fn concurrent_flow_no_failure() {
        let (t, tm) = diamond();
        let z = max_concurrent_flow(&t, &tm, None).value();
        assert!((z - 2.0).abs() < 1e-6, "got {z}");
    }

    #[test]
    fn concurrent_flow_with_failure() {
        let (t, tm) = diamond();
        let mut dead = vec![false; 4];
        dead[0] = true;
        let z = max_concurrent_flow(&t, &tm, Some(&dead)).value();
        assert!((z - 1.0).abs() < 1e-6, "got {z}");
    }

    #[test]
    fn disconnection_detected() {
        let (t, tm) = diamond();
        let dead = vec![true, false, true, false];
        assert_eq!(
            max_concurrent_flow(&t, &tm, Some(&dead)),
            McfResult::Disconnected
        );
    }

    #[test]
    fn optimal_demand_scale_single_failure() {
        let (t, tm) = diamond();
        let (v, n, exact) = optimal_demand_scale(
            &t,
            &tm,
            &FailureModel::links(1),
            ScenarioCoverage::Exhaustive,
        );
        assert!(exact);
        assert_eq!(n, 4);
        assert!((v - 1.0).abs() < 1e-6, "got {v}");
    }

    #[test]
    fn throughput_caps_at_demand() {
        let (t, mut tm) = diamond();
        tm.set_demand(NodeId(0), NodeId(3), 0.5);
        let thr = max_throughput(&t, &tm, None);
        assert!((thr - 0.5).abs() < 1e-6, "got {thr}");
    }

    #[test]
    fn throughput_caps_at_capacity() {
        let (t, mut tm) = diamond();
        tm.set_demand(NodeId(0), NodeId(3), 10.0);
        let thr = max_throughput(&t, &tm, None);
        assert!((thr - 2.0).abs() < 1e-5, "got {thr}");
    }

    #[test]
    fn multi_pair_flow_shares_capacity() {
        // Two demands crossing a shared middle link.
        let mut t = Topology::new("bowtie");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        t.add_link(a, b, 1.0);
        t.add_link(b, c, 1.0);
        t.add_link(c, d, 1.0);
        let mut tm = TrafficMatrix::zeros(4);
        tm.set_demand(a, c, 1.0);
        tm.set_demand(b, d, 1.0);
        // Both cross b-c (capacity 1): z = 0.5.
        let z = max_concurrent_flow(&t, &tm, None).value();
        assert!((z - 0.5).abs() < 1e-6, "got {z}");
    }

    #[test]
    fn zoo_sprint_full_gravity_runs() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 1);
        let z = max_concurrent_flow(&t, &tm, None).value();
        assert!(z.is_finite() && z > 0.0);
        // Any single failure can only reduce the scale.
        let (worst, _, exact) = optimal_demand_scale(
            &t,
            &tm,
            &FailureModel::links(1),
            ScenarioCoverage::Exhaustive,
        );
        assert!(exact);
        assert!(worst <= z + 1e-9);
        assert!(worst > 0.0, "2-edge-connected topology stays connected");
    }
}

#[cfg(test)]
mod coverage_tests {
    use super::*;
    use pcf_topology::zoo;
    use pcf_traffic::gravity;

    #[test]
    fn sampled_coverage_is_an_upper_bound_of_exhaustive() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 4);
        let fm = FailureModel::links(2); // C(17,2) = 136 scenarios
        let (full, n_full, exact) =
            optimal_demand_scale(&t, &tm, &fm, ScenarioCoverage::Exhaustive);
        assert!(exact);
        assert_eq!(n_full, 136);
        let (sampled, n_s, s_exact) =
            optimal_demand_scale(&t, &tm, &fm, ScenarioCoverage::Sampled(20));
        assert!(!s_exact);
        assert_eq!(n_s, 20);
        assert!(sampled >= full - 1e-9, "sample {sampled} < full {full}");
    }

    #[test]
    fn optimal_throughput_under_failures() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 4);
        let no_fail = max_throughput(&t, &tm, None);
        let (worst, _, exact) = optimal_throughput(
            &t,
            &tm,
            &FailureModel::links(1),
            ScenarioCoverage::Exhaustive,
        );
        assert!(exact);
        assert!(worst <= no_fail + 1e-9);
        assert!(worst > 0.0);
    }

    #[test]
    fn node_failure_scenarios_for_optimal() {
        // Node failure of a transit node: the optimal re-routes around it.
        let t = zoo::build("Sprint");
        let mut tm = pcf_traffic::TrafficMatrix::zeros(t.node_count());
        tm.set_demand(pcf_topology::NodeId(0), pcf_topology::NodeId(5), 1.0);
        let groups: Vec<Vec<pcf_topology::LinkId>> = t
            .nodes()
            .filter(|n| n.index() != 0 && n.index() != 5)
            .map(|n| t.incident(n).iter().map(|&(_, l)| l).collect())
            .collect();
        let fm = FailureModel::srlgs(groups, 1);
        let (v, n, exact) = optimal_demand_scale(&t, &tm, &fm, ScenarioCoverage::Exhaustive);
        assert!(exact);
        assert_eq!(n, 8);
        assert!(v > 0.0, "a single transit-node failure cannot cut 0-5");
    }
}
