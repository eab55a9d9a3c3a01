//! Property-based tests of the core congestion-freedom invariants.
//!
//! Strategy: generate random 2-edge-connected topologies (ring + random
//! chords), random demand subsets, and random failure budgets; solve each
//! scheme; then *enumerate every concrete failure scenario* and check that
//! the realized routing never overloads a link and always delivers the
//! admitted demand. This is the system-level contract of the paper.

use pcf_rng::{forall, Config, Pcg32};

use pcf_core::realize::{realize_routing, FailureState};
use pcf_core::validate::validate_all;
use pcf_core::{
    pcf_ls_instance, solve_ffc, solve_pcf_ls, solve_pcf_tf, tunnel_instance, FailureModel,
    RobustOptions,
};
use pcf_topology::{NodeId, Topology};
use pcf_traffic::TrafficMatrix;

/// Builds a ring + chords topology (always 2-edge-connected).
fn ring_with_chords(n: usize, chords: &[(usize, usize)], caps: &[f64]) -> Topology {
    let mut t = Topology::new("random");
    let nodes: Vec<NodeId> = (0..n).map(|i| t.add_node(format!("n{i}"))).collect();
    let mut ci = 0usize;
    let cap = |ci: &mut usize| {
        let c = caps[*ci % caps.len()];
        *ci += 1;
        c
    };
    for i in 0..n {
        t.add_link(nodes[i], nodes[(i + 1) % n], cap(&mut ci));
    }
    for &(a, b) in chords {
        let (a, b) = (a % n, b % n);
        if a != b {
            // parallel links are fine; keep them for generality
            t.add_link(nodes[a], nodes[b], cap(&mut ci));
        }
    }
    t
}

/// A random system-level test case: topology recipe plus demand subset.
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    chords: Vec<(usize, usize)>,
    caps: Vec<f64>,
    demands: Vec<(usize, usize, f64)>,
    f: usize,
}

impl Case {
    fn topology(&self) -> Topology {
        ring_with_chords(self.n, &self.chords, &self.caps)
    }
}

fn gen_case(rng: &mut Pcg32) -> Case {
    let n = rng.range_usize(5, 8);
    let nchords = rng.range_usize_inclusive(1, 3);
    let chords: Vec<(usize, usize)> = (0..nchords)
        .map(|_| (rng.range_usize(0, n), rng.range_usize(0, n)))
        .collect();
    let tiers = [1.0, 2.0, 4.0];
    let caps: Vec<f64> = (0..4).map(|_| *rng.pick(&tiers)).collect();
    let ndemands = rng.range_usize_inclusive(2, 4);
    let demands: Vec<(usize, usize, f64)> = (0..ndemands)
        .map(|_| {
            (
                rng.range_usize(0, 8),
                rng.range_usize(0, 8),
                rng.range_f64(0.2, 1.5),
            )
        })
        .collect();
    let f = rng.range_usize_inclusive(1, 2);
    Case {
        n,
        chords,
        caps,
        demands,
        f,
    }
}

/// Shrink by dropping demands, then chords — smaller instances make
/// counterexamples much easier to debug.
fn shrink_case(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    if case.demands.len() > 1 {
        for i in 0..case.demands.len() {
            let mut c = case.clone();
            c.demands.remove(i);
            out.push(c);
        }
    }
    if case.chords.len() > 1 {
        for i in 0..case.chords.len() {
            let mut c = case.clone();
            c.chords.remove(i);
            out.push(c);
        }
    }
    out
}

fn tm_from(n: usize, demands: &[(usize, usize, f64)]) -> Option<TrafficMatrix> {
    let mut tm = TrafficMatrix::zeros(n);
    let mut any = false;
    for &(s, t, d) in demands {
        let (s, t) = (s % n, t % n);
        if s != t {
            tm.set_demand(NodeId(s as u32), NodeId(t as u32), d);
            any = true;
        }
    }
    any.then_some(tm)
}

/// FFC, PCF-TF and PCF-LS allocations are congestion-free under every
/// concrete targeted scenario, and each admits no less than the scheme
/// below it in the dominance order.
#[test]
fn schemes_are_congestion_free_and_ordered() {
    forall(
        "schemes_are_congestion_free_and_ordered",
        &Config {
            cases: 24,
            ..Config::default()
        },
        gen_case,
        shrink_case,
        |case| {
            let topo = case.topology();
            let n = topo.node_count();
            let Some(tm) = tm_from(n, &case.demands) else {
                return Ok(());
            };
            let fm = FailureModel::links(case.f);
            let opts = RobustOptions::default();

            let ti = tunnel_instance(&topo, &tm, 3);
            let ffc = solve_ffc(&ti, &fm, &opts);
            let tf = solve_pcf_tf(&ti, &fm, &opts);
            if tf.objective < ffc.objective - 1e-6 * (1.0 + ffc.objective) {
                return Err(format!(
                    "dominance violated: pcf-tf {} < ffc {}",
                    tf.objective, ffc.objective
                ));
            }

            let li = pcf_ls_instance(&topo, &tm, 3);
            let ls = solve_pcf_ls(&li, &fm, &opts);

            for (inst, sol, label) in [
                (&ti, &ffc, "ffc"),
                (&ti, &tf, "pcf-tf"),
                (&li, &ls, "pcf-ls"),
            ] {
                let report = validate_all(inst, &fm, &sol.a, &sol.b, &sol.served(inst), 1e-6);
                if !report.congestion_free() {
                    return Err(format!(
                        "{label} violated: {:?}",
                        report.violations.first().map(|v| &v.kind)
                    ));
                }
            }
            Ok(())
        },
    );
}

/// Checks the Proposition 5 invariants for one instance: utilization within
/// [0, 1] in every enumerated scenario, and dead tunnels carry nothing.
fn check_realization_invariants(
    topo: &Topology,
    demands: &[(usize, usize, f64)],
) -> Result<(), String> {
    let n = topo.node_count();
    let Some(tm) = tm_from(n, demands) else {
        return Ok(());
    };
    let fm = FailureModel::links(1);
    let inst = pcf_ls_instance(topo, &tm, 3);
    let sol = solve_pcf_ls(&inst, &fm, &RobustOptions::default());
    let sv = sol.served(&inst);
    for sc in fm.enumerate_scenarios(inst.topo()) {
        let state = FailureState::new(&inst, &sc.dead).map_err(|e| format!("{e}"))?;
        let routing = realize_routing(&inst, &state, &sol.a, &sol.b, &sv, 1e-6)
            .map_err(|e| format!("solved allocation must realize: {e:?}"))?;
        for u in &routing.u {
            if !(-1e-9..=1.0 + 1e-9).contains(u) {
                return Err(format!("u = {u}"));
            }
        }
        for l in inst.tunnel_ids() {
            if !state.tunnel_alive[l.0] && routing.tunnel_flow[l.0] != 0.0 {
                return Err(format!(
                    "dead tunnel {} carries {}",
                    l.0, routing.tunnel_flow[l.0]
                ));
            }
        }
    }
    Ok(())
}

/// The utilization vector of the realized routing is always within
/// [0, 1] (Proposition 5), and dead tunnels carry nothing.
#[test]
fn realization_invariants() {
    forall(
        "realization_invariants",
        &Config {
            cases: 24,
            ..Config::default()
        },
        gen_case,
        shrink_case,
        |case| check_realization_invariants(&case.topology(), &case.demands),
    );
}

/// A historical proptest counterexample for `realization_invariants`, kept
/// as a permanent deterministic case: a 5-node ring with a unit-capacity
/// link, two chords, and two demands (the second wrapping around, 5 ≡ 0
/// mod 5) once produced an unrealizable allocation.
#[test]
fn realization_invariants_ring_with_unit_link_regression() {
    let topo = ring_with_chords(5, &[(0, 3), (2, 4)], &[4.0, 2.0, 2.0, 1.0, 4.0, 2.0, 2.0]);
    let demands = [(0, 1, 0.3888991094130128), (2, 5, 1.3511142337043531)];
    check_realization_invariants(&topo, &demands).unwrap();
}

/// Demand scale is monotone: a larger failure budget can never admit
/// more traffic.
#[test]
fn admission_monotone_in_failure_budget() {
    forall(
        "admission_monotone_in_failure_budget",
        &Config {
            cases: 24,
            ..Config::default()
        },
        gen_case,
        shrink_case,
        |case| {
            let topo = case.topology();
            let n = topo.node_count();
            let Some(tm) = tm_from(n, &case.demands) else {
                return Ok(());
            };
            let inst = tunnel_instance(&topo, &tm, 3);
            let opts = RobustOptions::default();
            let mut prev = f64::INFINITY;
            for f in 0..=2 {
                let sol = solve_pcf_tf(&inst, &FailureModel::links(f), &opts);
                if sol.objective > prev + 1e-6 * (1.0 + prev.min(1e9)) {
                    return Err(format!("f={f}: {} > previous {prev}", sol.objective));
                }
                prev = sol.objective;
            }
            Ok(())
        },
    );
}
