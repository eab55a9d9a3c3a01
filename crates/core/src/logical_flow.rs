//! Logical flows and the PCF-CLS heuristic (paper §3.5, §5).
//!
//! A *logical flow* `w` generalizes a logical sequence: its reservation
//! `b_w` is routed over logical segments by flow-balance variables
//! `p_w(i,j)` (Eq. 8) instead of a fixed hop sequence, optionally gated by a
//! condition `h_w`. The paper's PCF-CLS scheme solves a restricted logical
//! flow model — one always-active LS per demand pair plus one conditional
//! flow per link, activated when that link dies — and then *decomposes* each
//! flow into a logical sequence along its widest path.
//!
//! Tractability restriction (documented in DESIGN.md): the paper lets
//! `p_w(i,j)` range over every node pair; a from-scratch simplex cannot
//! carry `O(|V|^2)` variables per flow, so each flow's segment support is
//! restricted to the directed arcs on a small set of short bypass paths
//! between its endpoints (avoiding the protected link). The decomposition
//! step — a single widest path per flow — is unaffected.

use crate::adversary::{worst_case_link_with_extras, ExtraTerm, WorstCase};
use crate::failure::{Condition, FailureModel};
use crate::instance::{Instance, InstanceBuilder, LogicalSequence, PairId};
use crate::objective::Objective;
use crate::robust::{RobustError, RobustOptions};
use pcf_lp::{nonzero, LpProblem, Sense, Status, VarId};
use pcf_topology::{LinkId, NodeId, Topology};
use pcf_traffic::TrafficMatrix;
use std::collections::BTreeMap;

/// A logical flow to be optimized: endpoints, activation condition, and the
/// directed segment support over which `p_w` may route.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Flow source.
    pub src: NodeId,
    /// Flow destination.
    pub dst: NodeId,
    /// Activation condition (`h_w`).
    pub condition: Condition,
    /// Directed segments `(i, j)` the flow may use.
    pub support: Vec<(NodeId, NodeId)>,
}

/// Result of [`solve_logical_flow`].
#[derive(Debug, Clone)]
pub struct FlowSolution {
    /// Optimal metric value.
    pub objective: f64,
    /// Served fraction per pair.
    pub z: Vec<f64>,
    /// Tunnel reservations.
    pub a: Vec<f64>,
    /// LS reservations (for LSs already in the instance).
    pub b: Vec<f64>,
    /// Flow reservations `b_w`.
    pub flow_b: Vec<f64>,
    /// Per-flow segment routing `p_w(i,j)` (same order as the spec's
    /// support).
    pub flow_p: Vec<Vec<f64>>,
    /// Cutting-plane rounds used.
    pub rounds: usize,
}

/// Builds the bypass flows of the PCF-CLS heuristic: for each link
/// `⟨i, j⟩` and each direction, a flow activated when the link dies,
/// supported by the arcs of up to `paths` short bypass paths that avoid the
/// link.
pub fn bypass_flows(topo: &Topology, paths: usize) -> Vec<FlowSpec> {
    let mut out = Vec::new();
    for l in topo.links() {
        let link = topo.link(l);
        for (src, dst) in [(link.u, link.v), (link.v, link.u)] {
            let support = bypass_support(topo, l, src, dst, paths);
            if support.is_empty() {
                continue; // link is a bridge: no bypass exists
            }
            out.push(FlowSpec {
                src,
                dst,
                condition: Condition::LinkDead(l),
                support,
            });
        }
    }
    out
}

/// Directed segments of up to `paths` short, diversity-penalized paths from
/// `src` to `dst` avoiding link `avoid`.
fn bypass_support(
    topo: &Topology,
    avoid: LinkId,
    src: NodeId,
    dst: NodeId,
    paths: usize,
) -> Vec<(NodeId, NodeId)> {
    let mut dead = vec![false; topo.link_count()];
    dead[avoid.index()] = true;
    let mut penalty: Vec<f64> = vec![1.0; topo.link_count()];
    let mut segments: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..paths {
        let Some(path) =
            pcf_paths::shortest_path_weighted(topo, src, dst, |l| penalty[l.index()], Some(&dead))
        else {
            break;
        };
        for (hop, &l) in path.links.iter().enumerate() {
            penalty[l.index()] += 8.0; // steer later paths elsewhere
            let seg = (path.nodes[hop], path.nodes[hop + 1]);
            if !segments.contains(&seg) {
                segments.push(seg);
            }
        }
    }
    segments
}

/// One scenario cut in the flow master.
struct FlowCut {
    pair: PairId,
    wc: WorstCase,
    /// `h` per flow with endpoints == pair (reservation side).
    h_res: Vec<(usize, f64)>,
    /// `h` per (flow, support index) with that segment == pair (obligation).
    h_obl: Vec<(usize, usize, f64)>,
}

fn no_failure_h(cond: &Condition) -> f64 {
    match cond {
        Condition::Always => 1.0,
        Condition::LinkDead(_) => 0.0,
        Condition::AliveDead { dead, .. } => {
            if dead.is_empty() {
                1.0
            } else {
                0.0
            }
        }
    }
}

/// Solves the logical-flow model on `inst` extended with `flows`,
/// by the same cutting-plane scheme as [`crate::robust::solve_robust`].
///
/// The instance must already contain a pair for every flow endpoint pair
/// and every supported segment (see
/// [`crate::instance::InstanceBuilder::add_pair`]); a missing pair is
/// reported as [`RobustError::FlowPairMissing`].
pub fn solve_logical_flow(
    inst: &Instance,
    flows: &[FlowSpec],
    fm: &FailureModel,
    opts: &RobustOptions,
) -> Result<FlowSolution, RobustError> {
    // Pair resolution tables.
    let flow_pair: Vec<PairId> = flows
        .iter()
        .map(|w| {
            inst.pair_id(w.src, w.dst)
                .ok_or(RobustError::FlowPairMissing("flow endpoint pair"))
        })
        .collect::<Result<_, _>>()?;
    let seg_pair: Vec<Vec<PairId>> = flows
        .iter()
        .map(|w| {
            w.support
                .iter()
                .map(|&(u, v)| {
                    inst.pair_id(u, v)
                        .ok_or(RobustError::FlowPairMissing("flow segment pair"))
                })
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    // Reverse index: pair -> (flow, role).
    let mut res_of_pair: BTreeMap<PairId, Vec<usize>> = BTreeMap::new();
    for (w, &p) in flow_pair.iter().enumerate() {
        res_of_pair.entry(p).or_default().push(w);
    }
    let mut obl_of_pair: BTreeMap<PairId, Vec<(usize, usize)>> = BTreeMap::new();
    for (w, segs) in seg_pair.iter().enumerate() {
        for (si, &p) in segs.iter().enumerate() {
            obl_of_pair.entry(p).or_default().push((w, si));
        }
    }

    // Initial cuts: no-failure scenario for every pair.
    let mut cuts: Vec<FlowCut> = inst
        .pair_ids()
        .map(|p| FlowCut {
            pair: p,
            wc: WorstCase {
                available: 0.0,
                y: vec![0.0; inst.tunnels_of(p).len()],
                h_l: inst
                    .lss_of(p)
                    .iter()
                    .map(|&q| no_failure_h(&inst.ls(q).condition))
                    .collect(),
                h_q: inst
                    .segments_of(p)
                    .iter()
                    .map(|&q| no_failure_h(&inst.ls(q).condition))
                    .collect(),
            },
            h_res: res_of_pair
                .get(&p)
                .map(|ws| {
                    ws.iter()
                        .map(|&w| (w, no_failure_h(&flows[w].condition)))
                        .collect()
                })
                .unwrap_or_default(),
            h_obl: obl_of_pair
                .get(&p)
                .map(|ws| {
                    ws.iter()
                        .map(|&(w, si)| (w, si, no_failure_h(&flows[w].condition)))
                        .collect()
                })
                .unwrap_or_default(),
        })
        .collect();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let (a, b, fb, fp, z, objective) = solve_flow_master(inst, flows, &cuts, opts, rounds)?;

        if rounds > opts.max_rounds {
            return Ok(FlowSolution {
                objective,
                z,
                a,
                b,
                flow_b: fb,
                flow_p: fp,
                rounds: rounds - 1,
            });
        }

        let scale = 1.0 + inst.total_demand();
        let mut violated = 0usize;
        for p in inst.pair_ids() {
            // Extras: flow reservations (negative loss coef) then
            // obligations (positive).
            let res: Vec<usize> = res_of_pair.get(&p).cloned().unwrap_or_default();
            let obl: Vec<(usize, usize)> = obl_of_pair.get(&p).cloned().unwrap_or_default();
            let mut extras: Vec<ExtraTerm> = Vec::with_capacity(res.len() + obl.len());
            for &w in &res {
                extras.push(ExtraTerm {
                    coef: -fb[w],
                    condition: flows[w].condition.clone(),
                });
            }
            for &(w, si) in &obl {
                extras.push(ExtraTerm {
                    coef: fp[w][si],
                    condition: flows[w].condition.clone(),
                });
            }
            let (wc, h_extra) = worst_case_link_with_extras(inst, p, fm, &a, &b, &extras)
                .map_err(RobustError::Adversary)?;
            let required = z[p.0] * inst.demand(p);
            if wc.available < required - opts.tol * scale {
                let h_res = res
                    .iter()
                    .enumerate()
                    .map(|(i, &w)| (w, h_extra[i]))
                    .collect();
                let h_obl = obl
                    .iter()
                    .enumerate()
                    .map(|(i, &(w, si))| (w, si, h_extra[res.len() + i]))
                    .collect();
                cuts.push(FlowCut {
                    pair: p,
                    wc,
                    h_res,
                    h_obl,
                });
                violated += 1;
            }
        }
        if violated == 0 {
            return Ok(FlowSolution {
                objective,
                z,
                a,
                b,
                flow_b: fb,
                flow_p: fp,
                rounds,
            });
        }
    }
}

#[allow(clippy::type_complexity)]
type FlowMasterOut = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<Vec<f64>>, Vec<f64>, f64);

fn solve_flow_master(
    inst: &Instance,
    flows: &[FlowSpec],
    cuts: &[FlowCut],
    opts: &RobustOptions,
    round: usize,
) -> Result<FlowMasterOut, RobustError> {
    let topo = inst.topo();
    let mut lp = LpProblem::new(Sense::Maximize);
    lp.set_options(opts.lp.clone());

    let a_vars: Vec<VarId> = inst.tunnel_ids().map(|_| lp.add_nonneg(0.0)).collect();
    let b_vars: Vec<VarId> = inst.ls_ids().map(|_| lp.add_nonneg(0.0)).collect();
    let fb_vars: Vec<VarId> = flows.iter().map(|_| lp.add_nonneg(0.0)).collect();
    let fp_vars: Vec<Vec<VarId>> = flows
        .iter()
        .map(|w| w.support.iter().map(|_| lp.add_nonneg(0.0)).collect())
        .collect();

    enum ZVars {
        Shared(VarId),
        PerPair(Vec<Option<VarId>>),
    }
    let z_vars = match opts.objective {
        Objective::DemandScale => ZVars::Shared(lp.add_nonneg(1.0)),
        Objective::Throughput => ZVars::PerPair(
            inst.pair_ids()
                .map(|p| {
                    let d = inst.demand(p);
                    (d > 0.0).then(|| lp.add_var(0.0, 1.0, d))
                })
                .collect(),
        ),
    };

    // Capacity per arc (tunnels only; p variables are logical).
    let mut arc_usage: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.arc_count()];
    for l in inst.tunnel_ids() {
        let path = inst.tunnel(l);
        for (i, &link) in path.links.iter().enumerate() {
            let arc = topo.arc_from(link, path.nodes[i]);
            arc_usage[arc.index()].push((a_vars[l.0], 1.0));
        }
    }
    for arc in topo.arcs() {
        let usage = &arc_usage[arc.index()];
        if !usage.is_empty() {
            lp.add_le(usage.iter().copied(), topo.capacity(arc.link()));
        }
    }

    // Flow balance (Eq. 8) on each flow's support subgraph.
    for (w, spec) in flows.iter().enumerate() {
        let mut touched: Vec<NodeId> = Vec::new();
        for &(u, v) in &spec.support {
            if !touched.contains(&u) {
                touched.push(u);
            }
            if !touched.contains(&v) {
                touched.push(v);
            }
        }
        for &node in &touched {
            let mut row: Vec<(VarId, f64)> = Vec::new();
            for (si, &(u, v)) in spec.support.iter().enumerate() {
                if u == node {
                    row.push((fp_vars[w][si], 1.0));
                }
                if v == node {
                    row.push((fp_vars[w][si], -1.0));
                }
            }
            if node == spec.src {
                row.push((fb_vars[w], -1.0));
            } else if node == spec.dst {
                row.push((fb_vars[w], 1.0));
            }
            lp.add_eq(row, 0.0);
        }
    }

    // Scenario cuts.
    for cut in cuts {
        let p = cut.pair;
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (i, &l) in inst.tunnels_of(p).iter().enumerate() {
            let coef = 1.0 - cut.wc.y[i];
            if nonzero(coef) {
                row.push((a_vars[l.0], coef));
            }
        }
        for (i, &q) in inst.lss_of(p).iter().enumerate() {
            if nonzero(cut.wc.h_l[i]) {
                row.push((b_vars[q.0], cut.wc.h_l[i]));
            }
        }
        for (i, &q) in inst.segments_of(p).iter().enumerate() {
            if nonzero(cut.wc.h_q[i]) {
                row.push((b_vars[q.0], -cut.wc.h_q[i]));
            }
        }
        for &(w, h) in &cut.h_res {
            if nonzero(h) {
                row.push((fb_vars[w], h));
            }
        }
        for &(w, si, h) in &cut.h_obl {
            if nonzero(h) {
                row.push((fp_vars[w][si], -h));
            }
        }
        let d = inst.demand(p);
        if d > 0.0 {
            let zv = match &z_vars {
                ZVars::Shared(v) => Some(*v),
                ZVars::PerPair(vs) => vs[p.0],
            };
            if let Some(zv) = zv {
                row.push((zv, -d));
            }
        }
        lp.add_ge(row, 0.0);
    }

    let sol = lp.solve().map_err(RobustError::MasterLp)?;
    if sol.status != Status::Optimal {
        return Err(RobustError::MasterNotOptimal {
            status: sol.status,
            round,
        });
    }
    let a: Vec<f64> = a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
    let b: Vec<f64> = b_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
    let fb: Vec<f64> = fb_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
    let fp: Vec<Vec<f64>> = fp_vars
        .iter()
        .map(|vs| vs.iter().map(|&v| sol.value(v).max(0.0)).collect())
        .collect();
    let z: Vec<f64> = inst
        .pair_ids()
        .map(|p| match &z_vars {
            ZVars::Shared(v) => sol.value(*v),
            ZVars::PerPair(vs) => vs[p.0].map_or(0.0, |v| sol.value(v)),
        })
        .collect();
    Ok((a, b, fb, fp, z, sol.objective))
}

/// Decomposes solved flows into logical sequences (§3.5): for each flow
/// with meaningful reservation, take the widest path through its positive
/// segments as an LS carrying the flow's condition. Flows whose widest path
/// is a single segment are dropped (a 2-hop LS is vacuous).
pub fn decompose_flows(
    topo: &Topology,
    flows: &[FlowSpec],
    sol: &FlowSolution,
    min_reservation: f64,
) -> Vec<LogicalSequence> {
    let n = topo.node_count();
    let mut out = Vec::new();
    for (w, spec) in flows.iter().enumerate() {
        if sol.flow_b[w] <= min_reservation {
            continue;
        }
        let edges: Vec<(usize, usize, f64)> = spec
            .support
            .iter()
            .enumerate()
            .filter(|&(si, _)| sol.flow_p[w][si] > min_reservation)
            .map(|(si, &(u, v))| (u.index(), v.index(), sol.flow_p[w][si]))
            .collect();
        let Some((nodes, _)) =
            pcf_paths::widest_path(n, &edges, spec.src.index(), spec.dst.index())
        else {
            continue;
        };
        if nodes.len() < 3 {
            continue;
        }
        out.push(LogicalSequence {
            hops: nodes.into_iter().map(|i| NodeId(i as u32)).collect(),
            condition: spec.condition.clone(),
        });
    }
    out
}

/// Output of the full PCF-CLS pipeline.
#[derive(Debug)]
pub struct ClsResult {
    /// The final instance (tunnels + always LSs + conditional LSs).
    pub instance: Instance,
    /// The P2/CLS solution on that instance.
    pub solution: crate::robust::RobustSolution,
    /// Number of conditional LSs obtained by decomposition.
    pub conditional_lss: usize,
    /// Rounds used by the flow model.
    pub flow_rounds: usize,
}

/// The PCF-CLS scheme as evaluated in §5: always-active shortest-path LSs
/// per demand pair, plus per-link conditional LSs obtained by decomposing
/// the restricted logical-flow model.
pub fn pcf_cls_pipeline(
    topo: &Topology,
    tm: &TrafficMatrix,
    tunnels_per_pair: usize,
    fm: &FailureModel,
    opts: &RobustOptions,
) -> ClsResult {
    // Always-active LSs along shortest paths (same as PCF-LS).
    let mut always: Vec<LogicalSequence> = Vec::new();
    for (s, t, _) in tm.positive_pairs() {
        if let Some(path) = pcf_paths::shortest_path(topo, s, t) {
            if path.nodes.len() >= 3 {
                always.push(LogicalSequence::always(path.nodes));
            }
        }
    }
    let flows = bypass_flows(topo, 2);

    // Stage 1: flow model instance (needs pairs for all flow segments).
    // The flow model only shapes the conditional LSs (its p-values feed the
    // widest-path decomposition); the authoritative objective comes from
    // the stage-2 CLS solve. Reduced fidelity here cuts the dominant cost
    // of the pipeline without affecting guarantees.
    let flow_opts = RobustOptions {
        max_rounds: opts.max_rounds.min(8),
        tol: opts.tol.max(1e-4),
        ..opts.clone()
    };
    let mut b1 = InstanceBuilder::new(topo, tm).tunnels_per_pair(tunnels_per_pair);
    for ls in &always {
        b1 = b1.add_ls(ls.clone());
    }
    for w in &flows {
        b1 = b1.add_pair(w.src, w.dst);
        for &(u, v) in &w.support {
            b1 = b1.add_pair(u, v);
        }
    }
    let inst1 = b1.build();
    let fsol = match solve_logical_flow(&inst1, &flows, fm, &flow_opts) {
        Ok(s) => s,
        // audit:allow(no-panic-paths, compatibility wrapper; fallible path is solve_logical_flow) audit:allow(panic-reachability, same wrapper contract as solve_robust)
        Err(e) => panic!("logical-flow stage failed: {e}"),
    };
    let conditional = decompose_flows(topo, &flows, &fsol, 1e-7);

    // Stage 2: the CLS model proper.
    let mut b2 = InstanceBuilder::new(topo, tm).tunnels_per_pair(tunnels_per_pair);
    for ls in always.iter().chain(conditional.iter()) {
        b2 = b2.add_ls(ls.clone());
    }
    let instance = b2.build();
    let solution = crate::schemes::solve_pcf_cls(&instance, fm, opts);
    ClsResult {
        instance,
        solution,
        conditional_lss: conditional.len(),
        flow_rounds: fsol.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::RobustOptions;

    #[test]
    fn bypass_flows_cover_both_directions() {
        let topo = pcf_topology::zoo::build("Sprint");
        let flows = bypass_flows(&topo, 2);
        assert_eq!(flows.len(), 2 * topo.link_count());
        for w in &flows {
            assert!(!w.support.is_empty());
            // Support arcs must not traverse the protected link.
            let Condition::LinkDead(e) = w.condition else {
                panic!("bypass flows are link-conditioned")
            };
            let link = topo.link(e);
            for &(u, v) in &w.support {
                // The only way to traverse e is the segment (u,v) or (v,u)
                // of e's endpoints... a parallel link would be legal, so
                // just check the direct segment is allowed only if a second
                // link joins the endpoints.
                if (u, v) == (link.u, link.v) || (u, v) == (link.v, link.u) {
                    let parallel = topo
                        .links()
                        .filter(|&l2| {
                            topo.link(l2).touches(link.u) && topo.link(l2).touches(link.v)
                        })
                        .count();
                    assert!(parallel >= 2, "direct segment without parallel link");
                }
            }
        }
    }

    #[test]
    fn flow_model_beats_or_matches_ls_on_sprint() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 3);
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        let ls_inst = crate::schemes::pcf_ls_instance(&topo, &tm, 3);
        let ls = crate::schemes::solve_pcf_ls(&ls_inst, &fm, &opts);
        let cls = pcf_cls_pipeline(&topo, &tm, 3, &fm, &opts);
        assert!(
            cls.solution.objective >= ls.objective - 1e-4,
            "CLS {} vs LS {}",
            cls.solution.objective,
            ls.objective
        );
        assert!(cls.conditional_lss > 0);
    }

    #[test]
    fn decomposition_skips_tiny_flows() {
        let topo = pcf_topology::zoo::build("Sprint");
        let flows = bypass_flows(&topo, 2);
        let sol = FlowSolution {
            objective: 0.0,
            z: vec![],
            a: vec![],
            b: vec![],
            flow_b: vec![0.0; flows.len()],
            flow_p: flows.iter().map(|w| vec![0.0; w.support.len()]).collect(),
            rounds: 0,
        };
        assert!(decompose_flows(&topo, &flows, &sol, 1e-7).is_empty());
    }
}

#[cfg(test)]
mod flow_model_tests {
    use super::*;
    use crate::robust::RobustOptions;
    use pcf_topology::{NodeId, Topology};

    fn diamond() -> Topology {
        let mut t = Topology::new("diamond");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("t");
        t.add_link(s, a, 1.0);
        t.add_link(a, d, 1.0);
        t.add_link(s, b, 1.0);
        t.add_link(b, d, 1.0);
        t
    }

    #[test]
    fn flow_balance_is_respected() {
        // One always-active flow from s to t over the diamond's arcs; its
        // p-values must form a flow of value b_w.
        let topo = diamond();
        let mut tm = pcf_traffic::TrafficMatrix::zeros(4);
        tm.set_demand(NodeId(0), NodeId(3), 1.0);
        let arcs: Vec<(NodeId, NodeId)> = topo
            .arcs()
            .map(|a| (topo.arc_src(a), topo.arc_dst(a)))
            .collect();
        let flows = vec![FlowSpec {
            src: NodeId(0),
            dst: NodeId(3),
            condition: Condition::Always,
            support: arcs.clone(),
        }];
        let mut b = InstanceBuilder::new(&topo, &tm).tunnels_per_pair(2);
        for w in &flows {
            b = b.add_pair(w.src, w.dst);
            for &(u, v) in &w.support {
                b = b.add_pair(u, v);
            }
        }
        let inst = b.build();
        let sol = solve_logical_flow(
            &inst,
            &flows,
            &FailureModel::links(0),
            &RobustOptions::default(),
        )
        .unwrap();
        // Net outflow at the source equals b_w.
        let mut net = 0.0;
        for (si, &(u, v)) in flows[0].support.iter().enumerate() {
            if u == NodeId(0) {
                net += sol.flow_p[0][si];
            }
            if v == NodeId(0) {
                net -= sol.flow_p[0][si];
            }
        }
        assert!(
            (net - sol.flow_b[0]).abs() < 1e-6,
            "net {net} vs b {}",
            sol.flow_b[0]
        );
    }

    #[test]
    fn conditional_flow_helps_under_its_condition_only() {
        // A bypass flow for link e0 contributes capacity to pair (s,a) only
        // when e0 is dead; designing for f=1 on a pair with a single tunnel
        // through e0, the bypass is what keeps the guarantee above zero.
        let topo = diamond();
        let mut tm = pcf_traffic::TrafficMatrix::zeros(4);
        tm.set_demand(NodeId(0), NodeId(1), 1.0); // s -> a
        let flows = bypass_flows(&topo, 2);
        let mut b = InstanceBuilder::new(&topo, &tm).tunnels_per_pair(1); // only s-a
        for w in &flows {
            b = b.add_pair(w.src, w.dst);
            for &(u, v) in &w.support {
                b = b.add_pair(u, v);
            }
        }
        let inst = b.build();
        let with_flows = solve_logical_flow(
            &inst,
            &flows,
            &FailureModel::links(1),
            &RobustOptions::default(),
        )
        .unwrap();
        let without = solve_logical_flow(
            &inst,
            &[],
            &FailureModel::links(1),
            &RobustOptions::default(),
        )
        .unwrap();
        assert!(
            with_flows.objective > without.objective + 0.3,
            "bypass {} vs none {}",
            with_flows.objective,
            without.objective
        );
    }

    #[test]
    fn decomposition_extracts_widest_sequence() {
        let topo = diamond();
        let flows = vec![FlowSpec {
            src: NodeId(0),
            dst: NodeId(3),
            condition: Condition::LinkDead(pcf_topology::LinkId(0)),
            support: vec![
                (NodeId(0), NodeId(2)),
                (NodeId(2), NodeId(3)),
                (NodeId(0), NodeId(1)),
                (NodeId(1), NodeId(3)),
            ],
        }];
        let sol = FlowSolution {
            objective: 0.0,
            z: vec![],
            a: vec![],
            b: vec![],
            flow_b: vec![0.8],
            // Wider via node 2.
            flow_p: vec![vec![0.6, 0.6, 0.2, 0.2]],
            rounds: 1,
        };
        let lss = decompose_flows(&topo, &flows, &sol, 1e-7);
        assert_eq!(lss.len(), 1);
        assert_eq!(lss[0].hops, vec![NodeId(0), NodeId(2), NodeId(3)]);
        assert_eq!(
            lss[0].condition,
            Condition::LinkDead(pcf_topology::LinkId(0))
        );
    }

    #[test]
    fn bridge_links_get_no_bypass() {
        let mut t = Topology::new("bridged");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        // Triangle a-b-c plus a bridge c-d.
        t.add_link(a, b, 1.0);
        t.add_link(b, c, 1.0);
        t.add_link(c, a, 1.0);
        let bridge = t.add_link(c, d, 1.0);
        let flows = bypass_flows(&t, 2);
        assert!(flows
            .iter()
            .all(|w| w.condition != Condition::LinkDead(bridge)));
        // Non-bridge links all have bypasses in both directions.
        assert_eq!(flows.len(), 6);
    }
}
