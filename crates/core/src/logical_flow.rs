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
//! The flow model is a caller of the one cutting-plane loop in
//! [`crate::robust`]: `flow_master` adds the `b_w` / `p_w(i,j)` columns and
//! the balance rows to the shared master and registers each column with the
//! pair whose availability it enters; the live master, threaded separation
//! and the cut rows are the allocation solve's.
//!
//! Tractability restriction (documented in DESIGN.md): the paper lets
//! `p_w(i,j)` range over every node pair; a from-scratch simplex cannot
//! carry `O(|V|^2)` variables per flow, so each flow's segment support is
//! restricted to the directed arcs on a small set of short bypass paths
//! between its endpoints (avoiding the protected link). The decomposition
//! step — a single widest path per flow — is unaffected.

use crate::failure::{Condition, FailureModel};
use crate::instance::{Instance, InstanceBuilder, LogicalSequence};
use crate::robust::{
    AdversaryKind, ConditionedColumn, Master, MasterOptimum, RobustError, RobustOptions, ZVars,
};
use pcf_lp::{LpProblem, Sense, VarId};
use pcf_topology::{LinkId, NodeId, Topology};
use pcf_traffic::TrafficMatrix;

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

/// The flow model's master and its `b_w` / `p_w(i,j)` columns.
type FlowMaster = (Master, Vec<VarId>, Vec<Vec<VarId>>);

/// Builds the cut-free flow master: the allocation master of
/// [`crate::robust`] plus, per flow, a reservation column `b_w`, a routing
/// column `p_w(i,j)` per supported segment, and the flow-balance rows
/// (Eq. 8). `b_w` is registered as a conditioned reservation of the flow's
/// endpoint pair and every `p_w(i,j)` as a conditioned obligation of the
/// segment's pair, which is all the cutting-plane loop needs to price them.
fn flow_master(
    inst: &Instance,
    flows: &[FlowSpec],
    opts: &RobustOptions,
) -> Result<FlowMaster, RobustError> {
    let pair_of = |u: NodeId, v: NodeId, what: &'static str| {
        inst.pair_id(u, v).ok_or(RobustError::FlowPairMissing(what))
    };

    let mut lp = LpProblem::new(Sense::Maximize);
    lp.set_options(opts.lp.clone());
    let mut master = Master::new(lp, inst, &[], |lp| {
        ZVars::for_objective(lp, inst, opts.objective)
    });
    let fb_vars: Vec<VarId> = flows
        .iter()
        .map(|_| master.lp.add_var(0.0, f64::INFINITY, 0.0))
        .collect();
    let fp_vars: Vec<Vec<VarId>> = flows
        .iter()
        .map(|w| {
            w.support
                .iter()
                .map(|_| master.lp.add_var(0.0, f64::INFINITY, 0.0))
                .collect()
        })
        .collect();

    // Reservations before obligations, so a pair's conditioned columns keep
    // that order.
    for (w, spec) in flows.iter().enumerate() {
        let p = pair_of(spec.src, spec.dst, "flow endpoint pair")?;
        master.extras[p.0].push(ConditionedColumn {
            var: fb_vars[w],
            gain: 1.0,
            condition: spec.condition.clone(),
        });
    }
    for (w, spec) in flows.iter().enumerate() {
        for (si, &(u, v)) in spec.support.iter().enumerate() {
            let p = pair_of(u, v, "flow segment pair")?;
            master.extras[p.0].push(ConditionedColumn {
                var: fp_vars[w][si],
                gain: -1.0,
                condition: spec.condition.clone(),
            });
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
            master.lp.add_eq(row, 0.0);
        }
    }
    Ok((master, fb_vars, fp_vars))
}

/// Solves the logical-flow model on `inst` extended with `flows`: the
/// cutting-plane loop of [`crate::robust`] on the flow master, the
/// link-based oracle pricing each pair's flow reservations and segment
/// obligations beside its tunnels and LSs.
///
/// The instance must already contain a pair for every flow endpoint pair
/// and every supported segment (see
/// [`crate::instance::InstanceBuilder::add_pair`]); a missing pair is
/// reported as [`RobustError::FlowPairMissing`]. On hitting
/// [`RobustOptions::max_rounds`] the incumbent is returned as is.
pub fn solve_logical_flow(
    inst: &Instance,
    flows: &[FlowSpec],
    fm: &FailureModel,
    opts: &RobustOptions,
) -> Result<FlowSolution, RobustError> {
    let (mut master, fb_vars, fp_vars) = flow_master(inst, flows, opts)?;
    let scale = 1.0 + inst.total_demand();
    let end = master.cutting_planes(inst, fm, AdversaryKind::LinkBased, opts, scale, None)?;
    let MasterOptimum { sol, a, b, z } = end.optimum;
    Ok(FlowSolution {
        objective: sol.objective,
        z,
        a,
        b,
        flow_b: fb_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        flow_p: fp_vars
            .iter()
            .map(|vs| vs.iter().map(|&v| sol.value(v).max(0.0)).collect())
            .collect(),
    })
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

/// The PCF-CLS instance as evaluated in §5: `k` tunnels per pair,
/// always-active shortest-path LSs per demand pair, plus per-link
/// conditional LSs obtained by decomposing the restricted logical-flow
/// model over `bypass_paths` bypass paths per protected link
/// ([`bypass_flows`]; the scheme uses 2). Solving the flow model (stage 1)
/// is the only LP work here: the returned instance is stage 2's, the one
/// the CLS model proper is solved on ([`crate::Scheme::PcfCls`]).
pub fn pcf_cls_instance(
    topo: &Topology,
    tm: &TrafficMatrix,
    k: usize,
    bypass_paths: usize,
    fm: &FailureModel,
    opts: &RobustOptions,
) -> Result<Instance, RobustError> {
    // Always-active LSs along shortest paths (same as PCF-LS).
    let mut always: Vec<LogicalSequence> = Vec::new();
    for (s, t, _) in tm.positive_pairs() {
        if let Some(path) = pcf_paths::shortest_path(topo, s, t) {
            if path.nodes.len() >= 3 {
                always.push(LogicalSequence::always(path.nodes));
            }
        }
    }
    let flows = bypass_flows(topo, bypass_paths);

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
    let mut b1 = InstanceBuilder::new(topo, tm).tunnels_per_pair(k);
    for ls in &always {
        b1 = b1.add_ls(ls.clone());
    }
    for w in &flows {
        b1 = b1.add_pair(w.src, w.dst);
        for &(u, v) in &w.support {
            b1 = b1.add_pair(u, v);
        }
    }
    let fsol = solve_logical_flow(&b1.build(), &flows, fm, &flow_opts)?;
    let conditional = decompose_flows(topo, &flows, &fsol, 1e-7);

    // Stage 2: the CLS model proper.
    let mut b2 = InstanceBuilder::new(topo, tm).tunnels_per_pair(k);
    for ls in always.into_iter().chain(conditional) {
        b2 = b2.add_ls(ls);
    }
    Ok(b2.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robust::RobustOptions;
    use crate::Scheme;

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
        let cls = Scheme::PcfCls.plan(&topo, tm, 3, &fm, &opts, None).unwrap();
        assert!(
            cls.sol.objective >= ls.objective - 1e-4,
            "CLS {} vs LS {}",
            cls.sol.objective,
            ls.objective
        );
        let inst = &cls.inst;
        assert!(inst
            .ls_ids()
            .any(|q| inst.ls(q).condition != Condition::Always));
    }

    #[test]
    fn later_rounds_resolve_the_live_master_warm() {
        // Stage 1 of the pipeline on Sprint, at full fidelity.
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 3);
        let flows = bypass_flows(&topo, 2);
        let mut b = InstanceBuilder::new(&topo, &tm);
        for w in &flows {
            b = b.add_pair(w.src, w.dst);
            for &(u, v) in &w.support {
                b = b.add_pair(u, v);
            }
        }
        let inst = b.build();
        let opts = RobustOptions::default();
        let (mut master, _, _) = flow_master(&inst, &flows, &opts).unwrap();
        let scale = 1.0 + inst.total_demand();
        let fm = FailureModel::links(1);
        let end = master
            .cutting_planes(&inst, &fm, AdversaryKind::LinkBased, &opts, scale, None)
            .unwrap();
        assert!(end.rounds >= 2, "expected a multi-round solve");
        assert_eq!(end.warm_rounds, end.rounds - 1);
        let stats = master.lp.stats();
        assert_eq!(stats.warm_solves, end.rounds - 1);
        // Balance rows and cuts are homogeneous: every row holds at the
        // origin and no warm attempt has a reason to be abandoned.
        assert_eq!(stats.warm_fallbacks, 0);
        assert_eq!(stats.cold_solves, 1);
    }

    #[test]
    fn pipeline_is_thread_count_invariant() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 3);
        let fm = FailureModel::links(1);
        let run = |threads: usize| {
            let opts = RobustOptions {
                threads,
                ..RobustOptions::default()
            };
            Scheme::PcfCls
                .plan(&topo, tm.clone(), 3, &fm, &opts, None)
                .unwrap()
        };
        let (one, four) = (run(1), run(4));
        assert_eq!(one.sol.objective.to_bits(), four.sol.objective.to_bits());
        assert_eq!(one.sol.a, four.sol.a);
        assert_eq!(one.sol.b, four.sol.b);
        // The stage-1 flow solve picks the conditional LSs.
        let lss = |inst: &Instance| -> Vec<LogicalSequence> {
            inst.ls_ids().map(|q| inst.ls(q).clone()).collect()
        };
        assert_eq!(lss(&one.inst), lss(&four.inst));
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
