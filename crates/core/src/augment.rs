//! Capacity augmentation: network design with congestion-free guarantees.
//!
//! The paper (§6) observes that "PCF's formulations can be naturally used
//! to augment capacities so as to meet a desired performance metric by
//! simply making capacities variable." This module does that: given a
//! target demand scale `z*`, it finds the cheapest per-link capacity
//! additions such that the PCF allocation guarantees `z*` under the failure
//! model.
//!
//! The model is the same robust LP as [`crate::robust`] with
//! * `z` fixed to the target,
//! * a non-negative `extra_e` variable relaxing every arc capacity, and
//! * objective `min Σ_e w_e · extra_e` (per-link weights, default 1).
//!
//! It is solved by the cutting-plane loop of [`crate::robust`] itself, on
//! a live master that differs from the allocation master only in those
//! three items (`augment_master`); a loop that reaches the round limit
//! unconverged is reported as `Ok(None)`.

use crate::failure::FailureModel;
use crate::instance::Instance;
use crate::robust::{AdversaryKind, Master, MasterOptimum, RobustError, RobustOptions, ZVars};
use pcf_lp::{LpProblem, Sense, VarId};
use pcf_topology::LinkId;

/// Result of [`augment_capacity`].
#[derive(Debug, Clone)]
pub struct Augmentation {
    /// Capacity added per link (applies to both directions).
    pub extra: Vec<f64>,
    /// Weighted total of the additions (the objective).
    pub total_cost: f64,
    /// Tunnel reservations realizing the target on the augmented network.
    pub a: Vec<f64>,
    /// LS reservations.
    pub b: Vec<f64>,
    /// Cutting-plane rounds used.
    pub rounds: usize,
}

/// Builds the cut-free augmentation master: the allocation master of
/// [`crate::robust`] turned into a design problem — sense `min`, one
/// non-negative `extra_e` column per link (cost `weight(e)`) relieving both
/// of the link's capacity rows, and the served fraction a column fixed at
/// `z_target`. Returns the master and the `extra_e` columns.
fn augment_master(
    inst: &Instance,
    z_target: f64,
    weight: impl Fn(LinkId) -> f64,
    opts: &RobustOptions,
) -> (Master, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    lp.set_options(opts.lp.clone());
    let extra_vars: Vec<VarId> = inst
        .topo()
        .links()
        .map(|l| lp.add_var(0.0, f64::INFINITY, weight(l).max(0.0)))
        .collect();
    let master = Master::new(lp, inst, &extra_vars, |lp| {
        ZVars::Shared(lp.add_var(z_target, z_target, 0.0))
    });
    (master, extra_vars)
}

/// Finds the cheapest capacity augmentation such that the instance can
/// guarantee demand scale `z_target` under `fm` (PCF link-based model).
///
/// `weight(l)` is the per-unit cost of adding capacity to link `l` (e.g.
/// fiber distance); both directions of the link are upgraded together.
///
/// Returns `Ok(None)` if the cutting-plane loop fails to converge within
/// `opts.max_rounds` (the problem itself is always feasible: enough added
/// capacity can satisfy any target), and `Err` if a master or separation
/// LP fails structurally.
pub fn augment_capacity(
    inst: &Instance,
    fm: &FailureModel,
    z_target: f64,
    weight: impl Fn(LinkId) -> f64,
    opts: &RobustOptions,
) -> Result<Option<Augmentation>, RobustError> {
    assert!(z_target >= 0.0 && z_target.is_finite());
    let (mut master, extra_vars) = augment_master(inst, z_target, weight, opts);
    let scale = 1.0 + inst.total_demand() * z_target.max(1.0);
    let end = master.cutting_planes(inst, fm, AdversaryKind::LinkBased, opts, scale, None)?;
    if end.certified.is_none() {
        return Ok(None);
    }
    let MasterOptimum { sol, a, b, .. } = end.optimum;
    Ok(Some(Augmentation {
        extra: extra_vars.iter().map(|&v| sol.value(v).max(0.0)).collect(),
        total_cost: sol.objective,
        a,
        b,
        rounds: end.rounds,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::robust::{solve_robust, AdversaryKind};
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
    fn no_augmentation_needed_when_target_is_met() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(1);
        // Diamond already guarantees 1.0.
        let aug = augment_capacity(&inst, &fm, 1.0, |_| 1.0, &RobustOptions::default())
            .unwrap()
            .unwrap();
        assert!(aug.total_cost < 1e-6, "cost {}", aug.total_cost);
    }

    #[test]
    fn augmentation_buys_the_target() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(1);
        // Target 2.0 under single failures: each surviving path must carry
        // 2.0 alone -> each of the 4 links needs capacity 2 -> add 1 per
        // link -> total 4.
        let aug = augment_capacity(&inst, &fm, 2.0, |_| 1.0, &RobustOptions::default())
            .unwrap()
            .unwrap();
        assert!(
            (aug.total_cost - 4.0).abs() < 1e-4,
            "cost {}",
            aug.total_cost
        );
        // Verify on the augmented topology: build it and re-solve.
        let mut upgraded = Topology::new("upgraded");
        for n in topo.nodes() {
            upgraded.add_node(topo.node_name(n).to_string());
        }
        for l in topo.links() {
            let link = topo.link(l);
            upgraded.add_link(link.u, link.v, link.capacity + aug.extra[l.index()]);
        }
        let inst2 = InstanceBuilder::with_demands(&upgraded, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let sol = solve_robust(
            &inst2,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective >= 2.0 - 1e-5, "got {}", sol.objective);
    }

    #[test]
    fn weights_steer_the_upgrade() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(0);
        // Target 3 with no failures: total s->t capacity must reach 3.
        // Path via 'a' is expensive (weight 10), via 'b' cheap (weight 1):
        // the upgrade should land on the cheap path.
        let aug = augment_capacity(
            &inst,
            &fm,
            3.0,
            |l| if l.index() <= 1 { 10.0 } else { 1.0 },
            &RobustOptions::default(),
        )
        .unwrap()
        .unwrap();
        assert!(
            aug.extra[0] < 1e-6 && aug.extra[1] < 1e-6,
            "{:?}",
            aug.extra
        );
        assert!((aug.extra[2] - 1.0).abs() < 1e-5 && (aug.extra[3] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn alive_conditioned_ls_counts_at_no_failure() {
        // Line s-a-t whose only way from s to t is the LS s->a->t, active
        // while link s-a is alive (the Fig. 5 condition shape). At no
        // failure the LS is active, so the network already guarantees 1.0
        // and nothing needs to be bought.
        let mut topo = Topology::new("line");
        let s = topo.add_node("s");
        let a = topo.add_node("a");
        let t = topo.add_node("t");
        let sa = topo.add_link(s, a, 1.0);
        let at = topo.add_link(a, t, 1.0);
        let inst = InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)])
            .no_auto_tunnels()
            .add_tunnel(pcf_paths::Path {
                nodes: vec![s, a],
                links: vec![sa],
            })
            .add_tunnel(pcf_paths::Path {
                nodes: vec![a, t],
                links: vec![at],
            })
            .add_ls(crate::instance::LogicalSequence {
                hops: vec![s, a, t],
                condition: crate::failure::Condition::AliveDead {
                    alive: vec![sa],
                    dead: vec![],
                },
            })
            .build();
        let fm = FailureModel::links(0);
        let opts = RobustOptions::default();
        let sol = solve_robust(&inst, &fm, AdversaryKind::LinkBased, &opts);
        assert!((sol.objective - 1.0).abs() < 1e-6, "got {}", sol.objective);
        let aug = augment_capacity(&inst, &fm, 0.5, |_| 1.0, &opts)
            .unwrap()
            .expect("converges");
        assert!(aug.total_cost < 1e-6, "cost {}", aug.total_cost);
    }

    #[test]
    fn later_rounds_resolve_the_live_master_warm() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        let z_target = 2.0 * solve_robust(&inst, &fm, AdversaryKind::LinkBased, &opts).objective;
        let (mut master, _) = augment_master(&inst, z_target, |_| 1.0, &opts);
        let scale = 1.0 + inst.total_demand() * z_target.max(1.0);
        let end = master
            .cutting_planes(&inst, &fm, AdversaryKind::LinkBased, &opts, scale, None)
            .unwrap();
        assert!(end.certified.is_some());
        assert!(end.rounds >= 2, "expected a multi-round solve");
        let stats = master.lp.stats();
        // Cut rows `... >= z* d` do not hold at the origin, so a warm attempt
        // may be abandoned; every one that is not answers from the live basis.
        println!("augment master: {stats:?}");
        assert_eq!(stats.warm_solves + stats.warm_fallbacks, end.rounds - 1);
    }
}
