//! Admission control from a standing robust plan (no re-solve).
//!
//! A converged [`crate::robust::RobustSolution`] carries, per pair, the
//! inner adversary's optimum over the relaxed failure polytope
//! ([`crate::robust::RobustSolution::worst_available`]). Because the
//! relaxed polytope contains every integral scenario, that value
//! *lower-bounds* the true worst-case availability — so
//!
//! ```text
//! served[p] + d  <=  worst_available[p]
//! ```
//!
//! is a sufficient condition for "demand `d` can be added between the
//! pair's endpoints and every modeled failure scenario still realizes
//! congestion-free" (Proposition 5 turns the per-pair constraint into
//! joint feasibility, and no other pair's constraint mentions `served[p]`).
//! That is the O(1) fast path of [`admit`].
//!
//! When the fast path rejects, the relaxation may simply be conservative.
//! [`integral_worst_case`] settles it exactly: only links that appear in
//! the pair's tunnels or in the activation conditions of its `L(p)`/`Q(p)`
//! sequences can move the pair's availability, so enumerating ≤f-subsets
//! of that *candidate* set visits the true integral minimum — and the
//! minimizing subset is a concrete witnessing scenario for a rejection.

use crate::failure::{next_combination, Condition, FailureModel, GroupBudget};
use crate::instance::{Instance, PairId};
use pcf_topology::LinkId;
use std::collections::BTreeSet;

/// Exact (integral) worst case of one pair's availability, with the
/// scenario that attains it.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioWorstCase {
    /// Minimum availability over the enumerated scenarios.
    pub available: f64,
    /// The links dead in the minimizing scenario (empty = no failure).
    pub witness: Vec<LinkId>,
    /// Scenarios evaluated to find the minimum.
    pub evaluated: usize,
}

/// The decision of [`admit`], with enough context to explain it on a wire
/// protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitOutcome {
    /// The extra demand survives every modeled scenario.
    Admitted {
        /// Availability slack beyond the pair's current served demand.
        headroom: f64,
        /// True when the O(1) relaxed bound already sufficed; false when
        /// the exact enumeration had to overrule a conservative relaxation.
        relaxed: bool,
    },
    /// Some scenario cannot carry the extra demand.
    Rejected {
        /// The binding worst-case availability (integral when a witness is
        /// present, the relaxed bound otherwise).
        worst_available: f64,
        /// A concrete ≤f scenario that violates the requested demand, when
        /// the enumeration stayed within its evaluation budget.
        witness: Option<Vec<LinkId>>,
    },
}

impl AdmitOutcome {
    /// True for [`AdmitOutcome::Admitted`].
    pub fn admitted(&self) -> bool {
        matches!(self, AdmitOutcome::Admitted { .. })
    }
}

/// The links whose liveness can change this pair's availability: links on
/// its tunnels plus links referenced by the activation conditions of its
/// `L(p)` and `Q(p)` logical sequences. Failures outside this set leave
/// the availability formula untouched.
pub fn candidate_links(inst: &Instance, p: PairId) -> Vec<LinkId> {
    let mut set: BTreeSet<LinkId> = BTreeSet::new();
    for &l in inst.tunnels_of(p) {
        set.extend(inst.tunnel(l).links.iter().copied());
    }
    for &q in inst.lss_of(p).iter().chain(inst.segments_of(p)) {
        match &inst.ls(q).condition {
            Condition::Always => {}
            Condition::LinkDead(e) => {
                set.insert(*e);
            }
            Condition::AliveDead { alive, dead } => {
                set.extend(alive.iter().copied());
                set.extend(dead.iter().copied());
            }
        }
    }
    set.into_iter().collect()
}

/// Availability of pair `p` under a concrete dead-link mask — the left
/// side of scenario constraint (1):
/// `Σ_l a_l·alive_l + Σ_{q∈L(p)} b_q·h_q − Σ_{q'∈Q(p)} b_{q'}·h_{q'}`.
pub fn availability_under(
    inst: &Instance,
    p: PairId,
    a: &[f64],
    b: &[f64],
    dead_mask: &[bool],
) -> f64 {
    let mut avail = 0.0;
    for &l in inst.tunnels_of(p) {
        if inst.tunnel(l).links.iter().all(|e| !dead_mask[e.index()]) {
            avail += a[l.0];
        }
    }
    for &q in inst.lss_of(p) {
        if inst.ls(q).condition.holds(dead_mask) {
            avail += b[q.0];
        }
    }
    for &q in inst.segments_of(p) {
        if inst.ls(q).condition.holds(dead_mask) {
            avail -= b[q.0];
        }
    }
    avail
}

/// Exact integral worst-case availability of pair `p` under one budget:
/// every subset of `1..=f` of its groups that can kill one of the pair's
/// [`candidate_links`], starting from `best` (the no-failure scenario).
/// Returns `None` when more than `max_evals` evaluations would be needed.
///
/// Sub-budget cardinalities are enumerated too: conditional LSs make
/// availability non-monotone in the failure set (an extra failure can
/// *activate* a protection sequence), so the minimum need not sit at
/// cardinality exactly `f`.
fn budget_worst_case(
    inst: &Instance,
    p: PairId,
    budget: &GroupBudget,
    a: &[f64],
    b: &[f64],
    max_evals: usize,
    mut best: ScenarioWorstCase,
) -> Option<ScenarioWorstCase> {
    let candidates = candidate_links(inst, p);
    let mut units: Vec<Vec<LinkId>> = Vec::with_capacity(candidates.len());
    budget.for_each_group(inst.topo(), |g| {
        if g.iter().any(|l| candidates.binary_search(l).is_ok()) {
            units.push(g.to_vec());
        }
    });
    let f = budget.f.min(units.len());
    // Budgeted check before enumerating: Σ_{k<=f} C(n, k).
    let mut total: usize = 1;
    let mut level: usize = 1;
    for k in 1..=f {
        level = level.saturating_mul(units.len() - k + 1) / k;
        total = total.saturating_add(level);
        if total > max_evals {
            return None;
        }
    }

    let mut mask = vec![false; inst.topo().link_count()];
    let mut idx = Vec::new();
    for k in 1..=f {
        idx.clear();
        idx.extend(0..k);
        loop {
            for &i in &idx {
                for l in &units[i] {
                    mask[l.index()] = true;
                }
            }
            best.evaluated += 1;
            let avail = availability_under(inst, p, a, b, &mask);
            if avail < best.available {
                best.available = avail;
                best.witness = idx
                    .iter()
                    .flat_map(|&i| units[i].iter().copied())
                    .collect::<BTreeSet<LinkId>>()
                    .into_iter()
                    .collect();
            }
            for &i in &idx {
                for l in &units[i] {
                    mask[l.index()] = false;
                }
            }
            if !next_combination(&mut idx, units.len()) {
                break;
            }
        }
    }
    Some(best)
}

/// Integral worst-case availability of pair `p` under `fm`, with the
/// scenario attaining it. Returns `None` when more than `max_evals`
/// scenario evaluations would be needed — callers then fall back to the
/// relaxed bound.
///
/// Exact for explicit lists (the listed scenarios) and for a single budget
/// without degradation (see `budget_worst_case`). With several budgets
/// or a degradation polytope the result is a conservative *lower bound*:
/// per-budget exact worst losses plus a linearized degradation loss are
/// summed, which subadditivity makes safe — but only without conditional
/// LSs, so `None` is returned when the pair has any.
pub fn integral_worst_case(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    max_evals: usize,
) -> Option<ScenarioWorstCase> {
    let topo = inst.topo();
    let mut mask = vec![false; topo.link_count()];
    // Seed with the no-failure scenario (always admissible as a scenario).
    let mut best = ScenarioWorstCase {
        available: availability_under(inst, p, a, b, &mask),
        witness: Vec::new(),
        evaluated: 0,
    };
    let (budgets, degradation) = match fm {
        FailureModel::Explicit { scenarios } => {
            for scenario in scenarios {
                best.evaluated += 1;
                if best.evaluated > max_evals {
                    return None;
                }
                for l in scenario {
                    mask[l.index()] = true;
                }
                let avail = availability_under(inst, p, a, b, &mask);
                for l in scenario {
                    mask[l.index()] = false;
                }
                if avail < best.available {
                    best.available = avail;
                    best.witness = scenario.clone();
                }
            }
            return Some(best);
        }
        FailureModel::Budgeted {
            budgets,
            degradation,
        } => (budgets, degradation),
    };
    if let ([only], None) = (budgets.as_slice(), degradation) {
        return budget_worst_case(inst, p, only, a, b, max_evals, best);
    }
    // Conditional LSs make availability non-additive across the
    // conjunctive budgets (one budget's failures can activate or
    // deactivate protection another budget's loss was computed against),
    // so summing per-budget worst losses would not be a bound in either
    // direction. Stay conservative: report "cannot enumerate" and let the
    // caller fall back to the relaxed bound (a true lower bound by
    // construction).
    let conditional = inst
        .lss_of(p)
        .iter()
        .chain(inst.segments_of(p))
        .any(|&q| !matches!(inst.ls(q).condition, Condition::Always));
    if conditional {
        return None;
    }
    // With Always-only conditions, availability = const + Σ_alive a: the
    // loss of a failure set is a coverage function, hence subadditive, and
    // summing each budget's exact worst loss lower-bounds the joint
    // availability (conservative-safe).
    let base = best.clone();
    let mut total_loss = 0.0;
    let mut witness: BTreeSet<LinkId> = BTreeSet::new();
    for bgt in budgets {
        let left = max_evals.saturating_sub(best.evaluated);
        let wc = budget_worst_case(inst, p, bgt, a, b, left, base.clone())?;
        best.evaluated += wc.evaluated;
        total_loss += (base.available - wc.available).max(0.0);
        witness.extend(wc.witness);
    }
    // Degradation loss: the linearized per-link weights
    // w_e = Σ_{τ_l ∋ e} a_l make Σ_e w_e d_e an upper bound on the realized
    // multiplicative loss; the box+budget LP maximum is attained greedily
    // on the largest weights.
    if let Some(deg) = degradation {
        let mut w = vec![0.0f64; topo.link_count()];
        let mut total_a = 0.0;
        for &l in inst.tunnels_of(p) {
            total_a += a[l.0].max(0.0);
            for e in &inst.tunnel(l).links {
                w[e.index()] += a[l.0].max(0.0);
            }
        }
        let mut order: Vec<usize> = (0..w.len()).collect();
        order.sort_by(|&i, &j| w[j].total_cmp(&w[i]).then(i.cmp(&j)));
        let mut deg_loss = 0.0;
        let mut budget_left = deg.budget.unwrap_or(f64::INFINITY);
        for e in order {
            if budget_left <= 0.0 || w[e] <= 0.0 {
                break;
            }
            let d = (1.0 - deg.floor[e]).clamp(0.0, 1.0).min(budget_left);
            deg_loss += w[e] * d;
            budget_left -= d;
        }
        total_loss += deg_loss.min(total_a);
    }
    best.available = base.available - total_loss;
    best.witness = witness.into_iter().collect();
    Some(best)
}

/// Decides whether demand `extra` can be added on pair `p` without
/// violating any modeled scenario, given the pair's currently served
/// demand and the stored relaxed worst-case availability (the dual value
/// [`crate::robust::RobustSolution::worst_available`] carries).
///
/// Fast path: the relaxed bound admits in O(1). Otherwise the exact
/// integral enumeration either overrules the (conservative) relaxation or
/// produces a witnessing scenario for the rejection. `tol_abs` absorbs LP
/// tolerance noise; `max_evals` bounds the enumeration.
#[expect(clippy::too_many_arguments, reason = "independent inputs")]
pub fn admit(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    served_p: f64,
    relaxed_available: f64,
    extra: f64,
    tol_abs: f64,
    max_evals: usize,
) -> AdmitOutcome {
    let required = served_p + extra;
    if required <= relaxed_available + tol_abs {
        return AdmitOutcome::Admitted {
            headroom: relaxed_available - served_p,
            relaxed: true,
        };
    }
    match integral_worst_case(inst, p, fm, a, b, max_evals) {
        Some(wc) if required <= wc.available + tol_abs => AdmitOutcome::Admitted {
            headroom: wc.available - served_p,
            relaxed: false,
        },
        Some(wc) => AdmitOutcome::Rejected {
            worst_available: wc.available,
            witness: Some(wc.witness),
        },
        // Enumeration over budget: fall back to the (safe, conservative)
        // relaxed verdict, without a concrete witness.
        None => AdmitOutcome::Rejected {
            worst_available: relaxed_available,
            witness: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::Scenario;
    use crate::instance::InstanceBuilder;
    use crate::robust::{solve_robust, AdversaryKind, RobustOptions};
    use crate::validate::{validate_all, validate_scenarios};
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
    fn integral_worst_case_matches_hand_count() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        // One unit on each 2-hop tunnel; any single failure kills one
        // tunnel, leaving availability 1.
        let a = vec![1.0; inst.num_tunnels()];
        let wc = integral_worst_case(&inst, p, &FailureModel::links(1), &a, &[], 10_000).unwrap();
        assert!((wc.available - 1.0).abs() < 1e-12, "{wc:?}");
        assert_eq!(wc.witness.len(), 1);
        // f=2 can cut both tunnels.
        let wc2 = integral_worst_case(&inst, p, &FailureModel::links(2), &a, &[], 10_000).unwrap();
        assert!(wc2.available.abs() < 1e-12, "{wc2:?}");
        assert_eq!(wc2.witness.len(), 2);
    }

    #[test]
    fn relaxed_bound_is_conservative() {
        // worst_available (relaxed) <= integral worst case, pair by pair.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(
            &topo,
            vec![(NodeId(0), NodeId(3), 1.0), (NodeId(1), NodeId(2), 0.5)],
        )
        .tunnels_per_pair(2)
        .build();
        let fm = FailureModel::links(1);
        let sol = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert_eq!(sol.worst_available.len(), inst.num_pairs());
        for p in inst.pair_ids() {
            let wc = integral_worst_case(&inst, p, &fm, &sol.a, &sol.b, 10_000).unwrap();
            assert!(
                sol.worst_available[p.0] <= wc.available + 1e-9,
                "pair {p:?}: relaxed {} > integral {}",
                sol.worst_available[p.0],
                wc.available
            );
            // And the plan it certifies really serves the demand.
            assert!(sol.worst_available[p.0] >= sol.z[p.0] * inst.demand(p) - 1e-6);
        }
    }

    #[test]
    fn admitted_demand_validates_and_rejection_carries_witness() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(1);
        let sol = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        let served = sol.z[p.0] * inst.demand(p);
        let headroom = sol.worst_available[p.0] - served;

        // Half the headroom must be admitted and validate congestion-free.
        let extra = 0.5 * headroom;
        let out = admit(
            &inst,
            p,
            &fm,
            &sol.a,
            &sol.b,
            served,
            sol.worst_available[p.0],
            extra,
            1e-9,
            10_000,
        );
        assert!(out.admitted(), "{out:?}");
        let bumped = vec![served + extra];
        let report = validate_all(&inst, &fm, &sol.a, &sol.b, &bumped, 1e-6);
        assert!(report.congestion_free(), "{:?}", report.violations);

        // Far beyond the headroom must be rejected with a witness whose
        // scenario indeed breaks validation.
        let out = admit(
            &inst,
            p,
            &fm,
            &sol.a,
            &sol.b,
            served,
            sol.worst_available[p.0],
            headroom + 0.5,
            1e-9,
            10_000,
        );
        let AdmitOutcome::Rejected {
            witness: Some(witness),
            worst_available,
        } = out
        else {
            panic!("expected witnessed rejection, got {out:?}");
        };
        assert!(served + headroom + 0.5 > worst_available);
        let mut mask = vec![false; inst.topo().link_count()];
        for l in &witness {
            mask[l.index()] = true;
        }
        let overloaded = vec![served + headroom + 0.5];
        let witnessed = [Scenario::from_mask(mask)];
        let report = validate_scenarios(&inst, &sol.a, &sol.b, &overloaded, &witnessed, 1e-6);
        assert!(
            !report.congestion_free(),
            "witness scenario {witness:?} did not violate"
        );
    }

    #[test]
    fn group_model_enumerates_group_subsets() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        let a = vec![1.0; inst.num_tunnels()];
        // One SRLG holding both first-hop links: a single group failure
        // kills both tunnels.
        let fm = FailureModel::srlgs(
            vec![vec![pcf_topology::LinkId(0), pcf_topology::LinkId(2)]],
            1,
        );
        let wc = integral_worst_case(&inst, p, &fm, &a, &[], 10_000).unwrap();
        assert!(wc.available.abs() < 1e-12, "{wc:?}");
        assert_eq!(wc.witness.len(), 2);
    }

    #[test]
    fn evaluation_budget_falls_back_to_none() {
        let topo = pcf_topology::zoo::build("Abilene");
        let tm = pcf_traffic::gravity(&topo, 5);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let p = PairId(0);
        let a = vec![0.1; inst.num_tunnels()];
        assert!(integral_worst_case(&inst, p, &FailureModel::links(3), &a, &[], 2).is_none());
    }
}
