//! End-to-end validation: is an allocation *actually* congestion-free?
//!
//! The offline models prove congestion-freedom over a relaxed scenario set;
//! this module checks the real thing by enumerating (or sampling) concrete
//! failure scenarios, realizing the routing for each (paper §4), and
//! verifying that
//!
//! 1. every utilization fraction is in `[0, 1]`,
//! 2. no directed arc carries more than its capacity, and
//! 3. every pair's admitted demand is delivered.
//!
//! Distinct dead-link masks frequently collapse to the same routing: the
//! realization reads the mask only through tunnel liveness and LS
//! activation, so masks with equal [`FailureState::liveness_signature`]s
//! are realized once and the solution shared (common on sparse topologies
//! where many links carry no tunnel of interest).
//!
//! Used heavily by the integration and property tests; also useful as an
//! operator-facing audit tool.

use crate::degrade::{exceeds_capacity, CAPACITY_FLOOR};
use crate::failure::{FailureModel, Scenario};
use crate::instance::Instance;
use crate::realize::{degraded_reservations, FailureState, RealizeError, Realizer};
use pcf_rng::Fnv1a;
use std::collections::BTreeMap;

/// How many hotspot arcs a [`ValidationReport`] retains.
const TOP_ARCS: usize = 5;

/// Outcome of validating one allocation over a scenario set.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Scenarios checked.
    pub scenarios: usize,
    /// Distinct liveness signatures actually realized; the remaining
    /// `scenarios - distinct_states` masks reused a previous solution.
    pub distinct_states: usize,
    /// Highest arc utilization observed across all scenarios.
    pub max_utilization: f64,
    /// The most-utilized arcs across all scenarios, highest first (up to 5
    /// entries; each arc's utilization is its worst over the scenario set).
    pub top_arcs: Vec<ArcHotspot>,
    /// Scenarios where realization failed or a constraint was violated,
    /// with the scenario attached.
    pub violations: Vec<Violation>,
    /// Largest [`crate::Routing::bump`] over the realized states: `0` when
    /// every state was served by Prop. 7's walk alone, otherwise the most
    /// rows any state solved in the LU blocks of its LS cycles.
    pub max_bump: usize,
}

/// One arc's worst-case utilization over a validated scenario set.
#[derive(Debug, Clone, PartialEq)]
pub struct ArcHotspot {
    /// Directed arc index.
    pub arc: usize,
    /// Peak load / capacity over all scenarios.
    pub utilization: f64,
}

/// One failed scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The offending scenario (`cap_scale` empty unless it degrades a link).
    pub scenario: Scenario,
    /// What went wrong.
    pub kind: ViolationKind,
}

/// Failure modes the validator distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ViolationKind {
    /// The routing could not be realized at all.
    Realize(RealizeError),
    /// An arc exceeded its capacity (arc index, load, capacity).
    Overload {
        /// Directed arc index.
        arc: usize,
        /// Traffic on the arc.
        load: f64,
        /// Arc capacity.
        capacity: f64,
    },
}

/// Violation counts by class — the shape of a failed validation, used by
/// the CLI to explain *how* an allocation failed (and whether the
/// degradation ladder would have absorbed it: disconnections are exactly
/// the scenarios stage 2/3 of `crate::degrade` serve best-effort).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViolationSummary {
    /// Scenarios where some pair had no surviving tunnel or LS at all.
    pub disconnected: usize,
    /// Other realization failures (singular matrix, zero reservations on
    /// a still-connected pair, bad input).
    pub realize: usize,
    /// Arc capacity violations.
    pub overload: usize,
}

impl ViolationSummary {
    /// Total violations summarized.
    pub fn total(&self) -> usize {
        self.disconnected + self.realize + self.overload
    }
}

impl ValidationReport {
    /// True when every scenario realized a feasible, congestion-free
    /// routing.
    pub fn congestion_free(&self) -> bool {
        self.violations.is_empty()
    }

    /// Classifies the violation list by failure mode.
    pub fn summarize(&self) -> ViolationSummary {
        let mut s = ViolationSummary::default();
        for v in &self.violations {
            match &v.kind {
                ViolationKind::Realize(RealizeError::Disconnected(_)) => s.disconnected += 1,
                ViolationKind::Realize(_) => s.realize += 1,
                ViolationKind::Overload { .. } => s.overload += 1,
            }
        }
        s
    }

    /// A deterministic 64-bit fingerprint of the report, for comparing
    /// validation outcomes across runs and thread counts.
    ///
    /// FNV-1a over the scenario counts, utilizations quantized to a 1e-6
    /// grid (so last-ulp arithmetic noise does not flip the digest), the
    /// hotspot list, and every violation including its scenario.
    pub fn digest(&self) -> u64 {
        fn quantize(u: f64) -> i64 {
            if u.is_finite() {
                (u * 1e6).round() as i64
            } else if u > 0.0 {
                i64::MAX
            } else {
                i64::MIN
            }
        }
        let mut h = Fnv1a::new();
        h.write_u64(self.scenarios as u64);
        h.write_u64(self.distinct_states as u64);
        h.write_bytes(&quantize(self.max_utilization).to_le_bytes());
        for hot in &self.top_arcs {
            h.write_u64(hot.arc as u64);
            h.write_bytes(&quantize(hot.utilization).to_le_bytes());
        }
        for v in &self.violations {
            for chunk in v.scenario.dead.chunks(8) {
                let mut byte = 0u8;
                for (i, &bit) in chunk.iter().enumerate() {
                    if bit {
                        byte |= 1 << i;
                    }
                }
                h.write_bytes(&[byte]);
            }
            for &s in &v.scenario.cap_scale {
                h.write_bytes(&quantize(s).to_le_bytes());
            }
            match &v.kind {
                ViolationKind::Realize(e) => {
                    h.write_bytes(&[0u8]);
                    h.write_bytes(format!("{e:?}").as_bytes());
                }
                ViolationKind::Overload {
                    arc,
                    load,
                    capacity,
                } => {
                    h.write_bytes(&[1u8]);
                    h.write_u64(*arc as u64);
                    h.write_bytes(&quantize(*load).to_le_bytes());
                    h.write_bytes(&quantize(*capacity).to_le_bytes());
                }
            }
        }
        h.finish()
    }

    /// Worst residual overload over the violation list:
    /// `max(load/capacity - 1)` across `Overload` entries, `0.0` when none
    /// (same convention as `crate::degrade::overload_bound`).
    pub fn worst_overload(&self) -> f64 {
        let mut worst = 0.0f64;
        for v in &self.violations {
            if let ViolationKind::Overload { load, capacity, .. } = v.kind {
                worst = worst.max(load / capacity.max(CAPACITY_FLOOR) - 1.0);
            }
        }
        worst
    }
}

/// Validates an allocation `(a, b, served)` over every scenario in
/// `scenarios`.
///
/// `served[p] = z_p * d_p`; `tol` is the relative feasibility tolerance.
/// Degraded scenarios realize with rescaled reservations
/// ([`degraded_reservations`]) and check loads against the degraded
/// capacities; a plan solved without degradation awareness typically fails
/// these with utilization-out-of-range realizations (it promised traffic the
/// sagging links can no longer carry). Scenarios with identical liveness
/// signatures *and* capacity scales are realized once and share the
/// solution; every scenario still gets its own violation entries. One
/// [`Realizer`] realizes them all.
pub fn validate_scenarios(
    inst: &Instance,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    scenarios: &[Scenario],
    tol: f64,
) -> ValidationReport {
    let mut realizer = Realizer::new(inst, b, served, tol);
    validate_with(&mut realizer, inst, a, scenarios, tol)
}

/// [`validate_scenarios`] through `realizer`, which holds the plan's `b`
/// and `served`.
fn validate_with(
    realizer: &mut Realizer<'_>,
    inst: &Instance,
    a: &[f64],
    scenarios: &[Scenario],
    tol: f64,
) -> ValidationReport {
    let topo = inst.topo();
    let mut arc_peak = vec![0.0f64; topo.arc_count()];
    let mut violations = Vec::new();
    let mut max_bump = 0;
    // Realized (or failed) routings keyed by (liveness signature, quantized
    // capacity scales — empty when undegraded).
    let mut by_key: BTreeMap<(Vec<u64>, Vec<i64>), usize> = BTreeMap::new();
    let mut solved: Vec<Result<Vec<f64>, RealizeError>> = Vec::new();
    for sc in scenarios {
        // Empty for undegraded scenarios, whatever the caller spelled out.
        let scale: &[f64] = if sc.undegraded() { &[] } else { &sc.cap_scale };
        let violation = |kind| Violation {
            scenario: Scenario {
                dead: sc.dead.clone(),
                cap_scale: scale.to_vec(),
            },
            kind,
        };
        let state = match FailureState::with_cap_scale(inst, &sc.dead, scale) {
            Ok(s) => s,
            Err(e) => {
                violations.push(violation(ViolationKind::Realize(e)));
                continue;
            }
        };
        let scale_key: Vec<i64> = scale.iter().map(|&s| (s * 1e9).round() as i64).collect();
        let idx = *by_key
            .entry((state.liveness_signature(), scale_key))
            .or_insert_with(|| {
                let routing = if scale.is_empty() {
                    realizer.realize(&state, a)
                } else {
                    realizer.realize(&state, &degraded_reservations(inst, &state, a))
                };
                max_bump = max_bump.max(routing.as_ref().map_or(0, |r| r.bump));
                solved.push(routing.map(|r| r.arc_loads));
                solved.len() - 1
            });
        match &solved[idx] {
            Err(e) => violations.push(violation(ViolationKind::Realize(e.clone()))),
            Ok(arc_loads) => {
                for arc in topo.arcs() {
                    let load = arc_loads[arc.index()];
                    let kept = scale
                        .get(arc.link().index())
                        .map_or(1.0, |s| s.clamp(0.0, 1.0));
                    let cap = topo.capacity(arc.link()) * kept;
                    if exceeds_capacity(load, cap, tol) {
                        violations.push(violation(ViolationKind::Overload {
                            arc: arc.index(),
                            load,
                            capacity: cap,
                        }));
                    }
                    arc_peak[arc.index()] =
                        arc_peak[arc.index()].max(load / cap.max(CAPACITY_FLOOR));
                }
            }
        }
    }
    ValidationReport {
        scenarios: scenarios.len(),
        distinct_states: solved.len(),
        max_utilization: arc_peak.iter().fold(0.0, |m, &u| m.max(u)),
        top_arcs: top_hotspots(&arc_peak, TOP_ARCS),
        violations,
        max_bump,
    }
}

/// The `k` busiest arcs by peak utilization, highest first (arcs that never
/// carried traffic are skipped; ties break toward the lower arc index).
fn top_hotspots(arc_peak: &[f64], k: usize) -> Vec<ArcHotspot> {
    let mut hot: Vec<ArcHotspot> = arc_peak
        .iter()
        .enumerate()
        .filter(|&(_, &u)| u > 0.0)
        .map(|(arc, &utilization)| ArcHotspot { arc, utilization })
        .collect();
    hot.sort_by(|x, y| {
        y.utilization
            .total_cmp(&x.utilization)
            .then(x.arc.cmp(&y.arc))
    });
    hot.truncate(k);
    hot
}

/// Validates over every scenario of the failure model: all
/// worst-cardinality failure masks, composed with the degradation corner
/// points when the model carries a polytope.
pub fn validate_all(
    inst: &Instance,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
) -> ValidationReport {
    let scenarios = fm.enumerate_scenarios(inst.topo());
    validate_scenarios(inst, a, b, served, &scenarios, tol)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::robust::{solve_robust, AdversaryKind, RobustOptions};
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
    fn solved_allocation_validates() {
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
        let served = sol.served(&inst);
        let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
        assert!(
            report.congestion_free(),
            "violations: {:?}",
            report.violations
        );
        assert!(report.max_utilization <= 1.0 + 1e-6);
        assert_eq!(report.scenarios, 4);
    }

    #[test]
    fn equivalent_masks_collapse_to_one_solve() {
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
        let served = sol.served(&inst);
        let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
        assert_eq!(report.scenarios, 4);
        // Each 2-hop tunnel dies with either of its two links, so the four
        // single-link masks collapse to two distinct liveness states.
        assert_eq!(report.distinct_states, 2);
    }

    #[test]
    fn hotspots_are_ranked_and_consistent() {
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
        let served = sol.served(&inst);
        let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
        assert!(!report.top_arcs.is_empty());
        assert!(report.top_arcs.len() <= 5);
        assert_eq!(report.top_arcs[0].utilization, report.max_utilization);
        for w in report.top_arcs.windows(2) {
            assert!(w[0].utilization >= w[1].utilization, "hotspots unsorted");
        }
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
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
        let served = sol.served(&inst);
        let r1 = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
        let r2 = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
        assert_eq!(r1.digest(), r2.digest(), "same validation, same digest");
        let mut tweaked = r1.clone();
        tweaked.max_utilization += 0.01;
        assert_ne!(r1.digest(), tweaked.digest(), "digest ignores utilization");
        // Sub-grid noise must not flip the digest.
        let mut noisy = r1.clone();
        noisy.max_utilization += 1e-9;
        assert_eq!(r1.digest(), noisy.digest(), "digest unstable under noise");
    }

    #[test]
    fn one_pattern_serves_every_single_link_state() {
        // Quest PCF-LS (gravity seed 1, the 200 heaviest pairs): its LSs
        // are always active, so every state walks the first one's order
        // with new diagonals.
        let topo = pcf_topology::zoo::build("Quest");
        let mut tm = pcf_traffic::gravity(&topo, 1);
        tm.truncate_to_top_k(200);
        let inst = crate::schemes::pcf_ls_instance(&topo, &tm, 3);
        let fm = FailureModel::links(1);
        let sol = crate::schemes::solve_pcf_ls(&inst, &fm, &RobustOptions::default());
        let served = sol.served(&inst);
        let mut realizer = Realizer::new(&inst, &sol.b, &served, 1e-6);
        let scenarios = fm.enumerate_scenarios(&topo);
        let report = validate_with(&mut realizer, &inst, &sol.a, &scenarios, 1e-6);
        assert!(report.congestion_free(), "{:?}", report.violations);
        assert_eq!(report.distinct_states, 29);
        assert_eq!(realizer.orders(), 1);
        assert_eq!(report.max_bump, 0);
    }

    #[test]
    fn a_cyclic_pattern_factors_every_state() {
        // The diamond whose two LSs serve each other, (s,t) through a and
        // (s,a) through t: one component with a cycle, so every state that
        // keeps both pairs solves their 2x2 block by LU.
        let topo = diamond();
        let (s, a, t) = (NodeId(0), NodeId(1), NodeId(3));
        let inst = InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)])
            .add_ls(crate::LogicalSequence::always(vec![s, a, t]))
            .add_ls(crate::LogicalSequence::always(vec![s, t, a]))
            .build();
        let res = vec![1.0; inst.num_tunnels()];
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        let mut realizer = Realizer::new(&inst, &[0.5, 0.25], &served, 1e-6);
        let scenarios = FailureModel::links(1).enumerate_scenarios(&topo);
        let report = validate_with(&mut realizer, &inst, &res, &scenarios, 1e-6);
        assert_eq!(report.max_bump, 2, "the cycle's block");
        assert!(report.distinct_states >= 2);
        assert!(realizer.orders() < report.distinct_states);
    }

    #[test]
    fn overcommitted_allocation_is_caught() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        // Pretend we can deliver 2.0 under single failures — impossible: the
        // realization must either overload or fail.
        let a = vec![1.0; inst.num_tunnels()];
        let served = vec![2.0];
        let report = validate_all(&inst, &FailureModel::links(1), &a, &[], &served, 1e-6);
        assert!(!report.congestion_free());
        let summary = report.summarize();
        assert_eq!(summary.total(), report.violations.len());
        // Overcommitment either overloads arcs or breaks realization, but
        // never disconnects: every single-failure scenario leaves a path.
        assert_eq!(summary.disconnected, 0);
        assert!(summary.overload + summary.realize > 0);
        if summary.overload > 0 {
            assert!(report.worst_overload() > 0.0);
        }
    }

    #[test]
    fn beyond_budget_scenarios_classify_as_disconnected() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let a = vec![0.5; inst.num_tunnels()];
        let served = vec![1.0];
        // Validate a 1-failure plan against 2-failure scenarios: masks
        // killing both of a side's links disconnect the pair.
        let report = validate_all(&inst, &FailureModel::links(2), &a, &[], &served, 1e-6);
        let summary = report.summarize();
        assert!(summary.disconnected > 0, "{summary:?}");
        assert_eq!(summary.total(), report.violations.len());
    }
}
