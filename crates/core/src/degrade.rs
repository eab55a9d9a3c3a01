//! Graceful degradation beyond the protected failure set.
//!
//! PCF's congestion-free guarantee (Props. 5/6) covers at most `f`
//! simultaneous failures. When a concrete scenario leaves that set —
//! more failures than the budget, a singular reservation matrix, a
//! disconnected pair — [`realize_routing`] returns a [`RealizeError`]
//! and the plain serving path delivers *nothing*. This module makes the
//! serving path total: [`degrade_routing`] walks a ladder of fallbacks
//! and always hands back a best-effort [`DegradedRouting`] when the
//! requested [`DegradeMode`] permits one.
//!
//! The ladder stages, in order:
//!
//! 1. **Normal** — the exact realization (`M × U = D`); congestion-free
//!    by Props. 5/6 whenever the scenario is inside the protected set.
//! 2. **Rescaled** — Proposition 7's proportional split, walked in the
//!    order [`realize_routing`] walks, with the error exits removed:
//!    utilizations are clamped to `[0, 1]`
//!    (FFC/R3-style local rescaling), pairs with no live reservation
//!    serve zero instead of erroring. Requires the LSs the state
//!    activates to sort topologically. May overload wobbled capacities.
//! 3. **Shed** — per-pair max-min fair demand shedding as a small LP on
//!    the surviving tunnels: maximize the common served fraction `θ`
//!    (plus a tiny residual-throughput tie-break) subject to per-arc
//!    capacities. Respects capacities by construction.
//!
//! Degraded routings are *best-effort*: they deliberately bypass the
//! congestion-free machinery, so they must never be cached or otherwise
//! confused with guaranteed realizations (the replay engine enforces
//! this — see `pcf-replay`).

use crate::instance::{Instance, PairId};
use crate::realize::{
    absolute_tolerance, prop7_walk, realize_routing, FailureState, RealizeError, Routing,
};
use pcf_lp::{LpProblem, Sense, VarId};
use std::sync::Arc;

/// How far down the ladder the caller allows the realization to fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// No fallback: beyond-budget scenarios keep returning errors.
    #[default]
    Off,
    /// Allow stage 2 (proportional rescale) only.
    Rescale,
    /// Allow stages 2 and 3 (rescale, then max-min fair shedding).
    Shed,
}

impl DegradeMode {
    /// Parses a CLI-style flag value (`off` / `rescale` / `shed`).
    pub fn from_flag(s: &str) -> Option<DegradeMode> {
        match s {
            "off" => Some(DegradeMode::Off),
            "rescale" => Some(DegradeMode::Rescale),
            "shed" => Some(DegradeMode::Shed),
            _ => None,
        }
    }

    /// The flag spelling accepted by [`DegradeMode::from_flag`].
    pub fn as_flag(self) -> &'static str {
        match self {
            DegradeMode::Off => "off",
            DegradeMode::Rescale => "rescale",
            DegradeMode::Shed => "shed",
        }
    }
}

/// Which rung of the ladder produced a routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderStage {
    /// The exact congestion-free realization succeeded.
    Normal,
    /// Proportional rescale of live reservations (stage 2).
    Rescaled,
    /// Max-min fair demand shedding LP (stage 3).
    Shed,
}

impl LadderStage {
    /// Stable short name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            LadderStage::Normal => "normal",
            LadderStage::Rescaled => "rescaled",
            LadderStage::Shed => "shed",
        }
    }

    /// Stable numeric code folded into deterministic digests.
    pub fn code(self) -> u8 {
        match self {
            LadderStage::Normal => 0,
            LadderStage::Rescaled => 1,
            LadderStage::Shed => 2,
        }
    }
}

/// A best-effort routing produced by the degradation ladder.
#[derive(Debug, Clone)]
pub struct DegradedRouting {
    /// The routing actually served (tunnel flows, arc loads). Shared, not
    /// copied, with the realization cache a stage-1 routing came from.
    pub routing: Arc<Routing>,
    /// Which ladder rung produced it.
    pub ladder_stage: LadderStage,
    /// Locally delivered fraction of each pair's *own* served demand
    /// (instance pair order; `1.0` for pairs with nothing to serve).
    /// For LS cascades this is the pair-local fraction — end-to-end
    /// delivery along a chain of segments is the product over the chain.
    /// Every stage-1 routing of an instance shares one all-ones slice.
    pub served_fraction_per_pair: Arc<[f64]>,
    /// Worst residual arc overload: `max(0, load / capacity − 1)` over
    /// all arcs, against the (possibly degraded) capacities in effect.
    pub overload_bound: f64,
    /// Total primary demand not served: `Σ served_p · (1 − fraction_p)`.
    pub shed_demand: f64,
}

/// Peak arc utilization of a routing against explicit per-link
/// capacities (which may differ from the topology's nominal ones, e.g.
/// under injected capacity wobble).
pub fn peak_utilization(inst: &Instance, routing: &Routing, caps: &[f64]) -> f64 {
    let topo = inst.topo();
    topo.arcs()
        .map(|arc| {
            // Capacities are validated positive at trace-parse time; the
            // floor only guards against a degenerate caller.
            let cap = caps[arc.link().index()].max(CAPACITY_FLOOR);
            routing.arc_loads[arc.index()] / cap
        })
        .fold(0.0, f64::max)
}

/// The overload tolerance the replay checker, the adversary campaign and
/// the CLI's `validate` pass to [`exceeds_capacity`].
pub const OVERLOAD_TOL: f64 = 1e-6;

/// Weight of the residual-throughput tie-break in the degradation LP,
/// divided by `1 + Σ served` so the whole term stays far below any
/// meaningful move of the served fraction θ.
const FLOW_TIE_BREAK: f64 = 1e-7;

/// The least capacity a utilization ratio divides by, so a zero-capacity
/// arc reads as a huge ratio instead of a division by zero.
pub const CAPACITY_FLOOR: f64 = 1e-12;

/// Whether `load` overloads an arc of capacity `cap` under the relative
/// feasibility tolerance `tol`: `load > cap · (1 + tol) + tol`. The one
/// overload test of the validator and the replay checker.
pub fn exceeds_capacity(load: f64, cap: f64, tol: f64) -> bool {
    load > cap * (1.0 + tol) + tol
}

/// `max(0, peak − 1)` — the worst relative overload of any arc.
pub fn overload_bound(inst: &Instance, routing: &Routing, caps: &[f64]) -> f64 {
    (peak_utilization(inst, routing, caps) - 1.0).max(0.0)
}

/// Wraps a successful stage-1 realization as a [`DegradedRouting`]; it
/// allocates nothing.
pub fn normal_routing(inst: &Instance, routing: Arc<Routing>, caps: &[f64]) -> DegradedRouting {
    let overload = overload_bound(inst, &routing, caps);
    DegradedRouting {
        routing,
        ladder_stage: LadderStage::Normal,
        served_fraction_per_pair: Arc::clone(inst.full_service()),
        overload_bound: overload,
        shed_demand: 0.0,
    }
}

/// The full ladder: stage 1 (exact realization), then
/// [`degrade_fallback`] on error. With [`DegradeMode::Off`] this is
/// exactly [`realize_routing`] plus the wrapper.
#[expect(clippy::too_many_arguments, reason = "the ladder's inputs")]
pub fn degrade_routing(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
    caps: &[f64],
    mode: DegradeMode,
) -> Result<DegradedRouting, RealizeError> {
    match realize_routing(inst, state, a, b, served, tol) {
        Ok(routing) => Ok(normal_routing(inst, Arc::new(routing), caps)),
        Err(err) => degrade_fallback(inst, state, a, b, served, tol, caps, mode, err),
    }
}

/// Stages 2 and 3 of the ladder, entered after stage 1 failed with
/// `stage1_err`. Returns that original error when the mode forbids a
/// workable fallback (so callers keep the precise failure cause).
///
/// In [`DegradeMode::Shed`] the rescale is accepted outright only when
/// it serves everything within capacity; otherwise the shed LP also
/// runs and wins if it removes an overload or serves strictly more
/// demand. If the LP cannot be solved, an imperfect rescale still beats
/// serving nothing and is returned.
#[expect(clippy::too_many_arguments, reason = "the ladder's inputs")]
pub fn degrade_fallback(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
    caps: &[f64],
    mode: DegradeMode,
    stage1_err: RealizeError,
) -> Result<DegradedRouting, RealizeError> {
    if mode == DegradeMode::Off {
        return Err(stage1_err);
    }
    let tol_abs = absolute_tolerance(served, tol);
    if let Some(rescaled) = rescale_stage(inst, state, a, b, served, tol, caps) {
        if mode == DegradeMode::Rescale
            || (rescaled.overload_bound <= tol && rescaled.shed_demand <= tol_abs)
        {
            return Ok(rescaled);
        }
        if let Some(shed) = shed_stage(inst, state, served, tol, caps) {
            let prefer_shed = (rescaled.overload_bound > tol && shed.overload_bound <= tol)
                || shed.shed_demand + tol_abs < rescaled.shed_demand;
            if prefer_shed {
                return Ok(shed);
            }
        }
        return Ok(rescaled);
    }
    if mode == DegradeMode::Shed {
        if let Some(shed) = shed_stage(inst, state, served, tol, caps) {
            return Ok(shed);
        }
    }
    Err(stage1_err)
}

/// Stage 2: the proportional split of Proposition 7 made total.
///
/// The walk of [`realize_routing`] over a state whose active LSs sort,
/// but where stage 1 errors this one degrades: a pair whose live
/// reservation vanished serves zero,
/// a pair asked for more than its reservation clamps to `u = 1` and sheds
/// the excess pro rata between its own demand and its LS obligations.
/// `None` when the LSs the state activates form a cycle (no topological
/// order — stage 3 territory).
fn rescale_stage(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
    caps: &[f64],
) -> Option<DegradedRouting> {
    let tol_abs = absolute_tolerance(served, tol);
    let mut fraction = vec![1.0f64; inst.num_pairs()];
    let routing = prop7_walk(inst, state, a, b, served, tol_abs, |p, demand, reserved| {
        let own = served[p.0] > tol_abs;
        if reserved <= tol_abs {
            // Nothing live to carry it: shed everything asked of p.
            if own {
                fraction[p.0] = 0.0;
            }
            return Ok(0.0);
        }
        let u = (demand / reserved).min(1.0);
        if own {
            // Delivered u·reserved of demand, shared pro rata.
            fraction[p.0] = (u * reserved / demand).min(1.0);
        }
        Ok(u)
    })
    .ok()?;
    let overload = overload_bound(inst, &routing, caps);
    let shed = shed_total(inst, served, &fraction, tol_abs);
    Some(DegradedRouting {
        routing: Arc::new(routing),
        ladder_stage: LadderStage::Rescaled,
        served_fraction_per_pair: fraction.into(),
        overload_bound: overload,
        shed_demand: shed,
    })
}

/// Stage 3: max-min fair shedding over surviving tunnels.
///
/// One LP: maximize `θ ∈ [0, 1]` such that every connected demand pair
/// delivers at least `θ · served_p` over its live tunnels, no pair
/// delivers more than its demand, and every arc stays within its
/// (possibly degraded) capacity. A tiny secondary weight on total flow
/// lets pairs beyond the bottleneck keep serving above `θ`. LSs are not
/// used here: their recursive obligations are exactly the machinery
/// that just failed, so stage 3 falls back to direct tunnels only —
/// and reservations are ignored, it re-plans from scratch.
/// `None` when the LP does not reach optimality (practically: never —
/// `θ = 0`, all flows zero is always feasible).
fn shed_stage(
    inst: &Instance,
    state: &FailureState,
    served: &[f64],
    tol: f64,
    caps: &[f64],
) -> Option<DegradedRouting> {
    let tol_abs = absolute_tolerance(served, tol);
    let topo = inst.topo();
    let total: f64 = served.iter().sum();
    let mut lp = LpProblem::new(Sense::Maximize);
    // θ first; residual throughput only as a tie-break far below any
    // meaningful θ movement.
    let theta = lp.add_var(0.0, 1.0, 1.0);
    let flow_weight = FLOW_TIE_BREAK / (1.0 + total);
    let mut arc_terms: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.arc_count()];
    // (pair, its tunnel-flow vars); deterministic instance order.
    let mut demand_vars: Vec<(PairId, Vec<(VarId, crate::instance::TunnelId)>)> = Vec::new();
    for p in inst.pair_ids() {
        if served[p.0] <= tol_abs {
            continue;
        }
        let mut vars = Vec::new();
        for l in state.live_tunnels(inst, p) {
            let v = lp.add_var(0.0, served[p.0], flow_weight);
            for arc in inst.tunnel_arcs(l) {
                arc_terms[arc.index()].push((v, 1.0));
            }
            vars.push((v, l));
        }
        if !vars.is_empty() {
            let coeffs: Vec<(VarId, f64)> = vars.iter().map(|&(v, _)| (v, 1.0)).collect();
            lp.add_le(coeffs.clone(), served[p.0]);
            let mut ge = coeffs;
            ge.push((theta, -served[p.0]));
            lp.add_ge(ge, 0.0);
        }
        demand_vars.push((p, vars));
    }
    let arc_link: Vec<usize> = topo.arcs().map(|arc| arc.link().index()).collect();
    for (arc_idx, terms) in arc_terms.into_iter().enumerate() {
        if terms.is_empty() {
            continue;
        }
        lp.add_le(terms, caps[arc_link[arc_idx]].max(0.0));
    }
    let sol = lp.solve().ok()?;
    if !sol.is_optimal() {
        return None;
    }
    let mut tunnel_flow = vec![0.0f64; inst.num_tunnels()];
    let mut arc_loads = vec![0.0f64; topo.arc_count()];
    let mut fraction = vec![1.0f64; inst.num_pairs()];
    let mut pairs = Vec::with_capacity(demand_vars.len());
    let mut u = Vec::with_capacity(demand_vars.len());
    for (p, vars) in &demand_vars {
        let mut delivered = 0.0f64;
        for &(v, l) in vars {
            let f = sol.value(v).max(0.0);
            if f <= 0.0 {
                continue;
            }
            delivered += f;
            tunnel_flow[l.0] += f;
            for arc in inst.tunnel_arcs(l) {
                arc_loads[arc.index()] += f;
            }
        }
        fraction[p.0] = (delivered / served[p.0]).clamp(0.0, 1.0);
        pairs.push(*p);
        u.push(fraction[p.0]);
    }
    let routing = Routing {
        pairs,
        u,
        tunnel_flow,
        arc_loads,
        bump: 0,
    };
    let overload = overload_bound(inst, &routing, caps);
    let shed = shed_total(inst, served, &fraction, tol_abs);
    Some(DegradedRouting {
        routing: Arc::new(routing),
        ladder_stage: LadderStage::Shed,
        served_fraction_per_pair: fraction.into(),
        overload_bound: overload,
        shed_demand: shed,
    })
}

/// Total primary demand left unserved by the per-pair fractions.
fn shed_total(inst: &Instance, served: &[f64], fraction: &[f64], tol_abs: f64) -> f64 {
    inst.pair_ids()
        .map(|p| {
            if served[p.0] > tol_abs {
                served[p.0] * (1.0 - fraction[p.0]).max(0.0)
            } else {
                0.0
            }
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::FailureModel;
    use crate::instance::{InstanceBuilder, LogicalSequence};
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

    fn plan(topo: &Topology) -> (crate::instance::Instance, Vec<f64>, Vec<f64>, Vec<f64>) {
        let inst = InstanceBuilder::with_demands(topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let served = sol.served(&inst);
        (inst, sol.a, sol.b, served)
    }

    fn caps(topo: &Topology) -> Vec<f64> {
        topo.links().map(|l| topo.capacity(l)).collect()
    }

    #[test]
    fn overload_starts_one_float_past_the_bound() {
        for (cap, tol) in [(1.0, 1e-6), (10.0, 1e-9), (0.3, 0.0), (2.5e3, 1e-4)] {
            let bound = cap * (1.0 + tol) + tol;
            assert!(!exceeds_capacity(bound, cap, tol), "cap {cap}, tol {tol}");
            let above = f64::from_bits(bound.to_bits() + 1);
            assert!(exceeds_capacity(above, cap, tol), "cap {cap}, tol {tol}");
        }
    }

    #[test]
    fn within_budget_stays_on_stage_one() {
        let topo = diamond();
        let (inst, a, b, served) = plan(&topo);
        let state = FailureState::new(&inst, &[false; 4]).unwrap();
        let d = degrade_routing(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &caps(&topo),
            DegradeMode::Shed,
        )
        .unwrap();
        assert_eq!(d.ladder_stage, LadderStage::Normal);
        assert_eq!(d.shed_demand, 0.0);
        assert!(d.served_fraction_per_pair.iter().all(|&f| f == 1.0));
        assert!(d.overload_bound <= 1e-7);
    }

    #[test]
    fn beyond_budget_rescales_and_sheds() {
        // Kill both paths' first hops: the f=1 plan cannot realize, but
        // the ladder must still answer. With everything dead the pair is
        // disconnected: rescale serves zero.
        let topo = diamond();
        let (inst, a, b, served) = plan(&topo);
        let mut dead = vec![false; 4];
        dead[0] = true;
        dead[2] = true;
        let state = FailureState::new(&inst, &dead).unwrap();
        let err = realize_routing(&inst, &state, &a, &b, &served, 1e-7).unwrap_err();
        assert!(matches!(err, RealizeError::Disconnected(_)), "{err:?}");
        let d = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &caps(&topo),
            DegradeMode::Rescale,
            err.clone(),
        )
        .unwrap();
        assert_eq!(d.ladder_stage, LadderStage::Rescaled);
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(d.served_fraction_per_pair[p.0], 0.0);
        assert!((d.shed_demand - served[p.0]).abs() < 1e-9);
        assert!(d.routing.tunnel_flow.iter().all(|&f| f == 0.0));
        // Off mode keeps the original error.
        let off = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &caps(&topo),
            DegradeMode::Off,
            err.clone(),
        );
        assert_eq!(off.unwrap_err(), err);
    }

    #[test]
    fn partial_failure_rescale_keeps_surviving_path_within_caps() {
        // One path dead: a single-failure plan realizes normally, so force
        // the fallback directly — the rescale serves what the surviving
        // tunnels can and never overloads nominal capacities.
        let topo = diamond();
        let (inst, a, b, served) = plan(&topo);
        let mut dead = vec![false; 4];
        dead[0] = true;
        let state = FailureState::new(&inst, &dead).unwrap();
        let d = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &caps(&topo),
            DegradeMode::Rescale,
            RealizeError::SingularMatrix,
        )
        .unwrap();
        assert_eq!(d.ladder_stage, LadderStage::Rescaled);
        assert!(d.overload_bound <= 1e-9, "overload {}", d.overload_bound);
        let delivered: f64 = d.routing.tunnel_flow.iter().sum();
        assert!(delivered > 0.0);
    }

    #[test]
    fn shed_stage_respects_degraded_capacities() {
        // Squeeze every capacity to 30%: rescale (reservation-driven)
        // overloads, so Shed mode must fall to the LP, which serves at
        // most 30% per arc and reports the max-min fraction.
        let topo = diamond();
        let (inst, a, b, served) = plan(&topo);
        let state = FailureState::new(&inst, &[false; 4]).unwrap();
        let squeezed: Vec<f64> = caps(&topo).iter().map(|c| 0.3 * c).collect();
        let d = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &squeezed,
            DegradeMode::Shed,
            RealizeError::SingularMatrix,
        )
        .unwrap();
        assert_eq!(d.ladder_stage, LadderStage::Shed);
        assert!(d.overload_bound <= 1e-6, "overload {}", d.overload_bound);
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        // Two disjoint paths at 0.3 capacity each: 0.6 of the demand.
        assert!(
            (d.served_fraction_per_pair[p.0] - 0.6).abs() < 1e-6,
            "fraction {}",
            d.served_fraction_per_pair[p.0]
        );
        assert!((d.shed_demand - 0.4 * served[p.0]).abs() < 1e-6);
        // Same squeeze in Rescale-only mode keeps the overloaded rescale.
        let r = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &squeezed,
            DegradeMode::Rescale,
            RealizeError::SingularMatrix,
        )
        .unwrap();
        assert_eq!(r.ladder_stage, LadderStage::Rescaled);
        assert!(r.overload_bound > 0.1, "overload {}", r.overload_bound);
    }

    #[test]
    fn cyclic_ls_relation_skips_rescale_and_sheds() {
        // Two LSs referencing each other's pair: no topological order, so
        // stage 2 is unavailable; Shed mode reaches the LP, Rescale mode
        // surfaces the original error.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(3),
                NodeId(1),
            ]))
            .build();
        let a = vec![1.0; inst.num_tunnels()];
        let b = vec![1.0; inst.num_lss()];
        let served = vec![1.0; inst.num_pairs()];
        let state = FailureState::new(&inst, &[false; 4]).unwrap();
        let c = caps(&topo);
        let shed = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &c,
            DegradeMode::Shed,
            RealizeError::SingularMatrix,
        )
        .unwrap();
        assert_eq!(shed.ladder_stage, LadderStage::Shed);
        let rescale_only = degrade_fallback(
            &inst,
            &state,
            &a,
            &b,
            &served,
            1e-7,
            &c,
            DegradeMode::Rescale,
            RealizeError::SingularMatrix,
        );
        assert_eq!(rescale_only.unwrap_err(), RealizeError::SingularMatrix);
    }

    #[test]
    fn cls_beyond_budget_states_reach_the_rescale_stage() {
        // A PCF-CLS plan's LSs serve each other in a cycle when all are
        // active, but a state orders only the LSs it activates: each
        // two-link state that stage 1 refuses and whose active relation
        // sorts gets the proportional rescale.
        let topo = pcf_topology::zoo::build("Abilene");
        let fm = FailureModel::links(1);
        let cls = crate::Scheme::PcfCls
            .plan(
                &topo,
                pcf_traffic::gravity(&topo, 1),
                3,
                &fm,
                &RobustOptions::default(),
                None,
            )
            .unwrap();
        let (inst, a, b) = (&cls.inst, &cls.sol.a, &cls.sol.b);
        let served = cls.sol.served(inst);
        let all = vec![true; inst.num_lss()];
        assert!(crate::realize::topological_order(inst, b, &all).is_none());
        let mut rescaled = 0;
        for sc in FailureModel::links(2).enumerate_scenarios(&topo) {
            let state = FailureState::new(inst, &sc.dead).unwrap();
            let sorts = crate::realize::topological_order(inst, b, &state.ls_active).is_some();
            if !sorts || realize_routing(inst, &state, a, b, &served, 1e-7).is_ok() {
                continue;
            }
            let d = degrade_routing(
                inst,
                &state,
                a,
                b,
                &served,
                1e-7,
                &caps(&topo),
                DegradeMode::Rescale,
            )
            .unwrap();
            assert_eq!(d.ladder_stage, LadderStage::Rescaled, "{:?}", sc.dead);
            rescaled += 1;
        }
        assert!(rescaled > 0, "no beyond-budget state was rescaled");
    }

    #[test]
    fn shed_is_max_min_fair_across_pairs() {
        // Two pairs share the bottleneck s→a→t (the only surviving path
        // for both once s→b dies): θ splits it evenly relative to demand.
        let mut t = Topology::new("shared");
        let s = t.add_node("s");
        let a_n = t.add_node("a");
        let b_n = t.add_node("b");
        let d_n = t.add_node("t");
        t.add_link(s, a_n, 1.0);
        t.add_link(a_n, d_n, 1.0);
        t.add_link(s, b_n, 1.0);
        t.add_link(b_n, d_n, 1.0);
        let inst = InstanceBuilder::with_demands(&t, vec![(s, d_n, 1.0), (a_n, d_n, 1.0)])
            .tunnels_per_pair(2)
            .build();
        let mut dead = vec![false; 4];
        dead[2] = true; // kill s→b: both pairs need a→t (capacity 1).
        let state = FailureState::new(&inst, &dead).unwrap();
        let a = vec![0.0; inst.num_tunnels()];
        let served = vec![1.0, 1.0];
        let c = caps(&t);
        let d = degrade_fallback(
            &inst,
            &state,
            &a,
            &[],
            &served,
            1e-7,
            &c,
            DegradeMode::Shed,
            RealizeError::SingularMatrix,
        )
        .unwrap();
        assert_eq!(d.ladder_stage, LadderStage::Shed);
        // a→t (cap 1) carries both pairs' 1+1 demand: θ = 0.5.
        for p in inst.pair_ids() {
            assert!(
                d.served_fraction_per_pair[p.0] >= 0.5 - 1e-6,
                "pair {p:?} fraction {}",
                d.served_fraction_per_pair[p.0]
            );
        }
        assert!(d.overload_bound <= 1e-6);
        assert!((d.shed_demand - 1.0).abs() < 1e-5, "shed {}", d.shed_demand);
    }
}
