//! Per-pair worst-case separation oracles.
//!
//! Given candidate reservations, the adversary finds the failure scenario in
//! the (relaxed) targeted set that minimizes the capacity available to one
//! pair. Two oracles implement the two failure-set models of the paper:
//!
//! * [`worst_case_ffc`] — FFC's tunnel-count set `Y0` (Eq. 5):
//!   `Σ_l y_l <= k` with `k = f · p_st` for link budgets (read off the
//!   groups otherwise), solved combinatorially (fail the `k` largest
//!   reservations);
//! * [`worst_case_link`] — PCF's link-coupled set (Eq. 4) extended with
//!   conditional activation variables `h_q` (§3.4, appendix), solved as a
//!   small LP per pair. Link-failure variables are relaxed to `[0,1]`
//!   exactly as the paper prescribes.
//!
//! Both return the scenario achieving the bound so the caller can emit a
//! cutting plane.

use crate::failure::{Condition, FailureModel, Scenario};
use crate::instance::{Instance, LsId, PairId, TunnelId};
use pcf_lp::{LpProblem, Sense, SimplexOptions, Status, VarId};
use pcf_topology::LinkId;
use std::fmt;

/// Structured failure from a worst-case oracle.
///
/// The adversary LPs are tiny box-constrained problems that are optimal by
/// construction, so any of these indicates a modeling or numerical bug —
/// but callers (the cutting-plane engine, the serving daemon) want to
/// surface that as a value, not an abort.
#[derive(Debug, Clone, PartialEq)]
pub enum AdversaryError {
    /// The LP layer rejected the adversary problem structurally.
    Lp(pcf_lp::SolveError),
    /// The adversary LP finished without optimality.
    NotOptimal(Status),
    /// An internal indexing invariant was broken.
    Internal(&'static str),
}

impl fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryError::Lp(e) => write!(f, "adversary LP rejected: {e}"),
            AdversaryError::NotOptimal(status) => {
                write!(f, "adversary LP not optimal: {status}")
            }
            AdversaryError::Internal(what) => write!(f, "adversary invariant broken: {what}"),
        }
    }
}

impl std::error::Error for AdversaryError {}

/// A worst-case scenario for one pair: the availability bound and the
/// (possibly fractional) failure/activation levels achieving it.
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// `min over scenarios` of
    /// `Σ_l a_l (1 - y_l) + Σ_{q∈L} b_q h_q - Σ_{q'∈Q} b_{q'} h_{q'}`.
    pub available: f64,
    /// `y_l` per tunnel of the pair (order matches `inst.tunnels_of(p)`).
    pub y: Vec<f64>,
    /// `h_q` per LS in `L(p)` (order matches `inst.lss_of(p)`).
    pub h_l: Vec<f64>,
    /// `h_q'` per LS in `Q(p)` (order matches `inst.segments_of(p)`).
    pub h_q: Vec<f64>,
}

/// FFC's worst case (Eq. 5): up to `k` of the pair's tunnels fail, where
/// `k = Σ_budgets f_b · max_g Σ_l |τ_l ∩ g|` — the most tunnel crossings any
/// one group of the budget has. That is the paper's `f · p_st` when every
/// link is its own group; under SRLG / node budgets it is the same bound
/// read off the groups, counting a tunnel once per link it has in the group
/// because the §3.5 relaxation does (`y_l ≤ Σ_{e∈τ_l} x_e`), so the set
/// still contains PCF's and Prop. 1 holds. An explicit list is one budget of
/// `f = 1` whose groups are the scenarios.
///
/// The relaxed LP over `{0 <= y <= 1, Σ y <= k}` attains its optimum by
/// failing the largest reservations, so this is exact and combinatorial.
///
/// # Panics
/// Panics if the instance contains logical sequences — FFC is a pure tunnel
/// scheme.
pub fn worst_case_ffc(inst: &Instance, p: PairId, fm: &FailureModel, a: &[f64]) -> WorstCase {
    assert_eq!(inst.num_lss(), 0, "FFC does not support logical sequences");
    let tunnels = inst.tunnels_of(p);
    let crossings = |g: &[LinkId]| -> usize {
        let within = |l: &TunnelId| g.iter().filter(|&&e| inst.tunnel(*l).uses(e)).count();
        tunnels.iter().map(within).sum()
    };
    let k: usize = match fm {
        FailureModel::Budgeted { budgets, .. } => budgets
            .iter()
            .map(|b| {
                let mut most = 0;
                b.for_each_group(inst.topo(), |g| most = most.max(crossings(g)));
                b.f * most
            })
            .sum(),
        FailureModel::Explicit { scenarios } => {
            scenarios.iter().map(|s| crossings(s)).max().unwrap_or(0)
        }
    };
    let k = k.min(tunnels.len());
    // Indices of the k largest reservations.
    let mut order: Vec<usize> = (0..tunnels.len()).collect();
    order.sort_by(|&i, &j| a[tunnels[j].0].total_cmp(&a[tunnels[i].0]).then(i.cmp(&j)));
    let mut y = vec![0.0; tunnels.len()];
    let mut lost = 0.0;
    for &i in order.iter().take(k) {
        y[i] = 1.0;
        lost += a[tunnels[i].0];
    }
    let total: f64 = tunnels.iter().map(|l| a[l.0]).sum();
    WorstCase {
        available: total - lost,
        y,
        h_l: Vec::new(),
        h_q: Vec::new(),
    }
}

/// PCF's worst case for one pair: the LP relaxation of Eq. 4 (optionally
/// with group budgets, §3.5) plus condition variables for the pair's
/// logical sequences.
///
/// Maximizes the *loss*
/// `Σ_l a_l y_l - Σ_{q∈L} b_q h_q + Σ_{q'∈Q} b_{q'} h_{q'}` over
///
/// ```text
/// Σ_e x_e <= f     (or group budget with x_e tied to group indicators)
/// y_l <= Σ_{e∈τ_l} x_e,   0 <= y_l <= 1,   0 <= x_e <= 1
/// h_q as dictated by each condition (appendix linearization)
/// ```
///
/// and returns availability `Σ_l a_l + Σ_{q∈L,const} ... - loss` expressed
/// directly as [`WorstCase`].
pub fn worst_case_link(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
) -> Result<WorstCase, AdversaryError> {
    Ok(worst_case_link_with_extras(inst, p, fm, a, b, &[])?.0)
}

/// An additional `coef * h(condition)` term in the adversary's loss
/// objective, used by the logical-flow model where flow reservations and
/// segment obligations are conditioned the same way as LSs.
#[derive(Debug, Clone)]
pub struct ExtraTerm {
    /// Loss coefficient: negative for reservations available to the pair,
    /// positive for obligations the pair must carry.
    pub coef: f64,
    /// Activation condition of the term.
    pub condition: Condition,
}

/// The adversary's failure-polytope variables: per-link failure levels
/// `x_e ∈ [0,1]`, plus — under a degradation polytope — per-link fractional
/// capacity drops `d_e ∈ [0, 1 − α_e]` for links with room to drop.
pub(crate) struct PolytopeVars {
    /// Per-link relaxed failure indicator.
    pub xs: Vec<VarId>,
    /// Per-link degradation drop (None when the link cannot degrade).
    pub ds: Vec<Option<VarId>>,
}

/// Adds the relaxed failure polytope variables (`x_e`, group indicators,
/// degradation drops) to `lp` and returns them.
///
/// Each budget contributes its group indicators and a `Σ g ≤ f` row; a
/// link's `x` is tied to the groups covering it across all budgets
/// (`x_e ≥ g`, `x_e ≤ Σ g`, so `x ≤ 0` for uncovered links). A link covered
/// only by its own singleton group *is* that group's indicator and needs
/// neither a variable nor rows — under [`FailureModel::links`] the polytope
/// is exactly Eq. 4's `Σ x_e ≤ f`.
///
/// Degradation drops enter only the tunnel rows (`y_l ≤ Σ_{e∈τ_l} x_e + d_e`):
/// a degraded link is alive, so conditions stay functions of `x` alone, and
/// the linear per-tunnel loss `a_l · Σ d_e` over-estimates the realized
/// multiplicative loss `a_l (1 − Π (1 − d_e))` — the cut is conservative.
pub(crate) fn add_failure_polytope(
    lp: &mut LpProblem,
    topo: &pcf_topology::Topology,
    fm: &FailureModel,
) -> Result<PolytopeVars, AdversaryError> {
    let FailureModel::Budgeted {
        budgets,
        degradation,
    } = fm
    else {
        return Err(AdversaryError::Internal(
            "explicit scenario lists use the combinatorial adversary",
        ));
    };
    let xs: Vec<VarId> = topo.links().map(|_| lp.add_var(0.0, 1.0, 0.0)).collect();
    let mut ds: Vec<Option<VarId>> = vec![None; topo.link_count()];
    let mut cover = vec![0usize; topo.link_count()];
    for b in budgets {
        b.for_each_group(topo, |group| {
            group.iter().for_each(|l| cover[l.index()] += 1)
        });
    }
    let mut covering: Vec<Vec<VarId>> = vec![Vec::new(); topo.link_count()];
    for b in budgets {
        let mut gs: Vec<VarId> = Vec::with_capacity(topo.link_count());
        b.for_each_group(topo, |group| {
            let g = match *group {
                [l] if cover[l.index()] == 1 => xs[l.index()],
                _ => lp.add_var(0.0, 1.0, 0.0),
            };
            gs.push(g);
            for l in group.iter().filter(|l| xs[l.index()] != g) {
                covering[l.index()].push(g);
            }
        });
        lp.add_le(gs.iter().map(|&g| (g, 1.0)), b.f as f64);
    }
    for l in topo.links() {
        let x = xs[l.index()];
        if cover[l.index()] == 1 && covering[l.index()].is_empty() {
            continue; // x is its own group's indicator
        }
        for &g in &covering[l.index()] {
            lp.add_ge(vec![(x, 1.0), (g, -1.0)], 0.0);
        }
        let mut row: Vec<(VarId, f64)> = covering[l.index()].iter().map(|&g| (g, 1.0)).collect();
        row.push((x, -1.0));
        lp.add_ge(row, 0.0);
    }
    if let Some(deg) = degradation {
        let mut budget_row = Vec::new();
        for l in topo.links() {
            let room = (1.0 - deg.floor[l.index()]).max(0.0);
            if room > 0.0 {
                let d = lp.add_var(0.0, room, 0.0);
                ds[l.index()] = Some(d);
                budget_row.push((d, 1.0));
            }
        }
        if let Some(g) = deg.budget {
            lp.add_le(budget_row, g);
        }
    }
    Ok(PolytopeVars { xs, ds })
}

/// Adds an `h` variable tied to `condition` (appendix linearization) with
/// the given objective coefficient.
pub(crate) fn add_condition_var(
    lp: &mut LpProblem,
    xs: &[VarId],
    condition: &Condition,
    obj: f64,
) -> VarId {
    let h = lp.add_var(0.0, 1.0, obj);
    match condition {
        Condition::Always => {
            lp.add_eq(vec![(h, 1.0)], 1.0);
        }
        Condition::LinkDead(e) => {
            lp.add_eq(vec![(h, 1.0), (xs[e.index()], -1.0)], 0.0);
        }
        Condition::AliveDead { alive, dead } => {
            for e in alive {
                lp.add_le(vec![(h, 1.0), (xs[e.index()], 1.0)], 1.0);
            }
            for e in dead {
                lp.add_le(vec![(h, 1.0), (xs[e.index()], -1.0)], 0.0);
            }
            // h >= 1 - Σ_alive x - Σ_dead (1 - x)
            let mut row = vec![(h, 1.0)];
            for e in alive {
                row.push((xs[e.index()], 1.0));
            }
            for e in dead {
                row.push((xs[e.index()], -1.0));
            }
            lp.add_ge(row, 1.0 - dead.len() as f64);
        }
    }
    h
}

/// [`worst_case_link`] extended with arbitrary conditioned loss terms.
/// Returns the worst case plus the achieved `h` value of every extra term
/// (in input order).
pub fn worst_case_link_with_extras(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    extras: &[ExtraTerm],
) -> Result<(WorstCase, Vec<f64>), AdversaryError> {
    if let FailureModel::Explicit { .. } = fm {
        return worst_case_explicit(inst, p, fm, a, b, extras);
    }
    let topo = inst.topo();
    let tunnels = inst.tunnels_of(p);
    let ls_l = inst.lss_of(p);
    let ls_q = inst.segments_of(p);

    let mut lp = LpProblem::new(Sense::Maximize);
    let opts = SimplexOptions {
        scale: false, // tiny, well-scaled problems; skip the overhead
        ..SimplexOptions::default()
    };
    lp.set_options(opts);

    let pv = add_failure_polytope(&mut lp, topo, fm)?;
    let xs = &pv.xs;

    // y_l per tunnel of this pair, objective +a_l. Degradation drops count
    // toward a tunnel's loss the same way failures do (a link at fraction
    // 1 − d contributes d of the tunnel's reservation to the loss).
    let ys: Vec<VarId> = tunnels
        .iter()
        .map(|&l| lp.add_var(0.0, 1.0, a[l.0].max(0.0)))
        .collect();
    for (yi, &l) in ys.iter().zip(tunnels) {
        let mut row: Vec<(VarId, f64)> = vec![(*yi, 1.0)];
        for link in &inst.tunnel(l).links {
            row.push((xs[link.index()], -1.0));
            if let Some(d) = pv.ds[link.index()] {
                row.push((d, -1.0));
            }
        }
        lp.add_le(row, 0.0);
    }

    // h_q variables: coefficient -b for q in L(p), +b for q in Q(p)
    // (the same LS may appear on both sides; coefficients accumulate).
    // Ordered map: iteration fixes the column order of the h variables.
    let mut h_coef: std::collections::BTreeMap<LsId, f64> = std::collections::BTreeMap::new();
    for &q in ls_l {
        *h_coef.entry(q).or_insert(0.0) -= b[q.0];
    }
    for &q in ls_q {
        *h_coef.entry(q).or_insert(0.0) += b[q.0];
    }
    let mut h_vars: Vec<(LsId, VarId)> = Vec::new();
    for (&q, &coef) in &h_coef {
        let h = add_condition_var(&mut lp, xs, &inst.ls(q).condition, coef);
        h_vars.push((q, h));
    }

    // Extra conditioned terms (logical-flow reservations/obligations).
    let extra_vars: Vec<VarId> = extras
        .iter()
        .map(|t| add_condition_var(&mut lp, xs, &t.condition, t.coef))
        .collect();

    let sol = lp.solve().map_err(AdversaryError::Lp)?;
    if sol.status != Status::Optimal {
        // The polytope is a bounded box, so anything but Optimal is a bug
        // in the LP layer; report it instead of aborting the caller.
        return Err(AdversaryError::NotOptimal(sol.status));
    }

    let y: Vec<f64> = ys.iter().map(|&v| sol.value(v).clamp(0.0, 1.0)).collect();
    let h_of = |q: LsId| -> Result<f64, AdversaryError> {
        h_vars
            .iter()
            .find(|(qq, _)| *qq == q)
            .map(|&(_, v)| sol.value(v).clamp(0.0, 1.0))
            .ok_or(AdversaryError::Internal(
                "referenced LS is missing its h variable",
            ))
    };
    let h_l: Vec<f64> = ls_l.iter().map(|&q| h_of(q)).collect::<Result<_, _>>()?;
    let h_q: Vec<f64> = ls_q.iter().map(|&q| h_of(q)).collect::<Result<_, _>>()?;
    let h_extra: Vec<f64> = extra_vars
        .iter()
        .map(|&v| sol.value(v).clamp(0.0, 1.0))
        .collect();

    let total_a: f64 = tunnels.iter().map(|l| a[l.0]).sum();
    // available = Σ a_l (1 - y_l) + Σ_L b h - Σ_Q b h - extras = Σ a_l - loss
    let available = total_a - sol.objective;
    Ok((
        WorstCase {
            available,
            y,
            h_l,
            h_q,
        },
        h_extra,
    ))
}

/// Exact (integral) worst case over an explicit scenario list: evaluate the
/// availability under every enumerated scenario — plus the implied
/// no-failure scenario — and return the minimum. No relaxation is involved,
/// so allocations designed this way are exactly as resilient as the list
/// demands.
/// Best scenario found so far: `(available, y, h over L(p), h over Q(p), x)`.
type ExplicitBest = (f64, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

fn worst_case_explicit(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    extras: &[ExtraTerm],
) -> Result<(WorstCase, Vec<f64>), AdversaryError> {
    let topo = inst.topo();
    let tunnels = inst.tunnels_of(p);
    let ls_l = inst.lss_of(p);
    let ls_q = inst.segments_of(p);
    let mut scenarios = fm.enumerate_scenarios(topo);
    scenarios.push(Scenario::from_mask(vec![false; topo.link_count()])); // no failure

    let mut best: Option<ExplicitBest> = None;
    for mask in scenarios.iter().map(|s| &s.dead) {
        let y: Vec<f64> = tunnels
            .iter()
            .map(|&l| {
                let dead = inst.tunnel(l).links.iter().any(|e| mask[e.index()]);
                if dead {
                    1.0
                } else {
                    0.0
                }
            })
            .collect();
        let hv = |q: &crate::instance::LsId| -> f64 {
            if inst.ls(*q).condition.holds(mask) {
                1.0
            } else {
                0.0
            }
        };
        let h_l: Vec<f64> = ls_l.iter().map(&hv).collect();
        let h_q: Vec<f64> = ls_q.iter().map(hv).collect();
        let h_extra: Vec<f64> = extras
            .iter()
            .map(|t| if t.condition.holds(mask) { 1.0 } else { 0.0 })
            .collect();
        let mut avail = 0.0;
        for (i, &l) in tunnels.iter().enumerate() {
            avail += a[l.0] * (1.0 - y[i]);
        }
        for (i, &q) in ls_l.iter().enumerate() {
            avail += b[q.0] * h_l[i];
        }
        for (i, &q) in ls_q.iter().enumerate() {
            avail -= b[q.0] * h_q[i];
        }
        for (t, h) in extras.iter().zip(&h_extra) {
            avail -= t.coef * h;
        }
        if best.as_ref().is_none_or(|(v, ..)| avail < *v) {
            best = Some((avail, y, h_l, h_q, h_extra));
        }
    }
    let Some((available, y, h_l, h_q, h_extra)) = best else {
        // The appended no-failure scenario is always evaluated.
        return Err(AdversaryError::Internal("no scenarios were evaluated"));
    };
    Ok((
        WorstCase {
            available,
            y,
            h_l,
            h_q,
        },
        h_extra,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceBuilder, LogicalSequence};
    use pcf_topology::{LinkId, NodeId, Topology};

    /// Two disjoint 2-hop paths s-a-t and s-b-t, all capacity 1.
    fn diamond() -> Topology {
        let mut t = Topology::new("diamond");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("t");
        t.add_link(s, a, 1.0); // e0
        t.add_link(a, d, 1.0); // e1
        t.add_link(s, b, 1.0); // e2
        t.add_link(b, d, 1.0); // e3
        t
    }

    #[test]
    fn ffc_worst_case_fails_largest() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        assert_eq!(inst.p_st(p), 1);
        let mut a = vec![0.0; inst.num_tunnels()];
        let ts = inst.tunnels_of(p);
        a[ts[0].0] = 0.7;
        a[ts[1].0] = 0.3;
        let wc = worst_case_ffc(&inst, p, &FailureModel::links(1), &a);
        // One tunnel can fail: the 0.7 one.
        assert!((wc.available - 0.3).abs() < 1e-9);
        assert_eq!(wc.y.iter().filter(|&&y| y > 0.5).count(), 1);
        // An explicit list bounds tunnel failures by its worst scenario:
        // single links kill one tunnel each, e0+e2 together cut both.
        let one_path = FailureModel::Explicit {
            scenarios: vec![vec![LinkId(0)], vec![LinkId(3)]],
        };
        assert!((worst_case_ffc(&inst, p, &one_path, &a).available - 0.3).abs() < 1e-9);
        let both_paths = FailureModel::Explicit {
            scenarios: vec![vec![LinkId(0), LinkId(2)]],
        };
        assert!(worst_case_ffc(&inst, p, &both_paths, &a).available.abs() < 1e-9);
    }

    #[test]
    fn link_worst_case_matches_ffc_on_disjoint_tunnels() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        let mut a = vec![0.0; inst.num_tunnels()];
        let ts = inst.tunnels_of(p);
        a[ts[0].0] = 0.7;
        a[ts[1].0] = 0.3;
        let b = vec![];
        let wc = worst_case_link(&inst, p, &FailureModel::links(1), &a, &b).unwrap();
        // Disjoint tunnels, one link failure kills at most one tunnel.
        assert!((wc.available - 0.3).abs() < 1e-6, "got {}", wc.available);
    }

    #[test]
    fn link_worst_case_two_failures_kill_both() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        let mut a = vec![0.0; inst.num_tunnels()];
        for &l in inst.tunnels_of(p) {
            a[l.0] = 0.5;
        }
        let wc = worst_case_link(&inst, p, &FailureModel::links(2), &a, &[]).unwrap();
        assert!(wc.available.abs() < 1e-6);
    }

    #[test]
    fn always_ls_reservation_survives_failures() {
        let topo = diamond();
        // LS s -> a -> t, always active.
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .build();
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        let a = vec![0.0; inst.num_tunnels()];
        let b = vec![0.4];
        let wc = worst_case_link(&inst, p, &FailureModel::links(2), &a, &b).unwrap();
        // No tunnel reservations; the LS contributes 0.4 under any scenario.
        assert!((wc.available - 0.4).abs() < 1e-6, "got {}", wc.available);
        assert!((wc.h_l[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn conditional_ls_only_counts_when_link_dead_helps_adversary() {
        let topo = diamond();
        // LS active only when e0 is dead.
        let ls = LogicalSequence {
            hops: vec![NodeId(0), NodeId(2), NodeId(3)],
            condition: Condition::LinkDead(LinkId(0)),
        };
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .add_ls(ls)
            .build();
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        // Tunnel reservations: the tunnel through e0 has 0.6, other 0.4.
        let mut a = vec![0.0; inst.num_tunnels()];
        let ts = inst.tunnels_of(p);
        for &l in ts {
            let uses_e0 = inst.tunnel(l).uses(LinkId(0));
            a[l.0] = if uses_e0 { 0.6 } else { 0.4 };
        }
        let b = vec![0.5];
        // Under f=1: failing e0 kills the 0.6 tunnel but activates the LS
        // (+0.5): available = 0.4 + 0.5 = 0.9. Failing e1 kills the 0.6
        // tunnel without activating the LS: available = 0.4. Failing a link
        // of the other path: available = 0.6. Worst = 0.4 (fail e1).
        let wc = worst_case_link(&inst, p, &FailureModel::links(1), &a, &b).unwrap();
        assert!((wc.available - 0.4).abs() < 1e-6, "got {}", wc.available);
    }

    #[test]
    fn segment_obligations_increase_worst_case_load() {
        let topo = diamond();
        // LS s->a->t: segment (s,a) carries the LS reservation.
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .build();
        let p_sa = inst.pair_id(NodeId(0), NodeId(1)).unwrap();
        // Segment pair (s,a): tunnels reserve 1.0 total, must carry b = 0.3.
        let mut a = vec![0.0; inst.num_tunnels()];
        for &l in inst.tunnels_of(p_sa) {
            a[l.0] = 0.5;
        }
        let b = vec![0.3];
        let wc = worst_case_link(&inst, p_sa, &FailureModel::links(0), &a, &b).unwrap();
        // No failures: available = 1.0 - 0.3 (obligation) = 0.7.
        assert!((wc.available - 0.7).abs() < 1e-6, "got {}", wc.available);
        assert!((wc.h_q[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn group_budget_kills_whole_group() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        let mut a = vec![0.0; inst.num_tunnels()];
        for &l in inst.tunnels_of(p) {
            a[l.0] = 0.5;
        }
        // One SRLG containing one link of each path: a single group failure
        // kills both tunnels.
        let groups = vec![vec![LinkId(0), LinkId(2)]];
        let fm = FailureModel::srlgs(groups, 1);
        let wc = worst_case_link(&inst, p, &fm, &a, &[]).unwrap();
        assert!(wc.available.abs() < 1e-6, "got {}", wc.available);
    }

    #[test]
    fn structured_composes_budgets_like_groups() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        let mut a = vec![0.0; inst.num_tunnels()];
        for &l in inst.tunnels_of(p) {
            a[l.0] = 0.5;
        }
        // One SRLG budget per path: each budget can kill one whole path.
        let fm = crate::failure::FailureModel::structured(vec![
            crate::failure::GroupBudget::new(vec![vec![LinkId(0), LinkId(1)]], 1),
            crate::failure::GroupBudget::new(vec![vec![LinkId(2), LinkId(3)]], 1),
        ]);
        let wc = worst_case_link(&inst, p, &fm, &a, &[]).unwrap();
        assert!(wc.available.abs() < 1e-6, "got {}", wc.available);
    }

    #[test]
    fn degradation_polytope_drains_capacity_fraction() {
        use crate::failure::Degradation;
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let p = PairId(0);
        let mut a = vec![0.0; inst.num_tunnels()];
        for &l in inst.tunnels_of(p) {
            a[l.0] = 0.5;
        }
        // No failures, every link may sag to 80% capacity: each 2-hop
        // tunnel loses min(1, 0.2 + 0.2) = 0.4 of its reservation.
        let fm = FailureModel::structured(Vec::new())
            .with_degradation(&topo, Degradation::uniform(topo.link_count(), 0.8));
        let wc = worst_case_link(&inst, p, &fm, &a, &[]).unwrap();
        assert!((wc.available - 0.6).abs() < 1e-6, "got {}", wc.available);

        // A total drop budget of 0.2 can only hurt one (disjoint) path.
        let fm2 = FailureModel::structured(Vec::new()).with_degradation(
            &topo,
            Degradation::uniform(topo.link_count(), 0.8).with_budget(0.2),
        );
        let wc2 = worst_case_link(&inst, p, &fm2, &a, &[]).unwrap();
        assert!((wc2.available - 0.9).abs() < 1e-6, "got {}", wc2.available);
    }
}
