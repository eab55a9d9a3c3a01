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
//!
//! **Pair-sized LPs.** The link-based LP is as large as its pair needs
//! (`Separator`, which builds and solves each pair's LP in storage it
//! keeps from pair to pair): only the links the pair's tunnels, LS conditions and
//! extra terms touch get failure columns (plus every link of a group of
//! several, which keeps its tie rows), and an `h` whose condition is
//! [`Condition::Always`] — every PCF-LS logical sequence — is the constant
//! 1, its term added to the loss, instead of a column pinned by an `h = 1`
//! row that cost an artificial and a phase 1. A dropped column is one the
//! simplex would never have pivoted on, so the pivots are the full LP's and
//! the answer is the full LP's to the bit, except where a basis update's
//! growth refactorizes the two at different pivots (rounding-level
//! differences; the differential test in this module bounds them).
//!
//! Restarting each pair's LP from its previous round's basis was measured
//! and rejected: pivots per LP fell only from 6.6 to 6.2 on `plan-cold`,
//! and the tied vertices it reached moved the cut sequence (the pass
//! digest went from `a8ba26b2ed993da2` to `2cd7b7349a113e8c`).

use crate::failure::{Condition, FailureModel, Scenario};
use crate::instance::{Instance, LsId, PairId, TunnelId};
use pcf_lp::{LpProblem, LpWorkspace, Sense, SimplexOptions, Solution, Status, VarId};
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
    Ok(worst_case_link_with_extras(inst, p, fm, a, b, &[])?.worst)
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

/// How one pair's adversary LP mentions a link, which decides the link's
/// columns: [`Touch::Tunnel`] links carry a failure level `x_e` and, under
/// a degradation polytope, a drop `d_e`; [`Touch::Condition`] links only
/// `x_e`, since drops enter only the tunnel rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Touch {
    /// Neither a tunnel of the pair nor any of its conditions uses the link.
    Untouched,
    /// Only a condition (of an LS or an extra term) reads the link.
    Condition,
    /// A tunnel of the pair crosses the link.
    Tunnel,
}

/// An `h` tied to its condition: a column, or the constant 1 of
/// [`Condition::Always`].
#[derive(Debug, Clone, Copy)]
enum Activation {
    /// Always active: a constant, no column and no row.
    Always,
    /// The column carrying the activation level.
    Var(VarId),
}

impl Activation {
    /// The activation level at `sol`.
    fn level(self, sol: &Solution) -> f64 {
        match self {
            Activation::Always => 1.0,
            Activation::Var(v) => sol.value(v).clamp(0.0, 1.0),
        }
    }
}

/// Adds an `h` tied to `condition` (appendix linearization) with the given
/// objective coefficient, building the multi-link row in `row`.
/// [`Condition::Always`] adds nothing: its `h` is the constant 1, and the
/// caller adds `obj` to the loss itself (a column pinned by `h = 1` would
/// cost an artificial and a phase 1).
fn add_condition_var(
    lp: &mut LpProblem,
    xs: &[Option<VarId>],
    condition: &Condition,
    obj: f64,
    row: &mut Vec<(VarId, f64)>,
) -> Result<Activation, AdversaryError> {
    let x = |e: &LinkId| {
        xs[e.index()].ok_or(AdversaryError::Internal(
            "a condition reads a link without a failure column",
        ))
    };
    if let Condition::Always = condition {
        return Ok(Activation::Always);
    }
    let h = lp.add_var(0.0, 1.0, obj);
    match condition {
        Condition::Always => {} // returned above
        Condition::LinkDead(e) => {
            lp.add_eq([(h, 1.0), (x(e)?, -1.0)], 0.0);
        }
        Condition::AliveDead { alive, dead } => {
            for e in alive {
                lp.add_le([(h, 1.0), (x(e)?, 1.0)], 1.0);
            }
            for e in dead {
                lp.add_le([(h, 1.0), (x(e)?, -1.0)], 0.0);
            }
            // h >= 1 - Σ_alive x - Σ_dead (1 - x)
            row.clear();
            row.push((h, 1.0));
            for e in alive {
                row.push((x(e)?, 1.0));
            }
            for e in dead {
                row.push((x(e)?, -1.0));
            }
            lp.add_ge(row.iter().copied(), 1.0 - dead.len() as f64);
        }
    }
    Ok(Activation::Var(h))
}

/// [`worst_case_link_with_extras`]'s answer for one pair.
#[derive(Debug, Clone)]
pub struct LinkWorstCase {
    /// The worst case.
    pub worst: WorstCase,
    /// The achieved `h` of every extra term, in input order.
    pub h_extra: Vec<f64>,
    /// Simplex pivots of the pair's LP (phase 1 + phase 2); `None` when no
    /// LP was solved (an explicit scenario list is enumerated).
    pub pivots: Option<usize>,
}

/// [`worst_case_link`] extended with arbitrary conditioned loss terms.
///
/// The LP is pair-sized (see `Separator`); its answer is the one the full
/// polytope gives.
pub fn worst_case_link_with_extras(
    inst: &Instance,
    p: PairId,
    fm: &FailureModel,
    a: &[f64],
    b: &[f64],
    extras: &[ExtraTerm],
) -> Result<LinkWorstCase, AdversaryError> {
    if let FailureModel::Explicit { .. } = fm {
        let (worst, h_extra) = worst_case_explicit(inst, p, fm, a, b, extras)?;
        return Ok(LinkWorstCase {
            worst,
            h_extra,
            pivots: None,
        });
    }
    let mut sep = Separator::new();
    let pivots = sep.solve(inst, p, fm, a, b, extras)?.pivots;
    let (worst, h_extra) = sep.worst_case(inst, p)?;
    Ok(LinkWorstCase {
        worst,
        h_extra,
        pivots: Some(pivots),
    })
}

/// What [`Separator::solve`] reports of a pair before anything is copied
/// out: its worst-case availability and the pivots its LP took.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairBound {
    /// `Σ_l a_l − loss` at the worst case, [`WorstCase::available`].
    pub available: f64,
    /// Simplex pivots of the pair's LP.
    pub pivots: usize,
}

/// The pair-sized separation LP, built and solved one pair at a time in
/// storage kept from pair to pair: the LP ([`LpProblem::clear`]) and its
/// solve workspace ([`LpWorkspace`]), the per-link touch, cover and
/// covering lists, the `x`/`d`/`y`/`h` column maps and one row buffer.
/// A cutting-plane loop keeps one per separation worker across its rounds,
/// so a round's pairs pay for their pivots, not for setting up their LPs.
/// Every buffer is refilled from the pair before it is read; none carries
/// anything from the previous pair but its storage.
///
/// Failure columns exist only where the pair needs them (see
/// `Separator::add_failure_polytope`), and an `h` whose condition is
/// [`Condition::Always`] has no column: its term is a constant of the
/// loss. Every dropped column would have stayed nonbasic (or, for an
/// `Always` row, in a block of its own), so the simplex makes the same
/// pivots on the smaller LP. [`Separator::solve`] sums the loss in the full
/// LP's column order, the `Always` terms in their places, so `available`
/// is the full polytope's to the bit while the two refactorize at the same
/// pivots.
#[derive(Debug)]
pub(crate) struct Separator {
    /// The LP of the last pair, options set.
    lp: LpProblem,
    ws: LpWorkspace,
    /// How the pair's LP mentions each link.
    touch: Vec<Touch>,
    /// Per link, the groups covering it across every budget, and whether
    /// one of them has several links.
    cover: Vec<usize>,
    shared: Vec<bool>,
    /// Per link, the group columns its `x` is tied to.
    covering: Vec<Vec<VarId>>,
    /// One budget's group columns.
    groups: Vec<VarId>,
    /// Per-link relaxed failure indicator (None for a link the pair's LP
    /// does without).
    xs: Vec<Option<VarId>>,
    /// Per-link degradation drop (None when the link cannot degrade or no
    /// tunnel of the pair crosses it).
    ds: Vec<Option<VarId>>,
    /// `y_l` per tunnel of the pair.
    ys: Vec<VarId>,
    /// Net loss coefficient of each LS in `L(p) ∪ Q(p)`, sorted by LS.
    h_coef: Vec<(LsId, f64)>,
    /// The `h` of each `h_coef` entry.
    h_vars: Vec<Activation>,
    /// The `h` of each extra term.
    extra_vars: Vec<Activation>,
    /// The row being built.
    row: Vec<(VarId, f64)>,
    /// [`PairBound::available`] of the last pair solved.
    available: f64,
}

impl Separator {
    /// A separator with nothing built yet.
    pub(crate) fn new() -> Separator {
        let mut lp = LpProblem::new(Sense::Maximize);
        lp.set_options(Separator::options());
        Separator {
            lp,
            ws: LpWorkspace::default(),
            touch: Vec::new(),
            cover: Vec::new(),
            shared: Vec::new(),
            covering: Vec::new(),
            groups: Vec::new(),
            xs: Vec::new(),
            ds: Vec::new(),
            ys: Vec::new(),
            h_coef: Vec::new(),
            h_vars: Vec::new(),
            extra_vars: Vec::new(),
            row: Vec::new(),
            available: f64::NAN,
        }
    }

    /// The simplex options of every separation LP: no scaling, since the
    /// problems are tiny and well scaled.
    fn options() -> SimplexOptions {
        SimplexOptions {
            scale: false,
            ..SimplexOptions::default()
        }
    }

    /// Builds pair `p`'s LP at reservations `a`, `b` (`fm` must be
    /// budgeted), solves it, and returns its availability and pivots. The
    /// solution stays in the separator for [`Separator::worst_case`].
    pub(crate) fn solve(
        &mut self,
        inst: &Instance,
        p: PairId,
        fm: &FailureModel,
        a: &[f64],
        b: &[f64],
        extras: &[ExtraTerm],
    ) -> Result<PairBound, AdversaryError> {
        self.build(inst, p, fm, a, b, extras)?;
        let sol = self.lp.solve_in(&mut self.ws).map_err(AdversaryError::Lp)?;
        if sol.status != Status::Optimal {
            // The polytope is a bounded box, so anything but Optimal is a
            // bug in the LP layer; report it instead of aborting the caller.
            return Err(AdversaryError::NotOptimal(sol.status));
        }
        // loss = Σ a_l y_l - Σ_L b h + Σ_Q b h + Σ extras, summed in the
        // full LP's column order (its failure columns, first, add only
        // zeros) with the Always terms in their places.
        let tunnels = inst.tunnels_of(p);
        let h_terms = self.h_vars.iter().zip(&self.h_coef);
        let extra_terms = self.extra_vars.iter().zip(extras);
        let loss = self
            .ys
            .iter()
            .zip(tunnels)
            .map(|(&v, l)| sol.value(v) * a[l.0].max(0.0))
            .chain(h_terms.map(|(h, &(_, coef))| h.level(sol) * coef))
            .chain(extra_terms.map(|(h, t)| h.level(sol) * t.coef))
            .fold(0.0, |sum, term| sum + term);
        let total_a: f64 = tunnels.iter().map(|l| a[l.0]).sum();
        // available = Σ a_l (1 - y_l) + Σ_L b h - Σ_Q b h - extras
        //           = Σ a_l - loss
        self.available = total_a - loss;
        Ok(PairBound {
            available: self.available,
            pivots: sol.iterations,
        })
    }

    /// The worst case of the pair [`Separator::solve`] solved last (`p`),
    /// and the `h` of each of its extra terms, as owned vectors: what a cut
    /// needs of a pair that fell short.
    pub(crate) fn worst_case(
        &self,
        inst: &Instance,
        p: PairId,
    ) -> Result<(WorstCase, Vec<f64>), AdversaryError> {
        let sol = self.ws.solution();
        let h_of = |q: &LsId| -> Result<f64, AdversaryError> {
            self.h_coef
                .binary_search_by_key(q, |&(qq, _)| qq)
                .map(|at| self.h_vars[at].level(sol))
                .map_err(|_| AdversaryError::Internal("referenced LS is missing its h variable"))
        };
        let y: Vec<f64> = self
            .ys
            .iter()
            .map(|&v| sol.value(v).clamp(0.0, 1.0))
            .collect();
        let h_l: Vec<f64> = inst.lss_of(p).iter().map(h_of).collect::<Result<_, _>>()?;
        let h_q: Vec<f64> = inst
            .segments_of(p)
            .iter()
            .map(h_of)
            .collect::<Result<_, _>>()?;
        let h_extra: Vec<f64> = self.extra_vars.iter().map(|h| h.level(sol)).collect();
        Ok((
            WorstCase {
                available: self.available,
                y,
                h_l,
                h_q,
            },
            h_extra,
        ))
    }

    /// Builds pair `p`'s LP at reservations `a`, `b` into the kept
    /// problem; `fm` must be budgeted.
    fn build(
        &mut self,
        inst: &Instance,
        p: PairId,
        fm: &FailureModel,
        a: &[f64],
        b: &[f64],
        extras: &[ExtraTerm],
    ) -> Result<(), AdversaryError> {
        let topo = inst.topo();
        let tunnels = inst.tunnels_of(p);

        // h_q coefficients: -b for q in L(p), +b for q in Q(p) (the same
        // LS may appear on both sides; coefficients accumulate in that
        // order). Sorted by LS: the order fixes the h columns' order.
        let (ls_l, ls_q) = (inst.lss_of(p), inst.segments_of(p));
        let h_coef = &mut self.h_coef;
        h_coef.clear();
        let signed = ls_l
            .iter()
            .map(|&q| (q, true))
            .chain(ls_q.iter().map(|&q| (q, false)));
        for (q, reserved) in signed {
            let at = match h_coef.binary_search_by_key(&q, |&(qq, _)| qq) {
                Ok(at) => at,
                Err(at) => {
                    h_coef.insert(at, (q, 0.0));
                    at
                }
            };
            if reserved {
                h_coef[at].1 -= b[q.0];
            } else {
                h_coef[at].1 += b[q.0];
            }
        }

        let touch = &mut self.touch;
        touch.clear();
        touch.resize(topo.link_count(), Touch::Untouched);
        for &l in tunnels {
            for link in &inst.tunnel(l).links {
                touch[link.index()] = Touch::Tunnel;
            }
        }
        let conditions = h_coef.iter().map(|&(q, _)| &inst.ls(q).condition);
        let conditions = conditions.chain(extras.iter().map(|t| &t.condition));
        for e in conditions.flat_map(Condition::links) {
            touch[e.index()] = touch[e.index()].max(Touch::Condition);
        }

        self.lp.clear();
        self.add_failure_polytope(topo, fm)?;
        let (lp, xs, ds, row) = (&mut self.lp, &self.xs, &self.ds, &mut self.row);

        // y_l per tunnel of this pair, objective +a_l. Degradation drops
        // count toward a tunnel's loss the same way failures do (a link at
        // fraction 1 − d contributes d of the tunnel's reservation to the
        // loss).
        self.ys.clear();
        self.ys.extend(
            tunnels
                .iter()
                .map(|&l| lp.add_var(0.0, 1.0, a[l.0].max(0.0))),
        );
        for (yi, &l) in self.ys.iter().zip(tunnels) {
            row.clear();
            row.push((*yi, 1.0));
            for link in &inst.tunnel(l).links {
                let x = xs[link.index()].ok_or(AdversaryError::Internal(
                    "a tunnel crosses a link without a failure column",
                ))?;
                row.push((x, -1.0));
                if let Some(d) = ds[link.index()] {
                    row.push((d, -1.0));
                }
            }
            lp.add_le(row.iter().copied(), 0.0);
        }

        self.h_vars.clear();
        for &(q, coef) in &self.h_coef {
            let h = add_condition_var(lp, xs, &inst.ls(q).condition, coef, row)?;
            self.h_vars.push(h);
        }
        // Extra conditioned terms (logical-flow reservations/obligations).
        self.extra_vars.clear();
        for t in extras {
            let h = add_condition_var(lp, xs, &t.condition, t.coef, row)?;
            self.extra_vars.push(h);
        }
        Ok(())
    }

    /// Adds the relaxed failure polytope variables (`x_e`, group
    /// indicators, degradation drops) that the pair's LP needs, by the
    /// pair's [`Touch`] of each link, and fills `xs` and `ds`.
    ///
    /// Each budget contributes its group indicators and a `Σ g ≤ f` row; a
    /// link's `x` is tied to the groups covering it across all budgets
    /// (`x_e ≥ g`, `x_e ≤ Σ g`, so `x ≤ 0` for uncovered links). A link
    /// covered only by its own singleton group *is* that group's indicator
    /// and needs neither a variable nor rows — under
    /// [`FailureModel::links`] the polytope is exactly Eq. 4's `Σ x_e ≤ f`.
    ///
    /// Pair-sized: an untouched link whose `x` would be its own singleton
    /// group's indicator, or would be pinned to zero by covering no group,
    /// gets no column — it has zero cost and sits only in a `≤` budget row
    /// (or its own `x ≤ 0` row), so it could never enter the basis. Links
    /// in a group of several, or in several groups, keep their columns and
    /// tie rows whether touched or not.
    ///
    /// Degradation drops enter only the tunnel rows (`y_l ≤ Σ_{e∈τ_l} x_e +
    /// d_e`): a degraded link is alive, so conditions stay functions of `x`
    /// alone, and the linear per-tunnel loss `a_l · Σ d_e` over-estimates
    /// the realized multiplicative loss `a_l (1 − Π (1 − d_e))` — the cut
    /// is conservative. Only [`Touch::Tunnel`] links get a drop.
    fn add_failure_polytope(
        &mut self,
        topo: &pcf_topology::Topology,
        fm: &FailureModel,
    ) -> Result<(), AdversaryError> {
        let FailureModel::Budgeted {
            budgets,
            degradation,
        } = fm
        else {
            return Err(AdversaryError::Internal(
                "explicit scenario lists use the combinatorial adversary",
            ));
        };
        let Separator {
            lp,
            touch,
            cover,
            shared,
            covering,
            groups,
            xs,
            ds,
            row,
            ..
        } = self;
        let links = topo.link_count();
        cover.clear();
        cover.resize(links, 0);
        shared.clear();
        shared.resize(links, false);
        for b in budgets {
            b.for_each_group(topo, |group| {
                for l in group {
                    cover[l.index()] += 1;
                    shared[l.index()] |= group.len() > 1;
                }
            });
        }
        xs.clear();
        xs.extend(topo.links().map(|l| {
            let i = l.index();
            let needed = touch[i] != Touch::Untouched || cover[i] > 1 || shared[i];
            needed.then(|| lp.add_var(0.0, 1.0, 0.0))
        }));
        covering.resize_with(links, Vec::new);
        covering.iter_mut().for_each(Vec::clear);
        for b in budgets {
            groups.clear();
            b.for_each_group(topo, |group| {
                let g = match *group {
                    [l] if cover[l.index()] == 1 => match xs[l.index()] {
                        Some(x) => x,
                        None => return, // an untouched link's own group
                    },
                    _ => lp.add_var(0.0, 1.0, 0.0),
                };
                groups.push(g);
                for l in group.iter().filter(|l| xs[l.index()] != Some(g)) {
                    covering[l.index()].push(g);
                }
            });
            lp.add_le(groups.iter().map(|&g| (g, 1.0)), b.f as f64);
        }
        for l in topo.links() {
            let Some(x) = xs[l.index()] else {
                continue; // no column, so no rows either
            };
            if cover[l.index()] == 1 && covering[l.index()].is_empty() {
                continue; // x is its own group's indicator
            }
            for &g in &covering[l.index()] {
                lp.add_ge([(x, 1.0), (g, -1.0)], 0.0);
            }
            let tie = covering[l.index()].iter().map(|&g| (g, 1.0));
            lp.add_ge(tie.chain([(x, -1.0)]), 0.0);
        }
        ds.clear();
        ds.resize(links, None);
        if let Some(deg) = degradation {
            row.clear();
            for l in topo.links().filter(|l| touch[l.index()] == Touch::Tunnel) {
                let room = (1.0 - deg.floor[l.index()]).max(0.0);
                if room > 0.0 {
                    let d = lp.add_var(0.0, room, 0.0);
                    ds[l.index()] = Some(d);
                    row.push((d, 1.0));
                }
            }
            if let Some(g) = deg.budget {
                lp.add_le(row.iter().copied(), g);
            }
        }
        Ok(())
    }
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

    /// The separation LP over the full polytope, as the oracle built it
    /// before it was pair-sized: an `x_e` for every link, a `d_e` for every
    /// link with room to drop, and an `h` column pinned by `h = 1` for every
    /// [`Condition::Always`] term. The differential reference.
    mod full {
        use super::super::*;

        fn polytope(
            lp: &mut LpProblem,
            topo: &pcf_topology::Topology,
            fm: &FailureModel,
        ) -> (Vec<VarId>, Vec<Option<VarId>>) {
            let FailureModel::Budgeted {
                budgets,
                degradation,
            } = fm
            else {
                panic!("budgeted models only");
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
                let mut gs: Vec<VarId> = Vec::new();
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
                    continue;
                }
                for &g in &covering[l.index()] {
                    lp.add_ge(vec![(x, 1.0), (g, -1.0)], 0.0);
                }
                let mut row: Vec<(VarId, f64)> =
                    covering[l.index()].iter().map(|&g| (g, 1.0)).collect();
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
            (xs, ds)
        }

        fn condition_var(lp: &mut LpProblem, xs: &[VarId], c: &Condition, obj: f64) -> VarId {
            let h = lp.add_var(0.0, 1.0, obj);
            match c {
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
                    let mut row = vec![(h, 1.0)];
                    row.extend(alive.iter().map(|e| (xs[e.index()], 1.0)));
                    row.extend(dead.iter().map(|e| (xs[e.index()], -1.0)));
                    lp.add_ge(row, 1.0 - dead.len() as f64);
                }
            }
            h
        }

        /// `(worst case, h of each extra term)` over the full polytope,
        /// solved under `opts`.
        pub(in super::super) fn worst_case(
            inst: &Instance,
            p: PairId,
            fm: &FailureModel,
            (a, b): (&[f64], &[f64]),
            extras: &[ExtraTerm],
            opts: SimplexOptions,
        ) -> (WorstCase, Vec<f64>) {
            let tunnels = inst.tunnels_of(p);
            let (ls_l, ls_q) = (inst.lss_of(p), inst.segments_of(p));
            let mut lp = LpProblem::new(Sense::Maximize);
            lp.set_options(opts);
            let (xs, ds) = polytope(&mut lp, inst.topo(), fm);
            let ys: Vec<VarId> = tunnels
                .iter()
                .map(|&l| lp.add_var(0.0, 1.0, a[l.0].max(0.0)))
                .collect();
            for (yi, &l) in ys.iter().zip(tunnels) {
                let mut row: Vec<(VarId, f64)> = vec![(*yi, 1.0)];
                for link in &inst.tunnel(l).links {
                    row.push((xs[link.index()], -1.0));
                    if let Some(d) = ds[link.index()] {
                        row.push((d, -1.0));
                    }
                }
                lp.add_le(row, 0.0);
            }
            let mut h_coef: std::collections::BTreeMap<LsId, f64> = Default::default();
            for &q in ls_l {
                *h_coef.entry(q).or_insert(0.0) -= b[q.0];
            }
            for &q in ls_q {
                *h_coef.entry(q).or_insert(0.0) += b[q.0];
            }
            let h_vars: Vec<(LsId, VarId)> = h_coef
                .iter()
                .map(|(&q, &coef)| (q, condition_var(&mut lp, &xs, &inst.ls(q).condition, coef)))
                .collect();
            let extra_vars: Vec<VarId> = extras
                .iter()
                .map(|t| condition_var(&mut lp, &xs, &t.condition, t.coef))
                .collect();
            let sol = lp.solve().unwrap();
            assert_eq!(sol.status, Status::Optimal);
            let level = |v: VarId| sol.value(v).clamp(0.0, 1.0);
            let h_of = |q: LsId| level(h_vars.iter().find(|(qq, _)| *qq == q).unwrap().1);
            let total_a: f64 = tunnels.iter().map(|l| a[l.0]).sum();
            let wc = WorstCase {
                available: total_a - sol.objective,
                y: ys.iter().map(|&v| level(v)).collect(),
                h_l: ls_l.iter().map(|&q| h_of(q)).collect(),
                h_q: ls_q.iter().map(|&q| h_of(q)).collect(),
            };
            (wc, extra_vars.iter().map(|&v| level(v)).collect())
        }
    }

    /// A failure model of the differential test, rebuilt per case.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Model {
        Links(usize),
        Srlgs,
        Nodes,
        /// `links(1)` plus a uniform degradation floor, with a drop budget
        /// when the second field is set.
        Degraded(f64, Option<f64>),
    }

    /// How the differential test conditions its LSs and extra terms.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Lss {
        /// Tunnels only.
        None,
        /// §5's unconditional shortest-path LSs.
        ShortestPath,
        /// Shortest-path LSs under drawn conditions, plus drawn extra terms.
        Conditional,
    }

    /// One differential case: everything the instance, the model and the
    /// prices are rebuilt from.
    #[derive(Debug, Clone)]
    struct Case {
        nodes: usize,
        links: usize,
        demands: Vec<(usize, usize)>,
        k: usize,
        model: Model,
        lss: Lss,
        /// Per LS / extra term: `(kind, link, link, coefficient)`, kind 0
        /// Always, 1 LinkDead, 2 AliveDead.
        conditions: Vec<(u8, usize, usize, f64)>,
        extras: usize,
        /// Prices seed: the reservations `a`, `b` are drawn from it.
        prices: u64,
    }

    fn condition_of(&(kind, e1, e2, _): &(u8, usize, usize, f64), m: usize) -> Condition {
        let (e1, e2) = (LinkId((e1 % m) as u32), LinkId((e2 % m) as u32));
        match kind {
            0 => Condition::Always,
            1 => Condition::LinkDead(e1),
            _ if e1 == e2 => Condition::AliveDead {
                alive: vec![],
                dead: vec![e1],
            },
            _ => Condition::AliveDead {
                alive: vec![e1],
                dead: vec![e2],
            },
        }
    }

    fn gen_case(rng: &mut pcf_rng::Pcg32) -> Case {
        let nodes = rng.range_usize_inclusive(4, 8);
        let links = rng.range_usize_inclusive(nodes, (nodes + 5).min(nodes * (nodes - 1) / 2));
        let demands = (0..rng.range_usize_inclusive(1, 4))
            .map(|_| {
                let s = rng.range_usize(0, nodes);
                (s, (s + rng.range_usize(1, nodes)) % nodes)
            })
            .collect();
        let model = match rng.range_usize(0, 5) {
            0 => Model::Links(1),
            1 => Model::Links(2),
            2 => Model::Srlgs,
            3 => Model::Nodes,
            _ => Model::Degraded(
                rng.range_f64(0.5, 0.95),
                rng.chance(0.5).then(|| rng.range_f64(0.05, 0.6)),
            ),
        };
        let lss = *rng.pick(&[Lss::None, Lss::ShortestPath, Lss::Conditional]);
        let conditions = (0..8)
            .map(|_| {
                let kind = rng.range_usize(0, 3) as u8;
                let (e1, e2) = (rng.range_usize(0, links), rng.range_usize(0, links));
                (kind, e1, e2, rng.range_f64(-1.0, 1.0))
            })
            .collect();
        Case {
            nodes,
            links,
            demands,
            k: rng.range_usize_inclusive(1, 3),
            model,
            lss,
            conditions,
            extras: rng.range_usize(0, 4),
            prices: rng.next_u64(),
        }
    }

    /// Smaller cases: a demand, an extra term or a tunnel fewer, no LSs,
    /// a simpler model.
    fn shrink_case(c: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        for i in 0..c.demands.len() {
            if c.demands.len() > 1 {
                let mut d = c.clone();
                d.demands.remove(i);
                out.push(d);
            }
        }
        if c.extras > 0 {
            out.push(Case {
                extras: c.extras - 1,
                ..c.clone()
            });
        }
        if c.k > 1 {
            out.push(Case {
                k: c.k - 1,
                ..c.clone()
            });
        }
        if c.lss != Lss::None {
            out.push(Case {
                lss: Lss::None,
                ..c.clone()
            });
        }
        if c.model != Model::Links(1) {
            out.push(Case {
                model: Model::Links(1),
                ..c.clone()
            });
        }
        out
    }

    /// What a case is rebuilt into: the instance, the failure model, the
    /// extra terms and the reservations `a`, `b`.
    type Built = (Instance, FailureModel, Vec<ExtraTerm>, Vec<f64>, Vec<f64>);

    fn build_case(c: &Case) -> Built {
        let name = format!("diff-{}-{}", c.nodes, c.links);
        let topo = pcf_topology::zoo::synthetic(&name, c.nodes, c.links);
        let demands = c
            .demands
            .iter()
            .map(|&(s, t)| (NodeId(s as u32), NodeId(t as u32), 1.0));
        let mut builder =
            InstanceBuilder::with_demands(&topo, demands.collect()).tunnels_per_pair(c.k);
        if c.lss != Lss::None {
            for (i, &(s, t)) in c.demands.iter().enumerate() {
                let (s, t) = (NodeId(s as u32), NodeId(t as u32));
                let Some(path) = pcf_paths::shortest_path(&topo, s, t) else {
                    continue;
                };
                if path.nodes.len() >= 3 {
                    let condition = match c.lss {
                        Lss::Conditional => condition_of(&c.conditions[i], c.links),
                        _ => Condition::Always,
                    };
                    builder = builder.add_ls(LogicalSequence {
                        hops: path.nodes,
                        condition,
                    });
                }
            }
        }
        let inst = builder.build();
        let fm = match c.model {
            Model::Links(f) => FailureModel::links(f),
            Model::Srlgs => FailureModel::srlgs(
                pcf_topology::SrlgSet::synthetic(&topo, 2, 3, c.prices).link_groups(),
                1,
            ),
            Model::Nodes => FailureModel::node_failures(&topo, 1),
            Model::Degraded(alpha, budget) => {
                let mut deg = crate::failure::Degradation::uniform(topo.link_count(), alpha);
                deg.budget = budget;
                FailureModel::links(1).with_degradation(&topo, deg)
            }
        };
        let extras: Vec<ExtraTerm> = match c.lss {
            Lss::Conditional => c.conditions[4..4 + c.extras]
                .iter()
                .map(|cond| ExtraTerm {
                    coef: cond.3,
                    condition: condition_of(cond, c.links),
                })
                .collect(),
            _ => Vec::new(),
        };
        let mut rng = pcf_rng::Pcg32::seed_from_u64(c.prices);
        let mut price = || {
            if rng.chance(0.2) {
                0.0
            } else {
                rng.range_f64(0.0, 2.0)
            }
        };
        let a: Vec<f64> = (0..inst.num_tunnels()).map(|_| price()).collect();
        let b: Vec<f64> = (0..inst.num_lss()).map(|_| price()).collect();
        (inst, fm, extras, a, b)
    }

    /// Compares the pair-sized oracle with the full-polytope reference on
    /// every pair of the case.
    fn pair_sized_matches_full(c: &Case) -> Result<(), String> {
        let (inst, fm, extras, a, b) = build_case(c);
        // Every pivot refactorizes, so the two LPs' arithmetic can differ
        // only through their pivots.
        let every_pivot = SimplexOptions {
            scale: false,
            reinvert_every: 1,
            ..SimplexOptions::default()
        };
        let mut every = Separator::new();
        every.lp.set_options(every_pivot.clone());
        for p in inst.pair_ids() {
            let bound = every
                .solve(&inst, p, &fm, &a, &b, &extras)
                .map_err(|e| format!("pair {}: {e}", p.0))?;
            let (worst, h_extra) = every
                .worst_case(&inst, p)
                .map_err(|e| format!("pair {}: {e}", p.0))?;
            let got = LinkWorstCase {
                worst,
                h_extra,
                pivots: Some(bound.pivots),
            };
            let want = full::worst_case(&inst, p, &fm, (&a, &b), &extras, every_pivot.clone());
            if let Some(diff) = differs(&got, &want, 0.0) {
                return Err(format!("pair {} refactorizing every pivot: {diff}", p.0));
            }
            // With the oracle's own options a basis update's growth can
            // trigger a refactorization one LP reaches a pivot earlier than
            // the other (the full LP's fresh factors are larger): the same
            // pivots, then rounding-level differences.
            let got = worst_case_link_with_extras(&inst, p, &fm, &a, &b, &extras)
                .map_err(|e| format!("pair {}: {e}", p.0))?;
            let shipped = Separator::options();
            let want = full::worst_case(&inst, p, &fm, (&a, &b), &extras, shipped);
            if let Some(diff) = differs(&got, &want, 1e-12) {
                return Err(format!("pair {}: {diff}", p.0));
            }
        }
        Ok(())
    }

    /// How the pair-sized answer differs from the full one by more than
    /// `tol` (bit for bit when `tol` is 0), if it does.
    fn differs(got: &LinkWorstCase, want: &(WorstCase, Vec<f64>), tol: f64) -> Option<String> {
        let (g, (w, w_extra)) = (&got.worst, want);
        let values = |wc: &WorstCase, extra: &[f64]| -> Vec<f64> {
            let vectors = wc.y.iter().chain(&wc.h_l).chain(&wc.h_q).chain(extra);
            std::iter::once(wc.available)
                .chain(vectors.copied())
                .collect()
        };
        let (gv, wv) = (values(g, &got.h_extra), values(w, w_extra));
        let shapes = (g.y.len(), g.h_l.len(), g.h_q.len(), got.h_extra.len());
        let same_shape = shapes == (w.y.len(), w.h_l.len(), w.h_q.len(), w_extra.len());
        let close = |(x, y): (&f64, &f64)| {
            x.to_bits() == y.to_bits() || (tol > 0.0 && (x - y).abs() <= tol)
        };
        if same_shape && gv.iter().zip(&wv).all(close) {
            return None;
        }
        Some(format!(
            "pair-sized {g:?} {:?}, full {w:?} {w_extra:?}",
            got.h_extra
        ))
    }

    /// Every bit of a pair's answer: availability, `y`, `h_l`, `h_q`,
    /// `h_extra` and the pivot count.
    fn answer_bits(got: &LinkWorstCase) -> Vec<u64> {
        let wc = &got.worst;
        let values =
            wc.y.iter()
                .chain(&wc.h_l)
                .chain(&wc.h_q)
                .chain(&got.h_extra);
        let lengths = [wc.y.len(), wc.h_l.len(), wc.h_q.len(), got.h_extra.len()];
        std::iter::once(wc.available.to_bits())
            .chain(values.map(|v| v.to_bits()))
            .chain(lengths.iter().map(|&n| n as u64))
            .chain(got.pivots.map(|n| n as u64))
            .collect()
    }

    /// One separator, kept across every case of the run (instances of
    /// different sizes, models and conditions) and fed each case's pairs
    /// forward, reversed and shuffled, answers every pair exactly as the
    /// one-shot oracle does in fresh storage: nothing a pair's LP reads
    /// survives from the pair before it.
    #[test]
    fn a_kept_separator_answers_every_pair_like_a_fresh_one() {
        let kept = std::cell::RefCell::new(Separator::new());
        pcf_rng::forall(
            "kept separator == one-shot oracle",
            &pcf_rng::Config::with_cases(300),
            gen_case,
            shrink_case,
            |c| {
                let (inst, fm, extras, a, b) = build_case(c);
                let fresh: Vec<Vec<u64>> = inst
                    .pair_ids()
                    .map(|p| worst_case_link_with_extras(&inst, p, &fm, &a, &b, &extras))
                    .map(|got| got.map(|got| answer_bits(&got)))
                    .collect::<Result<_, _>>()
                    .map_err(|e| e.to_string())?;
                let forward: Vec<PairId> = inst.pair_ids().collect();
                let reversed: Vec<PairId> = forward.iter().rev().copied().collect();
                let mut shuffled = forward.clone();
                pcf_rng::Pcg32::seed_from_u64(c.prices).shuffle(&mut shuffled);
                let mut sep = kept.borrow_mut();
                for (order, pairs) in [
                    ("forward", forward),
                    ("reversed", reversed),
                    ("shuffled", shuffled),
                ] {
                    for p in pairs {
                        let bound = sep
                            .solve(&inst, p, &fm, &a, &b, &extras)
                            .map_err(|e| e.to_string())?;
                        let (worst, h_extra) =
                            sep.worst_case(&inst, p).map_err(|e| e.to_string())?;
                        let got = LinkWorstCase {
                            worst,
                            h_extra,
                            pivots: Some(bound.pivots),
                        };
                        if answer_bits(&got) != fresh[p.0] {
                            return Err(format!("{order}, pair {}: kept {got:?}", p.0));
                        }
                    }
                }
                Ok(())
            },
        );
    }

    #[test]
    fn pair_sized_oracle_matches_the_full_polytope() {
        pcf_rng::forall(
            "pair-sized separation == full polytope",
            &pcf_rng::Config::with_cases(1000),
            gen_case,
            shrink_case,
            pair_sized_matches_full,
        );
    }

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
