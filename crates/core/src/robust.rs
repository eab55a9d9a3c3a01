//! The robust bandwidth-allocation engine: master LP plus cutting planes.
//!
//! The paper solves its models (P1, P2 and variants) by dualizing the inner
//! worst case so the LP stays polynomial. This crate implements the same
//! robust optimum with an equivalent *constraint generation* scheme that
//! scales better in a from-scratch simplex:
//!
//! 1. solve a master LP containing the capacity constraints and the
//!    scenario cuts generated so far;
//! 2. for every pair, ask the adversary ([`crate::adversary`]) for the
//!    worst scenario under the current reservations;
//! 3. add a cut for every violated pair; repeat until none is violated.
//!
//! Both approaches optimize over the same relaxed failure polytope, so the
//! cutting-plane optimum equals the dualized optimum (cross-checked in
//! tests against [`crate::dualized`]).
//!
//! The engine keeps **one master LP alive** across rounds: new scenario cuts
//! are appended to the solved [`pcf_lp::IncrementalLp`], which absorbs them
//! by dual simplex from the previous optimal basis. Every row of a master
//! whose `z` is free holds at the origin — cuts are homogeneous
//! `... - z d >= 0`, capacity rows are `<= c` — so the first solve starts
//! from an all-slack basis and no such master solve ever runs a phase 1
//! (augmentation fixes `z` at its target, so its no-failure cuts start
//! violated and its one cold solve does). A [`CutPool`] seed restarts the
//! next solve from the previous optimum: its cuts are appended before the
//! first solve, in the row order of the master that exported them, and that
//! master's optimal basis is offered to the LP, which factors it once and
//! pivots only as far as the new demands moved the optimum. The basis is a
//! start, not an answer — separation certifies the result exactly as on a
//! cold solve, and a basis the LP cannot use costs a crash-basis solve of
//! the same seeded master, nothing else. The pool also carries the
//! exporting instance's [`TunnelSet`], which its cuts' tunnel ids index, so
//! the next epoch's instance can take the tunnels back instead of selecting
//! them again ([`crate::InstanceBuilder::offer_tunnels`]).
//! Separation — the per-pair worst-case oracles — runs on
//! [`RobustOptions::threads`] scoped worker threads; the oracles are pure
//! functions of the shared reservations, so pairs partition cleanly.
//!
//! `Master::cutting_planes` is the only cutting-plane loop in the crate.
//! Bandwidth allocation (this module: FFC, PCF-TF, PCF-LS, CLS stage 2),
//! the logical-flow model ([`crate::logical_flow`]) and capacity
//! augmentation ([`crate::augment`]) each build a `Master` — the shared
//! reservation columns and capacity rows plus their own columns and static
//! rows — and run that loop on it; they differ in data, not in code path
//! (DESIGN.md §7 tabulates the three).

use crate::adversary::{
    worst_case_ffc, worst_case_link_with_extras, AdversaryError, ExtraTerm, WorstCase,
};
use crate::failure::{Condition, FailureModel};
use crate::instance::{Instance, LsId, PairId, TunnelSet};
use crate::objective::Objective;
use pcf_lp::{
    nonzero, Basis, IncrementalLp, IncrementalStats, LpProblem, Sense, SimplexOptions, Solution,
    Status, VarId,
};
use pcf_rng::Fnv1a;
use std::fmt;
use std::sync::Arc;

/// Structured failure from the robust engine's master problem.
///
/// Surfaced by [`try_solve_robust`]; the infallible [`solve_robust`]
/// wrapper panics on these instead. A
/// [`RobustError::MasterNotOptimal`] with [`Status::IterationLimit`] is
/// also how a numerically singular basis in the LP engine reports itself,
/// letting callers fall back (e.g. serving the incumbent through the
/// degradation ladder) instead of aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum RobustError {
    /// The LP layer rejected the master problem structurally.
    MasterLp(pcf_lp::SolveError),
    /// A master re-solve ended without optimality (iteration limit,
    /// infeasible after a bad cut, or unbounded) in the given
    /// cutting-plane round.
    MasterNotOptimal {
        /// Terminal status of the failed solve.
        status: Status,
        /// 1-based cutting-plane round that failed.
        round: usize,
    },
    /// A per-pair separation oracle failed.
    Adversary(AdversaryError),
    /// The logical-flow model referenced an endpoint or segment pair that
    /// is absent from the instance (a modeling error in the flow spec).
    FlowPairMissing(&'static str),
}

impl fmt::Display for RobustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RobustError::MasterLp(e) => write!(f, "master LP rejected: {e}"),
            RobustError::MasterNotOptimal { status, round } => {
                write!(f, "master LP not optimal in round {round}: {status}")
            }
            RobustError::Adversary(e) => write!(f, "separation oracle failed: {e}"),
            RobustError::FlowPairMissing(what) => {
                write!(
                    f,
                    "flow references a pair missing from the instance: {what}"
                )
            }
        }
    }
}

impl std::error::Error for RobustError {}

/// Which failure-set model the scheme plans against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// FFC's tunnel-count model (Eq. 5, driven by `p_st`).
    FfcTunnelCount,
    /// PCF's link-coupled model (Eq. 4), required for any instance with
    /// logical sequences.
    LinkBased,
}

/// Options for [`solve_robust`].
#[derive(Debug, Clone)]
pub struct RobustOptions {
    /// Metric to maximize.
    pub objective: Objective,
    /// Cutting-plane round limit.
    pub max_rounds: usize,
    /// Relative violation tolerance for accepting a solution.
    pub tol: f64,
    /// Simplex settings for the master problem.
    pub lp: SimplexOptions,
    /// Worker threads for the separation oracles. `0` means "use
    /// [`std::thread::available_parallelism`]"; `1` runs separation inline.
    pub threads: usize,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            objective: Objective::DemandScale,
            max_rounds: 200,
            tol: 1e-6,
            lp: SimplexOptions::default(),
            threads: 0,
        }
    }
}

impl RobustOptions {
    /// `threads` with the `0 = available parallelism` default applied.
    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Result of a robust solve.
#[derive(Debug, Clone)]
pub struct RobustSolution {
    /// Optimal metric value (demand scale, or total throughput).
    pub objective: f64,
    /// Served fraction per pair (demand scale: the same value for all).
    pub z: Vec<f64>,
    /// Reservation per tunnel (`a_l`).
    pub a: Vec<f64>,
    /// Reservation per logical sequence (`b_q`).
    pub b: Vec<f64>,
    /// Cutting-plane rounds used.
    pub rounds: usize,
    /// Total scenario cuts generated.
    pub cuts: usize,
    /// Rounds whose master solve started from a basis rather than from the
    /// crash start: the retained one, or on round 1 of a seeded solve the
    /// one the pool carries.
    pub warm_rounds: usize,
    /// Cuts offered to round 1 from a previous solve's [`CutPool`] (0 on a
    /// cold start or when the offered pool did not [`CutPool::matches`]
    /// the instance).
    pub seeded_cuts: usize,
    /// LP-layer counters of the master, cumulative over the rounds: solves
    /// by kind, pivots by loop, refactorizations.
    pub lp_stats: IncrementalStats,
    /// Per-pair worst-case availability of the final reservations over the
    /// relaxed failure polytope — the inner adversary's optimum, i.e. the
    /// value the dualized inner problem certifies. At convergence
    /// `worst_available[p] >= z[p] * demand(p) - tol`, and the slack
    /// `worst_available[p] - z[p] * demand(p)` is the admission headroom:
    /// extra demand a pair can absorb under *every* modeled scenario
    /// without re-solving (the relaxation lower-bounds the integral worst
    /// case, so admitting against it is conservative-safe).
    pub worst_available: Vec<f64>,
}

impl RobustSolution {
    /// Served traffic per pair, `z_p · d_p`: the demand a realization of
    /// this plan routes.
    pub fn served(&self, inst: &Instance) -> Vec<f64> {
        inst.pair_ids()
            .map(|p| self.z[p.0] * inst.demand(p))
            .collect()
    }
}

/// The scenario cuts of a converged solve and the optimal basis of the
/// master that held them, exported so the next solve of a same-shape
/// instance restarts from that optimum instead of rediscovering the binding
/// scenarios and the vertex from scratch (an epoch-to-epoch warm start:
/// demand re-scales and re-draws over the same pairs move the optimal
/// reservations, but the adversarial scenarios that bind them, and mostly
/// the basis, are stable).
///
/// A pool is only meaningful for an instance with identical pairs, tunnels
/// and LSs behind identical indices — demands may differ, what a cut's
/// coefficients point at may not; [`CutPool::matches`] guards that, and
/// the seeded solvers silently fall back to a cold start on mismatch. The
/// basis rides on a row-order contract: a master's rows are its capacity
/// rows, one no-failure cut per pair, then every other cut in the order
/// appended — which is the pool's order, so the master rebuilt from the
/// pool has the exporting master's row `i` as its row `i`.
///
/// The pool also holds the exporting instance's [`TunnelSet`] — the tunnels
/// its cuts' coefficients point at. Tunnel selection is a pure function of
/// the topology's structure, the pair and `k`, so a same-pair re-plan
/// takes that set back instead of selecting again, and the instance it
/// builds is the one a fresh selection would have built.
#[derive(Debug, Clone, Default)]
pub struct CutPool {
    /// [`instance_identity`] of the exporting instance.
    identity: u64,
    cuts: Vec<(PairId, WorstCase)>,
    /// Optimal basis of the exporting master; `None` if the LP kept none.
    basis: Option<Basis>,
    /// The exporting instance's tunnels, shared with it, not copied.
    tunnels: Option<Arc<TunnelSet>>,
}

impl CutPool {
    /// Number of cuts in the pool.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }

    /// Whether the pool holds no cuts.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Whether the pool was exported from an instance with `inst`'s pairs,
    /// tunnels and LSs at the same indices. Equal counts are not enough: a
    /// cut from another pair set is a scenario outside the uncertainty set
    /// on the wrong variables, and since the solve only ever adds violated
    /// cuts, nothing would take it back out.
    pub fn matches(&self, inst: &Instance) -> bool {
        self.identity == instance_identity(inst)
    }

    /// The exporting instance's tunnel set, to offer to the next build
    /// ([`crate::InstanceBuilder::offer_tunnels`]).
    pub fn tunnel_set(&self) -> Option<&Arc<TunnelSet>> {
        self.tunnels.as_ref()
    }
}

/// FNV-1a over everything a cut is indexed by: each pair's endpoints, each
/// tunnel's pair and links, each LS's hops and condition, in index order.
/// Demands are left out — re-solving the same pairs at another demand is
/// what a pool is for. O(instance).
fn instance_identity(inst: &Instance) -> u64 {
    // Length-prefixed, so neighbouring lists cannot alias.
    fn list(h: &mut Fnv1a, xs: impl ExactSizeIterator<Item = u32>) {
        h.write_u64(xs.len() as u64);
        for x in xs {
            h.write_u64(u64::from(x));
        }
    }
    let mut h = Fnv1a::new();
    for p in inst.pair_ids() {
        let (s, t) = inst.pair(p);
        list(&mut h, [s.0, t.0].into_iter());
    }
    for l in inst.tunnel_ids() {
        h.write_u64(inst.tunnel_pair(l).0 as u64);
        list(&mut h, inst.tunnel(l).links.iter().map(|e| e.0));
    }
    for q in inst.ls_ids() {
        let ls = inst.ls(q);
        list(&mut h, ls.hops.iter().map(|v| v.0));
        match &ls.condition {
            Condition::Always => h.write_u64(0),
            Condition::LinkDead(e) => {
                h.write_u64(1);
                list(&mut h, std::iter::once(e.0));
            }
            Condition::AliveDead { alive, dead } => {
                h.write_u64(2);
                list(&mut h, alive.iter().map(|e| e.0));
                list(&mut h, dead.iter().map(|e| e.0));
            }
        }
    }
    h.finish()
}

/// Evaluates the activation level of every condition in the no-failure
/// state (`x = 0`): Always → 1, LinkDead → 0, AliveDead → 1 iff its dead
/// set is empty.
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

/// Solves the robust bandwidth allocation for `inst` against `fm` with the
/// given adversary model.
///
/// Infallible wrapper over [`try_solve_robust`] for the common case where
/// a master failure is a bug worth halting on.
///
/// # Panics
/// Panics if `kind` is [`AdversaryKind::FfcTunnelCount`] and the instance
/// has logical sequences, or on any [`RobustError`].
pub fn solve_robust(
    inst: &Instance,
    fm: &FailureModel,
    kind: AdversaryKind,
    opts: &RobustOptions,
) -> RobustSolution {
    match try_solve_robust(inst, fm, kind, opts, None) {
        Ok((sol, _)) => sol,
        #[expect(clippy::panic, reason = "infallible wrapper of try_solve_robust")]
        Err(e) => panic!("robust solve failed: {e}"),
    }
}

/// Fallible variant of [`solve_robust`]: master-LP failures come back as
/// [`RobustError`] values instead of panics.
///
/// `seed` is an optional [`CutPool`] warm start: cuts from a previous
/// solve of a same-shape instance enter the master before its first
/// solve, which starts from the basis the pool carries, typically
/// collapsing the cutting-plane loop to one round of a few pivots. Returns
/// the solution together with the pool of cuts generated (seeded plus
/// freshly separated) and the final basis, ready to seed the next solve.
///
/// A pool that does not [`CutPool::matches`] the instance is ignored — the
/// solve falls back to cold and the fact is visible as `seeded_cuts == 0`.
///
/// On hitting [`RobustOptions::max_rounds`] the incumbent is returned after
/// one extra separation pass, so the solution still carries its worst-case
/// availabilities (the round limit is a rare escape hatch, not the steady
/// state).
///
/// # Panics
/// Panics if `kind` is [`AdversaryKind::FfcTunnelCount`] and the instance
/// has logical sequences (a modeling error, not a runtime condition).
pub fn try_solve_robust(
    inst: &Instance,
    fm: &FailureModel,
    kind: AdversaryKind,
    opts: &RobustOptions,
    seed: Option<&CutPool>,
) -> Result<(RobustSolution, CutPool), RobustError> {
    if kind == AdversaryKind::FfcTunnelCount {
        assert_eq!(
            inst.num_lss(),
            0,
            "FFC's failure set is defined for pure tunnel instances"
        );
    }

    let mut master = Master::for_allocation(inst, opts);
    let scale = 1.0 + inst.total_demand();
    let end = master.cutting_planes(inst, fm, kind, opts, scale, seed)?;
    let wcs = match end.certified {
        Some(wcs) => wcs,
        None => master
            .separate(inst, fm, kind, &end.optimum, opts.effective_threads())
            .map_err(RobustError::Adversary)?,
    };
    let cuts = master.cuts.len();
    let pool = master.export_pool(inst);
    let MasterOptimum { sol, a, b, z } = end.optimum;
    Ok((
        RobustSolution {
            objective: sol.objective,
            z,
            a,
            b,
            rounds: end.rounds,
            cuts,
            warm_rounds: end.warm_rounds,
            seeded_cuts: end.seeded_cuts,
            lp_stats: master.lp.stats(),
            worst_available: wcs.iter().map(|(wc, _)| wc.available).collect(),
        },
        pool,
    ))
}

/// The served-fraction columns of a master: one shared `z` (demand scale)
/// or one `z_p` per pair with positive demand (throughput).
pub(crate) enum ZVars {
    /// Every pair is served the same fraction.
    Shared(VarId),
    /// Per-pair fractions; `None` for zero-demand pairs.
    PerPair(Vec<Option<VarId>>),
}

impl ZVars {
    /// Adds the columns `objective` maximizes.
    pub(crate) fn for_objective(
        lp: &mut LpProblem,
        inst: &Instance,
        objective: Objective,
    ) -> ZVars {
        match objective {
            Objective::DemandScale => ZVars::Shared(lp.add_nonneg(1.0)),
            Objective::Throughput => ZVars::PerPair(
                inst.pair_ids()
                    .map(|p| {
                        let d = inst.demand(p);
                        (d > 0.0).then(|| lp.add_var(0.0, 1.0, d))
                    })
                    .collect(),
            ),
        }
    }

    fn var_of(&self, p: PairId) -> Option<VarId> {
        match self {
            ZVars::Shared(v) => Some(*v),
            ZVars::PerPair(vs) => vs[p.0],
        }
    }
}

/// A caller-added column that enters one pair's availability under a
/// condition, the way an LS reservation does: the logical-flow model's
/// reservations `b_w` (gain +1 for the flow's endpoint pair) and segment
/// routings `p_w(i,j)` (gain −1, an obligation of the segment's pair).
pub(crate) struct ConditionedColumn {
    /// The column.
    pub var: VarId,
    /// `+1` when the column's value is available to the pair, `−1` when
    /// the pair must carry it.
    pub gain: f64,
    /// Activation condition (`h_w`).
    pub condition: Condition,
}

/// One pair's oracle answer: its worst case and the activation level of
/// each of its [`ConditionedColumn`]s in that scenario.
pub(crate) type Priced = (WorstCase, Vec<f64>);

/// A master optimum: the LP solution plus the values every caller reads.
pub(crate) struct MasterOptimum {
    /// The LP solution (callers read their own columns from it).
    pub sol: Solution,
    /// Reservation per tunnel.
    pub a: Vec<f64>,
    /// Reservation per logical sequence.
    pub b: Vec<f64>,
    /// Served fraction per pair.
    pub z: Vec<f64>,
}

/// How [`Master::cutting_planes`] ended.
pub(crate) struct CutLoopEnd {
    /// The last master optimum.
    pub optimum: MasterOptimum,
    /// Rounds that separated (the incumbent of a capped loop has absorbed
    /// the last round's cuts but was not separated again).
    pub rounds: usize,
    /// Rounds whose master re-solve started from the retained basis.
    pub warm_rounds: usize,
    /// Cuts taken from the offered [`CutPool`].
    pub seeded_cuts: usize,
    /// The separation pass that found no violated pair; `None` when
    /// [`RobustOptions::max_rounds`] stopped the loop first.
    pub certified: Option<Vec<Priced>>,
}

/// The live master LP and the one cutting-plane loop that drives it.
///
/// Allocation (FFC / PCF-TF / PCF-LS / CLS stage 2), the logical-flow model
/// and capacity augmentation are three callers that differ only in data:
/// the sense and the columns of the [`LpProblem`] they hand in, the columns
/// relieving the capacity rows, the served-fraction columns (maximized, or
/// fixed at a target), the [`ConditionedColumn`]s and static rows they add
/// before the loop, and the adversary kind. Variables and static rows are
/// created once; each round only appends scenario cut rows, so every
/// re-solve after the first warm-starts from the previous optimal basis.
pub(crate) struct Master {
    /// The live LP. Callers add their own columns and static rows through
    /// it before [`Master::cutting_planes`] runs.
    pub lp: IncrementalLp,
    a_vars: Vec<VarId>,
    b_vars: Vec<VarId>,
    z_vars: ZVars,
    /// Per pair, the caller's conditioned columns (empty for pure
    /// allocation). A non-empty list needs [`AdversaryKind::LinkBased`].
    pub extras: Vec<Vec<ConditionedColumn>>,
    /// Every scenario cut appended so far, in row order.
    cuts: Vec<(PairId, WorstCase)>,
}

impl Master {
    /// Extends `lp` to the cut-free master: reservation columns `a_l`,
    /// `b_q`, the per-arc capacity rows (Eq. 3, full duplex), then the
    /// served-fraction columns `z` creates. `relief` is empty or holds one
    /// column of `lp` per link, subtracted from both of the link's capacity
    /// rows.
    pub(crate) fn new(
        mut lp: LpProblem,
        inst: &Instance,
        relief: &[VarId],
        z: impl FnOnce(&mut LpProblem) -> ZVars,
    ) -> Master {
        let topo = inst.topo();
        let a_vars: Vec<VarId> = inst.tunnel_ids().map(|_| lp.add_nonneg(0.0)).collect();
        let b_vars: Vec<VarId> = inst.ls_ids().map(|_| lp.add_nonneg(0.0)).collect();

        let mut arc_usage: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.arc_count()];
        for l in inst.tunnel_ids() {
            for arc in inst.tunnel_arcs(l) {
                arc_usage[arc.index()].push((a_vars[l.0], 1.0));
            }
        }
        for arc in topo.arcs() {
            let usage = &arc_usage[arc.index()];
            if !usage.is_empty() {
                let relieved = relief.get(arc.link().index()).map(|&v| (v, -1.0));
                lp.add_le(
                    usage.iter().copied().chain(relieved),
                    topo.capacity(arc.link()),
                );
            }
        }
        let z_vars = z(&mut lp);

        Master {
            lp: IncrementalLp::new(lp),
            a_vars,
            b_vars,
            z_vars,
            extras: inst.pair_ids().map(|_| Vec::new()).collect(),
            cuts: Vec::new(),
        }
    }

    /// The cut-free bandwidth-allocation master: maximize `opts.objective`
    /// over the reservations, no further columns or static rows.
    fn for_allocation(inst: &Instance, opts: &RobustOptions) -> Master {
        let mut lp = LpProblem::new(Sense::Maximize);
        lp.set_options(opts.lp.clone());
        Master::new(lp, inst, &[], |lp| {
            ZVars::for_objective(lp, inst, opts.objective)
        })
    }

    /// Appends one scenario cut row
    /// `Σ_l a_l (1-y_l) + Σ_{q∈L} b_q h_q - Σ_{q'∈Q} b_{q'} h_{q'} + Σ_x gain_x h_x x - z_p d_p >= 0`,
    /// `h_extra` holding the level of each of the pair's conditioned columns.
    fn append_cut(&mut self, inst: &Instance, p: PairId, wc: WorstCase, h_extra: &[f64]) {
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (i, &l) in inst.tunnels_of(p).iter().enumerate() {
            let coef = 1.0 - wc.y[i];
            if nonzero(coef) {
                row.push((self.a_vars[l.0], coef));
            }
        }
        for (i, &q) in inst.lss_of(p).iter().enumerate() {
            if nonzero(wc.h_l[i]) {
                row.push((self.b_vars[q.0], wc.h_l[i]));
            }
        }
        for (i, &q) in inst.segments_of(p).iter().enumerate() {
            if nonzero(wc.h_q[i]) {
                row.push((self.b_vars[q.0], -wc.h_q[i]));
            }
        }
        for (x, &h) in self.extras[p.0].iter().zip(h_extra) {
            if nonzero(h) {
                row.push((x.var, x.gain * h));
            }
        }
        let d = inst.demand(p);
        if d > 0.0 {
            if let Some(zv) = self.z_vars.var_of(p) {
                row.push((zv, -d));
            }
        }
        self.lp.add_ge(row, 0.0);
        self.cuts.push((p, wc));
    }

    /// The pool that seeds the next solve of a same-shape instance: the
    /// basis the last solve ended on and every cut past the no-failure
    /// ones, which each solve regenerates — replaying them would only
    /// duplicate rows.
    fn export_pool(&mut self, inst: &Instance) -> CutPool {
        CutPool {
            identity: instance_identity(inst),
            basis: self.lp.basis(),
            cuts: self.cuts.split_off(inst.num_pairs()),
            tunnels: Some(Arc::clone(inst.tunnel_set())),
        }
    }

    /// Re-solves the master (warm after the first call) and reads out the
    /// optimum and whether the solve started from a retained or offered
    /// basis.
    fn solve(
        &mut self,
        inst: &Instance,
        round: usize,
    ) -> Result<(MasterOptimum, bool), RobustError> {
        let warm_before = self.lp.stats().warm_solves;
        let sol = self.lp.solve().map_err(RobustError::MasterLp)?;
        if sol.status != Status::Optimal {
            return Err(RobustError::MasterNotOptimal {
                status: sol.status,
                round,
            });
        }
        let was_warm = self.lp.stats().warm_solves > warm_before;

        let a: Vec<f64> = self.a_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
        let b: Vec<f64> = self.b_vars.iter().map(|&v| sol.value(v).max(0.0)).collect();
        let z: Vec<f64> = inst
            .pair_ids()
            .map(|p| self.z_vars.var_of(p).map_or(0.0, |v| sol.value(v)))
            .collect();
        Ok((MasterOptimum { sol, a, b, z }, was_warm))
    }

    /// Runs the worst-case oracle for every pair at `at`, chunked over
    /// `threads` scoped worker threads, returning each pair's worst case and
    /// the levels of its conditioned columns. Each worker writes into its
    /// own disjoint slice of the result vector, so no synchronization is
    /// needed beyond the scope join.
    fn separate(
        &self,
        inst: &Instance,
        fm: &FailureModel,
        kind: AdversaryKind,
        at: &MasterOptimum,
        threads: usize,
    ) -> Result<Vec<Priced>, AdversaryError> {
        let pairs: Vec<PairId> = inst.pair_ids().collect();
        let oracle = |p: PairId| -> Result<Priced, AdversaryError> {
            match kind {
                AdversaryKind::FfcTunnelCount => {
                    Ok((worst_case_ffc(inst, p, fm, &at.a), Vec::new()))
                }
                AdversaryKind::LinkBased => {
                    let extras: Vec<ExtraTerm> = self.extras[p.0]
                        .iter()
                        .map(|x| ExtraTerm {
                            coef: -x.gain * at.sol.value(x.var).max(0.0),
                            condition: x.condition.clone(),
                        })
                        .collect();
                    worst_case_link_with_extras(inst, p, fm, &at.a, &at.b, &extras)
                }
            }
        };
        let nt = threads.max(1).min(pairs.len().max(1));
        if nt <= 1 {
            return pairs.into_iter().map(oracle).collect();
        }
        let mut out: Vec<Option<Result<Priced, AdversaryError>>> = Vec::new();
        out.resize_with(pairs.len(), || None);
        let chunk = pairs.len().div_ceil(nt);
        let oracle = &oracle;
        std::thread::scope(|s| {
            for (ps, slots) in pairs.chunks(chunk).zip(out.chunks_mut(chunk)) {
                s.spawn(move || {
                    for (slot, &p) in slots.iter_mut().zip(ps) {
                        *slot = Some(oracle(p));
                    }
                });
            }
        });
        // The scope above joins every worker (a worker panic propagates), so
        // each slot is filled; if one ever were not, recompute it inline
        // rather than aborting — the oracle is a pure function.
        out.into_iter()
            .zip(pairs)
            .map(|(o, p)| o.unwrap_or_else(|| oracle(p)))
            .collect()
    }

    /// The cutting-plane loop: seed the no-failure cut of every pair (it
    /// bounds the objective), then solve the master, separate every pair,
    /// append a cut for each pair whose worst-case availability falls more
    /// than `opts.tol * scale` short of `z_p d_p`, and repeat until none
    /// does or `opts.max_rounds` rounds have separated.
    ///
    /// The cuts of a `seed` pool that [`CutPool::matches`] the instance
    /// follow the no-failure cuts, and the pool's basis is offered to the
    /// first solve.
    pub(crate) fn cutting_planes(
        &mut self,
        inst: &Instance,
        fm: &FailureModel,
        kind: AdversaryKind,
        opts: &RobustOptions,
        scale: f64,
        seed: Option<&CutPool>,
    ) -> Result<CutLoopEnd, RobustError> {
        for p in inst.pair_ids() {
            let at_rest = |qs: &[LsId]| -> Vec<f64> {
                qs.iter()
                    .map(|&q| no_failure_h(&inst.ls(q).condition))
                    .collect()
            };
            let wc = WorstCase {
                available: 0.0, // unused in the master
                y: vec![0.0; inst.tunnels_of(p).len()],
                h_l: at_rest(inst.lss_of(p)),
                h_q: at_rest(inst.segments_of(p)),
            };
            let h_extra: Vec<f64> = self.extras[p.0]
                .iter()
                .map(|x| no_failure_h(&x.condition))
                .collect();
            self.append_cut(inst, p, wc, &h_extra);
        }

        // Warm start: the cuts of a previous same-shape solve, in its row
        // order, and the optimal basis that goes with those rows.
        let mut seeded_cuts = 0usize;
        if let Some(pool) = seed.filter(|pool| pool.matches(inst)) {
            for (p, wc) in &pool.cuts {
                self.append_cut(inst, *p, wc.clone(), &[]);
            }
            seeded_cuts = pool.cuts.len();
            if let Some(basis) = &pool.basis {
                self.lp.offer_basis(basis.clone());
            }
        }

        let mut rounds = 0usize;
        let mut warm_rounds = 0usize;
        loop {
            rounds += 1;
            let (optimum, was_warm) = self.solve(inst, rounds)?;
            if was_warm {
                warm_rounds += 1;
            }
            if rounds > opts.max_rounds {
                return Ok(CutLoopEnd {
                    optimum,
                    rounds: rounds - 1,
                    warm_rounds,
                    seeded_cuts,
                    certified: None,
                });
            }

            // Separation: every pair's oracle is independent, so fan the pairs
            // out over worker threads.
            let wcs = self
                .separate(inst, fm, kind, &optimum, opts.effective_threads())
                .map_err(RobustError::Adversary)?;
            let short = |p: PairId, wc: &WorstCase| {
                let required = optimum.z[p.0] * inst.demand(p);
                wc.available < required - opts.tol * scale
            };
            if !inst.pair_ids().zip(&wcs).any(|(p, (wc, _))| short(p, wc)) {
                return Ok(CutLoopEnd {
                    optimum,
                    rounds,
                    warm_rounds,
                    seeded_cuts,
                    certified: Some(wcs),
                });
            }
            for (p, (wc, h_extra)) in inst.pair_ids().zip(wcs) {
                if short(p, &wc) {
                    self.append_cut(inst, p, wc, &h_extra);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use pcf_topology::{NodeId, Topology};

    /// Two disjoint 2-hop paths s-a-t and s-b-t, all capacity 1.
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
    fn no_failure_equals_capacity_bound() {
        // f = 0: both schemes should grant the full 2 units across the two
        // disjoint paths for a demand of 1 → demand scale 2.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(0);
        let opts = RobustOptions::default();
        for kind in [AdversaryKind::FfcTunnelCount, AdversaryKind::LinkBased] {
            let sol = solve_robust(&inst, &fm, kind, &opts);
            assert!(
                (sol.objective - 2.0).abs() < 1e-5,
                "{kind:?} got {}",
                sol.objective
            );
        }
    }

    #[test]
    fn single_failure_halves_diamond() {
        // f = 1 with two disjoint 1-capacity paths: worst case loses one
        // path → guarantee 1.0. Both FFC (p_st = 1) and PCF agree here.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        for kind in [AdversaryKind::FfcTunnelCount, AdversaryKind::LinkBased] {
            let sol = solve_robust(&inst, &fm, kind, &opts);
            assert!(
                (sol.objective - 1.0).abs() < 1e-5,
                "{kind:?} got {}",
                sol.objective
            );
        }
    }

    #[test]
    fn two_failures_zero_diamond() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(2);
        let sol = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective.abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn throughput_objective_caps_at_demand() {
        let topo = diamond();
        // Demand 10 on a network of capacity 2, f = 0: throughput = 2.
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 10.0)])
            .tunnels_per_pair(2)
            .build();
        let opts = RobustOptions {
            objective: Objective::Throughput,
            ..RobustOptions::default()
        };
        let sol = solve_robust(
            &inst,
            &FailureModel::links(0),
            AdversaryKind::LinkBased,
            &opts,
        );
        assert!((sol.objective - 2.0).abs() < 1e-5, "got {}", sol.objective);
        // Tiny demand: capped at z = 1 → throughput = demand.
        let inst2 = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 0.5)])
            .tunnels_per_pair(2)
            .build();
        let sol2 = solve_robust(
            &inst2,
            &FailureModel::links(0),
            AdversaryKind::LinkBased,
            &opts,
        );
        assert!(
            (sol2.objective - 0.5).abs() < 1e-6,
            "got {}",
            sol2.objective
        );
    }

    #[test]
    fn reservations_respect_arc_capacities() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(
            &topo,
            vec![(NodeId(0), NodeId(3), 1.0), (NodeId(3), NodeId(0), 1.0)],
        )
        .tunnels_per_pair(2)
        .build();
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        // Full duplex: both directions independently get demand scale 1.
        assert!((sol.objective - 1.0).abs() < 1e-5, "got {}", sol.objective);
        // Check per-arc loads.
        let topo = inst.topo();
        let mut arc_load = vec![0.0; topo.arc_count()];
        for l in inst.tunnel_ids() {
            let path = inst.tunnel(l);
            for (i, &link) in path.links.iter().enumerate() {
                let arc = topo.arc_from(link, path.nodes[i]);
                arc_load[arc.index()] += sol.a[l.0];
            }
        }
        for arc in topo.arcs() {
            assert!(
                arc_load[arc.index()] <= topo.capacity(arc.link()) + 1e-6,
                "arc {arc:?} overloaded"
            );
        }
    }

    #[test]
    fn seeded_solve_matches_cold_and_counts_cuts() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        let (cold, pool) =
            try_solve_robust(&inst, &fm, AdversaryKind::LinkBased, &opts, None).unwrap();
        assert_eq!(cold.seeded_cuts, 0);
        assert!(!pool.is_empty(), "f=1 must generate separation cuts");
        assert!(pool.matches(&inst));

        // Warm re-solve of the same instance: identical optimum, the pool
        // injected up front, and no more rounds than the cold solve took.
        let (warm, pool2) =
            try_solve_robust(&inst, &fm, AdversaryKind::LinkBased, &opts, Some(&pool)).unwrap();
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert_eq!(warm.seeded_cuts, pool.len());
        assert!(warm.rounds <= cold.rounds);
        assert!(pool2.len() >= pool.len());

        // A pool from a differently shaped instance is silently ignored.
        let other = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(1)
            .build();
        assert!(!pool.matches(&other));
        let (cold2, _) =
            try_solve_robust(&other, &fm, AdversaryKind::LinkBased, &opts, Some(&pool)).unwrap();
        assert_eq!(cold2.seeded_cuts, 0);
    }
}

#[cfg(test)]
mod more_tests {
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
        t.add_link(s, a, 1.0);
        t.add_link(a, d, 1.0);
        t.add_link(s, b, 1.0);
        t.add_link(b, d, 1.0);
        t
    }

    #[test]
    fn srlg_group_budget_is_respected_end_to_end() {
        // One SRLG couples the two top links (s-a, s-b): a single group
        // failure cuts the source off entirely -> guarantee 0. Without the
        // SRLG (separate groups) the guarantee is 1.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let coupled = FailureModel::srlgs(
            vec![vec![LinkId(0), LinkId(2)], vec![LinkId(1)], vec![LinkId(3)]],
            1,
        );
        let sol = solve_robust(
            &inst,
            &coupled,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective.abs() < 1e-6, "got {}", sol.objective);
        let separate = FailureModel::srlgs(topo.links().map(|l| vec![l]).collect(), 1);
        let sol2 = solve_robust(
            &inst,
            &separate,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(
            (sol2.objective - 1.0).abs() < 1e-5,
            "got {}",
            sol2.objective
        );
    }

    #[test]
    fn explicit_scenarios_solve_exactly() {
        // Protect only against the failure of the left path's first link:
        // the right path plus the surviving left reservation can be used.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let fm = FailureModel::Explicit {
            scenarios: vec![vec![LinkId(0)]],
        };
        let sol = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        // Worst case: lose the left tunnel entirely -> right tunnel's
        // reservation (capacity 1) is the guarantee.
        assert!((sol.objective - 1.0).abs() < 1e-5, "got {}", sol.objective);
        // Designing against both single-link lefts AND rights is the same
        // as f=1 here.
        let fm2 = FailureModel::Explicit {
            scenarios: topo.links().map(|l| vec![l]).collect(),
        };
        let sol2 = solve_robust(
            &inst,
            &fm2,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let f1 = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!((sol2.objective - f1.objective).abs() < 1e-5);
    }

    #[test]
    fn relaxed_design_is_never_above_exact() {
        // The x ∈ [0,1] relaxation is conservative: its guarantee cannot
        // exceed the exact enumeration's.
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let relaxed = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let scenarios = topo.links().map(|l| vec![l]).collect();
        let exact = solve_robust(
            &inst,
            &FailureModel::Explicit { scenarios },
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(relaxed.objective <= exact.objective + 1e-6 * (1.0 + exact.objective));
    }

    #[test]
    fn throughput_objective_with_lss() {
        let topo = diamond();
        // Demand too large to fully serve; LS (s,a,t) adds nothing here but
        // must not break the throughput accounting.
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 5.0)])
            .tunnels_per_pair(2)
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .build();
        let opts = RobustOptions {
            objective: crate::objective::Objective::Throughput,
            ..RobustOptions::default()
        };
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &opts,
        );
        // Worst single failure leaves one unit path + whatever the LS is
        // backed by; total throughput is at least 1, at most the demand.
        assert!(sol.objective >= 1.0 - 1e-6);
        assert!(sol.objective <= 5.0 + 1e-9);
    }

    #[test]
    fn later_rounds_warm_start() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let fm = FailureModel::links(1);

        let warm = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(warm.rounds >= 2, "expected a multi-round solve");
        // Every master re-solve after the first must reuse the live basis.
        assert_eq!(warm.warm_rounds, warm.rounds - 1);
    }

    #[test]
    fn starved_master_surfaces_structured_error() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let opts = RobustOptions {
            lp: SimplexOptions {
                max_iterations: Some(1),
                ..SimplexOptions::default()
            },
            ..RobustOptions::default()
        };
        let err = crate::robust::try_solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &opts,
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            RobustError::MasterNotOptimal {
                status: Status::IterationLimit,
                round: 1
            }
        );
        assert!(err.to_string().contains("round 1"), "{err}");
    }

    #[test]
    fn round_limit_returns_current_incumbent() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let opts = RobustOptions {
            max_rounds: 1,
            ..RobustOptions::default()
        };
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &opts,
        );
        // One round cannot certify the worst case; the incumbent is an
        // upper bound of the converged value.
        let full = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective >= full.objective - 1e-9);
        assert_eq!(sol.rounds, 1);
    }

    /// Sprint, gravity seed 2, `tunnels` tunnels per pair, and its
    /// allocation master.
    fn sprint_master(tunnels: usize, opts: &RobustOptions) -> (Instance, Master) {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 2);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, tunnels);
        let master = Master::for_allocation(&inst, opts);
        (inst, master)
    }

    #[test]
    fn rebuilt_master_repeats_the_exporting_masters_rows() {
        // The contract the pool's basis rides on: capacity rows, one
        // no-failure cut per pair, then the pool's cuts in pool order, so
        // row `i` of the master rebuilt from a pool is row `i` of the
        // master that exported it.
        let fm = FailureModel::links(1);
        let opts = RobustOptions {
            threads: 1,
            ..RobustOptions::default()
        };
        let (inst, mut first) = sprint_master(3, &opts);
        let capacity_rows = first.lp.problem().num_rows();
        let scale = 1.0 + inst.total_demand();
        let kind = AdversaryKind::LinkBased;
        let end = first
            .cutting_planes(&inst, &fm, kind, &opts, scale, None)
            .unwrap();
        assert!(end.certified.is_some() && end.rounds > 1);
        let exported_rows = format!("{:?}", first.lp.problem());
        let pool = first.export_pool(&inst);
        assert!(pool.basis.is_some() && !pool.is_empty());
        assert_eq!(
            first.lp.problem().num_rows(),
            capacity_rows + inst.num_pairs() + pool.len()
        );

        let (_, mut rebuilt) = sprint_master(3, &opts);
        let again = rebuilt
            .cutting_planes(&inst, &fm, kind, &opts, scale, Some(&pool))
            .unwrap();
        // Same rows in the same order (no new cut: the old optimum still
        // certifies), so the offered basis is optimal as it stands and is
        // what the rebuilt master exports in turn.
        assert_eq!(format!("{:?}", rebuilt.lp.problem()), exported_rows);
        assert_eq!((again.rounds, again.warm_rounds), (1, 1));
        let lp = rebuilt.lp.stats();
        assert_eq!(
            (lp.primal_iterations, lp.dual_iterations, lp.refactors),
            (0, 0, 1),
            "{lp:?}"
        );
        assert_eq!(rebuilt.lp.basis(), pool.basis);
        assert!((again.optimum.sol.objective - end.optimum.sol.objective).abs() <= 1e-12);
    }

    #[test]
    fn pool_without_a_usable_basis_takes_the_same_route() {
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        let kind = AdversaryKind::LinkBased;
        let (inst, _) = sprint_master(3, &opts);
        let (cold, pool) = try_solve_robust(&inst, &fm, kind, &opts, None).unwrap();
        let same_objective = |sol: &RobustSolution| {
            assert!(
                (sol.objective - cold.objective).abs() <= 1e-9,
                "{} vs cold {}",
                sol.objective,
                cold.objective
            );
            assert_eq!(sol.seeded_cuts, pool.len());
        };

        // No basis: the whole seeded master from the crash basis.
        let bare = CutPool {
            basis: None,
            ..pool.clone()
        };
        let (sol, _) = try_solve_robust(&inst, &fm, kind, &opts, Some(&bare)).unwrap();
        same_objective(&sol);
        let lp = sol.lp_stats;
        assert_eq!((lp.cold_solves, lp.warm_fallbacks), (1, 0), "{lp:?}");
        assert_eq!(sol.warm_rounds, sol.rounds - 1);

        // The basis of a master with other columns: the LP refuses it,
        // counts the fallback, and solves the same seeded master cold.
        let (other, _) = sprint_master(2, &opts);
        let (_, other_pool) = try_solve_robust(&other, &fm, kind, &opts, None).unwrap();
        let crossed = CutPool {
            basis: other_pool.basis,
            ..pool.clone()
        };
        assert!(crossed.basis.is_some() && crossed.matches(&inst));
        let (sol, _) = try_solve_robust(&inst, &fm, kind, &opts, Some(&crossed)).unwrap();
        same_objective(&sol);
        let lp = sol.lp_stats;
        assert_eq!((lp.cold_solves, lp.warm_fallbacks), (1, 1), "{lp:?}");
    }

    #[test]
    fn pool_from_another_pair_set_goes_cold() {
        // B4's 60 heaviest gravity pairs differ from seed to seed while the
        // pair, tunnel and LS counts do not: the seed-1 pool offered at
        // seeds 2-5 must be refused wherever the pairs moved, so every
        // seeded objective is the cold one (a pool seeded into the wrong
        // pairs lands FFC 14-31% and PCF-TF 1.5-3.8% below cold).
        let topo = pcf_topology::zoo::build("B4");
        let inst_at = |seed: u64| {
            let mut tm = pcf_traffic::gravity(&topo, seed);
            tm.truncate_to_top_k(60);
            crate::schemes::tunnel_instance(&topo, &tm, 3)
        };
        let fm = FailureModel::links(1);
        let opts = RobustOptions::default();
        let first = inst_at(1);
        for kind in [AdversaryKind::FfcTunnelCount, AdversaryKind::LinkBased] {
            let (_, pool) = try_solve_robust(&first, &fm, kind, &opts, None).unwrap();
            assert!(pool.matches(&first) && !pool.is_empty());
            let mut refused = 0;
            for seed in 2..=5 {
                let inst = inst_at(seed);
                assert_eq!(
                    (inst.num_pairs(), inst.num_tunnels()),
                    (first.num_pairs(), first.num_tunnels())
                );
                let (cold, _) = try_solve_robust(&inst, &fm, kind, &opts, None).unwrap();
                let (warm, _) = try_solve_robust(&inst, &fm, kind, &opts, Some(&pool)).unwrap();
                assert!(
                    (warm.objective - cold.objective).abs() <= 1e-9,
                    "{kind:?} seed {seed}: seeded {} vs cold {}",
                    warm.objective,
                    cold.objective
                );
                if !pool.matches(&inst) {
                    assert_eq!(warm.seeded_cuts, 0);
                    refused += 1;
                }
            }
            assert!(refused > 0, "no seed moved the pair set");
        }
    }
}
