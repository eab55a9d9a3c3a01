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
//! by dual simplex from the previous optimal basis. Every master row holds
//! at the origin —
//! cuts are homogeneous `... - z d >= 0`, capacity rows are `<= c` — so the
//! first solve starts from an all-slack basis and no master solve ever runs
//! a phase 1. A [`CutPool`] seed takes the same route as separated cuts:
//! the cut-free master is solved first and the pool appended to it, which
//! makes a seeded solve literally "one more cutting-plane round".
//! Separation — the per-pair worst-case oracles — runs on
//! [`RobustOptions::threads`] scoped worker threads; the oracles are pure
//! functions of the shared reservations, so pairs partition cleanly.

use crate::adversary::{worst_case_ffc, worst_case_link, AdversaryError, WorstCase};
use crate::failure::{Condition, FailureModel};
use crate::instance::{Instance, PairId};
use crate::objective::Objective;
use pcf_lp::{
    nonzero, IncrementalLp, IncrementalStats, LpProblem, Sense, SimplexOptions, Status, VarId,
};
use std::fmt;

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
    /// Rounds whose master re-solve started from the retained basis. On a
    /// seeded solve this includes round 1, which absorbs the pool.
    pub warm_rounds: usize,
    /// Cuts offered to round 1 from a previous solve's [`CutPool`] (0 on a
    /// cold start or when the offered pool did not shape-match the
    /// instance).
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

/// One generated scenario cut for a pair: the fractional failure levels to
/// materialize the constraint
/// `Σ_l a_l (1-y_l) + Σ_{q∈L} b_q h_q - Σ_{q'∈Q} b_{q'} h_{q'} >= z_p d_p`.
struct Cut {
    pair: PairId,
    wc: WorstCase,
}

/// The scenario cuts of a converged solve, exported so the next solve of a
/// same-shape instance can seed its master with them instead of
/// rediscovering the binding scenarios from scratch (an epoch-to-epoch
/// warm start: demand re-scales and traffic re-draws move the optimal
/// reservations, but the adversarial scenarios that bind them are largely
/// stable).
///
/// A pool is only meaningful for an instance with identical pair, tunnel,
/// and LS indexing; [`CutPool::matches`] guards that, and the seeded
/// solvers silently fall back to a cold start on mismatch.
#[derive(Debug, Clone, Default)]
pub struct CutPool {
    pairs: usize,
    tunnels: usize,
    lss: usize,
    cuts: Vec<(PairId, WorstCase)>,
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

    /// Whether every cut in the pool index-matches `inst` (same pair,
    /// tunnel, and LS shape). Cuts exported from a differently shaped
    /// instance would bind the wrong variables.
    pub fn matches(&self, inst: &Instance) -> bool {
        self.pairs == inst.num_pairs()
            && self.tunnels == inst.num_tunnels()
            && self.lss == inst.num_lss()
            && self.cuts.iter().all(|(p, wc)| {
                p.0 < self.pairs
                    && wc.y.len() == inst.tunnels_of(*p).len()
                    && wc.h_l.len() == inst.lss_of(*p).len()
                    && wc.h_q.len() == inst.segments_of(*p).len()
            })
    }
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
    match try_solve_robust(inst, fm, kind, opts) {
        Ok(sol) => sol,
        // audit:allow(no-panic-paths, compatibility wrapper; fallible path is try_solve_robust)
        Err(e) => panic!("robust solve failed: {e}"),
    }
}

/// Fallible variant of [`solve_robust`]: master-LP failures come back as
/// [`RobustError`] values instead of panics.
///
/// # Panics
/// Panics if `kind` is [`AdversaryKind::FfcTunnelCount`] and the instance
/// has logical sequences (a modeling error, not a runtime condition).
pub fn try_solve_robust(
    inst: &Instance,
    fm: &FailureModel,
    kind: AdversaryKind,
    opts: &RobustOptions,
) -> Result<RobustSolution, RobustError> {
    try_solve_robust_seeded(inst, fm, kind, opts, None).map(|(sol, _)| sol)
}

/// [`try_solve_robust`] with an optional [`CutPool`] warm start: cuts from
/// a previous solve of a same-shape instance are appended to the solved
/// cut-free master, so round 1 absorbs them from an optimal basis the way
/// every later round absorbs its separated cuts, typically collapsing the
/// cutting-plane loop to one or two rounds. Returns the solution together
/// with the pool of cuts generated (seeded plus freshly separated), ready
/// to seed the next solve.
///
/// A pool that does not [`CutPool::matches`] the instance is ignored — the
/// solve falls back to cold and the fact is visible as `seeded_cuts == 0`.
///
/// # Panics
/// Panics if `kind` is [`AdversaryKind::FfcTunnelCount`] and the instance
/// has logical sequences (a modeling error, not a runtime condition).
pub fn try_solve_robust_seeded(
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

    // Initial cuts: the no-failure scenario for every pair, which bounds the
    // objective and seeds the master.
    let mut cuts: Vec<Cut> = inst
        .pair_ids()
        .map(|p| {
            let wc = WorstCase {
                available: 0.0, // unused in the master
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
            };
            Cut { pair: p, wc }
        })
        .collect();

    // Warm start: replay the cuts of a previous same-shape solve so round 1
    // already knows the scenarios that bound the last epoch.
    let base_cuts = cuts.len();
    let mut seeded_cuts = 0usize;
    if let Some(pool) = seed {
        if pool.matches(inst) {
            cuts.extend(pool.cuts.iter().map(|(p, wc)| Cut {
                pair: *p,
                wc: wc.clone(),
            }));
            seeded_cuts = pool.cuts.len();
        }
    }

    let mut master = Master::new(inst, opts);
    for cut in &cuts[..base_cuts] {
        master.append_cut(inst, cut);
    }
    if seeded_cuts > 0 {
        // Solve the cut-free master so the seeds enter as appended rows.
        master.solve(inst, 1)?;
    }
    for cut in &cuts[base_cuts..] {
        master.append_cut(inst, cut);
    }

    // The exported pool skips the first `base_cuts` entries: the
    // no-failure cuts are regenerated by every solve, so replaying them
    // would only duplicate rows.
    let export = |cuts: &[Cut]| CutPool {
        pairs: inst.num_pairs(),
        tunnels: inst.num_tunnels(),
        lss: inst.num_lss(),
        cuts: cuts[base_cuts..]
            .iter()
            .map(|c| (c.pair, c.wc.clone()))
            .collect(),
    };

    let mut rounds = 0usize;
    let mut warm_rounds = 0usize;
    loop {
        rounds += 1;
        let (a, b, z, objective, was_warm) = master.solve(inst, rounds)?;
        if was_warm {
            warm_rounds += 1;
        }

        if rounds > opts.max_rounds {
            // One extra separation pass prices the incumbent so the
            // solution still carries its worst-case availabilities (the
            // round limit is a rare escape hatch, not the steady state).
            let wcs = separate(inst, fm, kind, &a, &b, opts.effective_threads())
                .map_err(RobustError::Adversary)?;
            return Ok((
                RobustSolution {
                    objective,
                    z,
                    a,
                    b,
                    rounds: rounds - 1,
                    cuts: cuts.len(),
                    warm_rounds,
                    seeded_cuts,
                    lp_stats: master.lp.stats(),
                    worst_available: wcs.iter().map(|wc| wc.available).collect(),
                },
                export(&cuts),
            ));
        }

        // Separation: every pair's oracle is independent, so fan the pairs
        // out over worker threads.
        let wcs = separate(inst, fm, kind, &a, &b, opts.effective_threads())
            .map_err(RobustError::Adversary)?;
        let worst_available: Vec<f64> = wcs.iter().map(|wc| wc.available).collect();
        let scale = 1.0 + inst.total_demand();
        let mut violated = 0usize;
        for (p, wc) in inst.pair_ids().zip(wcs) {
            let required = z[p.0] * inst.demand(p);
            if wc.available < required - opts.tol * scale {
                let cut = Cut { pair: p, wc };
                master.append_cut(inst, &cut);
                cuts.push(cut);
                violated += 1;
            }
        }
        if violated == 0 {
            return Ok((
                RobustSolution {
                    objective,
                    z,
                    a,
                    b,
                    rounds,
                    cuts: cuts.len(),
                    warm_rounds,
                    seeded_cuts,
                    lp_stats: master.lp.stats(),
                    worst_available,
                },
                export(&cuts),
            ));
        }
    }
}

/// Runs the worst-case oracle for every pair, chunked over `threads` scoped
/// worker threads. Each worker writes into its own disjoint slice of the
/// result vector, so no synchronization is needed beyond the scope join.
fn separate(
    inst: &Instance,
    fm: &FailureModel,
    kind: AdversaryKind,
    a: &[f64],
    b: &[f64],
    threads: usize,
) -> Result<Vec<WorstCase>, AdversaryError> {
    let pairs: Vec<PairId> = inst.pair_ids().collect();
    let oracle = |p: PairId| -> Result<WorstCase, AdversaryError> {
        match kind {
            AdversaryKind::FfcTunnelCount => Ok(worst_case_ffc(inst, p, fm, a)),
            AdversaryKind::LinkBased => worst_case_link(inst, p, fm, a, b),
        }
    };
    let nt = threads.max(1).min(pairs.len().max(1));
    if nt <= 1 {
        return pairs.into_iter().map(oracle).collect();
    }
    let mut out: Vec<Option<Result<WorstCase, AdversaryError>>> = Vec::new();
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

/// Objective variables of the master.
enum ZVars {
    Shared(VarId),
    PerPair(Vec<Option<VarId>>),
}

/// The live master LP. Variables and capacity rows are created once; each
/// cutting-plane round only appends scenario cut rows, so every re-solve
/// after the first warm-starts from the previous optimal basis.
struct Master {
    lp: IncrementalLp,
    a_vars: Vec<VarId>,
    b_vars: Vec<VarId>,
    z_vars: ZVars,
}

impl Master {
    /// Builds the cut-free master: reservation variables, objective
    /// variables, and the per-arc capacity constraints (Eq. 3, full
    /// duplex).
    fn new(inst: &Instance, opts: &RobustOptions) -> Master {
        let topo = inst.topo();
        let mut lp = LpProblem::new(Sense::Maximize);
        lp.set_options(opts.lp.clone());

        let a_vars: Vec<VarId> = inst.tunnel_ids().map(|_| lp.add_nonneg(0.0)).collect();
        let b_vars: Vec<VarId> = inst.ls_ids().map(|_| lp.add_nonneg(0.0)).collect();

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

        Master {
            lp: IncrementalLp::new(lp),
            a_vars,
            b_vars,
            z_vars,
        }
    }

    fn z_var_of(&self, p: PairId) -> Option<VarId> {
        match &self.z_vars {
            ZVars::Shared(v) => Some(*v),
            ZVars::PerPair(vs) => vs[p.0],
        }
    }

    /// Appends one scenario cut row
    /// `Σ_l a_l (1-y_l) + Σ_{q∈L} b_q h_q - Σ_{q'∈Q} b_{q'} h_{q'} - z_p d_p >= 0`.
    fn append_cut(&mut self, inst: &Instance, cut: &Cut) {
        let p = cut.pair;
        let mut row: Vec<(VarId, f64)> = Vec::new();
        for (i, &l) in inst.tunnels_of(p).iter().enumerate() {
            let coef = 1.0 - cut.wc.y[i];
            if nonzero(coef) {
                row.push((self.a_vars[l.0], coef));
            }
        }
        for (i, &q) in inst.lss_of(p).iter().enumerate() {
            if nonzero(cut.wc.h_l[i]) {
                row.push((self.b_vars[q.0], cut.wc.h_l[i]));
            }
        }
        for (i, &q) in inst.segments_of(p).iter().enumerate() {
            if nonzero(cut.wc.h_q[i]) {
                row.push((self.b_vars[q.0], -cut.wc.h_q[i]));
            }
        }
        let d = inst.demand(p);
        if d > 0.0 {
            if let Some(zv) = self.z_var_of(p) {
                row.push((zv, -d));
            }
        }
        self.lp.add_ge(row, 0.0);
    }

    /// Re-solves the master (warm after the first call) and reads out
    /// `(a, b, z_per_pair, objective, was_warm)`.
    #[allow(clippy::type_complexity)]
    fn solve(
        &mut self,
        inst: &Instance,
        round: usize,
    ) -> Result<(Vec<f64>, Vec<f64>, Vec<f64>, f64, bool), RobustError> {
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
            .map(|p| match &self.z_vars {
                ZVars::Shared(v) => sol.value(*v),
                ZVars::PerPair(vs) => vs[p.0].map_or(0.0, |v| sol.value(v)),
            })
            .collect();
        Ok((a, b, z, sol.objective, was_warm))
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
            try_solve_robust_seeded(&inst, &fm, AdversaryKind::LinkBased, &opts, None).unwrap();
        assert_eq!(cold.seeded_cuts, 0);
        assert!(!pool.is_empty(), "f=1 must generate separation cuts");
        assert!(pool.matches(&inst));

        // Warm re-solve of the same instance: identical optimum, the pool
        // injected up front, and no more rounds than the cold solve took.
        let (warm, pool2) =
            try_solve_robust_seeded(&inst, &fm, AdversaryKind::LinkBased, &opts, Some(&pool))
                .unwrap();
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
            try_solve_robust_seeded(&other, &fm, AdversaryKind::LinkBased, &opts, Some(&pool))
                .unwrap();
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
        let coupled = FailureModel::Groups {
            groups: vec![vec![LinkId(0), LinkId(2)], vec![LinkId(1)], vec![LinkId(3)]],
            f: 1,
        };
        let sol = solve_robust(
            &inst,
            &coupled,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective.abs() < 1e-6, "got {}", sol.objective);
        let separate = FailureModel::Groups {
            groups: topo.links().map(|l| vec![l]).collect(),
            f: 1,
        };
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
}
