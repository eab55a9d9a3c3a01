//! Bounded-variable revised simplex: a primal loop for cold solves and a
//! dual loop for rows appended to a solved model.
//!
//! The solver standardizes a model from [`crate::model::LpProblem`] to
//!
//! ```text
//! minimize c'x   subject to   A x - s = 0,   l <= (x, s) <= u
//! ```
//!
//! with one slack `s_i` per row carrying the row's activity bounds, so the
//! right-hand side is identically zero.
//!
//! **Start basis.** Structurals start nonbasic on a finite bound (zero if
//! free) and the row activities at that point pick each row's basic column:
//! a row already within its bounds gets its *slack* basic at the activity; a
//! violated row gets its slack on the bound it misses and a basic
//! *artificial* covering the residual. Phase 1 minimizes the sum of those
//! artificials and is skipped when there are none — a model feasible at its
//! start point (every PCF master: cuts are homogeneous, capacity rows are
//! `<= c`) goes straight to phase 2 from an all-slack basis. Phase 2
//! minimizes the true objective with all artificials fixed at zero. Every
//! row owns an artificial column (`n + m + i`) whether or not it is used,
//! so column indices do not depend on the start point.
//!
//! A solve can instead start from a [`Basis`] exported by an earlier solve
//! of a model with the same columns and row order (`solve_from_basis`):
//! the basis is factored once, the dual loop repairs basic values the new
//! numbers pushed out of bounds, and the primal loop — which needs only
//! primal feasibility — proves optimality. A basis the model cannot use
//! falls back to the start basis above.
//!
//! **Primal loop** (`Tableau::optimize`). Each basis change costs one
//! ftran (the entering column) and one btran (the pivot row `rho_r = e_r'
//! B^{-1}` of the outgoing basis). `rho_r` feeds both the devex weight
//! update and the dual update `y += (d_q / alpha_q) rho_r`, so the duals
//! `y = c_B' B^{-1}` are btran'd only at entry and after a
//! refactorization. Updated duals drift, so optimality is only ever
//! declared from a full pricing scan against freshly btran'd ones.
//!
//! **Dual loop** (`Tableau::optimize_dual`). Appending rows with their
//! slacks basic leaves the reduced costs untouched: the basis stays dual
//! feasible and only the new slacks may violate their bounds. The dual loop
//! picks the row with the largest bound violation, prices its pivot row
//! over the nonbasic non-fixed columns with the bounded-variable ratio test
//! (sign rule per `VarState`, ties to the larger `|alpha|`), and pivots
//! the violated basic variable out onto the bound it missed. The pivot
//! row's structural entries are summed row-wise over the nonzeros of
//! `rho_r`, from the model's rows (`ModelRows`), with the bits a
//! column-wise dot product gives. It shares the primal loop's dual update,
//! refactorization trigger, and basis update. Whatever it cannot finish it
//! hands back unfinished; it never decides infeasibility itself.
//!
//! Implementation notes:
//! * the constraint matrix is stored once in compressed sparse column form
//!   ([`crate::sparse::CscMatrix`]); pricing and ftran gather columns from
//!   it directly;
//! * the basis is a triangular-first sparse LU factorization under
//!   Forrest–Tomlin updates ([`crate::slu::BasisEngine`]): each pivot's
//!   ftran of the entering column saves its spike, its btran of the pivot
//!   row keeps the `U^{-T}` stage the update eliminates with, and the
//!   basis change stores that spike and one row eta. The engine counts
//!   its updates, so a refactorization comes every
//!   [`SimplexOptions::reinvert_every`] pivots since the last one — across
//!   loop calls and warm solves — or earlier when the stored updates
//!   outgrow the fresh factors, or when the engine refuses an update as
//!   unstable;
//! * the entering rule is devex pricing over a candidate list, falling
//!   back to Bland's rule after [`BLAND_AFTER`] consecutive degenerate
//!   pivots to guarantee termination;
//! * the loops' vectors live in one workspace allocated per solve and
//!   shared by its loop calls, and the engine's update storage grows in
//!   place, so a pivot allocates nothing beyond amortized growth;
//! * geometric row/column equilibration is applied by default, which keeps
//!   the WAN models (capacities 0.5–10, demands spanning decades) well
//!   conditioned.

use crate::float::{
    is_zero, nonzero, BLAND_AFTER, DEGENERATE_STEP, FEAS_TOL, OPT_TOL, PHASE1_INFEAS_TOL,
    PIVOT_TOL, RATIO_TIE_TOL, RESULT_INFEAS_TOL,
};
use crate::model::{LpProblem, Row, Sense, Solution, Status};
use crate::slu::{BasisEngine, SparseLu};
use crate::sparse::CscMatrix;

/// Tunable solver parameters. The tolerances are fixed: see
/// [`FEAS_TOL`], [`OPT_TOL`], [`PIVOT_TOL`], [`RATIO_TIE_TOL`],
/// [`DEGENERATE_STEP`] and [`BLAND_AFTER`].
#[derive(Debug, Clone)]
pub struct SimplexOptions {
    /// Hard cap on total simplex iterations; `None` chooses
    /// `20_000 + 100 * (rows + vars)`.
    pub max_iterations: Option<usize>,
    /// Refactorize the basis from scratch once this many basis updates have
    /// accumulated since the last factorization (earlier if the stored
    /// updates outgrow the factors, or an update is refused as unstable).
    pub reinvert_every: usize,
    /// Apply geometric row/column scaling before solving.
    pub scale: bool,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions {
            max_iterations: None,
            reinvert_every: 400,
            scale: true,
        }
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VarState {
    Basic(usize), // row index in the basis
    AtLower,
    AtUpper,
    /// Free variable currently resting at zero.
    FreeZero,
}

/// Where one column rests in a [`Basis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisMark {
    /// In the basis.
    Basic,
    /// Nonbasic on its lower bound.
    Lower,
    /// Nonbasic on its upper bound.
    Upper,
    /// Nonbasic free column resting at zero.
    Free,
}

/// A simplex basis detached from the solver that found it: one mark per
/// structural column and one per row slack, in row order.
///
/// [`crate::IncrementalLp::basis`] exports the optimal basis of a solved
/// model and [`crate::IncrementalLp::offer_basis`] starts a solve of a
/// model with the same columns and row order from it. A basis is only a
/// starting point: whatever it holds, the solve that consumes it ends at a
/// proven optimum or falls back to the crash basis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<BasisMark>,
    rows: Vec<BasisMark>,
}

impl Basis {
    /// A basis from explicit marks: `cols[j]` for structural column `j`,
    /// `rows[i]` for the slack of row `i`. Nothing is checked here; the
    /// solve it is offered to checks it against its model.
    pub fn from_marks(cols: Vec<BasisMark>, rows: Vec<BasisMark>) -> Basis {
        Basis { cols, rows }
    }
}

/// Devex candidate-list length after a full pricing scan.
const DEVEX_CANDIDATES: usize = 64;
/// Devex reference-weight ceiling; beyond it all weights reset to 1.
const DEVEX_WEIGHT_RESET: f64 = 1e8;

/// The standardized problem plus solver workspace.
///
/// Kept `pub(crate)` so [`crate::incremental`] can retain it across solves
/// and extend it in place when rows are appended.
pub(crate) struct Tableau {
    pub(crate) m: usize,     // rows
    pub(crate) ncols: usize, // structural + slack + artificial (+ appended slack) columns
    /// Sparse columns of [A | -I | +-I], then one -1 slack column per
    /// appended row.
    pub(crate) a: CscMatrix,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) cost: Vec<f64>, // phase-2 cost
    pub(crate) state: Vec<VarState>,
    pub(crate) basis: Vec<usize>, // column index basic in each row
    pub(crate) rep: BasisEngine,
    pub(crate) xb: Vec<f64>, // values of basic variables per row
    /// Row equilibration factors (extended per appended row), needed to
    /// unscale duals.
    pub(crate) rscale: Vec<f64>,
    pub(crate) opts: SimplexOptions,
    pub(crate) counts: PivotCounts,
}

/// Pivots by loop and basis refactorizations of one tableau. The primal
/// loop counts into `primal`; the cold solve moves what phase 1 spent into
/// `phase1` before phase 2 starts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PivotCounts {
    pub(crate) phase1: usize,
    pub(crate) primal: usize,
    pub(crate) dual: usize,
    pub(crate) refactors: usize,
    /// Rows of sparse refactorizations the singleton peel pivoted, and
    /// rows left to Markowitz elimination (cumulative over `refactors`).
    pub(crate) refactor_peeled: usize,
    pub(crate) refactor_bump: usize,
    /// Entries the basis updates stored (spikes plus row etas).
    pub(crate) update_entries: usize,
}

impl PivotCounts {
    /// Total pivots, what [`Solution::iterations`] reports and the
    /// iteration limit bounds.
    pub(crate) fn pivots(&self) -> usize {
        self.phase1 + self.primal + self.dual
    }

    /// Books one successful refactorization.
    fn count_factors(&mut self, lu: &SparseLu) {
        self.refactor_peeled += lu.n() - lu.bump();
        self.refactor_bump += lu.bump();
    }
}

/// Buffers of the pivot loops, allocated once per solve and handed to each
/// [`Tableau::optimize`] / [`Tableau::optimize_dual`] call, so that neither
/// a pivot nor a loop call allocates beyond first use and amortized growth.
/// Every loop overwrites what it reads before reading it.
pub(crate) struct Work {
    /// Duals `c_B' B^{-1}` of the cost being minimized.
    y: Vec<f64>,
    /// Entering column `B^{-1} A_q`.
    d: Vec<f64>,
    /// Pivot row `e_r' B^{-1}`.
    rho: Vec<f64>,
    /// Staging for the basic costs (btran) and the nonbasic right-hand
    /// side (recomputing `x_B`).
    stage: Vec<f64>,
    /// Basis-engine scratch.
    scratch: Vec<f64>,
    /// `rho_r' A_j` of the structural columns (dual ratio test), sized at
    /// the first dual pivot.
    alpha: Vec<f64>,
    /// The primal loop's pricing state, reset by each call.
    devex: Devex,
}

impl Work {
    pub(crate) fn new(m: usize) -> Work {
        Work {
            y: vec![0.0; m],
            d: vec![0.0; m],
            rho: vec![0.0; m],
            stage: vec![0.0; m],
            scratch: Vec::with_capacity(m),
            alpha: Vec::new(),
            devex: Devex {
                weights: Vec::new(),
                cands: Vec::with_capacity(DEVEX_CANDIDATES),
                alive: Vec::with_capacity(DEVEX_CANDIDATES),
                viols: Vec::new(),
            },
        }
    }
}

/// The structural columns of a tableau's matrix read row by row from the
/// model they were built from: entry `(i, j)` is `a · rscale[i] ·
/// cscale[j]` for row `i`'s coefficient `a` on column `j`, the product
/// [`standard_form`] and a warm start store in the CSC. Rows are the
/// tableau's rows, in order.
#[derive(Clone, Copy)]
pub(crate) struct ModelRows<'a> {
    pub(crate) rows: &'a [Row],
    pub(crate) cscale: &'a [f64],
}

/// Devex pricing state: reference weights, the candidate list, and the
/// buffers a pricing pass fills.
struct Devex {
    weights: Vec<f64>,
    cands: Vec<usize>,
    alive: Vec<usize>,
    viols: Vec<(usize, f64, f64, f64)>,
}

impl Tableau {
    /// Current value of any column: bound value if nonbasic, `xb` if basic.
    #[inline]
    pub(crate) fn value(&self, j: usize) -> f64 {
        match self.state[j] {
            VarState::AtLower => self.lower[j],
            VarState::AtUpper => self.upper[j],
            VarState::FreeZero => 0.0,
            VarState::Basic(r) => self.xb[r],
        }
    }

    /// x_B = -B^{-1} * sum_j nonbasic A_j x_j  (rhs is zero).
    pub(crate) fn recompute_basics(&mut self, w: &mut Work) {
        let rhs = &mut w.stage;
        rhs.fill(0.0);
        for j in 0..self.ncols {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let v = self.value(j);
            if nonzero(v) {
                for (i, a) in self.a.col_iter(j) {
                    rhs[i] -= a * v;
                }
            }
        }
        // xb = B^{-1} rhs
        self.xb.copy_from_slice(rhs);
        self.rep.ftran(&mut self.xb, &mut w.scratch);
    }

    /// Refactorizes the current basis columns from scratch. Returns false
    /// if the basis matrix is numerically singular.
    pub(crate) fn reinvert(&mut self) -> bool {
        self.counts.refactors += 1;
        // The old factors are dead weight from here on; freeing them first
        // keeps them out of the factorization's peak heap.
        self.rep = BasisEngine::default();
        match SparseLu::factor_basis(&self.a, &self.basis) {
            Ok(lu) => {
                self.counts.count_factors(&lu);
                self.rep = BasisEngine::new(lu);
                true
            }
            Err(_) => false,
        }
    }

    /// y' = c_B' B^{-1} for the given basic costs.
    pub(crate) fn btran(&self, cb: &[f64], y: &mut [f64], scratch: &mut Vec<f64>) {
        y.copy_from_slice(cb);
        self.rep.btran(y, scratch);
    }

    /// d = B^{-1} A_j for the entering column `j`; the engine keeps its
    /// spike for the basis update.
    fn ftran(&mut self, j: usize, d: &mut [f64], scratch: &mut Vec<f64>) {
        d.fill(0.0);
        self.a.gather_col(j, d);
        self.rep.ftran_entering(d, scratch);
    }

    /// Row `r` of `B^{-1}` (i.e. `rho_r = e_r' B^{-1}`): the one btran of a
    /// pivot, shared by the dual update, the devex weights, and the dual
    /// ratio test.
    fn pivot_row(&mut self, r: usize, rho: &mut [f64], scratch: &mut Vec<f64>) {
        self.rep.btran_unit(r, rho, scratch);
    }

    /// `y = c_B' B^{-1}` by btran: at loop entry, after a refactorization,
    /// and before optimality is declared.
    fn load_duals(&self, cost: &[f64], w: &mut Work) {
        for (c, &j) in w.stage.iter_mut().zip(&self.basis) {
            *c = cost[j];
        }
        self.btran(&w.stage, &mut w.y, &mut w.scratch);
    }

    /// Replaces basis position `r` by the column whose ftran left `alpha_q`
    /// there (the basis marks must already say so). Refactorizes when the
    /// engine refuses the update, holds `reinvert_every` updates, or wants
    /// a refactor for their size, re-deriving `x_B` and `y` from the fresh
    /// factors. Returns whether it refactorized, `None` if the basis turned
    /// out numerically singular.
    fn update_basis(&mut self, r: usize, alpha_q: f64, cost: &[f64], w: &mut Work) -> Option<bool> {
        if let Some(entries) = self.rep.replace(r, alpha_q) {
            self.counts.update_entries += entries;
            if self.rep.updates() < self.opts.reinvert_every && !self.rep.wants_refactor() {
                return Some(false);
            }
        }
        if !self.reinvert() {
            return None;
        }
        self.recompute_basics(w);
        self.load_duals(cost, w);
        Some(true)
    }

    /// Reduced cost, step direction, and dual violation of nonbasic column
    /// `j`; `None` for basic or fixed columns.
    #[inline]
    fn price_one(&self, j: usize, cost: &[f64], y: &[f64]) -> Option<(f64, f64, f64)> {
        let st = self.state[j];
        if matches!(st, VarState::Basic(_)) {
            return None;
        }
        if self.upper[j] - self.lower[j] <= 0.0 {
            return None; // fixed
        }
        let rc = cost[j] - self.a.col_dot(j, y);
        let (viol, dir) = match st {
            VarState::AtLower => (-rc, 1.0),
            VarState::AtUpper => (rc, -1.0),
            VarState::FreeZero => {
                if rc < 0.0 {
                    (-rc, 1.0)
                } else {
                    (rc, -1.0)
                }
            }
            #[expect(clippy::unreachable, reason = "pricing skips basic columns")]
            VarState::Basic(_) => unreachable!(),
        };
        Some((rc, dir, viol))
    }

    /// Bland's rule: the first column violating dual feasibility.
    fn price_first_violation(&self, cost: &[f64], y: &[f64]) -> Option<(usize, f64, f64)> {
        for j in 0..self.ncols {
            if let Some((rc, dir, viol)) = self.price_one(j, cost, y) {
                if viol > OPT_TOL {
                    return Some((j, rc, dir));
                }
            }
        }
        None
    }

    /// Devex pricing over the candidate list, falling back to a full scan
    /// (which also rebuilds the list). Optimality is only declared from a
    /// full scan.
    fn price_devex(&self, cost: &[f64], y: &[f64], dx: &mut Devex) -> Option<(usize, f64, f64)> {
        if !dx.cands.is_empty() {
            let mut best: Option<(usize, f64, f64, f64)> = None;
            dx.alive.clear();
            for &j in &dx.cands {
                let Some((rc, dir, viol)) = self.price_one(j, cost, y) else {
                    continue;
                };
                if viol > OPT_TOL {
                    dx.alive.push(j);
                    let score = viol * viol / dx.weights[j];
                    if best.is_none_or(|(.., bs)| score > bs) {
                        best = Some((j, rc, dir, score));
                    }
                }
            }
            std::mem::swap(&mut dx.cands, &mut dx.alive);
            if let Some((j, rc, dir, _)) = best {
                return Some((j, rc, dir));
            }
        }
        // Full scan; rebuild the candidate list from the top scorers.
        dx.viols.clear();
        for (j, &w) in dx.weights.iter().enumerate().take(self.ncols) {
            let Some((rc, dir, viol)) = self.price_one(j, cost, y) else {
                continue;
            };
            if viol > OPT_TOL {
                dx.viols.push((j, rc, dir, viol * viol / w));
            }
        }
        dx.viols
            .sort_unstable_by(|a, b| b.3.total_cmp(&a.3).then(a.0.cmp(&b.0)));
        dx.viols.truncate(DEVEX_CANDIDATES);
        dx.cands.clear();
        dx.cands.extend(dx.viols.iter().map(|&(j, ..)| j));
        let &(j, rc, dir, _) = dx.viols.first()?;
        Some((j, rc, dir))
    }

    /// Entering column `(j, reduced cost, direction)` by devex pricing, or
    /// by Bland's rule once `use_bland` is set; `None` when `y` prices
    /// every column out.
    fn price(
        &self,
        cost: &[f64],
        y: &[f64],
        use_bland: bool,
        dx: &mut Devex,
    ) -> Option<(usize, f64, f64)> {
        if use_bland {
            self.price_first_violation(cost, y)
        } else {
            self.price_devex(cost, y, dx)
        }
    }

    /// Devex reference-weight update after a pivot: `alpha_j = rho_r' A_j`
    /// is row `r` of `B^{-1} A` restricted to the candidate list (the only
    /// columns whose weights are ever read before the next full scan
    /// refreshes the list).
    fn update_devex_weights(
        &self,
        dx: &mut Devex,
        jin: usize,
        jout: usize,
        alpha_q: f64,
        rho: &[f64],
    ) {
        let weights = &mut dx.weights;
        let wq = weights[jin].max(1.0);
        for &j in &dx.cands {
            if j == jin {
                continue;
            }
            let alpha = self.a.col_dot(j, rho);
            let ratio = alpha / alpha_q;
            let cand = ratio * ratio * wq;
            if cand > weights[j] {
                weights[j] = cand;
            }
        }
        let wref = (wq / (alpha_q * alpha_q)).max(1.0);
        weights[jout] = wref;
        if wref > DEVEX_WEIGHT_RESET {
            weights.fill(1.0);
        }
    }

    /// `alpha[j] = rho' A_j` for every structural column `j`, summed row by
    /// row over the nonzeros of `rho`. Each `alpha[j]` gets the terms
    /// `rho_i · a_ij` that [`CscMatrix::col_dot`] adds, in the same
    /// ascending row order and from the same `0.0`. The terms skipped for
    /// `rho_i = ±0` are zeros, and adding a zero to a sum started at `+0.0`
    /// (which can never be `-0.0`) changes no bit.
    fn structural_alphas(&self, model: ModelRows, rho: &[f64], alpha: &mut Vec<f64>) {
        alpha.clear();
        alpha.resize(model.cscale.len(), 0.0);
        for ((row, &ri), &r) in model.rows.iter().zip(rho).zip(&self.rscale) {
            if is_zero(ri) {
                continue;
            }
            for &(j, a) in &row.coeffs {
                alpha[j] += ri * (a * r * model.cscale[j]);
            }
        }
    }

    /// One primal simplex phase: minimize `cost` (already loaded per column)
    /// from the current primal-feasible basis, in the workspace `w` of this
    /// tableau's size. Returns the terminal status of the phase.
    pub(crate) fn optimize(&mut self, cost: &[f64], max_iter: usize, w: &mut Work) -> Status {
        let m = self.m;
        let mut degenerate_run = 0usize;
        // Devex starts every phase from unit weights and no candidates.
        w.devex.weights.clear();
        w.devex.weights.resize(self.ncols, 1.0);
        w.devex.cands.clear();
        // `y` is btran'd here and after a refactorization; in between each
        // basis change updates it in place, so `fresh` says whether it still
        // is an exact btran of the current basis.
        self.load_duals(cost, w);
        let mut fresh = true;

        loop {
            if self.counts.pivots() >= max_iter {
                return Status::IterationLimit;
            }

            // Pricing: pick entering column.
            let use_bland = degenerate_run >= BLAND_AFTER;
            let mut enter = self.price(cost, &w.y, use_bland, &mut w.devex);
            if enter.is_none() && !fresh {
                // Optimality is only declared against freshly btran'd duals.
                self.load_duals(cost, w);
                fresh = true;
                w.devex.cands.clear();
                enter = self.price(cost, &w.y, use_bland, &mut w.devex);
            }
            let Some((jin, rc, dir)) = enter else {
                return Status::Optimal;
            };

            self.ftran(jin, &mut w.d, &mut w.scratch);
            let d = &w.d;

            // Ratio test: entering moves by t >= 0 in direction `dir`;
            // basic values change by -dir * t * d.
            let range = self.upper[jin] - self.lower[jin];
            let mut t_max = range; // bound flip distance (may be inf)
            let mut leave: Option<(usize, bool)> = None; // (row, leaves_at_upper)
            for r in 0..m {
                let delta = -dir * d[r]; // d(x_B[r]) / dt
                if delta.abs() <= PIVOT_TOL {
                    continue;
                }
                let xv = self.xb[r];
                let jb = self.basis[r];
                let (lim, at_upper) = if delta > 0.0 {
                    (self.upper[jb], true)
                } else {
                    (self.lower[jb], false)
                };
                if lim.is_infinite() {
                    continue;
                }
                // Allow slight infeasibility to be absorbed (ratio 0 floor).
                let mut t = (lim - xv) / delta;
                if t < 0.0 {
                    t = 0.0;
                }
                let better = match leave {
                    None => t < t_max - RATIO_TIE_TOL,
                    Some((br, _)) => {
                        t < t_max - RATIO_TIE_TOL
                            || (t <= t_max + RATIO_TIE_TOL && d[r].abs() > d[br].abs())
                    }
                };
                if better {
                    t_max = t;
                    leave = Some((r, at_upper));
                }
            }

            if t_max.is_infinite() {
                return Status::Unbounded;
            }

            self.counts.primal += 1;
            if t_max <= DEGENERATE_STEP {
                degenerate_run += 1;
            } else {
                degenerate_run = 0;
            }

            let t = t_max;
            for (xi, &di) in self.xb.iter_mut().zip(d) {
                *xi += -dir * t * di;
            }
            match leave {
                None => {
                    // Bound flip: entering runs across its whole range; the
                    // basis, and with it `y`, is unchanged.
                    self.state[jin] = match self.state[jin] {
                        VarState::AtLower => VarState::AtUpper,
                        VarState::AtUpper => VarState::AtLower,
                        s => s, // free variables cannot bound-flip (range inf)
                    };
                }
                Some((r, at_upper)) => {
                    // New value of entering variable.
                    let xin = match self.state[jin] {
                        VarState::AtLower => self.lower[jin] + t,
                        VarState::AtUpper => self.upper[jin] - t,
                        VarState::FreeZero => dir * t,
                        #[expect(clippy::unreachable, reason = "the entering column is nonbasic")]
                        VarState::Basic(_) => unreachable!(),
                    };
                    let jout = self.basis[r];
                    let alpha_q = d[r];
                    // The pivot's one btran: rho_r of the outgoing basis
                    // feeds the devex weights and the dual update
                    // `y += (d_q / alpha_q) rho_r`, which zeroes the
                    // entering column's reduced cost and leaves the other
                    // basic columns' at zero (rho_r' A_j = 0 for them).
                    self.pivot_row(r, &mut w.rho, &mut w.scratch);
                    self.update_devex_weights(&mut w.devex, jin, jout, alpha_q, &w.rho);
                    let theta = rc / alpha_q;
                    for (yi, &ri) in w.y.iter_mut().zip(&w.rho) {
                        *yi += theta * ri;
                    }
                    fresh = false;
                    self.state[jout] = if at_upper {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    };
                    // Snap the leaving variable exactly onto its bound.
                    self.basis[r] = jin;
                    self.state[jin] = VarState::Basic(r);
                    self.xb[r] = xin;

                    match self.update_basis(r, alpha_q, cost, w) {
                        // Singular after drift: rebuild conservatively.
                        None => return Status::IterationLimit,
                        Some(refactored) => fresh |= refactored,
                    }
                }
            }
        }
    }

    /// Dual simplex: from a dual-feasible basis whose basic values may
    /// violate their bounds (the state right after rows are appended with
    /// their slacks basic), pivots until `x_B` is within bounds, keeping the
    /// reduced costs of `cost` correctly signed throughout. Returns `false`
    /// when it cannot finish — no eligible entering column (the violated
    /// row cannot be repaired: the model is infeasible), a pivot below
    /// [`PIVOT_TOL`], a singular refactorization, or the iteration limit —
    /// and leaves the verdict to a cold solve. `model` holds the rows the
    /// tableau was built from, which the ratio test prices row-wise.
    pub(crate) fn optimize_dual(
        &mut self,
        cost: &[f64],
        max_iter: usize,
        model: ModelRows,
        w: &mut Work,
    ) -> bool {
        self.load_duals(cost, w);
        loop {
            // Leaving row: the largest bound violation.
            let mut leave: Option<(usize, f64, bool)> = None; // (row, violation, above upper)
            for (r, (&j, &v)) in self.basis.iter().zip(&self.xb).enumerate() {
                let (viol, above) = if v < self.lower[j] {
                    (self.lower[j] - v, false)
                } else {
                    (v - self.upper[j], true)
                };
                if viol > FEAS_TOL && leave.is_none_or(|(_, bv, _)| viol > bv) {
                    leave = Some((r, viol, above));
                }
            }
            let Some((r, _, above)) = leave else {
                return true;
            };
            if self.counts.pivots() >= max_iter {
                return false;
            }
            self.pivot_row(r, &mut w.rho, &mut w.scratch);
            self.structural_alphas(model, &w.rho, &mut w.alpha);
            #[cfg(test)]
            tests::check_structural_alphas(self, &w.rho, &w.alpha);

            // Bounded-variable dual ratio test. x_B[r] moves by
            // -alpha_j * dx_j, so with `sigma` the sign that makes it move
            // toward its violated bound, a column at its lower bound (which
            // can only increase) is eligible when sigma * alpha_j > 0, one
            // at its upper bound when sigma * alpha_j < 0. The entering
            // column is the first whose reduced cost reaches zero as the
            // leaving variable's grows: min |d_j| / |alpha_j|, ties to the
            // larger |alpha_j|. Structural alphas come from the row-wise
            // pass above; slack and artificial columns are singletons.
            let sigma = if above { 1.0 } else { -1.0 };
            let mut enter: Option<(usize, f64, f64, f64)> = None; // (col, ratio, alpha, rc)
            for (j, &st) in self.state.iter().enumerate() {
                if matches!(st, VarState::Basic(_)) || self.upper[j] - self.lower[j] <= 0.0 {
                    continue;
                }
                let alpha = match w.alpha.get(j) {
                    Some(&alpha) => alpha,
                    None => self.a.col_dot(j, &w.rho),
                };
                let toward = sigma * alpha;
                let eligible = match st {
                    VarState::AtLower => toward > PIVOT_TOL,
                    VarState::AtUpper => toward < -PIVOT_TOL,
                    _ => toward.abs() > PIVOT_TOL,
                };
                if !eligible {
                    continue;
                }
                let rc = cost[j] - self.a.col_dot(j, &w.y);
                // Tolerance-sized dual infeasibilities count as zero.
                let slack = match st {
                    VarState::AtLower => rc.max(0.0),
                    VarState::AtUpper => (-rc).max(0.0),
                    _ => 0.0,
                };
                let ratio = slack / alpha.abs();
                let better = match enter {
                    None => true,
                    Some((_, br, ba, _)) => {
                        ratio < br - RATIO_TIE_TOL
                            || (ratio <= br + RATIO_TIE_TOL && alpha.abs() > ba.abs())
                    }
                };
                if better {
                    enter = Some((j, ratio, alpha, rc));
                }
            }
            let Some((jin, _, alpha_row, rc)) = enter else {
                return false;
            };

            self.ftran(jin, &mut w.d, &mut w.scratch);
            let alpha_q = w.d[r];
            if alpha_q.abs() <= PIVOT_TOL || alpha_q * alpha_row <= 0.0 {
                // Too small to pivot on, or the column (ftran) and row
                // (btran) views of the pivot element disagree in sign.
                return false;
            }
            self.counts.dual += 1;

            // The entering variable moves by `step`, landing x_B[r] exactly
            // on the bound it violated.
            let jout = self.basis[r];
            let bound = if above {
                self.upper[jout]
            } else {
                self.lower[jout]
            };
            let step = (self.xb[r] - bound) / alpha_q;
            let xin = self.value(jin) + step;
            for (xi, &di) in self.xb.iter_mut().zip(&w.d) {
                *xi -= step * di;
            }
            let theta = rc / alpha_q;
            for (yi, &ri) in w.y.iter_mut().zip(&w.rho) {
                *yi += theta * ri;
            }
            self.state[jout] = if above {
                VarState::AtUpper
            } else {
                VarState::AtLower
            };
            self.basis[r] = jin;
            self.state[jin] = VarState::Basic(r);
            self.xb[r] = xin;

            if self.update_basis(r, alpha_q, cost, w).is_none() {
                return false;
            }
        }
    }

    /// Sum of bound violations over basic variables.
    pub(crate) fn primal_infeasibility(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.m {
            let j = self.basis[r];
            let v = self.xb[r];
            if v < self.lower[j] {
                s += self.lower[j] - v;
            } else if v > self.upper[j] {
                s += v - self.upper[j];
            }
        }
        s
    }
}

/// Geometric equilibration factors for rows and structural columns.
fn scaling(problem: &LpProblem) -> (Vec<f64>, Vec<f64>) {
    let m = problem.rows.len();
    let n = problem.num_vars();
    let mut rscale = vec![1.0f64; m];
    let mut cscale = vec![1.0f64; n];
    let mut cmax = vec![0.0f64; n];
    let mut cmin = vec![f64::INFINITY; n];
    for _pass in 0..2 {
        for (i, row) in problem.rows.iter().enumerate() {
            let mut mx: f64 = 0.0;
            let mut mn = f64::INFINITY;
            for &(j, a) in &row.coeffs {
                let v = (a * rscale[i] * cscale[j]).abs();
                if v > 0.0 {
                    mx = mx.max(v);
                    mn = mn.min(v);
                }
            }
            if mx > 0.0 {
                rscale[i] /= (mx * mn).sqrt();
            }
        }
        cmax.fill(0.0);
        cmin.fill(f64::INFINITY);
        for (i, row) in problem.rows.iter().enumerate() {
            for &(j, a) in &row.coeffs {
                let v = (a * rscale[i] * cscale[j]).abs();
                if v > 0.0 {
                    cmax[j] = cmax[j].max(v);
                    cmin[j] = cmin[j].min(v);
                }
            }
        }
        for j in 0..n {
            if cmax[j] > 0.0 {
                cscale[j] /= (cmax[j] * cmin[j]).sqrt();
            }
        }
    }
    (rscale, cscale)
}

/// Equilibration factor for a single appended row, consistent with the
/// column scales already fixed by the initial solve.
pub(crate) fn row_scale(coeffs: &[(usize, f64)], cscale: &[f64]) -> f64 {
    let mut mx: f64 = 0.0;
    let mut mn = f64::INFINITY;
    for &(j, a) in coeffs {
        let v = (a * cscale[j]).abs();
        if v > 0.0 {
            mx = mx.max(v);
            mn = mn.min(v);
        }
    }
    if mx > 0.0 {
        1.0 / (mx * mn).sqrt()
    } else {
        1.0
    }
}

/// Solver workspace retained after a successful solve so follow-up solves
/// (with appended rows) can warm-start from the optimal basis.
pub(crate) struct SolverState {
    pub(crate) tab: Tableau,
    /// Structural variable count at solve time.
    pub(crate) n: usize,
    /// Column equilibration factors, fixed for the lifetime of the state.
    pub(crate) cscale: Vec<f64>,
}

impl SolverState {
    /// The basis the state rests on, `None` while an artificial is basic.
    ///
    /// The columns after the structurals are the slacks of the rows the
    /// state was built with, one artificial per such row, then the slacks
    /// of the rows appended since.
    pub(crate) fn basis(&self) -> Option<Basis> {
        let (tab, n) = (&self.tab, self.n);
        let built_rows = tab.ncols - tab.m - n;
        let artificials = n + built_rows..n + 2 * built_rows;
        if tab.basis.iter().any(|j| artificials.contains(j)) {
            return None;
        }
        let mark = |j: usize| match tab.state[j] {
            VarState::Basic(_) => BasisMark::Basic,
            VarState::AtLower => BasisMark::Lower,
            VarState::AtUpper => BasisMark::Upper,
            VarState::FreeZero => BasisMark::Free,
        };
        let slack_of = |i: usize| {
            if i < built_rows {
                n + i
            } else {
                n + built_rows + i
            }
        };
        Some(Basis {
            cols: (0..n).map(mark).collect(),
            rows: (0..tab.m).map(|i| mark(slack_of(i))).collect(),
        })
    }
}

/// Reads the structural solution out of a terminal tableau and applies the
/// same status demotion as the cold path: an "optimal" basis that violates
/// bounds by more than [`RESULT_INFEAS_TOL`] in total is reported as
/// [`Status::IterationLimit`].
///
/// At optimality the row duals are recovered by one btran of the basic
/// phase-2 costs, unscaled back to the original row space (`y_i =
/// sign · rscale_i · ỹ_i`, with `sign` flipping for maximization so the
/// reported dual is always d(objective)/d(rhs_i) in the model's own sense).
pub(crate) fn extract(
    tab: &Tableau,
    problem: &LpProblem,
    n: usize,
    cscale: &[f64],
    phase2_status: Status,
    w: &mut Work,
) -> Solution {
    let mut x = vec![0.0; n];
    for (j, xj) in x.iter_mut().enumerate() {
        *xj = tab.value(j) * cscale[j];
        // Clamp tiny bound violations from round-off.
        if *xj < problem.lower[j] {
            *xj = problem.lower[j];
        }
        if *xj > problem.upper[j] {
            *xj = problem.upper[j];
        }
    }
    let objective: f64 = x
        .iter()
        .zip(problem.obj.iter())
        .map(|(xi, ci)| xi * ci)
        .sum();
    let status = match phase2_status {
        Status::Optimal => {
            if tab.primal_infeasibility() > RESULT_INFEAS_TOL {
                // Numerical trouble; report as iteration limit rather than
                // returning a wrong "optimal".
                Status::IterationLimit
            } else {
                Status::Optimal
            }
        }
        s => s,
    };
    let mut duals = vec![0.0; problem.rows.len()];
    if status == Status::Optimal && problem.rows.len() == tab.m {
        let sign = match problem.sense {
            Sense::Maximize => -1.0,
            Sense::Minimize => 1.0,
        };
        for (c, &j) in w.stage.iter_mut().zip(&tab.basis) {
            *c = tab.cost[j];
        }
        tab.btran(&w.stage, &mut w.y, &mut w.scratch);
        for (i, dy) in duals.iter_mut().enumerate() {
            *dy = sign * tab.rscale[i] * w.y[i];
        }
    }
    Solution {
        status,
        objective,
        x,
        duals,
        iterations: tab.counts.pivots(),
    }
}

/// Solves `problem` from the crash basis; see module docs for the algorithm.
pub(crate) fn solve(problem: &LpProblem, opts: &SimplexOptions) -> Solution {
    solve_with_state(problem, opts).0
}

/// `problem` standardized, before a start basis is chosen.
struct StandardForm {
    /// Columns `0..n` structural and `n..n+m` slack; whoever picks the
    /// start basis appends the artificials `n+m..n+2m`.
    a: CscMatrix,
    /// Bounds and phase-2 costs of all `n + 2m` columns, the artificials
    /// fixed at zero.
    lower: Vec<f64>,
    upper: Vec<f64>,
    cost: Vec<f64>,
    rscale: Vec<f64>,
    cscale: Vec<f64>,
}

fn standard_form(problem: &LpProblem, opts: &SimplexOptions) -> StandardForm {
    let m = problem.rows.len();
    let n = problem.num_vars();

    let (rscale, cscale) = if opts.scale {
        scaling(problem)
    } else {
        (vec![1.0; m], vec![1.0; n])
    };

    // Columns 0..n structural, n..n+m slacks, n+m..n+2m artificials.
    let nslack = n + m;
    let ncols = n + 2 * m;

    // Room for the artificial singletons the start basis appends.
    let a = CscMatrix::from_rows(m, nslack, m, |i| {
        let (r, cscale) = (rscale[i], &cscale);
        let scaled = problem.rows[i].coeffs.iter();
        let scaled = scaled.map(move |&(j, a)| (j, a * r * cscale[j]));
        scaled.chain(std::iter::once((n + i, -1.0)))
    });

    let mut lower = vec![0.0; ncols];
    let mut upper = vec![0.0; ncols];
    let mut cost = vec![0.0; ncols];
    let sign = match problem.sense {
        Sense::Maximize => -1.0,
        Sense::Minimize => 1.0,
    };
    for j in 0..n {
        // x = cscale * x'
        lower[j] = problem.lower[j] / cscale[j];
        upper[j] = problem.upper[j] / cscale[j];
        cost[j] = sign * problem.obj[j] * cscale[j];
    }
    for i in 0..m {
        lower[n + i] = problem.rows[i].lower * rscale[i];
        upper[n + i] = problem.rows[i].upper * rscale[i];
    }
    StandardForm {
        a,
        lower,
        upper,
        cost,
        rscale,
        cscale,
    }
}

/// Like [`solve`], but additionally returns the pivot counters and, when
/// the solve ran to optimality, the terminal solver workspace, for use by
/// [`crate::incremental`]. The retained basis maps 1:1 onto the model's
/// rows and columns, so appended cutting planes can reference them.
pub(crate) fn solve_with_state(
    problem: &LpProblem,
    opts: &SimplexOptions,
) -> (Solution, Option<SolverState>, PivotCounts) {
    let m = problem.rows.len();
    let n = problem.num_vars();
    let nslack = n + m;
    let ncols = n + 2 * m;
    let StandardForm {
        mut a,
        lower,
        mut upper,
        cost,
        rscale,
        cscale,
    } = standard_form(problem, opts);

    // Structurals start nonbasic on a finite bound (zero if free); the row
    // activities at that point, summed in `xb`, decide each row's basic
    // column below.
    let mut state = vec![VarState::AtLower; ncols];
    let mut xb = vec![0.0; m];
    for j in 0..n {
        state[j] = if lower[j].is_finite() {
            VarState::AtLower
        } else if upper[j].is_finite() {
            VarState::AtUpper
        } else {
            VarState::FreeZero
        };
        let v = match state[j] {
            VarState::AtLower => lower[j],
            VarState::AtUpper => upper[j],
            _ => 0.0,
        };
        if nonzero(v) {
            for (i, av) in a.col_iter(j) {
                xb[i] += av * v;
            }
        }
    }

    // Crash basis, one singleton column per row. A row already within its
    // bounds gets its slack basic at the row's activity (diagonal -1) and
    // its artificial parked at zero; a violated row gets its slack on the
    // bound it misses and a basic artificial covering the residual, signed
    // so its value is |residual|. Only those artificials carry phase-1 cost.
    let mut basis = Vec::with_capacity(m);
    let mut diagonal = Vec::with_capacity(m);
    for (i, xi) in xb.iter_mut().enumerate() {
        let (scol, acol) = (n + i, n + m + i);
        let (lo, hi) = (lower[scol], upper[scol]);
        let act = *xi;
        let mut art_sign = 1.0;
        if act >= lo - FEAS_TOL && act <= hi + FEAS_TOL {
            state[scol] = VarState::Basic(i);
            basis.push(scol);
            diagonal.push(-1.0);
        } else {
            let below = act < lo;
            state[scol] = if below {
                VarState::AtLower
            } else {
                VarState::AtUpper
            };
            let resid = act - if below { lo } else { hi };
            if resid >= 0.0 {
                art_sign = -1.0;
            }
            upper[acol] = f64::INFINITY;
            state[acol] = VarState::Basic(i);
            basis.push(acol);
            diagonal.push(art_sign);
            *xi = resid.abs();
        }
        let pushed = a.push_col([(i, art_sign)]);
        debug_assert_eq!(pushed, acol);
    }

    // B is diagonal with entries +-1: its factors need no elimination.
    #[cfg(test)]
    tests::check_crash_factors(&a, &basis, &diagonal);
    let rep = BasisEngine::new(SparseLu::diagonal(diagonal));

    let mut tab = Tableau {
        m,
        ncols,
        a,
        lower,
        upper,
        cost,
        state,
        basis,
        rep,
        xb,
        rscale,
        opts: opts.clone(),
        counts: PivotCounts::default(),
    };

    let max_iter = opts.max_iterations.unwrap_or(20_000 + 100 * (m + n));
    let mut w = Work::new(m);

    // ---- Phase 1, only if some row starts violated ----
    if tab.basis.iter().any(|&j| j >= nslack) {
        // The basic artificials, those of the violated rows, carry cost 1.
        let mut phase1_cost = vec![0.0; ncols];
        for &j in tab.basis.iter().filter(|&&j| j >= nslack) {
            phase1_cost[j] = 1.0;
        }
        let status1 = tab.optimize(&phase1_cost, max_iter, &mut w);
        tab.counts.phase1 = std::mem::take(&mut tab.counts.primal);
        let art_sum: f64 = (0..m)
            .map(|i| {
                let j = tab.basis[i];
                if j >= n + m {
                    tab.xb[i].max(0.0)
                } else {
                    0.0
                }
            })
            .sum();
        let verdict = if status1 == Status::IterationLimit {
            Some(Status::IterationLimit)
        } else if art_sum > FEAS_TOL.max(PHASE1_INFEAS_TOL) {
            Some(Status::Infeasible)
        } else {
            None
        };
        if let Some(status) = verdict {
            return (failed(status, n, m, tab.counts.pivots()), None, tab.counts);
        }
        // Fix artificials at zero for phase 2.
        for acol in n + m..ncols {
            tab.upper[acol] = 0.0;
            if !matches!(tab.state[acol], VarState::Basic(_)) {
                tab.state[acol] = VarState::AtLower;
            }
        }
    }

    // ---- Phase 2 ----
    let p2cost = tab.cost.clone();
    let status2 = tab.optimize(&p2cost, max_iter, &mut w);

    let sol = extract(&tab, problem, n, &cscale, status2, &mut w);
    let counts = tab.counts;
    let state = if sol.status == Status::Optimal {
        Some(SolverState { tab, n, cscale })
    } else {
        None
    };
    (sol, state, counts)
}

/// Solves `problem` starting from `start` instead of the crash basis: one
/// factorization of the offered basis, the dual loop if some basic value
/// is out of bounds, then the primal loop, which needs only primal
/// feasibility and so proves optimality whether or not `start` was dual
/// feasible. Rows beyond the basis' length get their slack basic. The
/// tableau has a cold solve's column layout (artificials present, fixed at
/// zero, never basic), so the returned state extends and exports alike.
///
/// `None` — a basis that does not fit the model (length, a mark its
/// column's bounds do not allow, a basic count other than the row count),
/// a singular factor, a dual loop that could not finish, or an end other
/// than a clean optimum — leaves the verdict to [`solve_with_state`]; the
/// counters of the abandoned attempt are returned either way.
pub(crate) fn solve_from_basis(
    problem: &LpProblem,
    opts: &SimplexOptions,
    start: &Basis,
) -> (Option<(Solution, SolverState)>, PivotCounts) {
    let m = problem.rows.len();
    let n = problem.num_vars();
    let mut counts = PivotCounts::default();
    if start.cols.len() != n || start.rows.len() > m {
        return (None, counts);
    }
    let StandardForm {
        mut a,
        lower,
        upper,
        cost,
        rscale,
        cscale,
    } = standard_form(problem, opts);
    for i in 0..m {
        a.push_col([(i, 1.0)]);
    }
    let ncols = n + 2 * m;

    // A basic slack sits in its own row's position; basic structurals take
    // the positions of the rows whose slack is nonbasic, in column order.
    let mut state = vec![VarState::AtLower; ncols];
    let mut basic_structurals = Vec::new();
    let marks = start.cols.iter().chain(&start.rows).copied();
    for (j, mark) in marks
        .chain(std::iter::repeat(BasisMark::Basic))
        .take(n + m)
        .enumerate()
    {
        state[j] = match mark {
            BasisMark::Basic if j < n => {
                basic_structurals.push(j);
                continue;
            }
            BasisMark::Basic => VarState::Basic(j - n),
            BasisMark::Lower if lower[j].is_finite() => VarState::AtLower,
            BasisMark::Upper if upper[j].is_finite() => VarState::AtUpper,
            BasisMark::Free if lower[j].is_infinite() && upper[j].is_infinite() => {
                VarState::FreeZero
            }
            _ => return (None, counts),
        };
    }
    let open_rows: Vec<usize> = (0..m)
        .filter(|&i| !matches!(state[n + i], VarState::Basic(_)))
        .collect();
    if basic_structurals.len() != open_rows.len() {
        return (None, counts);
    }
    let mut basis: Vec<usize> = (n..n + m).collect();
    for (&j, &r) in basic_structurals.iter().zip(&open_rows) {
        basis[r] = j;
        state[j] = VarState::Basic(r);
    }

    counts.refactors = 1;
    let Ok(lu) = SparseLu::factor_basis(&a, &basis) else {
        return (None, counts);
    };
    counts.count_factors(&lu);
    let mut tab = Tableau {
        m,
        ncols,
        a,
        lower,
        upper,
        cost,
        state,
        basis,
        rep: BasisEngine::new(lu),
        xb: vec![0.0; m],
        rscale,
        opts: opts.clone(),
        counts,
    };
    let mut w = Work::new(m);
    tab.recompute_basics(&mut w);

    let max_iter = opts.max_iterations.unwrap_or(20_000 + 100 * (m + n));
    let p2cost = tab.cost.clone();
    let model = ModelRows {
        rows: &problem.rows,
        cscale: &cscale,
    };
    let optimal = tab.optimize_dual(&p2cost, max_iter, model, &mut w)
        && tab.optimize(&p2cost, max_iter, &mut w) == Status::Optimal;
    let counts = tab.counts;
    if !optimal {
        return (None, counts);
    }
    let sol = extract(&tab, problem, n, &cscale, Status::Optimal, &mut w);
    // `extract` demotes an optimum that violates bounds; retry that cold.
    let solved = (sol.status == Status::Optimal).then_some((sol, SolverState { tab, n, cscale }));
    (solved, counts)
}

/// The solution shell of a solve that ended without a usable point.
fn failed(status: Status, n: usize, m: usize, iterations: usize) -> Solution {
    Solution {
        status,
        objective: f64::NAN,
        x: vec![0.0; n],
        duals: vec![0.0; m],
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::{SimplexOptions, Tableau, VarState};
    use crate::incremental::IncrementalLp;
    use crate::model::{LpProblem, Sense, Status};
    use crate::slu::SparseLu;
    use crate::sparse::CscMatrix;
    use pcf_rng::{forall, no_shrink, Config, Pcg32};
    use std::cell::RefCell;

    /// What the checks the solver calls in test builds saw on this thread.
    #[derive(Debug, Default, Clone)]
    struct Seen {
        /// Crash bases, and their diagonal entries that were slacks (-1)
        /// and artificials (+1 or -1).
        crash_bases: usize,
        crash_slacks: usize,
        crash_artificials: usize,
        /// Dual pivots, and the `rho` entries among them that were `-0.0`
        /// in a solve with scaling off.
        dual_pivots: usize,
        unscaled_negative_zeros: usize,
        /// The first disagreement found.
        mismatch: Option<String>,
    }

    thread_local! {
        static SEEN: RefCell<Seen> = RefCell::new(Seen::default());
    }

    fn seen() -> Seen {
        SEEN.with(|s| s.borrow().clone())
    }

    fn record(f: impl FnOnce(&mut Seen)) {
        SEEN.with(|s| f(&mut s.borrow_mut()));
    }

    /// Holds the crash basis' diagonal factors to what
    /// `SparseLu::factor_basis` makes of the same basis, field for field.
    pub(super) fn check_crash_factors(a: &CscMatrix, basis: &[usize], diagonal: &[f64]) {
        let factored = SparseLu::factor_basis(a, basis);
        let built = SparseLu::diagonal(diagonal.to_vec());
        let diff = match factored {
            Ok(lu) => built.first_difference(&lu),
            Err(e) => Some(format!("factor_basis: {e:?}")),
        };
        // The artificials are the last `m` columns.
        let artificials = basis
            .iter()
            .filter(|&&j| j >= a.ncols() - basis.len())
            .count();
        record(|s| {
            s.crash_bases += 1;
            s.crash_slacks += basis.len() - artificials;
            s.crash_artificials += artificials;
            if s.mismatch.is_none() {
                s.mismatch = diff.map(|d| format!("crash basis {basis:?}: {d}"));
            }
        });
    }

    /// Holds a dual pivot's row-wise structural alphas to
    /// `CscMatrix::col_dot`, bit for bit, on every nonbasic column.
    pub(super) fn check_structural_alphas(tab: &Tableau, rho: &[f64], alpha: &[f64]) {
        let diff = (0..alpha.len())
            .filter(|&j| !matches!(tab.state[j], VarState::Basic(_)))
            .find(|&j| alpha[j].to_bits() != tab.a.col_dot(j, rho).to_bits())
            .map(|j| {
                let want = tab.a.col_dot(j, rho);
                format!("column {j}: row-wise {:e}, col_dot {want:e}", alpha[j])
            });
        let negative_zeros = rho
            .iter()
            .filter(|v| crate::float::is_zero(**v) && v.is_sign_negative())
            .count();
        record(|s| {
            s.dual_pivots += 1;
            if !tab.opts.scale {
                s.unscaled_negative_zeros += negative_zeros;
            }
            if s.mismatch.is_none() {
                s.mismatch = diff;
            }
        });
    }

    /// A random model whose rows repeat and zero some mentions.
    fn random_lp(rng: &mut Pcg32) -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let n = rng.range_usize_inclusive(1, 12);
        let vars: Vec<_> = (0..n)
            .map(|_| lp.add_var(0.0, rng.range_f64(0.5, 4.0), rng.range_f64(-1.0, 1.0)))
            .collect();
        for _ in 0..rng.range_usize(0, 15) {
            let k = rng.range_usize(0, 2 * n);
            let coeffs: Vec<_> = (0..k)
                .map(|_| {
                    let c = if rng.chance(0.1) {
                        0.0
                    } else {
                        rng.range_f64(-5.0, 5.0)
                    };
                    (*rng.pick(&vars), c)
                })
                .collect();
            lp.add_le(coeffs, rng.range_f64(0.0, 10.0));
        }
        lp
    }

    #[test]
    fn standard_form_counts_into_the_matrix_from_cols_builds() {
        forall(
            "counting CSC == from_cols",
            &Config::with_cases(200),
            |rng| (random_lp(rng), rng.chance(0.5)),
            no_shrink,
            |(lp, scale)| {
                let opts = SimplexOptions {
                    scale: *scale,
                    ..SimplexOptions::default()
                };
                let sf = super::standard_form(lp, &opts);
                let (n, m) = (lp.num_vars(), lp.num_rows());
                let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n + m];
                for (i, row) in lp.rows.iter().enumerate() {
                    for &(j, a) in &row.coeffs {
                        cols[j].push((i, a * sf.rscale[i] * sf.cscale[j]));
                    }
                    cols[n + i].push((i, -1.0));
                }
                let want = CscMatrix::from_cols(m, &cols);
                let bits = |c: &CscMatrix, j: usize| {
                    let (rows, vals) = c.col(j);
                    let vals: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
                    (rows.to_vec(), vals)
                };
                if (sf.a.nrows(), sf.a.ncols()) != (want.nrows(), want.ncols()) {
                    return Err("shape differs".into());
                }
                match (0..n + m).find(|&j| bits(&sf.a, j) != bits(&want, j)) {
                    Some(j) => Err(format!("column {j} differs")),
                    None => Ok(()),
                }
            },
        );
    }

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn simple_max() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2, 6)
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(3.0);
        let y = lp.add_nonneg(5.0);
        lp.add_le(vec![(x, 1.0)], 4.0);
        lp.add_le(vec![(y, 2.0)], 12.0);
        lp.add_le(vec![(x, 3.0), (y, 2.0)], 18.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn simple_min_with_ge_rows() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  -> x=7, y=3 -> 23
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(2.0, f64::INFINITY, 2.0);
        let y = lp.add_var(3.0, f64::INFINITY, 3.0);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 23.0);
    }

    #[test]
    fn equality_rows() {
        // max x + y s.t. x + 2y == 4, x - y == 1 -> x=2, y=1 -> 3
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0);
        let y = lp.add_nonneg(1.0);
        lp.add_eq(vec![(x, 1.0), (y, 2.0)], 4.0);
        lp.add_eq(vec![(x, 1.0), (y, -1.0)], 1.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn upper_bounded_variables() {
        // max x + y, x <= 1.5, y <= 2, x + y <= 3 -> 3
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.5, 1.0);
        let y = lp.add_var(0.0, 2.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 3.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn bound_flip_only_problem() {
        // max x + 2y with x in [0,1], y in [0,1], no rows at all.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 2.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 3.0);
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 1.0);
    }

    /// A row as `(coeffs by column index, lower, upper)`.
    type Row<'a> = (&'a [(usize, f64)], f64, f64);

    /// Solves the model with columns `(lower, upper, cost)` and `rows` and
    /// returns `(status, objective)`.
    fn decide(sense: Sense, cols: &[(f64, f64, f64)], rows: &[Row]) -> (Status, f64) {
        let mut lp = LpProblem::new(sense);
        let vars: Vec<_> = cols.iter().map(|&(l, u, c)| lp.add_var(l, u, c)).collect();
        for &(coeffs, lo, hi) in rows {
            lp.add_row(coeffs.iter().map(|&(j, a)| (vars[j], a)), lo, hi);
        }
        let s = lp.solve().unwrap();
        (s.status, s.objective)
    }

    #[test]
    fn degenerate_shapes_are_decided_by_the_simplex_itself() {
        const INF: f64 = f64::INFINITY;
        // The empty model.
        let (status, obj) = decide(Sense::Minimize, &[], &[]);
        assert_eq!(status, Status::Optimal);
        assert_close(obj, 0.0);
        // No rows: boxed columns rest on their cost-optimal bounds.
        let (status, obj) = decide(
            Sense::Minimize,
            &[(-1.0, 2.0, 3.0), (0.5, 4.0, -2.0), (1.0, 5.0, 0.0)],
            &[],
        );
        assert_eq!(status, Status::Optimal);
        assert_close(obj, -11.0);
        // No rows: an improving direction without a bound.
        let (status, _) = decide(Sense::Maximize, &[(0.0, 1.0, 1.0), (0.0, INF, 1.0)], &[]);
        assert_eq!(status, Status::Unbounded);
        // An empty row `0 <= 1` is kept and harmless.
        let (status, obj) = decide(
            Sense::Maximize,
            &[(0.0, 2.0, 1.0)],
            &[(&[], -INF, 1.0), (&[(0, 1.0)], -INF, 1.5)],
        );
        assert_eq!(status, Status::Optimal);
        assert_close(obj, 1.5);
        // An empty row `0 >= 1` is infeasible.
        let (status, _) = decide(
            Sense::Maximize,
            &[(0.0, 2.0, 1.0)],
            &[(&[], 1.0, INF), (&[(0, 1.0)], -INF, 1.5)],
        );
        assert_eq!(status, Status::Infeasible);
        // A fixed column: min -4 * 1.5 + y with 1.5 + y >= 2.
        let (status, obj) = decide(
            Sense::Minimize,
            &[(1.5, 1.5, -4.0), (0.0, INF, 1.0)],
            &[(&[(0, 1.0), (1, 1.0)], 2.0, INF)],
        );
        assert_eq!(status, Status::Optimal);
        assert_close(obj, -5.5);
        // Proportional duplicate rows: x + y <= 4, <= 3 (scaled by -2) and
        // <= 5 (scaled by 0.5); the middle one binds.
        let (status, obj) = decide(
            Sense::Maximize,
            &[(0.0, INF, 1.0), (0.0, INF, 2.0)],
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 4.0),
                (&[(0, -2.0), (1, -2.0)], -6.0, INF),
                (&[(0, 0.5), (1, 0.5)], -INF, 2.5),
            ],
        );
        assert_eq!(status, Status::Optimal);
        assert_close(obj, 6.0);
        // A contradictory proportional pair: x + y <= 4 and 2x + 2y >= 10.
        let (status, _) = decide(
            Sense::Maximize,
            &[(0.0, INF, 1.0), (0.0, INF, 2.0)],
            &[
                (&[(0, 1.0), (1, 1.0)], -INF, 4.0),
                (&[(0, 2.0), (1, 2.0)], 10.0, INF),
            ],
        );
        assert_eq!(status, Status::Infeasible);
        // A column in no row, improving without a bound, beside a real row.
        let (status, _) = decide(
            Sense::Minimize,
            &[(0.0, 3.0, 1.0), (-INF, 0.0, 1.0)],
            &[(&[(0, 1.0)], 1.0, INF)],
        );
        assert_eq!(status, Status::Unbounded);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_ge(vec![(x, 1.0)], 2.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0);
        let y = lp.add_nonneg(0.0);
        lp.add_le(vec![(y, 1.0)], 5.0);
        let _ = x;
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min x s.t. x >= -5 via row (x free as a variable)
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        lp.add_ge(vec![(x, 1.0)], -5.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn negative_rhs_and_coefficients() {
        // min -x - y s.t. -x - y >= -4, x,y in [0,3] -> obj -4
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, 3.0, -1.0);
        let y = lp.add_var(0.0, 3.0, -1.0);
        lp.add_ge(vec![(x, -1.0), (y, -1.0)], -4.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, -4.0);
    }

    #[test]
    fn range_rows() {
        // max x s.t. 1 <= x + y <= 2, y in [0, 0.5] -> x = 2
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0);
        let y = lp.add_var(0.0, 0.5, 0.0);
        lp.add_row(vec![(x, 1.0), (y, 1.0)], 1.0, 2.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0);
        lp.add_le(vec![(x, 1.0), (x, 1.0)], 4.0); // 2x <= 4
        let s = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn degenerate_transportation_lp() {
        // Degenerate assignment-like LP; exercises tie-broken ratio tests.
        // min sum c_ij x_ij, rows: supplies = 1, demands = 1, 3x3, all c=1
        let mut lp = LpProblem::new(Sense::Minimize);
        let mut v = Vec::new();
        for _ in 0..9 {
            v.push(lp.add_nonneg(1.0));
        }
        for i in 0..3 {
            lp.add_eq((0..3).map(|j| (v[i * 3 + j], 1.0)), 1.0);
        }
        for j in 0..3 {
            lp.add_eq((0..3).map(|i| (v[i * 3 + j], 1.0)), 1.0);
        }
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 3.0);
    }

    #[test]
    fn badly_scaled_problem() {
        // Coefficients spanning 1e-4 .. 1e4.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1e4);
        let y = lp.add_nonneg(1e-3);
        lp.add_le(vec![(x, 1e4), (y, 1e-4)], 1e4);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 2.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        // x=1 dominates: obj ~ 1e4 (y contributes negligibly via row 2).
        assert!(s.objective >= 1e4 - 1e-3);
    }

    #[test]
    fn maximize_vs_minimize_consistency() {
        let build = |sense| {
            let mut lp = LpProblem::new(sense);
            let x = lp.add_var(0.0, 2.0, 1.0);
            let y = lp.add_var(0.0, 2.0, -1.0);
            lp.add_le(vec![(x, 1.0), (y, 1.0)], 3.0);
            lp
        };
        let mx = build(Sense::Maximize).solve().unwrap();
        let mn = build(Sense::Minimize).solve().unwrap();
        assert_close(mx.objective, 2.0); // x=2, y=0
        assert_close(mn.objective, -2.0); // x=0, y=2
    }

    #[test]
    fn fixed_variables_respected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(1.5, 1.5, 1.0);
        let y = lp.add_nonneg(1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        let s = lp.solve().unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn empty_objective_feasibility_check() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, 1.0, 0.0);
        lp.add_ge(vec![(x, 1.0)], 0.5);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!(s.value(x) >= 0.5 - 1e-9);
    }

    #[test]
    fn max_flow_as_lp() {
        // Classic 4-node max flow: s->a (3), s->b (2), a->b (1), a->t (2),
        // b->t (3). Max flow = 5... check: s->a 3 (a->t 2, a->b 1), s->b 2,
        // b->t 3 -> total 5.
        let mut lp = LpProblem::new(Sense::Maximize);
        // objective: flow out of s
        let sa = lp.add_var(0.0, 3.0, 1.0);
        let sb = lp.add_var(0.0, 2.0, 1.0);
        let ab = lp.add_var(0.0, 1.0, 0.0);
        let at = lp.add_var(0.0, 2.0, 0.0);
        let bt = lp.add_var(0.0, 3.0, 0.0);
        // conservation at a and b
        lp.add_eq(vec![(sa, 1.0), (ab, -1.0), (at, -1.0)], 0.0);
        lp.add_eq(vec![(sb, 1.0), (ab, 1.0), (bt, -1.0)], 0.0);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 5.0);
    }

    /// A moderately sized LP with a unique optimum.
    fn cross_check_lp() -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let n = 12;
        let vars: Vec<_> = (0..n)
            .map(|j| lp.add_var(0.0, 4.0 + j as f64, 1.0 + (j as f64) * 0.37))
            .collect();
        for i in 0..n - 1 {
            lp.add_ge(
                vec![(vars[i], 1.0), (vars[i + 1], 0.5 + 0.1 * i as f64)],
                2.0 + i as f64 * 0.25,
            );
        }
        lp.add_le((0..n).map(|j| (vars[j], 1.0)), 40.0);
        lp
    }

    #[test]
    fn refactor_schedules_agree_on_objective() {
        // Refactorizing after every pivot never applies an update; the
        // default schedule never refactorizes on an LP this small; 7 mixes
        // the two.
        let reference = cross_check_lp().solve().unwrap();
        assert_eq!(reference.status, Status::Optimal);
        for reinvert_every in [1, 7] {
            let mut lp = cross_check_lp();
            lp.set_options(SimplexOptions {
                reinvert_every,
                ..SimplexOptions::default()
            });
            let s = lp.solve().unwrap();
            assert_eq!(s.status, Status::Optimal, "reinvert_every {reinvert_every}");
            assert!(
                (s.objective - reference.objective).abs() <= 1e-9,
                "reinvert_every {reinvert_every}: {} vs {}",
                s.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn duals_price_out_interior_variables() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3: optimum (7, 3),
        // x strictly interior => c_x = y_row * 1 exactly, so y_row = 2.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(2.0, f64::INFINITY, 2.0);
        let y = lp.add_var(3.0, f64::INFINITY, 3.0);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 10.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.duals.len(), 1);
        assert_close(s.duals[0], 2.0);
    }

    #[test]
    fn duals_flip_sign_with_sense() {
        // max 3x s.t. x <= 4: relaxing the row by 1 gains 3.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(3.0);
        lp.add_le(vec![(x, 1.0)], 4.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.duals[0], 3.0);
    }

    /// A random model (as [`random_lp`]) with scaling on or off, and
    /// batches of rows to append after its first solve, each row given as
    /// `(coeffs by column, how far below the current activity its bound
    /// sits)`.
    type WithCuts = (LpProblem, bool, Vec<Vec<(Vec<(usize, f64)>, f64)>>);

    fn random_lp_with_cuts(rng: &mut Pcg32) -> WithCuts {
        let lp = random_lp(rng);
        let n = lp.num_vars();
        let batches = (0..rng.range_usize_inclusive(1, 4))
            .map(|_| {
                (0..rng.range_usize_inclusive(1, 4))
                    .map(|_| {
                        let coeffs = (0..rng.range_usize_inclusive(1, n))
                            .map(|_| (rng.range_usize(0, n), rng.range_f64(-3.0, 3.0)))
                            .collect();
                        (coeffs, rng.range_f64(-0.5, 2.0))
                    })
                    .collect()
            })
            .collect();
        (lp, rng.chance(0.5), batches)
    }

    /// Solves the model, then appends each batch of rows (mostly cutting
    /// off the last optimum) and re-solves warm, so the dual loop pivots.
    fn solve_with_cuts((lp, scale, batches): &WithCuts) {
        let mut lp = lp.clone();
        lp.set_options(SimplexOptions {
            scale: *scale,
            ..SimplexOptions::default()
        });
        let mut inc = IncrementalLp::new(lp);
        let Ok(mut sol) = inc.solve() else { return };
        for batch in batches {
            for (coeffs, cut) in batch {
                let act: f64 = coeffs.iter().map(|&(j, a)| a * sol.x[j]).sum();
                let coeffs = coeffs.iter().map(|&(j, a)| (crate::VarId(j), a));
                inc.add_le(coeffs, act - cut);
            }
            match inc.solve() {
                Ok(next) if next.is_optimal() => sol = next,
                _ => return,
            }
        }
    }

    #[test]
    fn crash_factors_and_row_wise_alphas_are_bit_equal_on_random_lps() {
        // The solver calls `check_crash_factors` on every crash basis and
        // `check_structural_alphas` at every dual pivot in test builds.
        forall(
            "crash diagonal == factor_basis, row-wise alpha == col_dot",
            &Config::with_cases(300),
            random_lp_with_cuts,
            no_shrink,
            |case| {
                solve_with_cuts(case);
                seen().mismatch.map_or(Ok(()), Err)
            },
        );
        let seen = seen();
        assert!(seen.crash_bases >= 300, "{seen:?}");
        assert!(
            seen.crash_slacks > 0 && seen.crash_artificials > 0,
            "{seen:?}"
        );
        assert!(seen.dual_pivots >= 300, "{seen:?}");
        assert!(seen.unscaled_negative_zeros > 0, "{seen:?}");
    }
}
