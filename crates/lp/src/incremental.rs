//! Incremental re-solving for row-growing linear programs.
//!
//! Cutting-plane algorithms (PCF's robust master problem among them) solve a
//! sequence of LPs where each member differs from the last only by a handful
//! of appended constraints. Rebuilding and re-solving from scratch discards
//! everything the previous solve learned; this module keeps the terminal
//! simplex workspace of [`crate::simplex`] alive and, when rows are
//! appended, re-solves from the previous optimal basis:
//!
//! * every appended row gets its slack basic at the row's activity, so the
//!   new basis matrix is `[[B, 0], [C, -I]]`: each row becomes a new step
//!   of the basis engine's upper-triangular factor, ordered before every
//!   existing one, while `L`, the row etas and the existing steps stay
//!   untouched, so the extension costs `O(nnz(C))` instead of a fresh
//!   factorization;
//! * slacks cost nothing, so the reduced costs of the old optimum are
//!   unchanged and the extended basis is still *dual* feasible. The only
//!   thing wrong with it is that the slacks of violated rows sit outside
//!   their bounds, which is exactly what the dual simplex
//!   ([`Tableau::optimize_dual`](crate::simplex)) repairs — no artificial
//!   variables, no phase 1. A row the old optimum already satisfies costs
//!   no pivot at all;
//! * a primal pass from the repaired basis confirms optimality (normally
//!   zero pivots);
//! * the warm attempt is abandoned and the full model solved cold when the
//!   dual loop cannot finish (no entering column — the appended rows are
//!   infeasible — a pivot below tolerance, a singular refactorization, the
//!   iteration limit) or the confirming pass does not end optimal, so
//!   results and verdicts are never worse than rebuilding from scratch.
//!
//! The one modelling restriction is inherited from [`crate::model`]: rows
//! reference structural variables only, which is what makes appending a row
//! a pure basis *extension*. Adding a variable after a solve invalidates the
//! retained basis and the next solve runs cold.
//!
//! The retained basis also outlives the solver that found it:
//! [`IncrementalLp::basis`] exports it and [`IncrementalLp::offer_basis`]
//! starts a rebuilt model (same columns, same row order, possibly more rows
//! and other numbers) from it — one factorization, dual pivots only if the
//! new numbers push a basic value out of bounds, primal pivots only if they
//! spoil a reduced cost. An offered basis is a start, never an answer: one
//! the model cannot use falls back to the crash basis like any abandoned
//! warm attempt.

use crate::model::{LpProblem, RowId, Solution, SolveError, Status, VarId};
use crate::simplex::{self, Basis, ModelRows, PivotCounts, SolverState, VarState, Work};

/// Counters describing how an [`IncrementalLp`] has been solved so far,
/// cumulative over every solve including abandoned warm attempts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Solves answered from the retained basis or from an offered one.
    pub warm_solves: usize,
    /// Solves that ran from the crash basis (the first solve, unless a
    /// basis was offered to it).
    pub cold_solves: usize,
    /// Warm attempts abandoned and re-run cold (these also increment
    /// `cold_solves`).
    pub warm_fallbacks: usize,
    /// Primal pivots spent driving artificials out (cold solves whose start
    /// point violates some row).
    pub phase1_iterations: usize,
    /// Primal pivots on the true objective.
    pub primal_iterations: usize,
    /// Dual pivots absorbing appended rows, or repairing an offered basis.
    pub dual_iterations: usize,
    /// Basis refactorizations.
    pub refactors: usize,
    /// Basis rows those refactorizations pivoted in the singleton peel
    /// (no fill, no search), summed over `refactors`.
    pub refactor_peeled: usize,
    /// Basis rows they left to Markowitz elimination, summed likewise.
    pub refactor_bump: usize,
    /// Entries the basis updates stored between refactorizations: each
    /// pivot's spike (`R L^{-1} a_q`, diagonal included) plus its row eta.
    pub update_entries: usize,
}

impl IncrementalStats {
    fn add(&mut self, c: PivotCounts) {
        self.phase1_iterations += c.phase1;
        self.primal_iterations += c.primal;
        self.dual_iterations += c.dual;
        self.refactors += c.refactors;
        self.refactor_peeled += c.refactor_peeled;
        self.refactor_bump += c.refactor_bump;
        self.update_entries += c.update_entries;
    }
}

/// A linear program that stays alive across solves so that appended rows
/// re-solve from the previous optimal basis.
///
/// # Example
///
/// ```
/// use pcf_lp::{IncrementalLp, LpProblem, Sense};
///
/// // max x + y  s.t.  x + y <= 4,  x,y in [0, 3]
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_var(0.0, 3.0, 1.0);
/// let y = lp.add_var(0.0, 3.0, 1.0);
/// lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
///
/// let mut inc = IncrementalLp::new(lp);
/// let s0 = inc.solve().unwrap();
/// assert!((s0.objective - 4.0).abs() < 1e-7);
///
/// // Cut off part of the optimum and re-solve warm.
/// inc.add_le(vec![(x, 1.0)], 1.0);
/// let s1 = inc.solve().unwrap();
/// assert!((s1.objective - 4.0).abs() < 1e-7); // x=1, y=3
/// assert_eq!(inc.stats().warm_solves, 1);
/// ```
pub struct IncrementalLp {
    problem: LpProblem,
    state: Option<SolverState>,
    /// How many of `problem`'s rows the retained state has absorbed.
    solved_rows: usize,
    /// A basis the next solve starts from in place of the crash basis.
    offered: Option<Basis>,
    cached: Option<Solution>,
    stats: IncrementalStats,
}

impl IncrementalLp {
    /// Wraps a fully-built problem. The first [`solve`](Self::solve) runs
    /// cold from the crash basis unless a basis is
    /// [offered](Self::offer_basis); later solves warm-start.
    pub fn new(problem: LpProblem) -> Self {
        IncrementalLp {
            problem,
            state: None,
            solved_rows: 0,
            offered: None,
            cached: None,
            stats: IncrementalStats::default(),
        }
    }

    /// The underlying model (read-only; mutate through the `add_*` methods
    /// so the retained basis stays consistent).
    pub fn problem(&self) -> &LpProblem {
        &self.problem
    }

    /// Solve statistics accumulated so far.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Adds a variable. Invalidates the retained basis and any offered one:
    /// the next solve runs cold. Intended for model construction before the
    /// first solve.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        self.state = None;
        self.solved_rows = 0;
        self.offered = None;
        self.cached = None;
        self.problem.add_var(lower, upper, obj)
    }

    /// The optimal basis the last solve ended on, rows in model order;
    /// `None` before the first solve, after one that did not end optimal,
    /// or while an artificial is still basic.
    pub fn basis(&self) -> Option<Basis> {
        self.state.as_ref().and_then(SolverState::basis)
    }

    /// Starts the next solve from `basis` instead of the crash basis (or
    /// the retained one, which is dropped). Rows the model has beyond the
    /// basis' length get their slack basic. A basis the model cannot use
    /// counts in [`IncrementalStats::warm_fallbacks`] and the solve runs
    /// cold.
    pub fn offer_basis(&mut self, basis: Basis) {
        self.state = None;
        self.solved_rows = 0;
        self.cached = None;
        self.offered = Some(basis);
    }

    /// Appends a range constraint; the next solve warm-starts from the
    /// retained basis if one is available.
    pub fn add_row(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        lower: f64,
        upper: f64,
    ) -> RowId {
        self.cached = None;
        self.problem.add_row(coeffs, lower, upper)
    }

    /// Appends `expr <= rhs`.
    pub fn add_le(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, f64::NEG_INFINITY, rhs)
    }

    /// Appends `expr >= rhs`.
    pub fn add_ge(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, rhs, f64::INFINITY)
    }

    /// Appends `expr == rhs`.
    pub fn add_eq(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, rhs, rhs)
    }

    /// Solves the current model, warm-starting when possible.
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        if self.solved_rows == self.problem.num_rows() {
            if let Some(sol) = &self.cached {
                return Ok(sol.clone());
            }
        }

        // One warm attempt: extend the retained basis over the appended rows
        // (the state is consumed, and reinstalled only by a trustworthy
        // terminal status), or start from an offered basis — offering drops
        // the retained state, so at most one of the two applies.
        let attempt = if self.problem.num_rows() > self.solved_rows && self.state.is_some() {
            self.state.take().map(|st| self.warm_solve(st))
        } else {
            self.offered.take().map(|start| {
                let (warm, counts) =
                    simplex::solve_from_basis(&self.problem, self.problem.options(), &start);
                self.stats.add(counts);
                warm
            })
        };
        match attempt {
            Some(Some((sol, st))) => {
                self.stats.warm_solves += 1;
                return Ok(self.retain(sol, Some(st)));
            }
            Some(None) => self.stats.warm_fallbacks += 1,
            None => {}
        }

        let (sol, st, counts) = simplex::solve_with_state(&self.problem, self.problem.options());
        self.stats.cold_solves += 1;
        self.stats.add(counts);
        Ok(self.retain(sol, st))
    }

    /// Installs the outcome of a solve of the whole current model.
    fn retain(&mut self, sol: Solution, st: Option<SolverState>) -> Solution {
        self.state = st;
        self.solved_rows = self.problem.num_rows();
        self.cached = Some(sol.clone());
        sol
    }

    /// Attempts the warm-started solve; `None` means "fall back to cold".
    fn warm_solve(&mut self, mut st: SolverState) -> Option<(Solution, SolverState)> {
        let p = &self.problem;
        if p.num_vars() != st.n {
            return None; // variables were added behind our back
        }
        let tab = &mut st.tab;
        let n = st.n;
        let m_old = tab.m;
        let k = p.num_rows() - self.solved_rows;
        let m_new = m_old + k;
        let scale = tab.opts.scale;

        // ---- Extend the tableau with the appended rows. ----
        // Row i gets one slack column, basic in row i at the row's activity:
        // the new basis matrix is [[B, 0], [C, -I]].
        //
        // Per new row: (old basis position, scaled coeff) for columns basic
        // in the old basis — the nonzeros of C, row t in
        // `c_entries[c_start[t]..c_start[t + 1]]`.
        let mut c_start = Vec::with_capacity(k + 1);
        c_start.push(0);
        let mut c_entries: Vec<(u32, f64)> = Vec::new();
        // Structural entries of the appended rows, batched into one CSC
        // rebuild; iteration is row-major so each column's adds arrive in
        // ascending row order as `append_rows` requires.
        let mut adds: Vec<(usize, usize, f64)> = Vec::new();
        for t in 0..k {
            let (i, row) = (m_old + t, self.solved_rows + t);
            let coeffs = p.row(row);
            let rscale = if scale {
                simplex::row_scale(coeffs, &st.cscale)
            } else {
                1.0
            };
            let mut act = 0.0;
            for &(j, a) in coeffs {
                let av = a * rscale * st.cscale[j];
                act += av * tab.value(j);
                adds.push((j, i, av));
                if let VarState::Basic(r) = tab.state[j] {
                    c_entries.push((r as u32, av));
                }
            }
            c_start.push(c_entries.len());
            tab.rscale.push(rscale);
            tab.lower.push(p.row_lower[row] * rscale);
            tab.upper.push(p.row_upper[row] * rscale);
            tab.cost.push(0.0);
            tab.state.push(VarState::Basic(i));
            tab.basis.push(tab.ncols + t);
            tab.xb.push(act);
        }
        tab.a.append_rows(m_new, &adds);
        tab.a.reserve(k, k);
        for i in m_old..m_new {
            tab.a.push_col([(i, -1.0)]);
        }
        tab.ncols = tab.a.ncols();

        // ---- Extend the basis with the appended block: one new U step per
        // row; L, the row etas and the existing U keep working untouched. ----
        tab.rep.append_slack_rows(&c_start, &c_entries);
        tab.m = m_new;
        // Re-derive all basic values through the extended inverse; this both
        // refreshes the new rows and validates the extension numerically.
        let mut w = Work::new(m_new);
        tab.recompute_basics(&mut w);

        tab.counts = PivotCounts::default();
        let max_iter = tab
            .opts
            .max_iterations
            .unwrap_or(20_000 + 100 * (m_new + n));

        // ---- Dual simplex absorbs the violated rows, then a primal pass
        // confirms optimality. ----
        let cost = tab.cost.clone();
        let model = ModelRows {
            problem: p,
            cscale: &st.cscale,
        };
        let optimal = tab.optimize_dual(&cost, max_iter, model, &mut w)
            && tab.optimize(&cost, max_iter, &mut w) == Status::Optimal;
        self.stats.add(tab.counts);
        if !optimal {
            // A row the dual loop could not repair, or the iteration limit:
            // the cold path delivers the verdict.
            return None;
        }
        let mut sol = Solution::empty();
        simplex::extract(tab, p, n, &st.cscale, Status::Optimal, &mut w, &mut sol);
        // `extract` demotes an optimum that violates bounds; retry that cold.
        (sol.status == Status::Optimal).then_some((sol, st))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-7 * (1.0 + b.abs()),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn warm_resolve_matches_scratch_when_cut_is_slack() {
        // max x + y, x + y <= 4, x,y in [0,3]; then append x + 2y <= 10,
        // which the optimum already satisfies.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 3.0, 1.0);
        let y = lp.add_var(0.0, 3.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        let mut inc = IncrementalLp::new(lp);
        let s0 = inc.solve().unwrap();
        assert_close(s0.objective, 4.0);

        inc.add_le(vec![(x, 1.0), (y, 2.0)], 10.0);
        let s1 = inc.solve().unwrap();
        assert_eq!(s1.status, Status::Optimal);
        assert_close(s1.objective, 4.0);
        assert_eq!(inc.stats().warm_solves, 1);
        assert_eq!(inc.stats().cold_solves, 1);
        // Satisfied row: no phase-1 pivots should have been necessary, and
        // phase 2 starts optimal.
        assert_eq!(s1.iterations, 0);
    }

    #[test]
    fn warm_resolve_matches_scratch_when_cut_is_violated() {
        // Same base model; append a cut that slices off the old optimum.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 3.0, 2.0);
        let y = lp.add_var(0.0, 3.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
        let mut inc = IncrementalLp::new(lp);
        let s0 = inc.solve().unwrap();
        assert_close(s0.objective, 7.0); // x=3, y=1

        inc.add_le(vec![(x, 1.0)], 1.0);
        let s1 = inc.solve().unwrap();
        assert_eq!(s1.status, Status::Optimal);
        assert_close(s1.objective, 5.0); // x=1, y=3
        assert_eq!(inc.stats().warm_solves, 1);

        // Cross-check against a from-scratch build of the final model.
        let mut full = LpProblem::new(Sense::Maximize);
        let fx = full.add_var(0.0, 3.0, 2.0);
        let fy = full.add_var(0.0, 3.0, 1.0);
        full.add_le(vec![(fx, 1.0), (fy, 1.0)], 4.0);
        full.add_le(vec![(fx, 1.0)], 1.0);
        let fs = full.solve().unwrap();
        assert_close(s1.objective, fs.objective);
    }

    #[test]
    fn repeated_appends_stay_warm() {
        // Tighten the same knapsack five times; every re-solve is warm.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 10.0, 1.0);
        let y = lp.add_var(0.0, 10.0, 1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 12.0);
        let mut inc = IncrementalLp::new(lp);
        inc.solve().unwrap();
        for r in 0..5 {
            let rhs = 10.0 - r as f64;
            inc.add_le(vec![(x, 1.0), (y, 1.0)], rhs);
            let s = inc.solve().unwrap();
            assert_eq!(s.status, Status::Optimal);
            assert_close(s.objective, rhs);
        }
        assert_eq!(inc.stats().warm_solves, 5);
        assert_eq!(inc.stats().cold_solves, 1);
        assert_eq!(inc.stats().warm_fallbacks, 0);
    }

    #[test]
    fn reinvert_every_counts_pivots_across_solves() {
        // Every solve below pivots fewer than `reinvert_every` times, but
        // the basis updates add up past it: the engine, which counts them
        // since its last factorization, must refactorize.
        let mut lp = LpProblem::new(Sense::Maximize);
        let xs: Vec<VarId> = (0..4).map(|_| lp.add_var(0.0, 10.0, 1.0)).collect();
        lp.add_le(xs.iter().map(|&x| (x, 1.0)), 100.0);
        lp.set_options(crate::SimplexOptions {
            reinvert_every: 7,
            ..crate::SimplexOptions::default()
        });
        let mut inc = IncrementalLp::new(lp);
        let mut pivots = inc.solve().unwrap().iterations;
        for cap in [8.0, 6.0, 4.0] {
            for &x in &xs {
                inc.add_le(vec![(x, 1.0)], cap);
                let s = inc.solve().unwrap();
                assert_eq!(s.status, Status::Optimal);
                assert!(s.iterations < 7, "{} pivots in one solve", s.iterations);
                pivots += s.iterations;
            }
        }
        assert_close(inc.solve().unwrap().objective, 16.0);
        assert!(pivots > 7, "{pivots} pivots in total");
        assert_eq!(inc.stats().warm_solves, 12);
        assert!(inc.stats().refactors >= 1, "{:?}", inc.stats());
    }

    #[test]
    fn infeasible_append_detected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_le(vec![(x, 1.0)], 1.0);
        let mut inc = IncrementalLp::new(lp);
        inc.solve().unwrap();
        inc.add_ge(vec![(x, 1.0)], 2.0);
        let s = inc.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn cached_solution_returned_without_resolving() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_le(vec![(x, 1.0)], 1.0);
        let mut inc = IncrementalLp::new(lp);
        let s0 = inc.solve().unwrap();
        let s1 = inc.solve().unwrap();
        assert_eq!(s0.objective, s1.objective);
        assert_eq!(inc.stats().cold_solves, 1);
        assert_eq!(inc.stats().warm_solves, 0);
    }

    #[test]
    fn add_var_invalidates_basis_and_solves_cold() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 2.0, 1.0);
        lp.add_le(vec![(x, 1.0)], 2.0);
        let mut inc = IncrementalLp::new(lp);
        inc.solve().unwrap();
        let y = inc.add_var(0.0, 2.0, 1.0);
        inc.add_le(vec![(y, 1.0)], 1.0);
        let s = inc.solve().unwrap();
        assert_close(s.objective, 3.0);
        assert_eq!(inc.stats().cold_solves, 2);
        assert_eq!(inc.stats().warm_solves, 0);
    }

    #[test]
    fn offered_basis_is_counted_warm_and_dropped_by_add_var() {
        let model = || {
            let mut lp = LpProblem::new(Sense::Maximize);
            let x = lp.add_var(0.0, 3.0, 2.0);
            let y = lp.add_var(0.0, 3.0, 1.0);
            lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
            lp
        };
        let mut first = IncrementalLp::new(model());
        assert!(first.basis().is_none());
        let s0 = first.solve().unwrap();
        let basis = first.basis().expect("an optimal solve keeps its basis");

        // The same model from its own optimal basis: one factorization, no
        // pivot, and the solve counts as warm.
        let mut again = IncrementalLp::new(model());
        again.offer_basis(basis.clone());
        let s1 = again.solve().unwrap();
        assert_close(s1.objective, s0.objective);
        let stats = again.stats();
        assert_eq!((stats.warm_solves, stats.cold_solves), (1, 0));
        assert_eq!((stats.refactors, s1.iterations), (1, 0));
        assert_eq!(again.basis(), Some(basis.clone()));

        // A new column makes the offer stale: it is dropped, not tried.
        let mut grown = IncrementalLp::new(model());
        grown.offer_basis(basis);
        let z = grown.add_var(0.0, 1.0, 1.0);
        grown.add_le(vec![(z, 1.0)], 1.0);
        let s2 = grown.solve().unwrap();
        assert_close(s2.objective, 8.0);
        let stats = grown.stats();
        assert_eq!(
            (stats.warm_solves, stats.cold_solves, stats.warm_fallbacks),
            (0, 1, 0)
        );
    }

    #[test]
    fn equality_append_with_free_slack_range() {
        // Append an equality row, which gives the slack a fixed range.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, 5.0, 1.0);
        let y = lp.add_var(0.0, 5.0, 2.0);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 2.0);
        let mut inc = IncrementalLp::new(lp);
        let s0 = inc.solve().unwrap();
        assert_close(s0.objective, 2.0); // x=2
        inc.add_eq(vec![(y, 1.0)], 1.5);
        let s1 = inc.solve().unwrap();
        assert_eq!(s1.status, Status::Optimal);
        assert_close(s1.objective, 3.5); // x=0.5, y=1.5
    }
}
