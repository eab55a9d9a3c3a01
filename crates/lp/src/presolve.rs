//! Presolve / postsolve for one-shot LP solves.
//!
//! [`presolve`] shrinks an [`LpProblem`] before the simplex runs, and the
//! returned [`Reduction`] maps the reduced solution — primal values *and*
//! row duals — back onto the original problem, so downstream consumers
//! (the cutting-plane separation in `pcf-core` prices its cuts against
//! duals) see the model they built. Reductions applied, in order:
//!
//! 1. **Fixed variables** (`lower == upper`): substituted into every row.
//! 2. **Implied slacks**: a zero-cost column whose single row entry makes
//!    it an implicit slack; the column is removed and the row's activity
//!    bounds are relaxed by `a · [l_j, u_j]`. At most one per row.
//!    Postsolve re-derives the variable from the final row activity,
//!    picking the endpoint consistent with the row dual so the KKT
//!    conditions keep holding in the original space.
//! 3. **Empty rows**: feasibility-checked and dropped (dual 0).
//! 4. **Redundant rows**: rows whose activity range (from variable
//!    bounds) cannot leave the row bounds are dropped (dual 0); rows
//!    whose activity range cannot *reach* the bounds prove infeasibility.
//! 5. **Duplicate rows**: rows with exactly proportional coefficient
//!    vectors (bit-level ratio comparison, so only true duplicates merge)
//!    are merged by intersecting their bounds onto the representative;
//!    the dropped copy carries dual 0.
//! 6. **Empty columns**: variables left in no surviving row are fixed at
//!    their cost-optimal bound; an infinite improving direction marks the
//!    whole problem unbounded once the remainder proves feasible.
//!
//! Row-bound tightening happens through substitution and duplicate
//! intersection; *variable*-bound tightening is deliberately not done —
//! a solution binding at an artificially tightened bound would carry a
//! nonzero reduced cost at a bound the original model does not have,
//! corrupting the restored duals.
//!
//! Warm-started solves ([`crate::incremental`]) never pass through here:
//! their retained basis must map 1:1 onto the model's rows and columns.

use crate::float::{is_zero, FEAS_TOL};
use crate::model::{LpProblem, Sense, Solution, Status, VarId};
use std::collections::BTreeMap;

/// Outcome of [`presolve`].
pub(crate) enum Presolved {
    /// The presolve alone settled the problem (currently: infeasibility).
    Decided(Solution),
    /// A reduced problem remains; solve it and run
    /// [`Reduction::postsolve`].
    Reduced(Box<Reduction>),
}

/// A zero-cost singleton column absorbed into its row's bounds.
struct ImpliedSlack {
    col: usize,
    row: usize,
    a: f64,
}

/// The reduced problem plus everything needed to restore the original
/// variable and dual space.
pub(crate) struct Reduction {
    pub(crate) reduced: LpProblem,
    /// Original column -> reduced column (None if eliminated).
    col_map: Vec<Option<usize>>,
    /// Original row -> reduced row (None if dropped; such rows have dual 0).
    row_map: Vec<Option<usize>>,
    /// Variables with a decided value (fixed bounds or empty columns).
    fixed: Vec<(usize, f64)>,
    implied: Vec<ImpliedSlack>,
    /// An empty column had an infinite improving direction: if the rest is
    /// feasible, the problem is unbounded.
    unbounded_hint: bool,
}

/// A row being transformed: surviving coefficients (sorted by column) and
/// working activity bounds.
struct WorkRow {
    coeffs: Vec<(usize, f64)>,
    lo: f64,
    hi: f64,
    alive: bool,
}

/// Range of `sum a_j x_j` over the variable boxes, with infinities kept
/// apart so mixed `+inf - inf` sums cannot poison the result.
fn activity_range(coeffs: &[(usize, f64)], lo: &[f64], hi: &[f64]) -> (f64, f64) {
    let mut min_sum = 0.0f64;
    let mut max_sum = 0.0f64;
    let mut min_inf = false;
    let mut max_inf = false;
    for &(j, a) in coeffs {
        let c1 = a * lo[j];
        let c2 = a * hi[j];
        let (cmin, cmax) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        if cmin.is_infinite() && cmin < 0.0 {
            min_inf = true;
        } else {
            min_sum += cmin;
        }
        if cmax.is_infinite() && cmax > 0.0 {
            max_inf = true;
        } else {
            max_sum += cmax;
        }
    }
    (
        if min_inf { f64::NEG_INFINITY } else { min_sum },
        if max_inf { f64::INFINITY } else { max_sum },
    )
}

/// Solution reporting presolve-detected infeasibility.
fn infeasible_solution(n: usize, m: usize) -> Solution {
    Solution {
        status: Status::Infeasible,
        objective: f64::NAN,
        x: vec![0.0; n],
        duals: vec![0.0; m],
        iterations: 0,
    }
}

/// Runs the presolve reductions; see module docs.
pub(crate) fn presolve(problem: &LpProblem) -> Presolved {
    let m = problem.rows.len();
    let n = problem.num_vars();
    let rtol = |b: f64| {
        if b.is_finite() {
            FEAS_TOL * (1.0 + b.abs())
        } else {
            FEAS_TOL
        }
    };

    // ---- 1. Fixed variables. ----
    let mut fixed_val: Vec<Option<f64>> = (0..n)
        .map(|j| (problem.upper[j] - problem.lower[j] <= 0.0).then(|| problem.lower[j]))
        .collect();

    // Working rows with fixed variables substituted into the bounds.
    let mut work: Vec<WorkRow> = problem
        .rows
        .iter()
        .map(|row| {
            let mut shift = 0.0;
            let mut coeffs = Vec::with_capacity(row.coeffs.len());
            for &(j, a) in &row.coeffs {
                match fixed_val[j] {
                    Some(v) => shift += a * v,
                    None => coeffs.push((j, a)),
                }
            }
            coeffs.sort_unstable_by_key(|&(j, _)| j);
            WorkRow {
                coeffs,
                lo: row.lower - shift,
                hi: row.upper - shift,
                alive: true,
            }
        })
        .collect();

    // ---- 2. Implied slacks (zero-cost singleton columns). ----
    let mut count = vec![0usize; n];
    let mut col_row = vec![0usize; n];
    for (i, w) in work.iter().enumerate() {
        for &(j, _) in &w.coeffs {
            count[j] += 1;
            col_row[j] = i;
        }
    }
    let mut implied: Vec<ImpliedSlack> = Vec::new();
    let mut implied_col = vec![false; n];
    let mut row_claimed = vec![false; m];
    for j in 0..n {
        if fixed_val[j].is_some() || count[j] != 1 || !is_zero(problem.obj[j]) {
            continue;
        }
        let i = col_row[j];
        if row_claimed[i] {
            continue; // one implied slack per row keeps postsolve exact
        }
        let Some(&(_, a)) = work[i].coeffs.iter().find(|&&(c, _)| c == j) else {
            continue;
        };
        row_claimed[i] = true;
        implied_col[j] = true;
        // Relax the row bounds by the column's contribution interval.
        let c1 = a * problem.lower[j];
        let c2 = a * problem.upper[j];
        let (cmin, cmax) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        let mut nlo = work[i].lo - cmax;
        let mut nhi = work[i].hi - cmin;
        if nlo.is_nan() {
            nlo = f64::NEG_INFINITY;
        }
        if nhi.is_nan() {
            nhi = f64::INFINITY;
        }
        work[i].lo = nlo;
        work[i].hi = nhi;
        work[i].coeffs.retain(|&(c, _)| c != j);
        implied.push(ImpliedSlack { col: j, row: i, a });
    }

    // ---- 3–5. Row pass: empty, infeasible, redundant, duplicate. ----
    let mut dup_keys: BTreeMap<Vec<(u32, u64)>, usize> = BTreeMap::new();
    for i in 0..m {
        let (lo, hi) = (work[i].lo, work[i].hi);
        if work[i].coeffs.is_empty() {
            if 0.0 < lo - rtol(lo) || 0.0 > hi + rtol(hi) {
                return Presolved::Decided(infeasible_solution(n, m));
            }
            work[i].alive = false;
            continue;
        }
        let (amin, amax) = activity_range(&work[i].coeffs, &problem.lower, &problem.upper);
        if amin > hi + rtol(hi) || amax < lo - rtol(lo) {
            return Presolved::Decided(infeasible_solution(n, m));
        }
        if amin >= lo - rtol(lo) && amax <= hi + rtol(hi) {
            work[i].alive = false; // can never bind
            continue;
        }
        // Duplicate detection: coefficients normalized by the first entry,
        // compared bit-for-bit, so only exactly proportional rows merge.
        let first = work[i].coeffs[0].1;
        let key: Vec<(u32, u64)> = work[i]
            .coeffs
            .iter()
            .map(|&(j, a)| (j as u32, (a / first).to_bits()))
            .collect();
        match dup_keys.get(&key) {
            Some(&rep) => {
                let mu = first / work[rep].coeffs[0].1;
                let (mut blo, mut bhi) = (lo / mu, hi / mu);
                if mu < 0.0 {
                    std::mem::swap(&mut blo, &mut bhi);
                }
                let nlo = work[rep].lo.max(blo);
                let nhi = work[rep].hi.min(bhi);
                if nlo > nhi + rtol(nhi) {
                    return Presolved::Decided(infeasible_solution(n, m));
                }
                work[rep].lo = nlo;
                work[rep].hi = nhi.max(nlo);
                work[i].alive = false;
            }
            None => {
                dup_keys.insert(key, i);
            }
        }
    }

    // ---- 6. Empty columns: fix at the cost-optimal bound. ----
    let mut live_count = vec![0usize; n];
    for w in work.iter().filter(|w| w.alive) {
        for &(j, _) in &w.coeffs {
            live_count[j] += 1;
        }
    }
    let mut unbounded_hint = false;
    let minimize = matches!(problem.sense, Sense::Minimize);
    for j in 0..n {
        if fixed_val[j].is_some() || implied_col[j] || live_count[j] > 0 {
            continue;
        }
        let c = problem.obj[j];
        let (vlo, vhi) = (problem.lower[j], problem.upper[j]);
        let want_lower = if minimize { c > 0.0 } else { c < 0.0 };
        let val = if is_zero(c) {
            if vlo.is_finite() {
                vlo
            } else if vhi.is_finite() {
                vhi
            } else {
                0.0
            }
        } else if want_lower {
            if vlo.is_finite() {
                vlo
            } else {
                unbounded_hint = true;
                0.0
            }
        } else if vhi.is_finite() {
            vhi
        } else {
            unbounded_hint = true;
            0.0
        };
        fixed_val[j] = Some(val);
    }

    // ---- Build the reduced problem. ----
    let mut col_map = vec![None; n];
    let mut reduced = LpProblem::new(problem.sense);
    for j in 0..n {
        if fixed_val[j].is_none() && !implied_col[j] {
            col_map[j] = Some(reduced.num_vars());
            reduced.add_var(problem.lower[j], problem.upper[j], problem.obj[j]);
        }
    }
    let mut row_map = vec![None; m];
    for (i, w) in work.iter().enumerate() {
        if !w.alive {
            continue;
        }
        let coeffs: Vec<(VarId, f64)> = w
            .coeffs
            .iter()
            .filter_map(|&(j, a)| col_map[j].map(|rj| (VarId(rj), a)))
            .collect();
        // Bounds may have crossed by a rounding hair during merges; the
        // infeasibility check above already admitted them, so close the gap.
        let lo = w.lo;
        let hi = if w.hi < lo { lo } else { w.hi };
        row_map[i] = Some(reduced.num_rows());
        reduced.add_row(coeffs, lo, hi);
    }

    let fixed: Vec<(usize, f64)> = fixed_val
        .iter()
        .enumerate()
        .filter_map(|(j, v)| v.map(|v| (j, v)))
        .collect();
    Presolved::Reduced(Box::new(Reduction {
        reduced,
        col_map,
        row_map,
        fixed,
        implied,
        unbounded_hint,
    }))
}

impl Reduction {
    /// Maps the reduced solution back onto the original problem: primal
    /// values for eliminated columns, duals (zero) for dropped rows, and
    /// the objective recomputed in the original space.
    pub(crate) fn postsolve(&self, problem: &LpProblem, red: Solution) -> Solution {
        let n = problem.num_vars();
        let m = problem.rows.len();
        let iterations = red.iterations;
        let tol = 1e-9;
        let status = match red.status {
            Status::Optimal if self.unbounded_hint => Status::Unbounded,
            s => s,
        };
        if status != Status::Optimal {
            return Solution {
                status,
                objective: f64::NAN,
                x: vec![0.0; n],
                duals: vec![0.0; m],
                iterations,
            };
        }
        let mut x = vec![0.0; n];
        for (j, xj) in x.iter_mut().enumerate() {
            if let Some(rj) = self.col_map[j] {
                *xj = red.x[rj];
            }
        }
        for &(j, v) in &self.fixed {
            x[j] = v;
        }
        let mut duals = vec![0.0; m];
        for (i, di) in duals.iter_mut().enumerate() {
            if let Some(ri) = self.row_map[i] {
                *di = red.duals[ri];
            }
        }
        // Implied slacks: re-derive each variable from its row's final
        // activity. The relaxed row bounds were enforced (or proven
        // redundant), so a feasible value always exists; the endpoint
        // follows the row dual to keep the restored point KKT-consistent.
        let sign = match problem.sense {
            Sense::Maximize => -1.0,
            Sense::Minimize => 1.0,
        };
        for s in self.implied.iter().rev() {
            let row = &problem.rows[s.row];
            let mut act_rest = 0.0;
            for &(j, a) in &row.coeffs {
                if j != s.col {
                    act_rest += a * x[j];
                }
            }
            // a * x_col must land in [row.lower - act_rest, row.upper - act_rest].
            let (mut tlo, mut thi) = ((row.lower - act_rest) / s.a, (row.upper - act_rest) / s.a);
            if s.a < 0.0 {
                std::mem::swap(&mut tlo, &mut thi);
            }
            let xlo = tlo.max(problem.lower[s.col]);
            let xhi = thi.min(problem.upper[s.col]);
            // Internal (minimization-sense) reduced cost of the column:
            // d = sign*c - sign*y*a = -sign*a*y since the cost is zero.
            let d = -sign * s.a * duals[s.row];
            let mut v = if d > tol {
                xlo
            } else if d < -tol {
                xhi
            } else if xlo.is_finite() {
                xlo
            } else if xhi.is_finite() {
                xhi
            } else {
                0.0
            };
            if !v.is_finite() {
                v = if xlo.is_finite() {
                    xlo
                } else if xhi.is_finite() {
                    xhi
                } else {
                    0.0
                };
            }
            if v < problem.lower[s.col] {
                v = problem.lower[s.col];
            }
            if v > problem.upper[s.col] {
                v = problem.upper[s.col];
            }
            x[s.col] = v;
        }
        let objective: f64 = x
            .iter()
            .zip(problem.obj.iter())
            .map(|(xi, ci)| xi * ci)
            .sum();
        Solution {
            status: Status::Optimal,
            objective,
            x,
            duals,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LpProblem, Sense, Status};
    use crate::simplex::SimplexOptions;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
            "expected {b}, got {a}"
        );
    }

    /// Solve via the public path (presolve on) and with presolve off; both
    /// must agree.
    fn solve_both_ways(build: impl Fn() -> LpProblem) -> (Solution, Solution) {
        let with = build().solve().unwrap();
        let mut lp = build();
        lp.set_options(SimplexOptions {
            presolve: false,
            ..SimplexOptions::default()
        });
        let without = lp.solve().unwrap();
        (with, without)
    }

    #[test]
    fn fixed_variables_are_substituted() {
        let build = || {
            let mut lp = LpProblem::new(Sense::Maximize);
            let x = lp.add_var(2.0, 2.0, 3.0);
            let y = lp.add_nonneg(1.0);
            lp.add_le(vec![(x, 1.0), (y, 1.0)], 5.0);
            lp
        };
        let (a, b) = solve_both_ways(build);
        assert_eq!(a.status, Status::Optimal);
        assert_close(a.objective, b.objective); // 6 + 3 = 9
        assert_close(a.x[0], 2.0);
        assert_close(a.x[1], 3.0);
    }

    #[test]
    fn redundant_row_is_dropped_with_zero_dual() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        lp.add_le(vec![(x, 1.0)], 100.0); // can never bind
        lp.add_le(vec![(x, 1.0)], 0.5);
        let s = lp.solve().unwrap();
        assert_close(s.objective, 0.5);
        assert_close(s.duals[0], 0.0);
        assert_close(s.duals[1], 1.0);
    }

    #[test]
    fn duplicate_rows_merge_and_keep_duals_on_representative() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0);
        let y = lp.add_nonneg(1.0);
        lp.add_le(vec![(x, 1.0), (y, 1.0)], 7.0);
        // Exactly -2x the first row: x + y >= 2 in disguise.
        lp.add_ge(vec![(x, -2.0), (y, -2.0)], -8.0); // x + y <= 4
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 4.0);
        // The representative (row 0, tightened to 4) carries the dual.
        assert_close(s.duals[0], 1.0);
        assert_close(s.duals[1], 0.0);
    }

    #[test]
    fn infeasible_by_activity_bounds() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var(0.0, 1.0, 1.0);
        let y = lp.add_var(0.0, 1.0, 1.0);
        lp.add_ge(vec![(x, 1.0), (y, 1.0)], 3.0);
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn implied_slack_restores_feasible_value_and_duals() {
        // z is an implicit slack of the row; its elimination must not
        // disturb x's dual pricing.
        let build = || {
            let mut lp = LpProblem::new(Sense::Minimize);
            let x = lp.add_var(0.0, 10.0, 2.0);
            let z = lp.add_var(0.0, 3.0, 0.0);
            lp.add_eq(vec![(x, 1.0), (z, -1.0)], 4.0); // x - z = 4 -> x in [4, 7]
            lp
        };
        let (a, b) = solve_both_ways(build);
        assert_eq!(a.status, Status::Optimal);
        assert_close(a.objective, 8.0); // x = 4, z = 0
        assert_close(a.objective, b.objective);
        // Original row must hold exactly.
        assert_close(a.x[0] - a.x[1], 4.0);
    }

    #[test]
    fn empty_column_fixed_at_cost_optimal_bound() {
        let build = || {
            let mut lp = LpProblem::new(Sense::Maximize);
            let _x = lp.add_var(0.0, 2.0, 5.0); // appears in no row
            let y = lp.add_var(0.0, 1.0, 1.0);
            lp.add_le(vec![(y, 1.0)], 1.0);
            lp
        };
        let (a, b) = solve_both_ways(build);
        assert_close(a.objective, 11.0);
        assert_close(a.objective, b.objective);
        assert_close(a.x[0], 2.0);
    }

    #[test]
    fn empty_column_with_open_direction_is_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg(1.0); // no rows: unbounded above
        let y = lp.add_var(0.0, 1.0, 0.0);
        lp.add_le(vec![(y, 1.0)], 1.0);
        let _ = x;
        let s = lp.solve().unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn vacuous_rows_do_not_confuse_presolve() {
        let build = || {
            let mut lp = LpProblem::new(Sense::Minimize);
            let x = lp.add_var(1.0, 5.0, 1.0);
            lp.add_row(vec![(x, 1.0)], f64::NEG_INFINITY, f64::INFINITY);
            lp.add_ge(vec![(x, 1.0)], 2.0);
            lp
        };
        let (a, b) = solve_both_ways(build);
        assert_eq!(a.status, Status::Optimal);
        assert_close(a.objective, 2.0);
        assert_close(a.objective, b.objective);
    }
}
