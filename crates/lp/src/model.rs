//! Linear program model builder.
//!
//! [`LpProblem`] collects variables (with bounds and objective coefficients)
//! and linear constraints (with lower/upper row activity bounds), then hands
//! the model to the simplex solver via [`LpProblem::solve`].
//!
//! All of the PCF paper's offline models — FFC, PCF-TF, PCF-LS, PCF-CLS,
//! logical flows, R3, and the per-scenario optimal multi-commodity flow —
//! are instances built through this interface.

use crate::simplex::{self, SimplexOptions};
use std::fmt;

/// Handle to a variable in an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Handle to a constraint (row) in an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowId(pub usize);

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Solver outcome classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal solution was found.
    Optimal,
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The iteration limit was exceeded before convergence.
    IterationLimit,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::IterationLimit => "iteration limit",
        };
        f.write_str(s)
    }
}

/// Result of [`LpProblem::solve`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// Outcome classification; values below are meaningful for
    /// [`Status::Optimal`] only.
    pub status: Status,
    /// Objective value in the problem's own sense.
    pub objective: f64,
    /// Value of each variable, indexed by [`VarId`].
    pub x: Vec<f64>,
    /// Row duals, indexed by [`RowId`]: `duals[i]` is d(objective)/d(rhs_i)
    /// in the problem's own sense (so for a maximization, relaxing a binding
    /// `<=` row by one unit increases the objective by `duals[i]`). Zero for
    /// inactive rows; all zeros unless the status is [`Status::Optimal`].
    pub duals: Vec<f64>,
    /// Simplex pivots spent: phase 1 + phase 2, plus the dual pivots of a
    /// warm re-solve.
    pub iterations: usize,
}

impl Solution {
    /// Value of variable `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.x[v.0]
    }

    /// Dual value of row `r`; see [`Solution::duals`].
    pub fn dual(&self, r: RowId) -> f64 {
        self.duals[r.0]
    }

    /// Whether the solve reached a provably optimal solution.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

/// One linear constraint: `lower <= sum(coef * var) <= upper`.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub coeffs: Vec<(usize, f64)>,
    pub lower: f64,
    pub upper: f64,
}

/// A linear program under construction.
///
/// # Example
///
/// ```
/// use pcf_lp::{LpProblem, Sense};
///
/// // max x + 2y  s.t.  x + y <= 4,  y <= 3,  x,y >= 0
/// let mut lp = LpProblem::new(Sense::Maximize);
/// let x = lp.add_var(0.0, f64::INFINITY, 1.0);
/// let y = lp.add_var(0.0, 3.0, 2.0);
/// lp.add_le(vec![(x, 1.0), (y, 1.0)], 4.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 7.0).abs() < 1e-9);
/// assert!((sol.value(x) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) sense: Sense,
    pub(crate) obj: Vec<f64>,
    pub(crate) lower: Vec<f64>,
    pub(crate) upper: Vec<f64>,
    pub(crate) rows: Vec<Row>,
    /// Per variable, its position in the row [`LpProblem::add_row`] is
    /// building, [`NOT_IN_ROW`] otherwise: duplicates are found without a
    /// per-row map, and every entry is reset before the call returns.
    row_slot: Vec<usize>,
    options: SimplexOptions,
}

/// [`LpProblem::row_slot`] of a variable absent from the row being built.
const NOT_IN_ROW: usize = usize::MAX;

impl LpProblem {
    /// Creates an empty problem optimizing in the given sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            obj: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            rows: Vec::new(),
            row_slot: Vec::new(),
            options: SimplexOptions::default(),
        }
    }

    /// Overrides solver options (tolerances, iteration limit).
    pub fn set_options(&mut self, options: SimplexOptions) {
        self.options = options;
    }

    /// Current solver options.
    pub(crate) fn options(&self) -> &SimplexOptions {
        &self.options
    }

    /// Adds a variable with bounds `[lower, upper]` and objective coefficient
    /// `obj`. `lower` may be `f64::NEG_INFINITY` (free below) and `upper` may
    /// be `f64::INFINITY`.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, lower: f64, upper: f64, obj: f64) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN variable bound");
        assert!(lower <= upper, "empty variable domain [{lower}, {upper}]");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        let id = VarId(self.obj.len());
        self.obj.push(obj);
        self.lower.push(lower);
        self.upper.push(upper);
        self.row_slot.push(NOT_IN_ROW);
        id
    }

    /// Shorthand for a variable in `[0, +inf)`.
    pub fn add_nonneg(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, f64::INFINITY, obj)
    }

    /// Number of variables so far.
    pub fn num_vars(&self) -> usize {
        self.obj.len()
    }

    /// Number of constraints so far.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Adds a range constraint `lower <= expr <= upper`.
    ///
    /// The row keeps its variables in first-mention order. Exact-zero
    /// coefficients are dropped; a variable's later mentions are added to
    /// its first in input order (a sum that cancels to zero stays an
    /// entry). The simplex sums row activities in this order, so it is part
    /// of the model. Rows with `lower = -inf` and `upper = +inf` are
    /// accepted (and vacuous).
    ///
    /// # Panics
    /// Panics if a referenced variable does not exist, a coefficient is not
    /// finite, or `lower > upper`.
    pub fn add_row(
        &mut self,
        coeffs: impl IntoIterator<Item = (VarId, f64)>,
        lower: f64,
        upper: f64,
    ) -> RowId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN row bound");
        assert!(lower <= upper, "empty row range [{lower}, {upper}]");
        let coeffs = coeffs.into_iter();
        let mut acc: Vec<(usize, f64)> = Vec::with_capacity(coeffs.size_hint().0);
        for (v, c) in coeffs {
            assert!(v.0 < self.obj.len(), "row references unknown variable");
            assert!(c.is_finite(), "row coefficient must be finite");
            if crate::float::is_zero(c) {
                continue;
            }
            match self.row_slot[v.0] {
                NOT_IN_ROW => {
                    self.row_slot[v.0] = acc.len();
                    acc.push((v.0, c));
                }
                slot => acc[slot].1 += c,
            }
        }
        for &(j, _) in &acc {
            self.row_slot[j] = NOT_IN_ROW;
        }
        let id = RowId(self.rows.len());
        self.rows.push(Row {
            coeffs: acc,
            lower,
            upper,
        });
        id
    }

    /// Adds `expr <= rhs`.
    pub fn add_le(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, f64::NEG_INFINITY, rhs)
    }

    /// Adds `expr >= rhs`.
    pub fn add_ge(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, rhs, f64::INFINITY)
    }

    /// Adds `expr == rhs`.
    pub fn add_eq(&mut self, coeffs: impl IntoIterator<Item = (VarId, f64)>, rhs: f64) -> RowId {
        self.add_row(coeffs, rhs, rhs)
    }

    /// Solves the problem with the primal simplex method.
    ///
    /// Returns `Err` only for structurally broken models (currently never —
    /// panics guard construction); solver outcomes, including infeasibility
    /// and unboundedness, are reported through [`Solution::status`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        Ok(simplex::solve(self, &self.options))
    }
}

/// Error from [`LpProblem::solve`]. Reserved for future structural checks;
/// solver outcomes are reported via [`Status`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveError(pub String);

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LP solve error: {}", self.0)
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row coefficients as `(column, value bits)`, for exact comparison.
    fn row_bits(lp: &LpProblem, r: RowId) -> Vec<(usize, u64)> {
        let row = &lp.rows[r.0];
        row.coeffs.iter().map(|&(j, a)| (j, a.to_bits())).collect()
    }

    #[test]
    fn add_row_sums_duplicates_in_input_order_and_keeps_first_mentions() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let v: Vec<VarId> = (0..4).map(|_| lp.add_nonneg(0.0)).collect();
        // (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit,
        // so only the input-order sum passes.
        let r = lp.add_row(
            vec![
                (v[2], 0.1),
                (v[0], 0.0),
                (v[1], 1.0),
                (v[2], 0.2),
                (v[3], 2.0),
                (v[0], -0.0),
                (v[3], -2.0),
                (v[2], 0.3),
            ],
            0.0,
            1.0,
        );
        assert_ne!((0.1 + 0.2) + 0.3, 0.1 + (0.2 + 0.3));
        let want: [(usize, f64); 3] = [(2, (0.1 + 0.2) + 0.3), (1, 1.0), (3, 0.0)];
        let want: Vec<(usize, u64)> = want.iter().map(|&(j, a)| (j, a.to_bits())).collect();
        // Exact zeros are dropped (v0); a sum that cancels stays (v3).
        assert_eq!(row_bits(&lp, r), want);
        // The duplicate scan leaves nothing behind for the next row.
        let r2 = lp.add_row(vec![(v[3], 1.0), (v[2], 1.0), (v[0], 1.0)], 0.0, 1.0);
        let one = 1.0f64.to_bits();
        assert_eq!(row_bits(&lp, r2), vec![(3, one), (2, one), (0, one)]);
    }
}
