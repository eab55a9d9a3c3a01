//! Linear program model builder.
//!
//! [`LpProblem`] collects variables (with bounds and objective coefficients)
//! and linear constraints (with lower/upper row activity bounds), then hands
//! the model to the simplex solver via [`LpProblem::solve`].
//!
//! All of the PCF paper's offline models — FFC, PCF-TF, PCF-LS, PCF-CLS,
//! logical flows, R3, and the per-scenario optimal multi-commodity flow —
//! are instances built through this interface.

use crate::simplex::{self, LpWorkspace, SimplexOptions};
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
    /// A solution shell with nothing in it yet, for a solve to fill.
    pub(crate) fn empty() -> Solution {
        Solution {
            status: Status::IterationLimit,
            objective: f64::NAN,
            x: Vec::new(),
            duals: Vec::new(),
            iterations: 0,
        }
    }

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
    /// The rows' coefficients `(column, value)`, row after row, each row
    /// in first-mention order: one array for every row, so adding a row
    /// allocates nothing beyond amortized growth.
    coeffs: Vec<(usize, f64)>,
    /// Row `i` is `coeffs[row_start[i]..row_start[i + 1]]`; starts at `[0]`.
    row_start: Vec<usize>,
    /// Row activity bounds: `row_lower[i] <= row i <= row_upper[i]`.
    pub(crate) row_lower: Vec<f64>,
    pub(crate) row_upper: Vec<f64>,
    /// Per variable, its position in the row [`LpProblem::add_row`] is
    /// building, [`NOT_IN_ROW`] otherwise: duplicates are found without a
    /// per-row map, and every entry is reset before the call returns.
    row_slot: Vec<usize>,
    options: SimplexOptions,
}

/// [`LpProblem::row_slot`] of a variable absent from the row being built.
const NOT_IN_ROW: usize = usize::MAX;

/// Fewest coefficient slots [`LpProblem::add_row`] grows the flat
/// coefficient array by.
const COEFF_GROWTH_MIN: usize = 64;

impl LpProblem {
    /// Creates an empty problem optimizing in the given sense.
    pub fn new(sense: Sense) -> Self {
        LpProblem {
            sense,
            obj: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            coeffs: Vec::new(),
            row_start: vec![0],
            row_lower: Vec::new(),
            row_upper: Vec::new(),
            row_slot: Vec::new(),
            options: SimplexOptions::default(),
        }
    }

    /// Removes every variable and row, keeping the sense, the options and
    /// the storage of every buffer: a problem rebuilt after `clear` is the
    /// one [`LpProblem::new`] would build, without reallocating.
    pub fn clear(&mut self) {
        self.obj.clear();
        self.lower.clear();
        self.upper.clear();
        self.coeffs.clear();
        self.row_start.truncate(1);
        self.row_lower.clear();
        self.row_upper.clear();
        self.row_slot.clear();
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
        self.row_lower.len()
    }

    /// The coefficients of row `i`, in first-mention order.
    pub(crate) fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.coeffs[self.row_start[i]..self.row_start[i + 1]]
    }

    /// Every row's coefficients, in row order.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = &[(usize, f64)]> + Clone + '_ {
        self.row_start.windows(2).map(|w| &self.coeffs[w[0]..w[1]])
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
        let start = self.coeffs.len();
        for (v, c) in coeffs {
            assert!(v.0 < self.obj.len(), "row references unknown variable");
            assert!(c.is_finite(), "row coefficient must be finite");
            if crate::float::is_zero(c) {
                continue;
            }
            match self.row_slot[v.0] {
                NOT_IN_ROW => {
                    self.row_slot[v.0] = self.coeffs.len() - start;
                    if self.coeffs.len() == self.coeffs.capacity() {
                        // Grow by an eighth, not the doubling `push` would
                        // make: a master's coefficients are most of its
                        // model, and doubling could leave as much again
                        // allocated and unused at the solve's peak.
                        let grow = (self.coeffs.len() / 8).max(COEFF_GROWTH_MIN);
                        self.coeffs.reserve_exact(grow);
                    }
                    self.coeffs.push((v.0, c));
                }
                slot => self.coeffs[start + slot].1 += c,
            }
        }
        for &(j, _) in &self.coeffs[start..] {
            self.row_slot[j] = NOT_IN_ROW;
        }
        let id = RowId(self.num_rows());
        self.row_start.push(self.coeffs.len());
        self.row_lower.push(lower);
        self.row_upper.push(upper);
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
        let mut ws = LpWorkspace::default();
        self.solve_in(&mut ws)?;
        Ok(ws.into_solution())
    }

    /// [`LpProblem::solve`] in a caller-owned workspace: the standard form,
    /// the crash factors, the pivot loops' buffers and the solution are
    /// rebuilt in `ws`'s storage, so a loop solving many small problems in
    /// one workspace allocates only when a problem outgrows every earlier
    /// one. The answer, borrowed from `ws`, is the one a fresh workspace
    /// gives, bit for bit.
    pub fn solve_in<'w>(&self, ws: &'w mut LpWorkspace) -> Result<&'w Solution, SolveError> {
        simplex::solve_cold(self, &self.options, ws);
        Ok(ws.solution())
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
        lp.row(r.0).iter().map(|&(j, a)| (j, a.to_bits())).collect()
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
