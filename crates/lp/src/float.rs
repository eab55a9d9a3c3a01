//! Float comparison helpers.
//!
//! The workspace lint policy (DESIGN.md §9) denies `clippy::float_cmp`
//! and bans `partial_cmp` calls in library code. Solver code that needs to
//! test a coefficient for zero, compare against a stored value, or order
//! floats goes through these helpers so the intent (exact sparsity test vs
//! tolerance test vs total order) is explicit at the call site and NaN
//! can never panic a sort or silently flip a branch.
//!
//! Two different kinds of comparison live on the solver path:
//!
//! * **Sparsity tests** ([`is_zero`], [`nonzero`]) are *exact* bit tests
//!   against `0.0`. Simplex and LU code uses them to decide whether a
//!   coefficient participates in a pivot column or a nonzero pattern.
//!   These must stay exact: a value like `1e-300` is a real nonzero that
//!   the basis updates must track, and rounding it away corrupts the
//!   factorization. `clippy::float_cmp` exempts comparisons with zero,
//!   so routing them through these helpers is a convention the lints
//!   do not check.
//! * **Tolerance tests** ([`approx_eq`], [`approx_zero`]) compare within
//!   an absolute epsilon, for feasibility/optimality checks where values
//!   carry accumulated rounding error.
//!
//! Ordering goes through [`total_cmp`][f64::total_cmp] (re-exported
//! guidance, not a wrapper): it is a total order, so `sort_by(|a, b|
//! a.total_cmp(b))` cannot panic on NaN the way
//! `partial_cmp(..).unwrap()` can.
//!
//! The simplex's own tolerances ([`FEAS_TOL`], [`OPT_TOL`], [`PIVOT_TOL`],
//! [`RATIO_TIE_TOL`], [`DEGENERATE_STEP`], [`BLAND_AFTER`]) are named
//! constants here rather than options: no caller ever varied them.

/// Primal feasibility / bound tolerance of the simplex loops.
pub const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance of the simplex pricing rules.
pub const OPT_TOL: f64 = 1e-7;
/// Smallest pivot magnitude the simplex ratio tests accept.
pub const PIVOT_TOL: f64 = 1e-8;
/// Width of the tie window in the primal and dual ratio tests: ratios this
/// close count as tied, and the tie goes to the larger pivot magnitude.
pub const RATIO_TIE_TOL: f64 = 1e-12;
/// A primal step at most this long counts as degenerate toward
/// [`BLAND_AFTER`].
pub const DEGENERATE_STEP: f64 = 1e-10;
/// Consecutive degenerate primal pivots before pricing falls back from
/// devex to Bland's rule, which guarantees termination.
pub const BLAND_AFTER: usize = 2000;

/// Exact sparsity test: is `x` (plus or minus) zero?
///
/// This is deliberately an exact comparison, not a tolerance test — see
/// the module docs. `-0.0` counts as zero.
#[inline(always)]
pub fn is_zero(x: f64) -> bool {
    x == 0.0
}

/// Exact sparsity test: does `x` participate in a nonzero pattern?
#[inline(always)]
pub fn nonzero(x: f64) -> bool {
    !is_zero(x)
}

/// Tolerance test: `|x| <= eps`.
#[inline(always)]
pub fn approx_zero(x: f64, eps: f64) -> bool {
    x.abs() <= eps
}

/// Tolerance test: `|a - b| <= eps`.
#[inline(always)]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_zero_tests() {
        assert!(is_zero(0.0));
        assert!(is_zero(-0.0));
        assert!(!is_zero(1e-300));
        assert!(!is_zero(f64::NAN));
        assert!(nonzero(1e-300));
        assert!(!nonzero(0.0));
    }

    #[test]
    fn tolerance_tests() {
        assert!(approx_zero(1e-9, 1e-6));
        assert!(!approx_zero(1e-3, 1e-6));
        assert!(approx_eq(1.0, 1.0 + 1e-9, 1e-6));
        assert!(!approx_eq(1.0, 1.1, 1e-6));
        // NaN is never approximately anything.
        assert!(!approx_zero(f64::NAN, 1e-6));
        assert!(!approx_eq(f64::NAN, f64::NAN, 1e-6));
    }
}
