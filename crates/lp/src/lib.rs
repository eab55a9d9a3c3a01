//! A self-contained linear programming toolkit for the PCF reproduction.
//!
//! The PCF paper solves all of its traffic engineering models with Gurobi;
//! no such solver is available here, so this crate provides the substrate:
//!
//! * [`model`] — an [`LpProblem`] builder with range rows and variable
//!   bounds, the interface all PCF/FFC/R3/optimal models are built against;
//! * [`simplex`] — a bounded-variable revised simplex method (primal loop
//!   for cold solves, dual loop for appended rows) over one sparse LU
//!   basis engine;
//! * [`incremental`] — an [`IncrementalLp`] wrapper that appends rows to a
//!   solved problem and re-solves warm-starting from the previous basis,
//!   the engine under PCF's cutting-plane loop; it also exports that basis
//!   ([`Basis`]) and starts a rebuilt model from one;
//! * [`slu`] — the sparse triangular-first LU behind both the simplex
//!   basis and the M-matrix linear systems of PCF's online response
//!   (Props. 5–7);
//! * [`linsys`] — dense Gaussian elimination, the reference tests hold the
//!   sparse factorization against;
//! * [`float`] — the workspace's float-comparison helpers: exact sparsity
//!   tests, tolerance tests, and the solver's named tolerances.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod float;
pub mod incremental;
pub mod linsys;
pub mod model;
pub mod simplex;
pub mod slu;
pub mod sparse;

pub use float::{approx_eq, approx_zero, is_zero, nonzero};
pub use incremental::{IncrementalLp, IncrementalStats};
pub use linsys::{lu_factor, solve_dense, DenseMatrix, LinSysError, LuFactors};
pub use model::{LpProblem, RowId, Sense, Solution, SolveError, Status, VarId};
pub use simplex::{Basis, BasisMark, LpWorkspace, SimplexOptions};
pub use slu::{BasisEngine, SparseLu};
pub use sparse::CscMatrix;
