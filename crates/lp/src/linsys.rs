//! The dense linear-system reference.
//!
//! PCF's online failure response (paper §4.1, Propositions 5–6) reduces to
//! solving `M x = d` where `M` is an invertible M-matrix (non-positive
//! off-diagonals, weakly chained diagonally dominant). The shipped
//! realization eliminates its cyclic blocks without pivoting (`pcf-core`);
//! this module is the dense solve tests and probes hold results against:
//!
//! * [`lu_factor`] / [`LuFactors`] — Gaussian elimination with partial
//!   pivoting, split into a reusable `O(n^3)` factorization and `O(n^2)`
//!   per-right-hand-side solves;
//! * [`solve_dense`] — factor-then-solve in one call; exact, `O(n^3)`.

/// A dense square matrix in row-major order.
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    n: usize,
    a: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n x n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
    }

    /// `self * x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.a[i * self.n..(i + 1) * self.n];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }
}

/// Error from the linear-system solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinSysError {
    /// The matrix is (numerically) singular.
    Singular,
}

impl std::fmt::Display for LinSysError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinSysError::Singular => write!(f, "singular matrix"),
        }
    }
}

impl std::error::Error for LinSysError {}

/// A reusable LU factorization of a [`DenseMatrix`] with partial pivoting
/// (`P M = L U`, unit-diagonal `L` stored below the diagonal in place).
///
/// Factoring costs `O(n^3)` once; each [`LuFactors::solve`] is `O(n^2)`.
/// A solve through the factors performs exactly the same floating-point
/// operations as [`solve_dense`] on the original matrix, so cached and
/// from-scratch solves of the same system agree bit for bit.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    /// Row-major in-place LU: `U` on and above the diagonal, the `L`
    /// multipliers below it.
    lu: Vec<f64>,
    /// `piv[col]` is the row swapped with `col` at elimination step `col`.
    piv: Vec<usize>,
}

/// Factors `m` by Gaussian elimination with partial pivoting.
pub fn lu_factor(m: &DenseMatrix) -> Result<LuFactors, LinSysError> {
    let n = m.n;
    let mut a = m.a.clone();
    let mut piv = vec![0usize; n];
    for col in 0..n {
        let mut p = col;
        let mut best = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                p = r;
            }
        }
        if best < crate::float::SINGULAR_PIVOT {
            return Err(LinSysError::Singular);
        }
        piv[col] = p;
        if p != col {
            for j in 0..n {
                a.swap(col * n + j, p * n + j);
            }
        }
        let d = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            a[r * n + col] = f;
            if crate::float::nonzero(f) {
                for j in (col + 1)..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
            }
        }
    }
    Ok(LuFactors { n, lu: a, piv })
}

impl LuFactors {
    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `M x = b` using the retained factors (`O(n^2)`).
    ///
    /// Both substitutions walk each row contiguously so the inner loops
    /// stay bounds-check-free and vectorizable; for any fixed row the
    /// multiplier updates still fold in column-ascending order against
    /// already-final entries, so the result matches a column-order sweep.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let n = self.n;
        let mut x = b.to_vec();
        // Apply the pivot row swaps (P b), then L y = P b.
        for col in 0..n {
            x.swap(col, self.piv[col]);
        }
        for r in 1..n {
            let row = &self.lu[r * n..r * n + r];
            let (solved, rest) = x.split_at_mut(r);
            let mut acc = rest[0];
            for (f, xc) in row.iter().zip(solved.iter()) {
                acc -= f * xc;
            }
            rest[0] = acc;
        }
        // Back substitution (U x = y).
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let mut acc = x[i];
            for (f, xj) in row[i + 1..].iter().zip(x[i + 1..].iter()) {
                acc -= f * xj;
            }
            x[i] = acc / row[i];
        }
        x
    }
}

/// Solves `M x = b` for several right-hand sides at once: one LU
/// factorization shared across all of them. Each entry of `rhs` is one
/// column vector; the result has the same shape.
pub fn solve_dense(m: &DenseMatrix, rhs: &[Vec<f64>]) -> Result<Vec<Vec<f64>>, LinSysError> {
    for b in rhs {
        assert_eq!(b.len(), m.n, "rhs dimension mismatch");
    }
    let lu = lu_factor(m)?;
    Ok(rhs.iter().map(|b| lu.solve(b)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_m_matrix() -> DenseMatrix {
        // Diagonally dominant M-matrix.
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 0, 4.0);
        m.set(0, 1, -1.0);
        m.set(0, 2, -1.0);
        m.set(1, 0, -2.0);
        m.set(1, 1, 5.0);
        m.set(1, 2, -1.0);
        m.set(2, 0, -1.0);
        m.set(2, 1, -1.0);
        m.set(2, 2, 3.0);
        m
    }

    #[test]
    fn dense_solves_identity() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(1, 1, 1.0);
        let x = solve_dense(&m, &[vec![3.0, 4.0]]).unwrap();
        assert_eq!(x[0], vec![3.0, 4.0]);
    }

    #[test]
    fn dense_solves_general_system() {
        let m = example_m_matrix();
        let b = vec![1.0, 2.0, 3.0];
        let x = solve_dense(&m, std::slice::from_ref(&b)).unwrap();
        let r = m.mul_vec(&x[0]);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-10);
        }
    }

    #[test]
    fn dense_multiple_rhs() {
        let m = example_m_matrix();
        let xs = solve_dense(&m, &[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]).unwrap();
        for (k, x) in xs.iter().enumerate() {
            let r = m.mul_vec(x);
            for (i, ri) in r.iter().enumerate() {
                let want = if i == k { 1.0 } else { 0.0 };
                assert!((ri - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dense_detects_singular() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        assert_eq!(
            solve_dense(&m, &[vec![1.0, 1.0]]).unwrap_err(),
            LinSysError::Singular
        );
    }

    #[test]
    fn lu_solve_is_bit_identical_to_solve_dense() {
        let m = example_m_matrix();
        let lu = lu_factor(&m).unwrap();
        for b in [vec![1.0, 2.0, 3.0], vec![-0.5, 0.0, 7.25]] {
            let dense = solve_dense(&m, std::slice::from_ref(&b)).unwrap();
            let fast = lu.solve(&b);
            for (a, e) in fast.iter().zip(&dense[0]) {
                assert_eq!(a.to_bits(), e.to_bits(), "lu {a} vs dense {e}");
            }
        }
    }

    #[test]
    fn lu_factors_are_reusable_across_rhs() {
        // A matrix that needs pivoting (zero leading diagonal entry).
        let mut m = DenseMatrix::zeros(3);
        m.set(0, 0, 0.0);
        m.set(0, 1, 2.0);
        m.set(0, 2, 1.0);
        m.set(1, 0, 1.0);
        m.set(1, 1, 1.0);
        m.set(1, 2, 1.0);
        m.set(2, 0, 4.0);
        m.set(2, 1, -1.0);
        m.set(2, 2, 0.5);
        let lu = lu_factor(&m).unwrap();
        assert_eq!(lu.n(), 3);
        for k in 0..3 {
            let mut b = vec![0.0; 3];
            b[k] = 1.0;
            let x = lu.solve(&b);
            let r = m.mul_vec(&x);
            for (i, ri) in r.iter().enumerate() {
                let want = if i == k { 1.0 } else { 0.0 };
                assert!((ri - want).abs() < 1e-10, "column {k}, row {i}: {ri}");
            }
        }
    }

    #[test]
    fn lu_factor_detects_singular() {
        let mut m = DenseMatrix::zeros(2);
        m.set(0, 0, 1.0);
        m.set(0, 1, 2.0);
        m.set(1, 0, 2.0);
        m.set(1, 1, 4.0);
        assert_eq!(lu_factor(&m).unwrap_err(), LinSysError::Singular);
    }

    #[test]
    fn mul_vec_is_matrix_vector_product() {
        let m = example_m_matrix();
        let y = m.mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![2.0, 2.0, 1.0]);
    }
}
