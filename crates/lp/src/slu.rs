//! Sparse LU factorization and the simplex basis engine.
//!
//! One factor representation ([`SparseLu`], permutation-indexed triangular
//! factors stored by elimination step: per step an offset into one flat L
//! entry vector and one flat U entry vector, so a factorization is a fixed
//! handful of allocations however many steps it has) and one shipped
//! ordering:
//!
//! * [`SparseLu::factor_columns`] — **triangular first**, over a flat CSC
//!   input (column starts plus `(row, value)` entries). An O(nnz)
//!   singleton peel pivots every row or column that has a single entry
//!   left, repeatedly, before anything else runs: a column singleton takes
//!   an empty L column and the pivot row's remaining entries as its U row,
//!   a row singleton an empty U row and the pivot column's remaining
//!   entries ÷ pivot as its L column. Neither creates fill or changes a
//!   stored value, so a matrix that is a row/column permutation of a
//!   triangular one is factored by the peel alone and its solve is plain
//!   substitution. What the peel cannot reach — the *bump*,
//!   [`SparseLu::bump`] rows — goes through Markowitz-ordered elimination with threshold
//!   pivoting, minimizing fill (cost `(col_count-1)·(row_count-1)`)
//!   subject to `|pivot| >= 0.1 · colmax`; candidate columns are examined
//!   in ascending `(active count, column)` order with a deterministic cap
//!   (`MARKOWITZ_EXAMINE`). The search order is one ascending column list
//!   per active count, each row lists its active entries as `(column,
//!   position in the column)` sorted by column, and a pivot updates the
//!   columns crossing its row in place, finding each entry it changes by
//!   binary search in those lists, so a factorization costs what its
//!   pivots touch. Columns the elimination has emptied (every pivot column
//!   among them) are counted, not listed: the search charges them to its
//!   cap first, because the pivot order this engine has always produced
//!   treats them as walked (once 16 pivots are done, the cap admits only
//!   the first usable column), and a true 16-column search would pick
//!   other pivots. A singleton whose
//!   pivot is below `BASIS_SINGULAR_TOL` is not peeled: it stays in the
//!   bump, where singularity is declared. The peel walks a row-major copy
//!   of the input and writes every pivot's L column or U row straight into
//!   the factors. Simplex bases ([`SparseLu::factor_basis`], which lays
//!   the basis columns of a [`CscMatrix`] out as that flat CSC) and the
//!   blocks of a reservation matrix's LS cycles take this path. The
//!   simplex crash basis, a ±1 diagonal, is built directly as the factors
//!   the peel would make of it (`BasisEngine::reset_diagonal`: identity
//!   permutations, no L or U entries), in the storage of the engine the
//!   last solve left behind.
//! * [`SparseLu::factor_dense_compat`] — the test reference: partial
//!   pivoting in the *exact* pivot order of [`crate::linsys::lu_factor`]
//!   (largest magnitude, first-in-physical-order tie break, `1e-13`
//!   singularity threshold). Every floating-point operation a
//!   [`SparseLu::solve`] then performs is one the dense reference performs
//!   on the same data — skipped operations are exact no-ops (zero
//!   multiplier or zero stored entry) — so solves agree *bit for bit* with
//!   [`crate::linsys::LuFactors::solve`].
//!
//! [`BasisEngine`] keeps a basis factored as `T B = U` between
//! refactorizations, with `T = R L^{-1}`: the `L` of a fresh
//! factorization, a list of row etas `R`, and an upper-triangular `U` that
//! is updated in place (**Forrest–Tomlin**):
//!
//! * a simplex pivot replacing basis position `p` puts the entering
//!   column's *spike* `T a_q` (saved by that column's ftran) in place of
//!   `p`'s column of `U`, moves `p`'s step to the end of `U`'s order, and
//!   eliminates the old row with one row eta, whose multipliers are the
//!   `U^{-T} e_p` stage the pivot row's btran kept. The update stores what the
//!   column brings in — the spike and the eta — rather than the whole
//!   `B^{-1} a_q` a product-form eta holds. The new diagonal is checked
//!   against `alpha_q u_pp` (the determinant identity); an update that
//!   fails the check is refused, and the simplex refactorizes;
//! * rows appended with basic slacks, `[[B, 0], [C, -I]]`, need no update
//!   of `L` or `R`: the slacks are column singletons, so each row becomes a
//!   new `U` step ordered before every existing one, its `U` row the row's
//!   `C` entries with diagonal `-1`. A warm start never forces a
//!   refactorization.
//!
//! ftran is `L^{-1}`, the etas in order, then `U^{-1}`; btran is `U^{-T}`,
//! the etas in reverse, then `L^{-T}`.
//!
//! Everything here iterates `Vec`s, sorted lists and a FIFO queue seeded in
//! ascending index order — no hash maps — so factorization and solves are
//! deterministic.

use crate::float::{is_zero, nonzero, SINGULAR_PIVOT};
use crate::linsys::{DenseMatrix, LinSysError};
use crate::sparse::CscMatrix;
use std::collections::VecDeque;

#[cfg(test)]
mod reference;

/// Relative pivot threshold for Markowitz elimination: a candidate must be
/// at least this fraction of its column's largest magnitude.
const MARKOWITZ_THRESHOLD: f64 = 0.1;
/// Columns examined per Markowitz pivot search (ascending active count).
const MARKOWITZ_EXAMINE: usize = 16;
/// A basis column whose largest active entry is below this is unusable as
/// a pivot column (matches the dense reinversion threshold).
const BASIS_SINGULAR_TOL: f64 = 1e-12;

/// Sparse LU factors `B = P^T L U Q`, stored by elimination step.
///
/// `rperm[k]`/`cperm[k]` are the original row/column eliminated at step
/// `k`; `l[lstart[k]..lstart[k + 1]]` holds the unit-lower-triangular
/// multipliers created at step `k` (targets are *step* indices `> k`);
/// `u[ustart[k]..ustart[k + 1]]` holds the upper-triangular row of step `k`
/// (sources are step indices `> k`, ascending); `pivots[k]` is the
/// diagonal.
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    rperm: Vec<u32>,
    cperm: Vec<u32>,
    lstart: Vec<usize>,
    l: Vec<(u32, f64)>,
    ustart: Vec<usize>,
    u: Vec<(u32, f64)>,
    pivots: Vec<f64>,
    bump: usize,
}

impl SparseLu {
    /// Dimension of the factored matrix.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows the singleton peel could not reach and Markowitz elimination
    /// factored: `0` exactly when the matrix is a row/column permutation of
    /// a triangular one (no fill, solve = substitution). The dense-compat
    /// reference eliminates every row, so it reports `n`.
    pub fn bump(&self) -> usize {
        self.bump
    }

    /// Stored factor entries (L + U + diagonal).
    pub fn nnz(&self) -> usize {
        self.l.len() + self.u.len() + self.pivots.len()
    }

    /// Factors a dense matrix with the same pivot order, singularity
    /// threshold, and floating-point operations as
    /// [`crate::linsys::lu_factor`]; see the module docs for why solves
    /// then match the dense reference bit for bit.
    pub fn factor_dense_compat(m: &DenseMatrix) -> Result<SparseLu, LinSysError> {
        let n = m.n();
        let cols: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|j| {
                (0..n)
                    .filter_map(|i| {
                        let v = m.get(i, j);
                        nonzero(v).then_some((i as u32, v))
                    })
                    .collect()
            })
            .collect();
        factor_partial_pivot(n, cols)
    }

    /// Factors the basis matrix whose columns are `a.col(basis[p])` for
    /// each basis position `p` (see [`SparseLu::factor_columns`]).
    pub fn factor_basis(a: &CscMatrix, basis: &[usize]) -> Result<SparseLu, LinSysError> {
        let mut col_start = Vec::with_capacity(basis.len() + 1);
        col_start.push(0);
        let mut entries = Vec::with_capacity(basis.iter().map(|&j| a.col(j).0.len()).sum());
        for &j in basis {
            let (rows, vals) = a.col(j);
            entries.extend(
                rows.iter()
                    .zip(vals)
                    .filter(|&(_, &v)| nonzero(v))
                    .map(|(&i, &v)| (i, v)),
            );
            col_start.push(entries.len());
        }
        SparseLu::factor_columns(basis.len(), &col_start, &entries)
    }

    /// Factors the `n x n` matrix in flat CSC form: column `j` holds the
    /// entries `entries[col_start[j]..col_start[j + 1]]` (`(row, value)`,
    /// each row at most once per column). Singleton peel first,
    /// threshold-Markowitz elimination on the bump that remains (module
    /// docs).
    pub fn factor_columns(
        n: usize,
        col_start: &[usize],
        entries: &[(u32, f64)],
    ) -> Result<SparseLu, LinSysError> {
        debug_assert_eq!(col_start.len(), n + 1);
        let mut lu = SparseLu::with_capacity(n, entries.len().saturating_sub(n));
        let (row_done, col_done) = peel(n, col_start, entries, &mut lu);
        lu.bump = n - lu.pivots.len();
        if lu.bump > 0 {
            markowitz(
                bump_columns(n, col_start, entries, &row_done, &col_done),
                &mut lu,
            )?;
        }
        Ok(lu.finish())
    }

    /// The factors of `diag(pivots)`: identity permutations and no L or U
    /// entries, which is what [`SparseLu::factor_columns`] makes of a
    /// diagonal whose entries all pass the singleton tolerance, without
    /// building its input. The simplex crash basis is such a diagonal.
    #[cfg(test)]
    pub(crate) fn diagonal(pivots: Vec<f64>) -> SparseLu {
        let n = pivots.len();
        let identity: Vec<u32> = (0..n as u32).collect();
        SparseLu {
            n,
            rperm: identity.clone(),
            cperm: identity,
            lstart: vec![0; n + 1],
            l: Vec::new(),
            ustart: vec![0; n + 1],
            u: Vec::new(),
            pivots,
            bump: 0,
        }
    }

    /// An empty factorization of dimension `n` with room for `off_diag`
    /// L and U entries each, to be filled one pivot at a time (by the
    /// peel, then [`SparseLu::push_step`]) and closed by
    /// [`SparseLu::finish`].
    fn with_capacity(n: usize, off_diag: usize) -> SparseLu {
        let mut lstart = Vec::with_capacity(n + 1);
        lstart.push(0);
        SparseLu {
            n,
            rperm: Vec::with_capacity(n),
            cperm: Vec::with_capacity(n),
            ustart: lstart.clone(),
            lstart,
            l: Vec::with_capacity(off_diag),
            u: Vec::with_capacity(off_diag),
            pivots: Vec::with_capacity(n),
            bump: 0,
        }
    }

    /// Records the next pivot; `lk` is keyed by original row and `uk` by
    /// original column until [`SparseLu::finish`].
    fn push_step(&mut self, row: u32, col: u32, piv: f64, lk: &[(u32, f64)], uk: &[(u32, f64)]) {
        self.rperm.push(row);
        self.cperm.push(col);
        self.pivots.push(piv);
        self.l.extend_from_slice(lk);
        self.lstart.push(self.l.len());
        self.u.extend_from_slice(uk);
        self.ustart.push(self.u.len());
    }

    /// Remaps the recorded L targets and U sources from original indices
    /// into step space (U rows ascending).
    fn finish(mut self) -> SparseLu {
        to_step_space(
            &self.rperm,
            &self.cperm,
            &mut self.l,
            &self.ustart,
            &mut self.u,
        );
        self.l.shrink_to_fit();
        self.u.shrink_to_fit();
        self
    }

    /// Solves `B x = b` (allocating); bit-identical to
    /// [`crate::linsys::LuFactors::solve`] when the factors came from
    /// [`SparseLu::factor_dense_compat`].
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs dimension mismatch");
        let mut x = b.to_vec();
        self.ftran_in_place(&mut x, &mut Vec::new());
        x
    }

    /// `x <- B^{-1} x` using a caller-provided scratch buffer of length
    /// `n` (the simplex ftran, and the realization's one solve).
    pub fn ftran_in_place(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.n, 0.0);
        self.solve_scratch(x, scratch);
        for k in 0..self.n {
            x[self.cperm[k] as usize] = scratch[k];
        }
    }

    /// Forward + backward substitution in step space: `z` solves
    /// `L U z = P b`.
    fn solve_scratch(&self, b: &[f64], z: &mut [f64]) {
        for (zk, &r) in z.iter_mut().zip(&self.rperm) {
            *zk = b[r as usize];
        }
        for (k, w) in self.lstart.windows(2).enumerate() {
            let v = z[k];
            if nonzero(v) {
                for &(t, l) in &self.l[w[0]..w[1]] {
                    z[t as usize] -= l * v;
                }
            }
        }
        for (k, w) in self.ustart.windows(2).enumerate().rev() {
            let mut acc = z[k];
            for &(c, u) in &self.u[w[0]..w[1]] {
                acc -= u * z[c as usize];
            }
            z[k] = acc / self.pivots[k];
        }
    }

    /// `y <- B^{-T} y` using a caller-provided scratch buffer of length
    /// `n` (the simplex btran).
    pub fn btran_in_place(&self, y: &mut [f64], scratch: &mut Vec<f64>) {
        scratch.clear();
        scratch.resize(self.n, 0.0);
        let z = &mut scratch[..];
        // B^T = Q^T U^T L^T P: gather by cperm, then U^T (forward), L^T
        // (backward), scatter by rperm.
        for (zk, &c) in z.iter_mut().zip(&self.cperm) {
            *zk = y[c as usize];
        }
        for (k, w) in self.ustart.windows(2).enumerate() {
            let v = z[k] / self.pivots[k];
            z[k] = v;
            if nonzero(v) {
                for &(c, u) in &self.u[w[0]..w[1]] {
                    z[c as usize] -= u * v;
                }
            }
        }
        for (k, w) in self.lstart.windows(2).enumerate().rev() {
            let mut acc = z[k];
            for &(t, l) in &self.l[w[0]..w[1]] {
                acc -= l * z[t as usize];
            }
            z[k] = acc;
        }
        for (&zk, &r) in z.iter().zip(&self.rperm) {
            y[r as usize] = zk;
        }
    }
}

/// Remaps L targets (original rows) and U sources (original columns) of
/// factors recorded step by step into step indices, and sorts each U row
/// (`u[ustart[k]..ustart[k + 1]]`) ascending.
fn to_step_space(
    rperm: &[u32],
    cperm: &[u32],
    l: &mut [(u32, f64)],
    ustart: &[usize],
    u: &mut [(u32, f64)],
) {
    let mut step_of = vec![0u32; rperm.len()];
    for (k, &r) in rperm.iter().enumerate() {
        step_of[r as usize] = k as u32;
    }
    for (r, _) in l.iter_mut() {
        *r = step_of[*r as usize];
    }
    for (k, &c) in cperm.iter().enumerate() {
        step_of[c as usize] = k as u32;
    }
    for (c, _) in u.iter_mut() {
        *c = step_of[*c as usize];
    }
    for w in ustart.windows(2) {
        u[w[0]..w[1]].sort_unstable_by_key(|&(c, _)| c);
    }
}

#[cfg(test)]
impl SparseLu {
    /// The first field in which `self` and `other` differ (floats compared
    /// by bits), `None` when they are the same factors.
    pub(crate) fn first_difference(&self, other: &SparseLu) -> Option<String> {
        let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
            v.iter().map(|&(k, x)| (k, x.to_bits())).collect()
        };
        let pivots =
            |lu: &SparseLu| -> Vec<u64> { lu.pivots.iter().map(|x| x.to_bits()).collect() };
        [
            ("n", self.n == other.n),
            ("rperm", self.rperm == other.rperm),
            ("cperm", self.cperm == other.cperm),
            ("lstart", self.lstart == other.lstart),
            ("l", bits(&self.l) == bits(&other.l)),
            ("ustart", self.ustart == other.ustart),
            ("u", bits(&self.u) == bits(&other.u)),
            ("pivots", pivots(self) == pivots(other)),
            ("bump", self.bump == other.bump),
        ]
        .iter()
        .find(|(_, same)| !same)
        .map(|(field, _)| format!("`{field}` differs"))
    }
}

/// Shared elimination workspace: active columns, row membership, and the
/// buffers one pivot fills. Every buffer is reused from pivot to pivot.
struct Active {
    /// Active entries per column: rows not yet eliminated. Order within a
    /// column is maintained deterministically but is not sorted; it fixes
    /// the pivot search's ties and the order of the L entries.
    cols: Vec<Vec<(u32, f64)>>,
    /// For each row, `(column, position in that column's entries)` of its
    /// active entries, ascending by column: a pivot finds every entry it
    /// updates by binary search here, without walking a column.
    rows: Vec<Vec<(u32, u32)>>,
    /// Whether an active entry may be an explicit zero. Only the input can
    /// hold one: an update stores nonzeros only.
    zeros: bool,
    /// The last pivot's L column (original rows), U row (original
    /// columns), and the entries of its pivot row (as in `rows`).
    lk: Vec<(u32, f64)>,
    uk: Vec<(u32, f64)>,
    crossed: Vec<(u32, u32)>,
}

impl Active {
    fn new(n: usize, cols: Vec<Vec<(u32, f64)>>) -> Self {
        let mut count = vec![0usize; n];
        for &(i, _) in cols.iter().flatten() {
            count[i as usize] += 1;
        }
        let mut rows: Vec<Vec<(u32, u32)>> = count.into_iter().map(Vec::with_capacity).collect();
        let mut zeros = false;
        for (j, col) in cols.iter().enumerate() {
            for (k, &(i, v)) in col.iter().enumerate() {
                rows[i as usize].push((j as u32, k as u32));
                zeros |= !nonzero(v);
            }
        }
        Active {
            cols,
            rows,
            zeros,
            lk: Vec::new(),
            uk: Vec::new(),
            crossed: Vec::new(),
        }
    }

    /// Eliminates pivot `(p, piv)` sitting in column `jcol`: extracts the
    /// L multipliers from the pivot column into `lk`, the U row across the
    /// pivot row's remaining active columns (`crossed`, ascending) into
    /// `uk`, and applies the rank-one update to each of those columns in
    /// place. A column keeps its entries' order: the pivot-row entry leaves
    /// by `swap_remove`, exact cancellations drop out in order, and fill
    /// follows in L order — the order a dense scatter of the column and a
    /// rebuild in (old entries, then L rows) order would produce.
    fn eliminate(&mut self, jcol: usize, p: usize, piv: f64) {
        let Active {
            cols,
            rows,
            zeros,
            lk,
            uk,
            crossed,
        } = self;
        // L multipliers from the pivot column (exact zeros dropped: they
        // are no-ops both as updates and in later solves), and the pivot
        // column detached from its rows.
        lk.clear();
        for &(i, v) in &cols[jcol] {
            remove_col(&mut rows[i as usize], jcol as u32);
            if i as usize == p {
                continue;
            }
            let f = v / piv;
            if nonzero(f) {
                lk.push((i, f));
            }
        }
        cols[jcol].clear();
        // The pivot row's remaining active columns, in ascending order
        // (this fixes the U-row entry order and the update order). The
        // row's list moves into `crossed` and leaves an empty one behind.
        crossed.clear();
        std::mem::swap(crossed, &mut rows[p]);
        uk.clear();
        for &(t, at) in crossed.iter() {
            let col = &mut cols[t as usize];
            let idx = at as usize;
            let (_, u) = col.swap_remove(idx);
            if let Some(&(q, _)) = col.get(idx) {
                set_position(&mut rows[q as usize], t, idx); // the last entry moved
            }
            if !nonzero(u) {
                continue; // a zero stored entry updates nothing
            }
            uk.push((t, u));
            // a[r][t] -= f * u on the L rows the column holds, exactly the
            // dense elimination's per-cell operation; fill for the others,
            // appended in L order.
            let mut dropped = *zeros;
            for &(r, f) in lk.iter() {
                let row = &mut rows[r as usize];
                match row.binary_search_by_key(&t, |e| e.0) {
                    Ok(k) => {
                        let v = &mut col[row[k].1 as usize].1;
                        *v -= f * u;
                        dropped |= !nonzero(*v);
                    }
                    Err(k) => {
                        let v = 0.0 - f * u;
                        if nonzero(v) {
                            row.insert(k, (t, col.len() as u32));
                            col.push((r, v));
                        }
                    }
                }
            }
            // Entries that end at zero (cancellations, or zeros from the
            // input) drop out in order.
            if dropped {
                let mut kept = 0;
                for k in 0..col.len() {
                    let (i, v) = col[k];
                    if !nonzero(v) {
                        remove_col(&mut rows[i as usize], t);
                        continue;
                    }
                    if kept < k {
                        col[kept] = (i, v);
                        set_position(&mut rows[i as usize], t, kept);
                    }
                    kept += 1;
                }
                col.truncate(kept);
            }
        }
    }
}

/// Removes column `t`'s entry from the row list `row`, if present.
fn remove_col(row: &mut Vec<(u32, u32)>, t: u32) {
    if let Ok(k) = row.binary_search_by_key(&t, |e| e.0) {
        row.remove(k);
    }
}

/// Records that column `t` holds the row of `row` at position `at`.
fn set_position(row: &mut [(u32, u32)], t: u32, at: usize) {
    if let Ok(k) = row.binary_search_by_key(&t, |e| e.0) {
        row[k].1 = at as u32;
    }
}

/// Removes `x` from the ascending list `v`, if present.
fn remove_sorted(v: &mut Vec<u32>, x: u32) {
    if let Ok(k) = v.binary_search(&x) {
        v.remove(k);
    }
}

/// Inserts `x` into the ascending list `v`, if absent.
fn insert_sorted(v: &mut Vec<u32>, x: u32) {
    if let Err(k) = v.binary_search(&x) {
        v.insert(k, x);
    }
}

/// Partial-pivoting elimination in natural column order, replicating the
/// dense reference's pivot choice (physical-order scan, strict
/// improvement) and singularity threshold.
fn factor_partial_pivot(n: usize, cols: Vec<Vec<(u32, f64)>>) -> Result<SparseLu, LinSysError> {
    let mut act = Active::new(n, cols);
    // phys[pos] = original row currently at physical position `pos`; the
    // dense code swaps rows physically, we swap this view.
    let mut phys: Vec<u32> = (0..n as u32).collect();
    // Column k scattered by original row (zero elsewhere) for value lookups.
    let mut val = vec![0.0; n];
    let mut lu = SparseLu::with_capacity(n, 0);
    lu.bump = n;
    for k in 0..n {
        for &(i, v) in &act.cols[k] {
            val[i as usize] = v;
        }
        let mut p_pos = k;
        let mut best = val[phys[k] as usize].abs();
        for (pos, &row) in phys.iter().enumerate().take(n).skip(k + 1) {
            let v = val[row as usize].abs();
            if v > best {
                best = v;
                p_pos = pos;
            }
        }
        if best < SINGULAR_PIVOT {
            return Err(LinSysError::Singular);
        }
        phys.swap(k, p_pos);
        let p = phys[k];
        let piv = val[p as usize];
        for &(i, _) in &act.cols[k] {
            val[i as usize] = 0.0;
        }
        act.eliminate(k, p as usize, piv);
        lu.push_step(p, k as u32, piv, &act.lk, &act.uk);
    }
    // Natural column order: cperm is the identity, so `finish` leaves the
    // U rows (already ascending) as they are.
    Ok(lu.finish())
}

/// The singleton peel (module docs): pivots every row or column with one
/// active entry, repeatedly, in FIFO order from a queue seeded with the
/// column singletons then the row singletons, each in ascending index
/// order, and writes each pivot's step into `lu`. Returns which rows and
/// columns were pivoted; the flat CSC input is only read (a peel pivot
/// changes no stored value). Only the pattern decides the order, except
/// that a singleton whose pivot is below `BASIS_SINGULAR_TOL` is skipped —
/// and then never peeled, since its line has no other entry to pivot on.
fn peel(
    n: usize,
    col_start: &[usize],
    entries: &[(u32, f64)],
    lu: &mut SparseLu,
) -> (Vec<bool>, Vec<bool>) {
    // Row-major copy of the entries, `(column, value)`, so a pivot row can
    // be walked: count into `row_start[i + 1]`, prefix-sum, fill (advancing
    // `row_start[i]` to the end of row `i`), then shift the starts back
    // into place.
    let mut row_start = vec![0usize; n + 1];
    for &(i, _) in entries {
        row_start[i as usize + 1] += 1;
    }
    for i in 0..n {
        row_start[i + 1] += row_start[i];
    }
    let mut rows = vec![(0u32, 0.0f64); entries.len()];
    for (j, w) in col_start.windows(2).enumerate() {
        for &(i, v) in &entries[w[0]..w[1]] {
            rows[row_start[i as usize]] = (j as u32, v);
            row_start[i as usize] += 1;
        }
    }
    row_start.copy_within(0..n, 1);
    row_start[0] = 0;
    // Orientation 0 is "column", 1 is "row": line `k` of orientation `s`
    // spans positions `span(s, k)`, position `pos` holding `cell(s, pos)`,
    // `(index in the other orientation, value)`.
    let span = |s: usize, k: usize| {
        let start = if s == 0 { col_start } else { &row_start[..] };
        start[k]..start[k + 1]
    };
    let cell = |s: usize, pos: usize| if s == 0 { entries[pos] } else { rows[pos] };
    let counts =
        |start: &[usize]| -> Vec<u32> { start.windows(2).map(|w| (w[1] - w[0]) as u32).collect() };
    let mut count = [counts(col_start), counts(&row_start)];
    let mut done = [vec![false; n], vec![false; n]];
    let mut queue: VecDeque<(usize, u32)> = VecDeque::new();
    for (s, counts) in count.iter().enumerate() {
        queue.extend(
            (0..n as u32)
                .filter(|&k| counts[k as usize] == 1)
                .map(|k| (s, k)),
        );
    }
    while let Some((s, k)) = queue.pop_front() {
        let (k, o) = (k as usize, 1 - s);
        if done[s][k] || count[s][k] != 1 {
            continue;
        }
        let active = span(s, k)
            .map(|pos| cell(s, pos))
            .find(|&(x, _)| !done[o][x as usize]);
        let Some((x, piv)) = active.filter(|e| e.1.abs() >= BASIS_SINGULAR_TOL) else {
            continue; // empty or sub-tolerance: the bump declares singularity
        };
        // The pivot's other line, without the pivot and the lines already
        // peeled: for a column singleton the pivot row's remaining entries,
        // its U row; for a row singleton the pivot column's remaining
        // entries ÷ pivot, its L column. Exact zeros are not stored (they
        // are no-ops in every solve).
        for pos in span(o, x as usize) {
            let (t, v) = cell(o, pos);
            let ti = t as usize;
            if ti == k || done[s][ti] {
                continue;
            }
            if s == 0 {
                if nonzero(v) {
                    lu.u.push((t, v));
                }
            } else if nonzero(v / piv) {
                lu.l.push((t, v / piv));
            }
            count[s][ti] -= 1;
            if count[s][ti] == 1 {
                queue.push_back((s, t));
            }
        }
        done[s][k] = true;
        done[o][x as usize] = true;
        let (row, col) = if s == 0 { (x, k as u32) } else { (k as u32, x) };
        lu.rperm.push(row);
        lu.cperm.push(col);
        lu.pivots.push(piv);
        lu.lstart.push(lu.l.len());
        lu.ustart.push(lu.u.len());
    }
    let [col_done, row_done] = done;
    (row_done, col_done)
}

/// The bump as columns: the entries of the columns the peel left, on the
/// rows it left (peeled columns empty).
fn bump_columns(
    n: usize,
    col_start: &[usize],
    entries: &[(u32, f64)],
    row_done: &[bool],
    col_done: &[bool],
) -> Vec<Vec<(u32, f64)>> {
    (0..n)
        .map(|j| {
            if col_done[j] {
                return Vec::new();
            }
            entries[col_start[j]..col_start[j + 1]]
                .iter()
                .filter(|&&(i, _)| !row_done[i as usize])
                .copied()
                .collect()
        })
        .collect()
}

/// The active columns in the pivot search's order, `(count, column)`
/// ascending: one ascending list of columns per active count.
///
/// A column elimination empties (every pivot column, and a column whose
/// entries all cancel or leave with pivot rows) is only counted. The search
/// still charges each to its `MARKOWITZ_EXAMINE` budget, as if it walked
/// them first, so the pivot sequence is the one the `(count, column)`
/// ordered set with those empty columns in it yields; a structurally empty
/// bump column was never in that set and is not counted.
struct SearchOrder {
    /// `by_count[c]`: the columns with `c >= 1` active entries, ascending;
    /// as long as the largest count listed so far needs.
    by_count: Vec<Vec<u32>>,
    /// No list below this count holds a column.
    lowest: usize,
    /// Columns listed, and columns emptied by elimination.
    listed: usize,
    emptied: usize,
}

impl SearchOrder {
    fn new(cols: &[Vec<(u32, f64)>]) -> Self {
        let mut order = SearchOrder {
            by_count: Vec::new(),
            lowest: usize::MAX,
            listed: 0,
            emptied: 0,
        };
        for (j, col) in cols.iter().enumerate() {
            if !col.is_empty() {
                order.insert(j as u32, col.len());
            }
        }
        order
    }

    /// Lists column `j` under `count` active entries (count 0: emptied).
    fn insert(&mut self, j: u32, count: usize) {
        if count == 0 {
            self.emptied += 1;
            return;
        }
        if count >= self.by_count.len() {
            self.by_count.resize_with(count + 1, Vec::new);
        }
        insert_sorted(&mut self.by_count[count], j);
        self.lowest = self.lowest.min(count);
        self.listed += 1;
    }

    /// Unlists column `j`, which has `count >= 1` active entries.
    fn remove(&mut self, j: u32, count: usize) {
        remove_sorted(&mut self.by_count[count], j);
        self.listed -= 1;
    }

    /// The pivot `(column, row, value)`: the best Markowitz cost
    /// `(count - 1)·(row_count - 1)` among the entries within
    /// `MARKOWITZ_THRESHOLD` of their column's largest magnitude, over the
    /// first `MARKOWITZ_EXAMINE` columns in search order (emptied ones
    /// first) or fewer once a zero-cost pivot is found; ties to the larger
    /// magnitude, then to the earlier candidate. Adds the columns it looked
    /// at to `visited`. `None`: no column has a usable entry.
    fn search(
        &mut self,
        cols: &[Vec<(u32, f64)>],
        row_count: &[u32],
        visited: &mut usize,
    ) -> Option<(u32, u32, f64)> {
        let mut best: Option<(u64, f64, u32, u32, f64)> = None; // (cost, |v|, col, row, v)
        let mut examined = self.emptied;
        let mut walked = 0;
        while self.by_count.get(self.lowest).is_some_and(Vec::is_empty) {
            self.lowest += 1;
        }
        'search: for (cnt, list) in self.by_count.iter().enumerate().skip(self.lowest) {
            for &j in list {
                if let Some((c, ..)) = best {
                    if c == 0 || examined >= MARKOWITZ_EXAMINE {
                        break 'search;
                    }
                }
                examined += 1;
                walked += 1;
                let col = &cols[j as usize];
                let mut colmax = 0.0f64;
                for &(_, v) in col {
                    colmax = colmax.max(v.abs());
                }
                if colmax < BASIS_SINGULAR_TOL {
                    continue;
                }
                for &(i, v) in col {
                    let mag = v.abs();
                    if mag < MARKOWITZ_THRESHOLD * colmax {
                        continue;
                    }
                    let cost = (cnt as u64 - 1) * (row_count[i as usize] as u64 - 1);
                    let better = match best {
                        None => true,
                        Some((bc, bm, ..)) => {
                            cost < bc || (cost == bc && mag.total_cmp(&bm).is_gt())
                        }
                    };
                    if better {
                        best = Some((cost, mag, j, i, v));
                    }
                }
            }
            if walked == self.listed {
                break;
            }
        }
        *visited += walked;
        best.map(|(.., j, i, v)| (j, i, v))
    }
}

/// Markowitz-ordered elimination with threshold pivoting over the bump:
/// `cols` holds the entries the peel left active (peeled columns empty).
/// Returns the columns the pivot searches looked at, a work count.
fn markowitz(cols: Vec<Vec<(u32, f64)>>, lu: &mut SparseLu) -> Result<usize, LinSysError> {
    let mut act = Active::new(lu.n, cols);
    let mut row_count: Vec<u32> = act.rows.iter().map(|r| r.len() as u32).collect();
    let mut order = SearchOrder::new(&act.cols);
    let mut visited = 0;
    for _step in 0..lu.bump {
        let Some((j, i, piv)) = order.search(&act.cols, &row_count, &mut visited) else {
            return Err(LinSysError::Singular);
        };
        if !nonzero(piv) {
            return Err(LinSysError::Singular);
        }
        let (jcol, p) = (j as usize, i as usize);
        // Count bookkeeping must see the state *before* elimination: the
        // pivot column and every column crossing the pivot row leave the
        // order, and come back under their new counts after it.
        order.remove(j, act.cols[jcol].len());
        for &(r, _) in &act.cols[jcol] {
            row_count[r as usize] -= 1;
        }
        for &(t, _) in &act.rows[p] {
            if t != j {
                order.remove(t, act.cols[t as usize].len());
            }
        }
        act.eliminate(jcol, p, piv);
        order.insert(j, 0);
        for &(t, _) in &act.crossed {
            order.insert(t, act.cols[t as usize].len());
        }
        // Fill changes row counts too: recompute for the rows the update
        // touched (the L-entry rows).
        for &(r, _) in &act.lk {
            row_count[r as usize] = act.rows[r as usize].len() as u32;
        }
        lu.push_step(i, j, piv, &act.lk, &act.uk);
    }
    Ok(visited)
}

/// Relative disagreement allowed between a Forrest–Tomlin update's new
/// diagonal and `alpha_q` times the diagonal it replaces (the determinant
/// identity `det B' = alpha_q det B`); beyond it the update is refused and
/// the simplex refactorizes.
const UPDATE_TOL: f64 = 1e-8;
/// Entries the updates since the last factorization may store (spikes, row
/// etas, appended rows), as a multiple of the fresh factors' nonzeros plus
/// the dimension, before [`BasisEngine::wants_refactor`] says so.
const GROWTH_LIMIT: usize = 2;

/// One column replacement of a [`BasisEngine`]: slot `retired` gave way to
/// the new slot `slot`, whose `U` column (the spike, off its diagonal) is
/// `ent[start..mid]` and whose row eta is `ent[mid..end]`.
#[derive(Debug, Clone, Copy)]
struct Update {
    retired: u32,
    slot: u32,
    start: usize,
    mid: usize,
    end: usize,
}

/// A sparse simplex basis: the `L` of a fresh [`SparseLu`], row etas `R`,
/// and an upper-triangular `U` that column replacements and appended rows
/// update in place (Forrest–Tomlin; module docs).
///
/// `U` is indexed by *slot*: slots `0..n` are the fresh factorization's
/// steps, and every appended row and every replacement takes the next
/// slot. `U`'s order is the appended batches (newest first), then the
/// fresh steps, then the replacement slots in creation order. A slot's
/// row is stored row-wise in `u` when it has one (fresh steps, appended
/// rows); a replacement slot's column — its spike — is stored column-wise
/// in `ent`. A replaced slot is *retired*: its diagonal is set to `0.0`,
/// its value stays zero in every ftran and is ignored in every btran.
#[derive(Debug, Default)]
pub struct BasisEngine {
    dim: usize,
    /// Original row of fresh step `k` and the unit-lower-triangular `L`
    /// (targets are steps), as in [`SparseLu`].
    rperm: Vec<u32>,
    lstart: Vec<usize>,
    l: Vec<(u32, f64)>,
    /// Row-stored `U` entries of every slot (`(slot, value)`, each source
    /// later in `U` order); empty for replacement slots.
    ustart: Vec<usize>,
    u: Vec<(u32, f64)>,
    /// Diagonal of every slot; `0.0` marks a retired slot.
    piv: Vec<f64>,
    /// Basis position of every slot (stale for retired slots).
    slot_pos: Vec<u32>,
    /// Slot of appended row `rperm.len() + i`.
    row_slot: Vec<u32>,
    /// Appended batches as slot ranges, oldest first.
    batches: Vec<(u32, u32)>,
    /// Column replacements in creation order. ftran applies each one's
    /// row eta as `z[slot] = z[retired] - Σ m_c z[c]`, then `z[retired] =
    /// 0`.
    updates: Vec<Update>,
    /// The replacements' spikes and etas, then the spike `R L^{-1} a_q` of
    /// the last [`BasisEngine::ftran_entering`], which
    /// [`BasisEngine::replace`] takes over.
    ent: Vec<(u32, f64)>,
    /// `U^{-T} e_s` for the slot `s` of basis position `leaving_pos`: the
    /// `U` stage of the last [`BasisEngine::btran_unit`], which is the
    /// vector [`BasisEngine::replace`] eliminates with.
    leaving: Vec<f64>,
    leaving_pos: Option<usize>,
    /// `u.len()` and `L + U + diagonal` nonzeros of the fresh factors.
    fresh_u: usize,
    fresh_nnz: usize,
}

impl BasisEngine {
    /// Wraps a fresh factorization; takes no allocation beyond the
    /// factorization's own.
    pub fn new(core: SparseLu) -> Self {
        let fresh_nnz = core.nnz();
        let SparseLu {
            n,
            rperm,
            cperm,
            lstart,
            l,
            ustart,
            u,
            pivots,
            ..
        } = core;
        BasisEngine {
            dim: n,
            rperm,
            lstart,
            l,
            ustart,
            fresh_u: u.len(),
            u,
            piv: pivots,
            slot_pos: cperm,
            fresh_nnz,
            ..BasisEngine::default()
        }
    }

    /// Resets the engine, in place, to the factors of the diagonal basis
    /// `pivots` — the simplex crash basis: identity permutations, no `L` or
    /// `U` entries, no updates. Field for field what [`BasisEngine::new`]
    /// makes of those factors; every buffer keeps its storage.
    pub(crate) fn reset_diagonal(&mut self, pivots: &[f64]) {
        let n = pivots.len();
        self.dim = n;
        self.rperm.clear();
        self.rperm.extend(0..n as u32);
        self.slot_pos.clear();
        self.slot_pos.extend(0..n as u32);
        for starts in [&mut self.lstart, &mut self.ustart] {
            starts.clear();
            starts.resize(n + 1, 0);
        }
        self.l.clear();
        self.u.clear();
        self.piv.clear();
        self.piv.extend_from_slice(pivots);
        self.row_slot.clear();
        self.batches.clear();
        self.updates.clear();
        self.ent.clear();
        self.leaving.clear();
        self.leaving_pos = None;
        self.fresh_u = 0;
        self.fresh_nnz = n;
    }

    /// Current basis dimension (fresh factorization plus appended rows).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Column replacements since the fresh factorization.
    pub fn updates(&self) -> usize {
        self.updates.len()
    }

    /// Whether the entries stored since the fresh factorization have grown
    /// past `GROWTH_LIMIT` times its size (a plain counter test).
    pub fn wants_refactor(&self) -> bool {
        let grown = self.u.len() - self.fresh_u + self.committed();
        grown > GROWTH_LIMIT * (self.fresh_nnz + self.dim)
    }

    fn slots(&self) -> usize {
        self.piv.len()
    }

    /// Length of `ent` the replacements own; a saved spike follows.
    fn committed(&self) -> usize {
        self.updates.last().map_or(0, |up| up.end)
    }

    /// The row-stored slots in `U` order, as ranges: appended batches
    /// newest first, then the fresh steps.
    fn row_ranges(&self) -> impl DoubleEndedIterator<Item = std::ops::Range<usize>> + '_ {
        self.batches
            .iter()
            .rev()
            .map(|&(a, b)| a as usize..b as usize)
            .chain(std::iter::once(0..self.rperm.len()))
    }

    /// `z <- R L^{-1} P x` in slot space (`x` indexed by row).
    fn lower_solve(&self, x: &[f64], z: &mut Vec<f64>) {
        z.clear();
        z.resize(self.slots(), 0.0);
        for (zk, &r) in z.iter_mut().zip(&self.rperm) {
            *zk = x[r as usize];
        }
        let n = self.rperm.len();
        for (i, &s) in self.row_slot.iter().enumerate() {
            z[s as usize] = x[n + i];
        }
        for (k, w) in self.lstart.windows(2).enumerate() {
            let v = z[k];
            if nonzero(v) {
                for &(t, l) in &self.l[w[0]..w[1]] {
                    z[t as usize] -= l * v;
                }
            }
        }
        // Each eta moves its retired slot's value, eliminated, to the new
        // slot: retired slots stay zero, so a spike holds live slots only.
        for up in &self.updates {
            let mut v = z[up.retired as usize];
            for &(c, m) in &self.ent[up.mid..up.end] {
                v -= m * z[c as usize];
            }
            z[up.slot as usize] = v;
            z[up.retired as usize] = 0.0;
        }
    }

    /// `x <- U^{-1} z`, scattered to basis positions.
    fn upper_solve(&self, z: &mut [f64], x: &mut [f64]) {
        for up in self.updates.iter().rev() {
            let t = up.slot as usize;
            let p = self.piv[t];
            if is_zero(p) {
                continue;
            }
            let v = z[t] / p;
            z[t] = v;
            if nonzero(v) {
                for &(k, w) in &self.ent[up.start..up.mid] {
                    z[k as usize] -= w * v;
                }
            }
        }
        self.zero_retired(z);
        for range in self.row_ranges().rev() {
            for k in range.rev() {
                let p = self.piv[k];
                if is_zero(p) {
                    continue;
                }
                let mut acc = z[k];
                for &(c, u) in &self.u[self.ustart[k]..self.ustart[k + 1]] {
                    acc -= u * z[c as usize];
                }
                z[k] = acc / p;
            }
        }
        for (k, (&pos, &zk)) in self.slot_pos.iter().zip(z.iter()).enumerate() {
            if nonzero(self.piv[k]) {
                x[pos as usize] = zk;
            }
        }
    }

    /// `z <- U^{-T} z` in slot space: forward through `U` order, the
    /// row-stored slots and then the replacement slots.
    fn upper_transpose_solve(&self, z: &mut [f64]) {
        for range in self.row_ranges() {
            for k in range {
                let p = self.piv[k];
                if is_zero(p) {
                    continue;
                }
                let v = z[k] / p;
                z[k] = v;
                if nonzero(v) {
                    for &(c, u) in &self.u[self.ustart[k]..self.ustart[k + 1]] {
                        z[c as usize] -= u * v;
                    }
                }
            }
        }
        self.zero_retired(z);
        for up in &self.updates {
            let t = up.slot as usize;
            let p = self.piv[t];
            if is_zero(p) {
                continue;
            }
            let mut acc = z[t];
            for &(k, w) in &self.ent[up.start..up.mid] {
                acc -= w * z[k as usize];
            }
            z[t] = acc / p;
        }
    }

    /// Zeroes the retired slots: the stored entries of a retired row or
    /// column are left in place, and this keeps what a solve wrote through
    /// them from reaching a live slot.
    fn zero_retired(&self, z: &mut [f64]) {
        for up in &self.updates {
            z[up.retired as usize] = 0.0;
        }
    }

    /// `x <- B^{-1} x` (ftran): `x` in by row, out by basis position.
    pub fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.dim);
        self.lower_solve(x, scratch);
        self.upper_solve(scratch, x);
    }

    /// [`BasisEngine::ftran`] of an entering column `a_q`, saving its
    /// spike `R L^{-1} a_q` for the [`BasisEngine::replace`] that follows.
    pub fn ftran_entering(&mut self, x: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.dim);
        self.lower_solve(x, scratch);
        self.ent.truncate(self.committed());
        self.ent.extend(
            scratch
                .iter()
                .enumerate()
                .filter(|&(_, &v)| nonzero(v))
                .map(|(k, &v)| (k as u32, v)),
        );
        self.upper_solve(scratch, x);
    }

    /// `y <- B^{-T} y` (btran): `y` in by basis position, out by row.
    pub fn btran(&self, y: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(y.len(), self.dim);
        self.upper_btran(y, scratch);
        self.lower_btran(scratch, y);
    }

    /// `rho <- e_r' B^{-1}`, the pivot row of basis position `r`, keeping
    /// its `U` stage `U^{-T} e_s` for a [`BasisEngine::replace`] of `r`.
    pub fn btran_unit(&mut self, r: usize, rho: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(rho.len(), self.dim);
        rho.fill(0.0);
        rho[r] = 1.0;
        self.upper_btran(rho, scratch);
        self.leaving.clear();
        self.leaving.extend_from_slice(scratch);
        self.leaving_pos = Some(r);
        self.lower_btran(scratch, rho);
    }

    /// `z <- U^{-T} y` in slot space (`y` by basis position).
    fn upper_btran(&self, y: &[f64], z: &mut Vec<f64>) {
        z.clear();
        z.resize(self.slots(), 0.0);
        for (k, &pos) in self.slot_pos.iter().enumerate() {
            if nonzero(self.piv[k]) {
                z[k] = y[pos as usize];
            }
        }
        self.upper_transpose_solve(z);
    }

    /// `y <- P' L^{-T} R^T z` (`y` by row).
    fn lower_btran(&self, z: &mut [f64], y: &mut [f64]) {
        // R^T, newest eta first: the retired slot takes the new slot's
        // value (overwriting whatever U^T left in it).
        for up in self.updates.iter().rev() {
            let v = z[up.slot as usize];
            z[up.retired as usize] = v;
            if nonzero(v) {
                for &(c, m) in &self.ent[up.mid..up.end] {
                    z[c as usize] -= m * v;
                }
            }
        }
        for (k, w) in self.lstart.windows(2).enumerate().rev() {
            let mut acc = z[k];
            for &(t, l) in &self.l[w[0]..w[1]] {
                acc -= l * z[t as usize];
            }
            z[k] = acc;
        }
        for (&zk, &r) in z.iter().zip(&self.rperm) {
            y[r as usize] = zk;
        }
        let n = self.rperm.len();
        for (i, &s) in self.row_slot.iter().enumerate() {
            y[n + i] = z[s as usize];
        }
    }

    /// Forrest–Tomlin update: the column whose spike the last
    /// [`BasisEngine::ftran_entering`] saved replaces basis position
    /// `pos`, where `alpha` is that ftran's entry at `pos`.
    ///
    /// The replaced slot `s` is retired and a new slot, last in `U` order,
    /// takes the spike as its column. The row eta that eliminates row `s`
    /// is `m = -u_ss v` off slot `s`, with `v = U^{-T} e_s` (kept by the
    /// [`BasisEngine::btran_unit`] of `pos`, computed here otherwise); the new
    /// diagonal `u_ss (v · spike)` must equal `alpha u_ss` to
    /// `UPDATE_TOL` (both are `u_ss` times `(U^{-1} spike)_s`). Returns
    /// the entries stored (spike plus eta), or `None` — engine unchanged —
    /// when the check fails, the diagonal is below the singularity
    /// threshold, or no spike was saved.
    pub fn replace(&mut self, pos: usize, alpha: f64) -> Option<usize> {
        let s = (0..self.slots())
            .find(|&k| self.slot_pos[k] as usize == pos && nonzero(self.piv[k]))?;
        let mut v = std::mem::take(&mut self.leaving);
        if self.leaving_pos != Some(pos) {
            v.clear();
            v.resize(self.slots(), 0.0);
            v[s] = 1.0;
            self.upper_transpose_solve(&mut v);
            self.leaving_pos = Some(pos);
        }
        let start = self.committed();
        let uss = self.piv[s];
        let dot: f64 = self.ent[start..]
            .iter()
            .map(|&(k, w)| v[k as usize] * w)
            .sum();
        let diag = uss * dot;
        let stable = diag.abs() >= BASIS_SINGULAR_TOL
            && (diag - alpha * uss).abs() <= UPDATE_TOL * diag.abs();
        if !stable {
            self.leaving = v;
            return None;
        }
        // The spike, off its diagonal, is the new slot's column; the eta
        // follows it.
        if let Some(i) = self.ent[start..].iter().position(|e| e.0 as usize == s) {
            self.ent.remove(start + i);
        }
        let mid = self.ent.len();
        for (c, &vc) in v.iter().enumerate() {
            if c != s && nonzero(vc) {
                self.ent.push((c as u32, -uss * vc));
            }
        }
        let slot = self.slots();
        self.updates.push(Update {
            retired: s as u32,
            slot: slot as u32,
            start,
            mid,
            end: self.ent.len(),
        });
        self.piv[s] = 0.0;
        self.piv.push(diag);
        self.slot_pos.push(pos as u32);
        self.ustart.push(self.u.len());
        self.leaving = v;
        self.leaving_pos = None;
        Some(self.ent.len() - start + 1)
    }

    /// Appends rows `[C, -I]` whose slacks enter the basis: row `t`'s `C`
    /// entries (`(basis position, value)`) are
    /// `entries[starts[t]..starts[t + 1]]`. Each row becomes a new slot
    /// ordered before every existing one, its `U` row the `C` entries with
    /// diagonal `-1`; `L` and `R` are unchanged, since `[[B, 0], [C, -I]] =
    /// [[T^{-1}, 0], [0, I]] · [[U, 0], [C, -I]]` with `T = R L^{-1}`.
    pub fn append_slack_rows(&mut self, starts: &[usize], entries: &[(u32, f64)]) {
        let mut slot_of = vec![0u32; self.dim];
        for (k, &pos) in self.slot_pos.iter().enumerate() {
            if nonzero(self.piv[k]) {
                slot_of[pos as usize] = k as u32;
            }
        }
        let first = self.slots() as u32;
        for (t, w) in starts.windows(2).enumerate() {
            self.u.extend(
                entries[w[0]..w[1]]
                    .iter()
                    .map(|&(pos, v)| (slot_of[pos as usize], v)),
            );
            self.ustart.push(self.u.len());
            self.piv.push(-1.0);
            self.slot_pos.push((self.dim + t) as u32);
            self.row_slot.push(first + t as u32);
        }
        let added = starts.len().saturating_sub(1);
        self.batches.push((first, first + added as u32));
        self.dim += added;
        self.ent.truncate(self.committed());
        self.leaving_pos = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linsys::lu_factor;
    use pcf_rng::{forall, Pcg32};

    fn dense_from(rows: &[&[f64]]) -> DenseMatrix {
        let n = rows.len();
        let mut m = DenseMatrix::zeros(n);
        for (i, r) in rows.iter().enumerate() {
            for (j, &v) in r.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    #[test]
    fn dense_compat_solve_is_bit_identical() {
        let m = dense_from(&[
            &[4.0, -1.0, 0.0, -1.0],
            &[-2.0, 5.0, -1.0, 0.0],
            &[0.0, -1.0, 3.0, -1.0],
            &[-1.0, 0.0, -2.0, 6.0],
        ]);
        let dense = lu_factor(&m).unwrap();
        let slu = SparseLu::factor_dense_compat(&m).unwrap();
        for b in [
            vec![1.0, 2.0, 3.0, 4.0],
            vec![-0.5, 0.0, 7.25, 1e-9],
            vec![0.0, 0.0, 0.0, 0.0],
        ] {
            let xd = dense.solve(&b);
            let xs = slu.solve(&b);
            for (a, e) in xs.iter().zip(&xd) {
                assert_eq!(a.to_bits(), e.to_bits(), "sparse {a} vs dense {e}");
            }
        }
    }

    #[test]
    fn dense_compat_needs_pivoting() {
        // Zero leading diagonal forces row swaps.
        let m = dense_from(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, 1.0], &[4.0, -1.0, 0.5]]);
        let dense = lu_factor(&m).unwrap();
        let slu = SparseLu::factor_dense_compat(&m).unwrap();
        for k in 0..3 {
            let mut b = vec![0.0; 3];
            b[k] = 1.0;
            let xd = dense.solve(&b);
            let xs = slu.solve(&b);
            for (a, e) in xs.iter().zip(&xd) {
                assert_eq!(a.to_bits(), e.to_bits());
            }
        }
    }

    #[test]
    fn dense_compat_detects_singular_exactly_like_dense() {
        let m = dense_from(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(lu_factor(&m).unwrap_err(), LinSysError::Singular);
        assert_eq!(
            SparseLu::factor_dense_compat(&m).unwrap_err(),
            LinSysError::Singular
        );
    }

    #[test]
    fn markowitz_factors_and_solves() {
        // Basis = permuted scaled identity plus some coupling.
        let cols = vec![
            vec![(2usize, 2.0)],
            vec![(0usize, -1.0), (1usize, 3.0)],
            vec![(0usize, 4.0)],
            vec![(1usize, 1.0), (3usize, 5.0)],
        ];
        let a = CscMatrix::from_cols(4, &cols);
        let basis = [0usize, 1, 2, 3];
        let lu = SparseLu::factor_basis(&a, &basis).unwrap();
        // Solve against a dense reference of the same matrix.
        let mut dm = DenseMatrix::zeros(4);
        for (p, &j) in basis.iter().enumerate() {
            for (i, v) in a.col_iter(j) {
                dm.set(i, p, v);
            }
        }
        let b = vec![1.0, -2.0, 3.0, 0.5];
        let x = lu.solve(&b);
        let r = dm.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12, "{ri} vs {bi}");
        }
        // btran solves the transposed system.
        let mut y = b.clone();
        let mut scratch = Vec::new();
        lu.btran_in_place(&mut y, &mut scratch);
        for p in 0..4 {
            let mut acc = 0.0;
            for (i, v) in a.col_iter(basis[p]) {
                acc += v * y[i];
            }
            assert!((acc - b[p]).abs() < 1e-12);
        }
    }

    #[test]
    fn markowitz_reports_singular() {
        let cols = vec![vec![(0usize, 1.0)], vec![(0usize, 2.0)]];
        let a = CscMatrix::from_cols(2, &cols);
        assert_eq!(
            SparseLu::factor_basis(&a, &[0, 1]).unwrap_err(),
            LinSysError::Singular
        );
        // A sub-tolerance singleton is not peeled: it stays in the bump,
        // where singularity is declared.
        let col_start = [0, 1, 3];
        let entries = [(0u32, 1e-13), (0u32, 1.0), (1u32, 2.0)];
        assert_eq!(
            SparseLu::factor_columns(2, &col_start, &entries).map(|lu| lu.bump()),
            Err(LinSysError::Singular)
        );
    }

    #[test]
    fn replacement_tracks_basis_changes() {
        // Start from B = I (2x2), replace column 1 with [1, 2]^T, and check
        // ftran/btran against the explicit new inverse.
        let cols = vec![vec![(0usize, 1.0)], vec![(1usize, 1.0)]];
        let a = CscMatrix::from_cols(2, &cols);
        let lu = SparseLu::factor_basis(&a, &[0, 1]).unwrap();
        let mut eng = BasisEngine::new(lu);
        let mut scratch = Vec::new();
        // d = B^{-1} [1, 2]^T = [1, 2]^T, so alpha = d[1] = 2.
        let mut d = vec![1.0, 2.0];
        eng.ftran_entering(&mut d, &mut scratch);
        assert_eq!(d, vec![1.0, 2.0]);
        // A wrong alpha fails the diagonal check and changes nothing.
        assert_eq!(eng.replace(1, 3.0), None);
        assert_eq!(eng.updates(), 0);
        // Spike [1, 2] in slots 0 and 1: column entry (0, 1), diagonal 2.
        assert_eq!(eng.replace(1, 2.0), Some(2));
        assert_eq!(eng.updates(), 1);
        // New B = [[1, 1], [0, 2]]; B^{-1} = [[1, -0.5], [0, 0.5]].
        let mut x = vec![3.0, 4.0];
        eng.ftran(&mut x, &mut scratch);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        // btran: y = B^{-T} c.
        let mut y = vec![2.0, 2.0];
        eng.btran(&mut y, &mut scratch);
        assert!((y[0] - 2.0).abs() < 1e-12);
        assert!((y[1] - 0.0).abs() < 1e-12);
    }

    #[test]
    fn appended_rows_match_block_inverse() {
        // Core B = diag(2, 4); append one row with C = [1, 1] (positions 0
        // and 1) and a basic slack (diagonal -1).
        let cols = vec![vec![(0usize, 2.0)], vec![(1usize, 4.0)]];
        let a = CscMatrix::from_cols(2, &cols);
        let lu = SparseLu::factor_basis(&a, &[0, 1]).unwrap();
        let mut eng = BasisEngine::new(lu);
        eng.append_slack_rows(&[0, 2], &[(0u32, 1.0), (1u32, 1.0)]);
        assert_eq!(eng.dim(), 3);
        let mut scratch = Vec::new();
        // B_new = [[2,0,0],[0,4,0],[1,1,-1]]. Solve B_new x = [2, 4, 0]:
        // x = [1, 1, 2].
        let mut x = vec![2.0, 4.0, 0.0];
        eng.ftran(&mut x, &mut scratch);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
        // B_new^T y = [0, 0, 1], checked by residual.
        let mut y = vec![0.0, 0.0, 1.0];
        eng.btran(&mut y, &mut scratch);
        let bt = [[2.0, 0.0, 1.0], [0.0, 4.0, 1.0], [0.0, 0.0, -1.0]];
        let want = [0.0, 0.0, 1.0];
        for (row, w) in bt.iter().zip(want) {
            let acc: f64 = row.iter().zip(&y).map(|(a, b)| a * b).sum();
            assert!((acc - w).abs() < 1e-12, "{acc} vs {w}");
        }
    }

    /// A square matrix by columns (`(row, value)`, rows unique per column),
    /// the input of the elimination's differential test.
    #[derive(Debug, Clone)]
    struct Square {
        n: usize,
        cols: Vec<Vec<(u32, f64)>>,
    }

    impl Square {
        /// As the flat CSC `factor_columns` takes.
        fn csc(&self) -> (Vec<usize>, Vec<(u32, f64)>) {
            let mut col_start = vec![0];
            let mut entries = Vec::new();
            for col in &self.cols {
                entries.extend_from_slice(col);
                col_start.push(entries.len());
            }
            (col_start, entries)
        }

        /// Without row and column `k`.
        fn without(&self, k: usize) -> Square {
            let k = k as u32;
            let cols = (self.cols.iter().enumerate())
                .filter(|&(j, _)| j as u32 != k)
                .map(|(_, col)| {
                    col.iter()
                        .filter(|&&(i, _)| i != k)
                        .map(|&(i, v)| (if i > k { i - 1 } else { i }, v))
                        .collect()
                })
                .collect();
            Square {
                n: self.n - 1,
                cols,
            }
        }
    }

    /// A value whose products and differences with the others are exact,
    /// so eliminations cancel exactly where the structure lines up.
    fn dyadic(rng: &mut Pcg32) -> f64 {
        let v = *rng.pick(&[0.5, 1.0, 2.0, 4.0]);
        if rng.chance(0.5) {
            -v
        } else {
            v
        }
    }

    /// A sparse matrix no peel finishes: a dyadic diagonal and cyclic
    /// off-diagonal (every row and column at least two entries), random
    /// extra entries, one dense column (the shape of the master's shared
    /// `z` column), columns that repeat part of another (exact
    /// cancellations), entries below the singleton tolerance or the
    /// threshold, and the odd explicit zero; rows and columns shuffled.
    fn gen_square(rng: &mut Pcg32) -> Square {
        let n = rng.range_usize_inclusive(18, 48);
        let mut dense = vec![0.0; n * n];
        for j in 0..n {
            dense[j * n + j] = 4.0 * dyadic(rng);
            dense[((j + 1) % n) * n + j] = dyadic(rng);
            for i in 0..n {
                if rng.chance(0.04) {
                    dense[i * n + j] = dyadic(rng);
                }
            }
        }
        let z = rng.range_usize(0, n);
        for i in 0..n {
            if rng.chance(0.8) {
                dense[i * n + z] = dyadic(rng);
            }
        }
        for _ in 0..rng.range_usize_inclusive(1, 3) {
            let (from, to) = (rng.range_usize(0, n), rng.range_usize(0, n));
            for i in 0..n {
                if from != to && rng.chance(0.7) {
                    dense[i * n + to] = dense[i * n + from];
                }
            }
        }
        for _ in 0..rng.range_usize(0, 3) {
            let at = rng.range_usize(0, n * n);
            dense[at] = *rng.pick(&[1e-14, -3e-13, 1e-3, -0.01]);
        }
        let mut rows: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut rows);
        let zero_at = rng.chance(0.2).then(|| rng.range_usize(0, n * n));
        let mut cols: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|j| {
                (0..n)
                    .filter(|&i| dense[i * n + j] != 0.0 || zero_at == Some(i * n + j))
                    .map(|i| (rows[i], dense[i * n + j]))
                    .collect()
            })
            .collect();
        rng.shuffle(&mut cols);
        Square { n, cols }
    }

    /// Smaller inputs: one row and column fewer, or one entry fewer.
    fn shrink_square(m: &Square) -> Vec<Square> {
        let mut out: Vec<Square> = (0..m.n).filter(|_| m.n > 1).map(|k| m.without(k)).collect();
        for (j, col) in m.cols.iter().enumerate() {
            for k in 0..col.len() {
                let mut fewer = m.clone();
                fewer.cols[j].remove(k);
                out.push(fewer);
            }
        }
        out
    }

    #[test]
    fn markowitz_equals_the_reference_elimination() {
        let bumped = std::cell::Cell::new(0usize);
        let cases = 400;
        forall(
            "markowitz == reference elimination",
            &pcf_rng::Config::with_cases(cases),
            gen_square,
            shrink_square,
            |m| {
                let (col_start, entries) = m.csc();
                let want = reference::factor_columns(m.n, &col_start, &entries);
                let got = SparseLu::factor_columns(m.n, &col_start, &entries);
                match (want, got) {
                    (Err(a), Err(b)) if a == b => Ok(()),
                    (Ok(a), Ok(b)) => {
                        if a.bump > 16 {
                            bumped.set(bumped.get() + 1);
                        }
                        a.first_difference(&b).map_or(Ok(()), Err)
                    }
                    (a, b) => Err(format!(
                        "reference {:?}, new {:?}",
                        a.map(|lu| lu.bump),
                        b.map(|lu| lu.bump)
                    )),
                }
            },
        );
        // Most cases factor, with a bump the search cap matters on.
        assert!(bumped.get() >= cases / 2, "{} of {cases}", bumped.get());
    }

    #[test]
    fn pivot_search_work_is_bounded_per_pivot() {
        // n = 400 with no singleton row or column: the whole matrix is bump.
        let n = 400;
        let mut rng = Pcg32::seed_from_u64(37);
        let mut cols: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|j| {
                let mut col = vec![(j as u32, 4.0 + rng.f64()), (((j + 1) % n) as u32, 1.0)];
                let extra = rng.range_usize(0, n) as u32;
                if col.iter().all(|&(i, _)| i != extra) {
                    col.push((extra, rng.range_f64(-1.0, 1.0)));
                }
                col
            })
            .collect();
        cols[7] = (0..n as u32)
            .map(|i| (i, rng.range_f64(0.5, 1.0)))
            .collect();
        let m = Square { n, cols };
        let (col_start, entries) = m.csc();
        let mut lu = SparseLu::with_capacity(n, 0);
        let (row_done, col_done) = peel(n, &col_start, &entries, &mut lu);
        lu.bump = n - lu.pivots.len();
        assert!(lu.bump >= 300, "bump {}", lu.bump);
        let bump = lu.bump;
        let cols = bump_columns(n, &col_start, &entries, &row_done, &col_done);
        let visited = markowitz(cols, &mut lu).unwrap();
        // A search that walked the emptied columns would visit about
        // bump² / 2 = 80 000 here.
        assert!(
            visited <= MARKOWITZ_EXAMINE * bump,
            "{visited} columns visited over {bump} pivots"
        );
        let want = reference::factor_columns(n, &col_start, &entries).unwrap();
        assert_eq!(want.first_difference(&lu.finish()), None);
    }
}
