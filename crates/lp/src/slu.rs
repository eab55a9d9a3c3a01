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
//!   substitution (for a reservation matrix that is Prop. 7's proportional
//!   walk). What the peel cannot reach — the *bump*, [`SparseLu::bump`]
//!   rows — goes through Markowitz-ordered elimination with threshold
//!   pivoting, minimizing fill (cost `(col_count-1)·(row_count-1)`)
//!   subject to `|pivot| >= 0.1 · colmax`; candidate columns are examined
//!   in ascending active-count order with a deterministic cap. A singleton
//!   whose pivot is below `BASIS_SINGULAR_TOL` is not peeled: it stays in
//!   the bump, where singularity is declared. The peel walks a row-major
//!   copy of the input and writes every pivot's L column or U row through
//!   one reused buffer. Simplex bases ([`SparseLu::factor_basis`], which
//!   lays the basis columns of a [`CscMatrix`] out as that flat CSC) and
//!   reservation matrices take this path.
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
//! Everything here iterates `Vec`s, a FIFO queue seeded in ascending index
//! order and `BTreeSet`s in index order — no hash maps — so factorization
//! and solves are deterministic.

use crate::float::{is_zero, nonzero};
use crate::linsys::{DenseMatrix, LinSysError};
use crate::sparse::CscMatrix;
use std::collections::{BTreeSet, VecDeque};

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
            let cols: Vec<Vec<(u32, f64)>> = (0..n)
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
                .collect();
            markowitz(cols, &mut lu)?;
        }
        Ok(lu.finish())
    }

    /// An empty factorization of dimension `n` with room for `off_diag`
    /// L and U entries each, to be filled one pivot at a time by
    /// [`SparseLu::push_step`] and closed by [`SparseLu::finish`].
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
        let mut step_of = vec![0u32; self.n];
        for (k, &r) in self.rperm.iter().enumerate() {
            step_of[r as usize] = k as u32;
        }
        for (r, _) in &mut self.l {
            *r = step_of[*r as usize];
        }
        for (k, &c) in self.cperm.iter().enumerate() {
            step_of[c as usize] = k as u32;
        }
        for (c, _) in &mut self.u {
            *c = step_of[*c as usize];
        }
        for w in self.ustart.windows(2) {
            self.u[w[0]..w[1]].sort_unstable_by_key(|&(c, _)| c);
        }
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

/// Shared elimination workspace: active columns plus row membership.
struct Active {
    /// Active entries per column: rows not yet eliminated. Order within a
    /// column is maintained deterministically but is not sorted.
    cols: Vec<Vec<(u32, f64)>>,
    /// For each row, the set of active columns containing it.
    row_cols: Vec<BTreeSet<u32>>,
    /// Dense scatter workspace keyed by original row, with an epoch mark.
    work: Vec<f64>,
    mark: Vec<usize>,
    epoch: usize,
}

impl Active {
    fn new(n: usize, cols: Vec<Vec<(u32, f64)>>) -> Self {
        let mut row_cols: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for (j, col) in cols.iter().enumerate() {
            for &(i, _) in col {
                row_cols[i as usize].insert(j as u32);
            }
        }
        Active {
            cols,
            row_cols,
            work: vec![0.0; n],
            mark: vec![usize::MAX; n],
            epoch: 0,
        }
    }

    /// Eliminates pivot `(p, piv)` sitting in column `jcol`: extracts the
    /// L multipliers from the pivot column, the U row across the remaining
    /// active columns (ascending column order), and applies the rank-one
    /// update to every affected column. Returns `(l_entries, u_entries)`
    /// with original row / column indices.
    #[expect(clippy::type_complexity, reason = "used once; a name adds nothing")]
    fn eliminate(&mut self, jcol: usize, p: usize, piv: f64) -> (Vec<(u32, f64)>, Vec<(u32, f64)>) {
        // L multipliers from the pivot column (exact zeros dropped: they
        // are no-ops both as updates and in later solves).
        let mut lk: Vec<(u32, f64)> = Vec::new();
        for &(i, v) in &self.cols[jcol] {
            if i as usize == p {
                continue;
            }
            let f = v / piv;
            if nonzero(f) {
                lk.push((i, f));
            }
        }
        // Detach the pivot column.
        for &(i, _) in &self.cols[jcol] {
            self.row_cols[i as usize].remove(&(jcol as u32));
        }
        self.cols[jcol].clear();
        // The pivot row's remaining active columns, in ascending order
        // (this fixes the U-row entry order and the update order).
        let pivot_row_cols: Vec<u32> = self.row_cols[p].iter().copied().collect();
        self.row_cols[p].clear();
        let mut uk: Vec<(u32, f64)> = Vec::with_capacity(pivot_row_cols.len());
        let mut present: Vec<u32> = Vec::new();
        for &t in &pivot_row_cols {
            let tj = t as usize;
            let Some(idx) = self.cols[tj].iter().position(|&(i, _)| i as usize == p) else {
                continue; // membership and storage disagree; skip defensively
            };
            let (_, u) = self.cols[tj].swap_remove(idx);
            if !nonzero(u) {
                continue; // a zero stored entry updates nothing
            }
            uk.push((t, u));
            // Column update a[r][t] -= f * u via dense scatter, exactly
            // the dense elimination's per-cell operation.
            self.epoch += 1;
            let epoch = self.epoch;
            present.clear();
            let old_len = self.cols[tj].len();
            for &(i, v) in &self.cols[tj] {
                self.work[i as usize] = v;
                self.mark[i as usize] = epoch;
                present.push(i);
            }
            for &(r, f) in &lk {
                let ri = r as usize;
                if self.mark[ri] != epoch {
                    self.work[ri] = 0.0;
                    self.mark[ri] = epoch;
                    present.push(r);
                }
                self.work[ri] -= f * u;
            }
            self.cols[tj].clear();
            for (idx, &i) in present.iter().enumerate() {
                let v = self.work[i as usize];
                let was_old = idx < old_len;
                if nonzero(v) {
                    self.cols[tj].push((i, v));
                    if !was_old {
                        self.row_cols[i as usize].insert(t);
                    }
                } else if was_old {
                    // Exact cancellation: dropping the entry is an exact
                    // no-op for every later operation.
                    self.row_cols[i as usize].remove(&t);
                }
            }
        }
        (lk, uk)
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
    let mut lu = SparseLu::with_capacity(n, 0);
    lu.bump = n;
    for k in 0..n {
        // Scatter column k for value lookups by original row.
        act.epoch += 1;
        let epoch = act.epoch;
        for &(i, v) in &act.cols[k] {
            act.work[i as usize] = v;
            act.mark[i as usize] = epoch;
        }
        let val = |i: u32| {
            if act.mark[i as usize] == epoch {
                act.work[i as usize]
            } else {
                0.0
            }
        };
        let mut p_pos = k;
        let mut best = val(phys[k]).abs();
        for (pos, &row) in phys.iter().enumerate().take(n).skip(k + 1) {
            let v = val(row).abs();
            if v > best {
                best = v;
                p_pos = pos;
            }
        }
        if best < 1e-13 {
            return Err(LinSysError::Singular);
        }
        phys.swap(k, p_pos);
        let p = phys[k];
        let piv = val(p);
        let (lk, uk) = act.eliminate(k, p as usize, piv);
        lu.push_step(p, k as u32, piv, &lk, &uk);
    }
    // Natural column order: cperm is the identity, so `finish` leaves the
    // U rows (already ascending) as they are.
    Ok(lu.finish())
}

/// The singleton peel (module docs): pivots every row or column with one
/// active entry, repeatedly, in FIFO order from a queue seeded with the
/// column singletons then the row singletons, each in ascending index
/// order. Returns which rows and columns were pivoted; the flat CSC input
/// is only read (a peel pivot changes no stored value).
fn peel(
    n: usize,
    col_start: &[usize],
    entries: &[(u32, f64)],
    lu: &mut SparseLu,
) -> (Vec<bool>, Vec<bool>) {
    // Row-major copy of the entries, so a pivot row can be walked: count
    // into `row_start[i + 1]`, prefix-sum, fill (advancing `row_start[i]`
    // to the end of row `i`), then shift the starts back into place.
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
    // lists `(index in the other orientation, value)`.
    let line = |s: usize, k: usize| -> &[(u32, f64)] {
        if s == 0 {
            &entries[col_start[k]..col_start[k + 1]]
        } else {
            &rows[row_start[k]..row_start[k + 1]]
        }
    };
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
    // The pivot's L column or U row, rebuilt in place for every pivot.
    let mut cross: Vec<(u32, f64)> = Vec::new();
    while let Some((s, k)) = queue.pop_front() {
        let (k, o) = (k as usize, 1 - s);
        if done[s][k] || count[s][k] != 1 {
            continue;
        }
        let active = line(s, k).iter().find(|&&(x, _)| !done[o][x as usize]);
        let Some(&(x, piv)) = active.filter(|e| e.1.abs() >= BASIS_SINGULAR_TOL) else {
            continue; // empty or sub-tolerance: the bump declares singularity
        };
        // The pivot's other line: a column singleton keeps its pivot row's
        // remaining entries as the U row, a row singleton its pivot
        // column's remaining entries / pivot as the L column.
        cross.clear();
        for &(t, v) in line(o, x as usize) {
            let ti = t as usize;
            if ti == k || done[s][ti] {
                continue;
            }
            let e = if s == 0 { v } else { v / piv };
            if nonzero(e) {
                cross.push((t, e));
            }
            count[s][ti] -= 1;
            if count[s][ti] == 1 {
                queue.push_back((s, t));
            }
        }
        done[s][k] = true;
        done[o][x as usize] = true;
        if s == 0 {
            lu.push_step(x, k as u32, piv, &[], &cross);
        } else {
            lu.push_step(k as u32, x, piv, &cross, &[]);
        }
    }
    let [col_done, row_done] = done;
    (row_done, col_done)
}

/// Markowitz-ordered elimination with threshold pivoting over the bump:
/// `cols` holds the entries the peel left active (peeled columns empty).
fn markowitz(cols: Vec<Vec<(u32, f64)>>, lu: &mut SparseLu) -> Result<(), LinSysError> {
    let mut act = Active::new(lu.n, cols);
    let mut row_count: Vec<u32> = act.row_cols.iter().map(|rc| rc.len() as u32).collect();
    // (active entry count, column) in ascending order drives the search.
    // Peeled columns are empty; so is a structurally empty bump column,
    // which no pivot can use either way (the loop then runs out of
    // candidates and reports singularity).
    let mut colorder: BTreeSet<(u32, u32)> = act
        .cols
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.is_empty())
        .map(|(j, c)| (c.len() as u32, j as u32))
        .collect();
    for _step in 0..lu.bump {
        // ---- Pivot search: best Markowitz cost among a bounded prefix of
        // the sparsest active columns, ties to the larger magnitude, then
        // to the earlier candidate (deterministic scan order). ----
        let mut best: Option<(u64, f64, u32, u32)> = None; // (cost, |v|, col, row)
        for (examined, &(cnt, j)) in colorder.iter().enumerate() {
            if let Some((c, ..)) = best {
                if c == 0 || examined >= MARKOWITZ_EXAMINE {
                    break;
                }
            }
            let col = &act.cols[j as usize];
            debug_assert_eq!(col.len() as u32, cnt);
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
                    Some((bc, bm, ..)) => cost < bc || (cost == bc && mag.total_cmp(&bm).is_gt()),
                };
                if better {
                    best = Some((cost, mag, j, i));
                }
            }
        }
        let Some((_, _, j, i)) = best else {
            return Err(LinSysError::Singular);
        };
        let jcol = j as usize;
        let p = i as usize;
        let piv = act.cols[jcol]
            .iter()
            .find(|&&(r, _)| r == i)
            .map(|&(_, v)| v)
            .unwrap_or(0.0);
        if !nonzero(piv) {
            return Err(LinSysError::Singular);
        }
        // Count bookkeeping must see the state *before* elimination.
        colorder.remove(&(act.cols[jcol].len() as u32, j));
        for &(r, _) in &act.cols[jcol] {
            row_count[r as usize] -= 1;
        }
        // Columns losing their pivot-row entry (and gaining/losing fill)
        // get their counts rebuilt after elimination.
        let touched: Vec<u32> = act.row_cols[p].iter().copied().collect();
        let before: Vec<(u32, u32)> = touched
            .iter()
            .map(|&t| (t, act.cols[t as usize].len() as u32))
            .collect();
        let (lk, uk) = act.eliminate(jcol, p, piv);
        for &(t, old_cnt) in &before {
            colorder.remove(&(old_cnt, t));
            colorder.insert((act.cols[t as usize].len() as u32, t));
        }
        // Fill changes row counts too: recompute for the rows the update
        // touched (the L-entry rows).
        for &(r, _) in &lk {
            row_count[r as usize] = act.row_cols[r as usize].len() as u32;
        }
        lu.push_step(i, j, piv, &lk, &uk);
    }
    Ok(())
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
}
