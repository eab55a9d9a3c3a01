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
//! [`BasisEngine`] wraps a core factorization plus an ordered op file:
//! product-form **eta** updates (one per simplex pivot, the
//! Forrest–Tomlin-style alternative of keeping the update sparse instead
//! of re-forming an inverse) and **border** extensions (the block
//! `[[B, 0], [C, D]]` step a warm start performs when rows are appended).
//! Ops compose in append order for ftran and reverse order for btran, so
//! borders and etas may interleave arbitrarily: a warm start never forces
//! a refactorization.
//!
//! Everything here iterates `Vec`s, a FIFO queue seeded in ascending index
//! order and `BTreeSet`s in index order — no hash maps — so factorization
//! and solves are deterministic.

use crate::float::nonzero;
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
    #[allow(clippy::type_complexity)]
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

/// One entry of the basis-engine op file.
enum BasisOp {
    /// Product-form update: column `entries ∪ {(pos, pivot)}` of
    /// `B^{-1} A_q` replaced basis position `pos`.
    Eta {
        pos: u32,
        pivot: f64,
        entries: Vec<(u32, f64)>,
    },
    /// Bordered extension `[[B, 0], [C, D]]`: `rows[t]` holds the `C`
    /// entries (by basis position `< start`) and diagonal `d` of appended
    /// basis row `start + t`.
    Border {
        start: usize,
        rows: Vec<(Vec<(u32, f64)>, f64)>,
    },
}

/// A sparse simplex basis: a core [`SparseLu`] plus an ordered op file of
/// eta updates and border extensions (see module docs).
pub struct BasisEngine {
    dim: usize,
    core: SparseLu,
    ops: Vec<BasisOp>,
    etas: usize,
    eta_nnz: usize,
}

impl BasisEngine {
    /// Wraps a fresh factorization (op file empty).
    pub fn new(core: SparseLu) -> Self {
        BasisEngine {
            dim: core.n(),
            core,
            ops: Vec::new(),
            etas: 0,
            eta_nnz: 0,
        }
    }

    /// Current basis dimension (core plus borders).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Eta updates applied since the last refactorization.
    pub fn etas(&self) -> usize {
        self.etas
    }

    /// Whether the eta file has grown enough that refactorizing is cheaper
    /// than continuing to apply it (deterministic size heuristic).
    pub fn wants_refactor(&self) -> bool {
        self.eta_nnz > 20 * (self.core.nnz() + self.dim) + 512
    }

    /// Frees the op file ahead of a refactorization that will replace this
    /// engine: solves are meaningless until it has been replaced.
    pub(crate) fn clear_ops(&mut self) {
        self.ops = Vec::new();
    }

    /// Records a product-form update: `d = B^{-1} A_q` replaces basis
    /// position `r`. `d[r]` must be the (nonzero) pivot.
    pub fn push_eta(&mut self, r: usize, d: &[f64]) {
        debug_assert_eq!(d.len(), self.dim);
        let nnz = d.iter().filter(|&&v| nonzero(v)).count();
        let mut entries = Vec::with_capacity(nnz.saturating_sub(1));
        for (i, &v) in d.iter().enumerate() {
            if i != r && nonzero(v) {
                entries.push((i as u32, v));
            }
        }
        self.eta_nnz += entries.len() + 1;
        self.etas += 1;
        self.ops.push(BasisOp::Eta {
            pos: r as u32,
            pivot: d[r],
            entries,
        });
    }

    /// Extends the basis with appended rows: `rows[t]` is the pair of `C`
    /// entries (old basis positions) and the diagonal of the new basic
    /// column in appended row `t`.
    pub fn append_border(&mut self, rows: Vec<(Vec<(u32, f64)>, f64)>) {
        let start = self.dim;
        self.dim += rows.len();
        self.eta_nnz += rows.iter().map(|(c, _)| c.len() + 1).sum::<usize>();
        self.ops.push(BasisOp::Border { start, rows });
    }

    /// `x <- B^{-1} x` (ftran): core solve on the leading block, then the
    /// op file in append order.
    pub fn ftran(&self, x: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(x.len(), self.dim);
        self.core.ftran_in_place(&mut x[..self.core.n()], scratch);
        for op in &self.ops {
            match op {
                BasisOp::Eta {
                    pos,
                    pivot,
                    entries,
                } => {
                    let r = *pos as usize;
                    let xr = x[r] / pivot;
                    if nonzero(xr) {
                        for &(i, v) in entries {
                            x[i as usize] -= v * xr;
                        }
                    }
                    x[r] = xr;
                }
                BasisOp::Border { start, rows } => {
                    for (t, (c, dt)) in rows.iter().enumerate() {
                        let i = start + t;
                        let mut acc = x[i];
                        for &(p, cv) in c {
                            acc -= cv * x[p as usize];
                        }
                        x[i] = acc / dt;
                    }
                }
            }
        }
    }

    /// `y <- B^{-T} y` (btran): op file in reverse order, then the core.
    pub fn btran(&self, y: &mut [f64], scratch: &mut Vec<f64>) {
        debug_assert_eq!(y.len(), self.dim);
        for op in self.ops.iter().rev() {
            match op {
                BasisOp::Eta {
                    pos,
                    pivot,
                    entries,
                } => {
                    let r = *pos as usize;
                    let mut acc = y[r];
                    for &(i, v) in entries {
                        acc -= v * y[i as usize];
                    }
                    y[r] = acc / pivot;
                }
                BasisOp::Border { start, rows } => {
                    for (t, (c, dt)) in rows.iter().enumerate() {
                        let i = start + t;
                        let w = y[i] / dt;
                        y[i] = w;
                        if nonzero(w) {
                            for &(p, cv) in c {
                                y[p as usize] -= cv * w;
                            }
                        }
                    }
                }
            }
        }
        self.core.btran_in_place(&mut y[..self.core.n()], scratch);
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
    fn eta_updates_track_basis_changes() {
        // Start from B = I (2x2), replace column 1 with [1, 2]^T via an
        // eta, and check ftran/btran against the explicit new inverse.
        let cols = vec![vec![(0usize, 1.0)], vec![(1usize, 1.0)]];
        let a = CscMatrix::from_cols(2, &cols);
        let lu = SparseLu::factor_basis(&a, &[0, 1]).unwrap();
        let mut eng = BasisEngine::new(lu);
        let mut scratch = Vec::new();
        // d = B^{-1} [1, 2]^T = [1, 2]^T.
        eng.push_eta(1, &[1.0, 2.0]);
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
    fn border_extension_matches_block_inverse() {
        // Core B = diag(2, 4); border appends one row with C = [1, 1]
        // (positions 0 and 1) and d = -1.
        let cols = vec![vec![(0usize, 2.0)], vec![(1usize, 4.0)]];
        let a = CscMatrix::from_cols(2, &cols);
        let lu = SparseLu::factor_basis(&a, &[0, 1]).unwrap();
        let mut eng = BasisEngine::new(lu);
        eng.append_border(vec![(vec![(0u32, 1.0), (1u32, 1.0)], -1.0)]);
        assert_eq!(eng.dim(), 3);
        let mut scratch = Vec::new();
        // B_new = [[2,0,0],[0,4,0],[1,1,-1]]. Solve B_new x = [2, 4, 0]:
        // x = [1, 1, 2].
        let mut x = vec![2.0, 4.0, 0.0];
        eng.ftran(&mut x, &mut scratch);
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
        assert!((x[2] - 2.0).abs() < 1e-12);
        // B_new^T y = [0, 0, 1] -> y = [ 1/2 * ... ] check by residual.
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
