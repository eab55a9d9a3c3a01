//! Compressed sparse column (CSC) matrix storage.
//!
//! [`CscMatrix`] is the constraint-matrix container of the revised simplex
//! in [`crate::simplex`]: one contiguous `(rowidx, values)` arena indexed by
//! `colptr`, replacing the former per-column `Vec<Vec<(usize, f64)>>`. The
//! layout keeps every column a contiguous slice pair, which is what the
//! pricing loop, the basis factorization in [`crate::slu`], and the ftran
//! column gathers all iterate over.
//!
//! Columns can be appended at any time (slacks and artificials during
//! standardization, fresh slack/artificial columns per appended row in
//! [`crate::incremental`]). Entries for *appended rows* land in existing
//! columns via [`CscMatrix::append_rows`], a single O(nnz) rebuild per
//! batch of appended rows — warm starts append all rows of a cutting-plane
//! round in one rebuild.
//!
//! Row indices are `u32`: the WAN models top out well below 4 billion rows,
//! and halving the index width keeps the factorization working set smaller.

/// A sparse matrix in compressed sparse column form.
///
/// Entries within a column are stored in ascending row order; duplicate
/// entries within a column are not allowed (the model layer has already
/// summed duplicates).
#[derive(Debug, Clone, Default)]
pub struct CscMatrix {
    nrows: usize,
    colptr: Vec<usize>,
    rowidx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// An empty matrix with `nrows` rows and no columns.
    pub fn new(nrows: usize) -> Self {
        CscMatrix {
            nrows,
            colptr: vec![0],
            rowidx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Builds from per-column entry lists (entries need not be sorted).
    pub fn from_cols(nrows: usize, cols: &[Vec<(usize, f64)>]) -> Self {
        let nnz: usize = cols.iter().map(Vec::len).sum();
        let mut m = CscMatrix {
            nrows,
            colptr: Vec::with_capacity(cols.len() + 1),
            rowidx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        m.colptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for col in cols {
            scratch.clear();
            scratch.extend_from_slice(col);
            scratch.sort_unstable_by_key(|&(i, _)| i);
            for &(i, v) in &scratch {
                debug_assert!(i < nrows, "row index out of range");
                m.rowidx.push(i as u32);
                m.values.push(v);
            }
            m.colptr.push(m.rowidx.len());
        }
        m
    }

    /// Rebuilds the matrix as `nrows × ncols` from its rows, keeping the
    /// storage: `row(i)` yields the `(column, value)` entries of row `i`,
    /// each column at most once. A counting pass sizes the columns and a
    /// fill pass visits the rows in ascending order (advancing each
    /// column's start to its end, then shifting the starts back), so every
    /// column comes out sorted by row with no sort, no per-column list and
    /// no cursor array. Equal to [`CscMatrix::from_cols`] of the same
    /// entries. The storage has room for `spare` more columns of one entry
    /// each, so pushing them reallocates nothing.
    pub(crate) fn fill_from_rows<I>(
        &mut self,
        nrows: usize,
        ncols: usize,
        spare: usize,
        row: impl Fn(usize) -> I,
    ) where
        I: IntoIterator<Item = (usize, f64)>,
    {
        let CscMatrix {
            colptr,
            rowidx,
            values,
            ..
        } = self;
        colptr.clear();
        colptr.reserve(ncols + 1 + spare);
        colptr.resize(ncols + 1, 0usize);
        for i in 0..nrows {
            for (j, _) in row(i) {
                colptr[j + 1] += 1;
            }
        }
        for j in 0..ncols {
            colptr[j + 1] += colptr[j];
        }
        let nnz = colptr[ncols];
        rowidx.clear();
        rowidx.reserve(nnz + spare);
        rowidx.resize(nnz, 0u32);
        values.clear();
        values.reserve(nnz + spare);
        values.resize(nnz, 0.0);
        for i in 0..nrows {
            for (j, v) in row(i) {
                rowidx[colptr[j]] = i as u32;
                values[colptr[j]] = v;
                colptr[j] += 1;
            }
        }
        colptr.copy_within(0..ncols, 1);
        colptr[0] = 0;
        self.nrows = nrows;
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.colptr.len() - 1
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowidx.len()
    }

    /// The (row indices, values) slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        (&self.rowidx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates column `j` as `(row, value)` pairs.
    #[inline]
    pub fn col_iter(&self, j: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&i, &v)| (i as usize, v))
    }

    /// Makes room for `cols` more columns holding `nnz` more entries, so
    /// that pushing them reallocates nothing.
    pub(crate) fn reserve(&mut self, cols: usize, nnz: usize) {
        self.colptr.reserve(cols);
        self.rowidx.reserve(nnz);
        self.values.reserve(nnz);
    }

    /// Appends a column (entries sorted by row internally) and returns its
    /// index.
    pub fn push_col(&mut self, entries: impl IntoIterator<Item = (usize, f64)>) -> usize {
        let start = self.rowidx.len();
        for (i, v) in entries {
            debug_assert!(i < self.nrows, "row index out of range");
            self.rowidx.push(i as u32);
            self.values.push(v);
        }
        // Keep the invariant: ascending row order within the column.
        if !self.rowidx[start..].is_sorted() {
            let mut pairs: Vec<(u32, f64)> = self.rowidx[start..]
                .iter()
                .copied()
                .zip(self.values[start..].iter().copied())
                .collect();
            pairs.sort_unstable_by_key(|&(i, _)| i);
            for (k, (i, v)) in pairs.into_iter().enumerate() {
                self.rowidx[start + k] = i;
                self.values[start + k] = v;
            }
        }
        self.colptr.push(self.rowidx.len());
        self.colptr.len() - 2
    }

    /// Grows the matrix to `new_nrows` rows and inserts `adds` entries
    /// (`(col, row, value)` triples, each `row >= ` the old row count) into
    /// their columns. One O(nnz + adds) rebuild for the whole batch.
    ///
    /// # Panics
    /// Debug-asserts that every added entry references an existing column
    /// and a newly appended row.
    pub fn append_rows(&mut self, new_nrows: usize, adds: &[(usize, usize, f64)]) {
        debug_assert!(new_nrows >= self.nrows);
        self.nrows = new_nrows;
        if adds.is_empty() {
            return;
        }
        let ncols = self.ncols();
        // Count appended entries per column.
        let mut extra = vec![0usize; ncols];
        for &(j, i, _) in adds {
            debug_assert!(j < ncols, "column index out of range");
            debug_assert!(i < new_nrows, "row index out of range");
            extra[j] += 1;
        }
        let mut colptr = Vec::with_capacity(ncols + 1);
        colptr.push(0usize);
        for j in 0..ncols {
            let len = (self.colptr[j + 1] - self.colptr[j]) + extra[j];
            colptr.push(colptr[j] + len);
        }
        let nnz = colptr[ncols];
        let mut rowidx = vec![0u32; nnz];
        let mut values = vec![0.0f64; nnz];
        // Old entries keep their order (sorted, and all below the old row
        // count); appended entries go behind them.
        let mut cursor: Vec<usize> = colptr[..ncols].to_vec();
        for (j, c) in cursor.iter_mut().enumerate() {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            rowidx[*c..*c + (hi - lo)].copy_from_slice(&self.rowidx[lo..hi]);
            values[*c..*c + (hi - lo)].copy_from_slice(&self.values[lo..hi]);
            *c += hi - lo;
        }
        // `adds` arrive grouped by appended row in ascending order (one
        // batch per warm start), preserving the sorted-column invariant.
        for &(j, i, v) in adds {
            let c = cursor[j];
            debug_assert!(
                c == colptr[j] || rowidx[c - 1] < i as u32,
                "unsorted append"
            );
            rowidx[c] = i as u32;
            values[c] = v;
            cursor[j] += 1;
        }
        self.colptr = colptr;
        self.rowidx = rowidx;
        self.values = values;
    }

    /// Scatters column `j` into the dense buffer `out` (which must be
    /// zeroed by the caller where no entry lands).
    pub fn gather_col(&self, j: usize, out: &mut [f64]) {
        for (i, v) in self.col_iter(j) {
            out[i] = v;
        }
    }

    /// Sparse dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&i, &v) in rows.iter().zip(vals) {
            acc += y[i as usize] * v;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cols_and_accessors() {
        let cols = vec![vec![(2, 3.0), (0, 1.0)], vec![], vec![(1, -4.0)]];
        let m = CscMatrix::from_cols(3, &cols);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 3);
        assert_eq!(m.nnz(), 3);
        // Sorted by row within the column.
        let (r0, v0) = m.col(0);
        assert_eq!(r0, &[0, 2]);
        assert_eq!(v0, &[1.0, 3.0]);
        assert_eq!(m.col(1).0.len(), 0);
        assert_eq!(m.col_iter(2).collect::<Vec<_>>(), vec![(1, -4.0)]);
    }

    #[test]
    fn push_col_appends_sorted() {
        let mut m = CscMatrix::new(4);
        let j = m.push_col(vec![(3, 1.0), (0, 2.0)]);
        assert_eq!(j, 0);
        assert_eq!(m.col(0).0, &[0, 3]);
        let j = m.push_col(vec![(1, -1.0)]);
        assert_eq!(j, 1);
        assert_eq!(m.ncols(), 2);
    }

    #[test]
    fn append_rows_inserts_into_existing_columns() {
        let cols = vec![vec![(0, 1.0)], vec![(1, 2.0)]];
        let mut m = CscMatrix::from_cols(2, &cols);
        m.append_rows(4, &[(0, 2, 5.0), (1, 2, 6.0), (0, 3, 7.0)]);
        assert_eq!(m.nrows(), 4);
        assert_eq!(
            m.col_iter(0).collect::<Vec<_>>(),
            vec![(0, 1.0), (2, 5.0), (3, 7.0)]
        );
        assert_eq!(m.col_iter(1).collect::<Vec<_>>(), vec![(1, 2.0), (2, 6.0)]);
    }

    #[test]
    fn col_dot_matches_dense() {
        let cols = vec![vec![(0, 1.0), (2, 3.0)]];
        let m = CscMatrix::from_cols(3, &cols);
        assert_eq!(m.col_dot(0, &[2.0, 100.0, -1.0]), 2.0 - 3.0);
    }
}
