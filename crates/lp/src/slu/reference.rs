//! The Markowitz elimination as it was before count buckets and in-place
//! column updates: a `BTreeSet<(count, column)>` search order, per-row
//! `BTreeSet`s of active columns, and every touched column scattered and
//! rebuilt. Kept for tests only, as the reference the shipped elimination
//! must equal field for field ([`factor_columns`]).

use super::{peel, SparseLu, BASIS_SINGULAR_TOL, MARKOWITZ_EXAMINE, MARKOWITZ_THRESHOLD};
use crate::float::nonzero;
use crate::linsys::LinSysError;
use std::collections::BTreeSet;

/// [`SparseLu::factor_columns`] with the reference elimination on the bump.
pub(super) fn factor_columns(
    n: usize,
    col_start: &[usize],
    entries: &[(u32, f64)],
) -> Result<SparseLu, LinSysError> {
    let mut lu = SparseLu::with_capacity(n, entries.len().saturating_sub(n));
    let (row_done, col_done) = peel(n, col_start, entries, &mut lu);
    lu.bump = n - lu.pivots.len();
    if lu.bump > 0 {
        let cols = super::bump_columns(n, col_start, entries, &row_done, &col_done);
        markowitz(cols, &mut lu)?;
    }
    Ok(lu.finish())
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
