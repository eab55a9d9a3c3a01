//! Property tests for the sparse basis engine, and the simplex on degenerate
//! model shapes.
//!
//! The dense LU in `linsys` is the reference implementation: the sparse
//! engine's dense-compat factorization must be *bit-identical* to it, the
//! triangular-first factorization (`factor_columns`: singleton peel, then
//! Markowitz on the bump) must agree with it to rounding and on
//! singularity, Forrest–Tomlin basis updates must track refactorization,
//! and every optimum of a model with empty rows, fixed columns, zero-cost
//! singleton columns or proportional duplicate rows must be a KKT point of
//! the model as written.

mod common;

use common::{kkt_check, RandLp};
use pcf_lp::{lu_factor, BasisEngine, CscMatrix, DenseMatrix, Sense, SparseLu, Status};
use pcf_rng::{forall, no_shrink, Config, Pcg32};

/// A random square matrix with controlled density, sometimes ill-scaled.
#[derive(Debug, Clone)]
struct RandMat {
    n: usize,
    /// Dense row-major entries (zeros included).
    a: Vec<f64>,
    rhs: Vec<f64>,
}

fn gen_mat(rng: &mut Pcg32) -> RandMat {
    let n = rng.range_usize_inclusive(2, 7);
    let density = rng.range_f64(0.3, 1.0);
    let mut a = vec![0.0; n * n];
    for (k, slot) in a.iter_mut().enumerate() {
        let (i, j) = (k / n, k % n);
        // Keep the diagonal mostly populated so singular draws stay rare
        // (the property still handles them).
        if i == j || rng.chance(density) {
            *slot = rng.range_f64(-4.0, 4.0);
        }
    }
    // Occasionally make a column tiny to probe near-singularity handling.
    if rng.chance(0.15) {
        let j = rng.range_usize(0, n);
        let scale = if rng.chance(0.5) { 1e-10 } else { 1e-14 };
        for i in 0..n {
            a[i * n + j] *= scale;
        }
    }
    let rhs = (0..n).map(|_| rng.range_f64(-10.0, 10.0)).collect();
    RandMat { n, a, rhs }
}

fn dense_of(m: &RandMat) -> DenseMatrix {
    let mut d = DenseMatrix::zeros(m.n);
    for i in 0..m.n {
        for j in 0..m.n {
            d.set(i, j, m.a[i * m.n + j]);
        }
    }
    d
}

fn csc_of(m: &RandMat) -> CscMatrix {
    let cols: Vec<Vec<(usize, f64)>> = (0..m.n)
        .map(|j| {
            (0..m.n)
                .filter(|&i| m.a[i * m.n + j] != 0.0)
                .map(|i| (i, m.a[i * m.n + j]))
                .collect()
        })
        .collect();
    CscMatrix::from_cols(m.n, &cols)
}

fn residual(m: &RandMat, x: &[f64], b: &[f64]) -> f64 {
    let mut worst = 0.0f64;
    for (i, &bi) in b.iter().enumerate().take(m.n) {
        let ax: f64 = (0..m.n).map(|j| m.a[i * m.n + j] * x[j]).sum();
        worst = worst.max((ax - bi).abs());
    }
    worst
}

fn mat_norm(m: &RandMat) -> f64 {
    m.a.iter().fold(1.0f64, |w, v| w.max(v.abs()))
}

#[test]
fn dense_compat_is_bit_identical_to_reference_lu() {
    forall(
        "dense_compat_is_bit_identical_to_reference_lu",
        &Config {
            cases: 300,
            ..Config::default()
        },
        gen_mat,
        no_shrink,
        |m| {
            let d = dense_of(m);
            let reference = lu_factor(&d);
            let sparse = SparseLu::factor_dense_compat(&d);
            match (reference, sparse) {
                (Err(_), Err(_)) => Ok(()), // agree on singularity
                (Ok(_), Err(e)) => Err(format!("sparse rejected what dense accepted: {e}")),
                (Err(e), Ok(_)) => Err(format!("sparse accepted what dense rejected: {e}")),
                (Ok(rf), Ok(sf)) => {
                    let xr = rf.solve(&m.rhs);
                    let xs = sf.solve(&m.rhs);
                    for (j, (a, b)) in xr.iter().zip(&xs).enumerate() {
                        if a.to_bits() != b.to_bits() {
                            return Err(format!("x[{j}] differs: {a:?} vs {b:?}"));
                        }
                    }
                    Ok(())
                }
            }
        },
    );
}

#[test]
fn markowitz_factorization_solves_to_rounding() {
    forall(
        "markowitz_factorization_solves_to_rounding",
        &Config {
            cases: 300,
            ..Config::default()
        },
        gen_mat,
        no_shrink,
        |m| {
            let csc = csc_of(m);
            let basis: Vec<usize> = (0..m.n).collect();
            match SparseLu::factor_basis(&csc, &basis) {
                Err(_) => Ok(()), // near-singular draws may be rejected
                Ok(f) => {
                    let x = f.solve(&m.rhs);
                    let r = residual(m, &x, &m.rhs);
                    // Scale-aware bound: ill-conditioned draws amplify
                    // roundoff through the solve.
                    let xmax = x.iter().fold(1.0f64, |w, v| w.max(v.abs()));
                    let tol = 1e-7 * mat_norm(m) * xmax;
                    if r > tol {
                        return Err(format!("residual {r} exceeds {tol}"));
                    }
                    Ok(())
                }
            }
        },
    );
}

#[test]
fn permuted_identity_factors_exactly() {
    forall(
        "permuted_identity_factors_exactly",
        &Config {
            cases: 100,
            ..Config::default()
        },
        |rng| {
            let n = rng.range_usize_inclusive(2, 12);
            let mut perm: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut perm);
            let rhs: Vec<f64> = (0..n).map(|_| rng.range_f64(-8.0, 8.0)).collect();
            (perm, rhs)
        },
        no_shrink,
        |(perm, rhs)| {
            let n = perm.len();
            // Column j has a single 1.0 in row perm[j]: x[j] = rhs[perm[j]].
            let cols: Vec<Vec<(usize, f64)>> = perm.iter().map(|&i| vec![(i, 1.0)]).collect();
            let csc = CscMatrix::from_cols(n, &cols);
            let basis: Vec<usize> = (0..n).collect();
            let f = SparseLu::factor_basis(&csc, &basis)
                .map_err(|e| format!("permutation must factor: {e}"))?;
            let x = f.solve(rhs);
            for j in 0..n {
                if x[j].to_bits() != rhs[perm[j]].to_bits() {
                    return Err(format!("x[{j}] = {} != {}", x[j], rhs[perm[j]]));
                }
            }
            Ok(())
        },
    );
}

/// What the generator of [`factor_columns_agrees_with_dense_reference`]
/// planted in an otherwise permuted-triangular matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Planted {
    /// Nothing: a row/column permutation of a triangular matrix.
    Triangular,
    /// Two-cycles `(i,j)`/`(j,i)`: a dense 2x2 block no peel can enter.
    Cycles,
    /// One diagonal entry far below the pivot tolerance.
    TinyPivot,
    /// An emptied column: structurally singular.
    EmptyColumn,
}

/// A column-diagonally-dominant lower-triangular matrix with one of the
/// [`Planted`] features, under random row and column permutations.
fn gen_peelable(rng: &mut Pcg32) -> (Planted, RandMat) {
    let n = rng.range_usize_inclusive(2, 14);
    let mut a = vec![0.0; n * n];
    for j in 0..n {
        for i in (j + 1)..n {
            if rng.chance(0.25) {
                a[i * n + j] = rng.range_f64(-1.0, 1.0);
            }
        }
    }
    let planted = match rng.range_usize(0, 4) {
        0 => Planted::Triangular,
        1 => Planted::Cycles,
        2 => Planted::TinyPivot,
        _ => Planted::EmptyColumn,
    };
    if planted == Planted::Cycles {
        for _ in 0..rng.range_usize_inclusive(1, 2) {
            let j = rng.range_usize(1, n);
            let i = rng.range_usize(0, j);
            a[i * n + j] = rng.range_f64(0.25, 1.0);
            a[j * n + i] = rng.range_f64(-1.0, -0.25);
        }
    }
    for j in 0..n {
        let off: f64 = (0..n).filter(|&i| i != j).map(|i| a[i * n + j].abs()).sum();
        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
        a[j * n + j] = sign * (1.0 + off + rng.range_f64(0.0, 2.0));
    }
    let k = rng.range_usize(0, n);
    match planted {
        Planted::TinyPivot => a[k * n + k] = 1e-18,
        Planted::EmptyColumn => (0..n).for_each(|i| a[i * n + k] = 0.0),
        _ => {}
    }
    let mut rows: Vec<usize> = (0..n).collect();
    let mut cols: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut rows);
    rng.shuffle(&mut cols);
    let mut permuted = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            permuted[rows[i] * n + cols[j]] = a[i * n + j];
        }
    }
    let rhs = (0..n).map(|_| rng.range_f64(-10.0, 10.0)).collect();
    (
        planted,
        RandMat {
            n,
            a: permuted,
            rhs,
        },
    )
}

/// `m` as the flat CSC `factor_columns` takes: column starts plus
/// `(row, value)` entries, rows ascending.
fn flat_csc(m: &RandMat) -> (Vec<usize>, Vec<(u32, f64)>) {
    let n = m.n;
    let mut col_start = vec![0];
    let mut entries = Vec::new();
    for j in 0..n {
        entries.extend(
            (0..n)
                .filter(|&i| m.a[i * n + j] != 0.0)
                .map(|i| (i as u32, m.a[i * n + j])),
        );
        col_start.push(entries.len());
    }
    (col_start, entries)
}

/// `factor_columns` against the dense reference: same verdict on
/// singularity, solves within 1e-9, and a permuted triangular matrix is
/// factored by the peel alone — no bump, no fill.
#[test]
fn factor_columns_agrees_with_dense_reference() {
    // Fixed shapes first: the empty matrix, a 1x1, and a permuted diagonal
    // where every step is a singleton with empty L and U.
    let empty = SparseLu::factor_columns(0, &[0], &[]).unwrap();
    assert_eq!((empty.n(), empty.bump(), empty.nnz()), (0, 0, 0));
    assert!(empty.solve(&[]).is_empty());
    let one = SparseLu::factor_columns(1, &[0, 1], &[(0, -4.0)]).unwrap();
    assert_eq!((one.bump(), one.nnz()), (0, 1));
    assert_eq!(one.solve(&[2.0]), vec![-0.5]);
    assert!(SparseLu::factor_columns(1, &[0, 0], &[]).is_err());
    let diag =
        SparseLu::factor_columns(3, &[0, 1, 2, 3], &[(2, 2.0), (0, 4.0), (1, -1.0)]).unwrap();
    assert_eq!((diag.bump(), diag.nnz()), (0, 3));
    assert_eq!(diag.solve(&[8.0, 3.0, 6.0]), vec![3.0, 2.0, -3.0]);

    forall(
        "factor_columns_agrees_with_dense_reference",
        &Config {
            cases: 600,
            ..Config::default()
        },
        gen_peelable,
        no_shrink,
        |(planted, m)| {
            let n = m.n;
            let (col_start, entries) = flat_csc(m);
            let nnz = entries.len();
            let reference = lu_factor(&dense_of(m));
            let sparse = SparseLu::factor_columns(n, &col_start, &entries);
            let singular = matches!(planted, Planted::TinyPivot | Planted::EmptyColumn);
            match (reference, sparse) {
                (Err(_), Err(_)) if singular => Ok(()),
                (Ok(rf), Ok(sf)) if !singular => {
                    let (xr, xs) = (rf.solve(&m.rhs), sf.solve(&m.rhs));
                    let scale = xr.iter().fold(1.0f64, |w, v| w.max(v.abs()));
                    for (j, (r, s)) in xr.iter().zip(&xs).enumerate() {
                        if (r - s).abs() > 1e-9 * scale {
                            return Err(format!("x[{j}]: dense {r} vs sparse {s}"));
                        }
                    }
                    match planted {
                        Planted::Triangular if sf.bump() != 0 || sf.nnz() != nnz => Err(format!(
                            "triangular input: bump {} nnz {} (input nnz {nnz})",
                            sf.bump(),
                            sf.nnz()
                        )),
                        Planted::Cycles if sf.bump() < 2 => {
                            Err(format!("2-cycle peeled: bump {}", sf.bump()))
                        }
                        _ => Ok(()),
                    }
                }
                (r, s) => Err(format!(
                    "{planted:?}: dense ok={} sparse ok={}",
                    r.is_ok(),
                    s.is_ok()
                )),
            }
        },
    );
}

/// One step of [`basis_updates_match_refactorization`]: a column
/// replacement, or a batch of appended rows whose slacks enter the basis.
#[derive(Debug, Clone)]
enum Step {
    /// Bring in a column chosen with the first draw, at a position chosen
    /// with the second among those whose pivot is at least a tenth of the
    /// column's largest; an even first draw btrans the leaving row first,
    /// as the simplex does. On `probe`, first offer a wrong `alpha`, which
    /// the engine must refuse without changing.
    Replace { pick: u64, at: u64, probe: bool },
    /// Rows over the structural columns, `(column, value)` each.
    Append(Vec<Vec<(usize, f64)>>),
}

/// A sparse `n x n` start basis (the first `n` columns of `pool`, over
/// `n` rows) and the steps applied to it.
#[derive(Debug, Clone)]
struct UpdatePlan {
    n: usize,
    pool: Vec<Vec<(usize, f64)>>,
    steps: Vec<Step>,
}

/// A pool of `2n` sparse structural columns, `n` up to 40, then up to 60
/// replacements interleaved with appended-row batches.
fn gen_update_plan(rng: &mut Pcg32) -> UpdatePlan {
    let n = rng.range_usize_inclusive(2, 40);
    let density = 3.0 / n as f64;
    let pool: Vec<Vec<(usize, f64)>> = (0..2 * n)
        .map(|j| {
            (0..n)
                .filter_map(|i| {
                    if i == j % n {
                        let sign = if rng.chance(0.5) { 1.0 } else { -1.0 };
                        Some((i, sign * rng.range_f64(1.0, 4.0)))
                    } else if rng.chance(density) {
                        Some((i, rng.range_f64(-1.0, 1.0)))
                    } else {
                        None
                    }
                })
                .collect()
        })
        .collect();
    let replacements = rng.range_usize_inclusive(1, 60);
    let mut steps = Vec::new();
    for _ in 0..replacements {
        if rng.chance(0.15) {
            let mut rows = Vec::new();
            for _ in 0..rng.range_usize_inclusive(1, 4) {
                let mut row = Vec::new();
                for j in 0..2 * n {
                    if rng.chance(density) {
                        row.push((j, rng.range_f64(-2.0, 2.0)));
                    }
                }
                rows.push(row);
            }
            steps.push(Step::Append(rows));
        }
        steps.push(Step::Replace {
            pick: rng.next_u64(),
            at: rng.next_u64(),
            probe: rng.chance(0.2),
        });
    }
    UpdatePlan { n, pool, steps }
}

/// The engine's ftran and btran against a fresh factorization of `basis`
/// (columns of `cols` over `nrows` rows); `Ok(false)` when the basis is
/// singular to the fresh factorization.
fn engine_matches_fresh(
    engine: &BasisEngine,
    cols: &[Vec<(usize, f64)>],
    nrows: usize,
    basis: &[usize],
    rng: &mut Pcg32,
) -> Result<bool, String> {
    let csc = CscMatrix::from_cols(nrows, cols);
    let Ok(fresh) = SparseLu::factor_basis(&csc, basis) else {
        return Ok(false);
    };
    let mut scratch = Vec::new();
    let rhs: Vec<f64> = (0..nrows).map(|_| rng.range_f64(-5.0, 5.0)).collect();
    let mut xe = rhs.clone();
    engine.ftran(&mut xe, &mut scratch);
    let xf = fresh.solve(&rhs);
    let mut ye = rhs.clone();
    engine.btran(&mut ye, &mut scratch);
    let mut yf = rhs.clone();
    fresh.btran_in_place(&mut yf, &mut scratch);
    for (what, e, f) in [("ftran", &xe, &xf), ("btran", &ye, &yf)] {
        let scale = f.iter().fold(1.0f64, |w, v| w.max(v.abs()));
        for (i, (a, b)) in e.iter().zip(f.iter()).enumerate() {
            if (a - b).abs() > 1e-8 * scale {
                return Err(format!("{what}[{i}]: engine {a} vs fresh {b}"));
            }
        }
    }
    Ok(true)
}

/// Forrest–Tomlin column replacements and appended rows must agree with
/// refactorizing the explicitly tracked basis after every step, and a
/// replacement that fails the diagonal check must leave the engine as it
/// was.
#[test]
fn basis_updates_match_refactorization() {
    forall(
        "basis_updates_match_refactorization",
        &Config {
            cases: 150,
            ..Config::default()
        },
        gen_update_plan,
        no_shrink,
        |UpdatePlan { n, pool, steps }| {
            let mut cols = pool.clone();
            let mut nrows = *n;
            let mut basis: Vec<usize> = (0..*n).collect();
            let csc = CscMatrix::from_cols(nrows, &cols);
            let Ok(core) = SparseLu::factor_basis(&csc, &basis) else {
                return Ok(()); // singular start: nothing to track
            };
            let mut engine = BasisEngine::new(core);
            let mut rng = Pcg32::seed_from_u64(steps.len() as u64 ^ *n as u64);
            let mut scratch = Vec::new();
            let mut replaced = 0;
            for (k, step) in steps.iter().enumerate() {
                match step {
                    Step::Append(rows) => {
                        let mut starts = vec![0];
                        let mut entries = Vec::new();
                        for row in rows {
                            for &(j, v) in row {
                                cols[j].push((nrows, v));
                                if let Some(p) = basis.iter().position(|&b| b == j) {
                                    entries.push((p as u32, v));
                                }
                            }
                            starts.push(entries.len());
                            cols.push(vec![(nrows, -1.0)]);
                            basis.push(cols.len() - 1);
                            nrows += 1;
                        }
                        engine.append_slack_rows(&starts, &entries);
                    }
                    Step::Replace { pick, at, probe } => {
                        let out: Vec<usize> =
                            (0..cols.len()).filter(|j| !basis.contains(j)).collect();
                        let jin = out[(*pick % out.len() as u64) as usize];
                        let mut d = vec![0.0; nrows];
                        for &(i, v) in &cols[jin] {
                            d[i] = v;
                        }
                        engine.ftran_entering(&mut d, &mut scratch);
                        let big = d.iter().fold(0.0f64, |w, v| w.max(v.abs()));
                        let ok: Vec<usize> =
                            (0..nrows).filter(|&r| d[r].abs() >= 0.1 * big).collect();
                        if big < 1e-6 {
                            continue; // a column the basis spans exactly
                        }
                        let r = ok[(*at % ok.len() as u64) as usize];
                        if pick % 2 == 0 {
                            // The simplex's order: the leaving row's btran
                            // first, whose U stage the replacement reuses.
                            let mut rho = vec![0.0; nrows];
                            engine.btran_unit(r, &mut rho, &mut scratch);
                        }
                        if *probe {
                            if engine.replace(r, d[r] * (1.0 + 1e-4)).is_some() {
                                return Err(format!("step {k}: wrong alpha accepted"));
                            }
                            if engine.updates() != replaced {
                                return Err(format!("step {k}: refusal counted an update"));
                            }
                            // Unchanged: still the old basis.
                            if !engine_matches_fresh(&engine, &cols, nrows, &basis, &mut rng)
                                .map_err(|e| format!("step {k} after refusal: {e}"))?
                            {
                                return Ok(());
                            }
                            d.fill(0.0);
                            for &(i, v) in &cols[jin] {
                                d[i] = v;
                            }
                            engine.ftran_entering(&mut d, &mut scratch);
                        }
                        if engine.replace(r, d[r]).is_none() {
                            return Err(format!("step {k}: replacement at {r} refused"));
                        }
                        replaced += 1;
                        basis[r] = jin;
                    }
                }
                if !engine_matches_fresh(&engine, &cols, nrows, &basis, &mut rng)
                    .map_err(|e| format!("step {k}: {e}"))?
                {
                    return Ok(()); // the tracked basis became singular
                }
            }
            Ok(())
        },
    );
}

// ---- Degenerate model shapes ----

/// Small boxed LPs dense in the shapes a modelling layer emits by accident:
/// empty rows, fixed columns, zero-cost singleton columns (implied slacks),
/// columns in no row, and proportional duplicate rows.
fn gen_degenerate_shape_lp(rng: &mut Pcg32) -> RandLp {
    let n = rng.range_usize_inclusive(2, 5);
    let sense = if rng.chance(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let obj: Vec<f64> = (0..n)
        .map(|_| {
            if rng.chance(0.25) {
                0.0 // a zero-cost column in one row is an implied slack
            } else {
                rng.range_f64(-5.0, 5.0)
            }
        })
        .collect();
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| {
            if rng.chance(0.15) {
                let v = rng.range_f64(0.0, 3.0);
                (v, v) // fixed variable
            } else {
                (rng.range_f64(0.0, 2.0), rng.range_f64(2.5, 6.0))
            }
        })
        .collect();
    let nrows = rng.range_usize_inclusive(1, 4);
    let mut rows: Vec<(Vec<f64>, f64, f64)> = (0..nrows)
        .map(|_| {
            let c: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.chance(0.35) {
                        0.0 // sparsity creates singleton and empty columns
                    } else {
                        rng.range_f64(-3.0, 3.0)
                    }
                })
                .collect();
            (c, rng.range_f64(-10.0, 0.0), rng.range_f64(1.0, 12.0))
        })
        .collect();
    // Sometimes append an exact duplicate (scaled) of an existing row.
    if rng.chance(0.3) {
        let i = rng.range_usize(0, rows.len());
        let lambda = *rng.pick(&[2.0, -1.0, 0.5]);
        let (c, l, u) = rows[i].clone();
        let sc: Vec<f64> = c.iter().map(|&a| a * lambda).collect();
        let (mut sl, mut su) = (l * lambda, u * lambda);
        if lambda < 0.0 {
            std::mem::swap(&mut sl, &mut su);
        }
        // Widen so the duplicate is consistent with the original.
        rows.push((sc, sl - 1.0, su + 1.0));
    }
    RandLp {
        sense,
        obj,
        bounds,
        rows,
    }
}

#[test]
fn degenerate_shape_optima_satisfy_kkt() {
    forall(
        "degenerate_shape_optima_satisfy_kkt",
        &Config {
            cases: 300,
            ..Config::default()
        },
        gen_degenerate_shape_lp,
        no_shrink,
        |inst| {
            let sol = inst.build().solve().unwrap();
            if sol.status != Status::Optimal {
                return Ok(());
            }
            // Bounds, row feasibility, the dual pricing identity on interior
            // variables, multiplier signs and the objective, all from the
            // dense copy.
            kkt_check(inst, &sol)
        },
    );
}
