//! Cross-validation of the simplex solver against brute-force vertex
//! enumeration on randomly generated small LPs.
//!
//! For a bounded LP, an optimum lies at a vertex of the feasible polytope —
//! a point where at least `n` linearly independent constraints (row bounds
//! or variable bounds) are tight. On tiny instances we can enumerate all
//! candidate tight sets, solve the resulting square systems, filter by
//! feasibility, and take the best vertex. The simplex solver must agree.

mod common;

use common::{dot, kkt_check, RandLp};
use pcf_lp::{
    solve_dense, Basis, BasisMark, DenseMatrix, IncrementalLp, IncrementalStats, LpProblem, Sense,
    SimplexOptions, Solution, Status,
};
use pcf_rng::{forall, no_shrink, Config, Pcg32};

/// A tight-able constraint: coefficients and the activity value it pins.
struct TightCandidate {
    coeffs: Vec<f64>, // dense over n vars
    value: f64,
}

/// Brute-force optimum of a fully bounded LP by vertex enumeration.
/// Returns `None` when no feasible vertex exists (infeasible problem).
fn brute_force(
    n: usize,
    obj: &[f64],
    var_bounds: &[(f64, f64)],
    rows: &[(Vec<f64>, f64, f64)], // (dense coeffs, lower, upper)
) -> Option<f64> {
    let mut cands: Vec<TightCandidate> = Vec::new();
    for (j, &(l, u)) in var_bounds.iter().enumerate() {
        let mut c = vec![0.0; n];
        c[j] = 1.0;
        cands.push(TightCandidate {
            coeffs: c.clone(),
            value: l,
        });
        cands.push(TightCandidate {
            coeffs: c,
            value: u,
        });
    }
    for (c, l, u) in rows {
        cands.push(TightCandidate {
            coeffs: c.clone(),
            value: *l,
        });
        cands.push(TightCandidate {
            coeffs: c.clone(),
            value: *u,
        });
    }
    let k = cands.len();
    let mut best: Option<f64> = None;
    // All n-subsets of candidates.
    let mut idx: Vec<usize> = (0..n).collect();
    loop {
        // Try to solve the square system for this tight set.
        let mut m = DenseMatrix::zeros(n);
        let mut b = vec![0.0; n];
        for (r, &ci) in idx.iter().enumerate() {
            for j in 0..n {
                m.set(r, j, cands[ci].coeffs[j]);
            }
            b[r] = cands[ci].value;
        }
        if let Ok(xs) = solve_dense(&m, &[b]) {
            let x = &xs[0];
            // Feasibility check.
            let tol = 1e-7;
            let mut ok = true;
            for (j, &(l, u)) in var_bounds.iter().enumerate() {
                if x[j] < l - tol || x[j] > u + tol {
                    ok = false;
                    break;
                }
            }
            if ok {
                for (c, l, u) in rows {
                    let act: f64 = c.iter().zip(x).map(|(a, b)| a * b).sum();
                    if act < l - tol || act > u + tol {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                let v: f64 = obj.iter().zip(x).map(|(a, b)| a * b).sum();
                best = Some(match best {
                    None => v,
                    Some(bv) => bv.max(v),
                });
            }
        }
        // Next combination.
        let mut i = n;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if idx[i] + (n - i) < k {
                idx[i] += 1;
                for j in (i + 1)..n {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// A randomly drawn small LP instance.
#[derive(Debug, Clone)]
struct SmallLp {
    n: usize,
    obj: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<(Vec<f64>, f64, f64)>,
}

fn gen_small_lp(rng: &mut Pcg32) -> SmallLp {
    let n = rng.range_usize_inclusive(2, 3);
    let obj: Vec<f64> = (0..n).map(|_| rng.range_f64(-5.0, 5.0)).collect();
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.range_f64(0.0, 2.0), rng.range_f64(2.5, 6.0)))
        .collect();
    let nrows = rng.range_usize_inclusive(1, 3);
    let rows: Vec<(Vec<f64>, f64, f64)> = (0..nrows)
        .map(|_| {
            let c: Vec<f64> = (0..n).map(|_| rng.range_f64(-3.0, 3.0)).collect();
            (c, rng.range_f64(-10.0, 0.0), rng.range_f64(1.0, 12.0))
        })
        .collect();
    SmallLp {
        n,
        obj,
        bounds,
        rows,
    }
}

fn build(inst: &SmallLp) -> LpProblem {
    let mut lp = LpProblem::new(Sense::Maximize);
    let vars: Vec<_> = (0..inst.n)
        .map(|j| lp.add_var(inst.bounds[j].0, inst.bounds[j].1, inst.obj[j]))
        .collect();
    for (c, l, u) in &inst.rows {
        lp.add_row(vars.iter().zip(c).map(|(&v, &a)| (v, a)), *l, *u);
    }
    lp
}

/// Dropping rows one at a time keeps counterexamples minimal.
fn shrink_rows(inst: &SmallLp) -> Vec<SmallLp> {
    (0..inst.rows.len())
        .filter(|_| inst.rows.len() > 1)
        .map(|i| {
            let mut s = inst.clone();
            s.rows.remove(i);
            s
        })
        .collect()
}

#[test]
fn simplex_matches_vertex_enumeration() {
    forall(
        "simplex_matches_vertex_enumeration",
        &Config {
            cases: 200,
            ..Config::default()
        },
        gen_small_lp,
        shrink_rows,
        |inst| {
            let sol = build(inst).solve().unwrap();
            match brute_force(inst.n, &inst.obj, &inst.bounds, &inst.rows) {
                Some(best) => {
                    if sol.status != Status::Optimal {
                        return Err(format!("expected optimal, got {}", sol.status));
                    }
                    if (sol.objective - best).abs() > 1e-5 * (1.0 + best.abs()) {
                        return Err(format!("simplex {} vs brute force {best}", sol.objective));
                    }
                }
                None => {
                    if sol.status != Status::Infeasible {
                        return Err(format!("expected infeasible, got {}", sol.status));
                    }
                }
            }
            Ok(())
        },
    );
}

/// What the rows appended to a solved base model look like.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Append {
    /// The drawn rows, whatever they do.
    Random,
    /// A row the base optimum satisfies with room to spare.
    Slack,
    /// An objective cut just below the base optimum: always violated.
    Violated,
    /// Two rows over the same coefficients with disjoint ranges.
    JointlyInfeasible,
}

/// Incremental warm-started re-solves must agree with building the final
/// model from scratch, in status and (within 1e-7) objective: solve a base
/// LP over boxed variables, append rows, re-solve, and compare against a
/// one-shot solve of the full model. Appended rows the base optimum
/// satisfies must cost no pivot; violated ones are absorbed by the dual
/// simplex; jointly infeasible ones must make the warm attempt fall back
/// and the cold solve report `Infeasible`.
///
/// Every case runs under three refactorization schedules, which must agree
/// with each other on status and (within 1e-9) objective: refactorizing
/// after every pivot factors the *extended* basis from scratch and never
/// applies an eta or a border op; the default schedule never refactorizes
/// on LPs this small, so the answer comes from the op file alone; 7 mixes
/// the two.
#[test]
fn incremental_append_matches_scratch() {
    forall(
        "incremental_append_matches_scratch",
        &Config {
            cases: 400,
            ..Config::default()
        },
        |rng| {
            let mut inst = gen_small_lp(rng);
            // Ensure at least one row remains to be appended incrementally.
            if inst.rows.len() < 2 {
                let c: Vec<f64> = (0..inst.n).map(|_| rng.range_f64(-3.0, 3.0)).collect();
                inst.rows
                    .push((c, rng.range_f64(-10.0, 0.0), rng.range_f64(1.0, 12.0)));
            }
            let split = rng.range_usize(1, inst.rows.len());
            let mode = *rng.pick(&[
                Append::Random,
                Append::Slack,
                Append::Violated,
                Append::JointlyInfeasible,
            ]);
            (inst, split, mode)
        },
        no_shrink,
        |(inst, split, mode)| {
            let default_every = SimplexOptions::default().reinvert_every;
            let mut reference: Option<Solution> = None;
            for reinvert_every in [default_every, 1, 7] {
                let warm = check_append(inst, *split, *mode, reinvert_every)
                    .map_err(|e| format!("reinvert_every {reinvert_every}: {e}"))?;
                let Some(r) = &reference else {
                    reference = Some(warm);
                    continue;
                };
                if warm.status != r.status
                    || (r.status == Status::Optimal && (warm.objective - r.objective).abs() > 1e-9)
                {
                    return Err(format!(
                        "{mode:?}: reinvert_every {reinvert_every} gave {} {} vs {} {}",
                        warm.status, warm.objective, r.status, r.objective
                    ));
                }
            }
            Ok(())
        },
    );
}

fn check_append(
    inst: &SmallLp,
    split: usize,
    mode: Append,
    reinvert_every: usize,
) -> Result<Solution, String> {
    let with_schedule = |mut lp: LpProblem| {
        lp.set_options(SimplexOptions {
            reinvert_every,
            ..SimplexOptions::default()
        });
        lp
    };
    let mut base = inst.clone();
    let drawn = base.rows.split_off(split);
    let mut inc = IncrementalLp::new(with_schedule(build(&base)));
    let base_sol = inc.solve().unwrap();
    let appended = match mode {
        Append::Random => drawn,
        _ if base_sol.status != Status::Optimal => drawn,
        Append::Slack => {
            let (c, ..) = &drawn[0];
            let act: f64 = c.iter().zip(&base_sol.x).map(|(a, x)| a * x).sum();
            vec![(c.clone(), act - 1.0, act + 1.0)]
        }
        Append::Violated => {
            let cut = base_sol.objective - 0.25;
            vec![(inst.obj.clone(), f64::NEG_INFINITY, cut)]
        }
        Append::JointlyInfeasible => {
            let (c, ..) = &drawn[0];
            vec![
                (c.clone(), f64::NEG_INFINITY, 1.0),
                (c.clone(), 2.0, f64::INFINITY),
            ]
        }
    };
    let vars: Vec<_> = (0..inst.n).map(pcf_lp::VarId).collect();
    for (c, l, u) in &appended {
        inc.add_row(vars.iter().zip(c).map(|(&v, &a)| (v, a)), *l, *u);
    }
    let warm = inc.solve().unwrap();
    let stats = inc.stats();

    let mut full = base.clone();
    full.rows.extend(appended);
    let scratch = with_schedule(build(&full)).solve().unwrap();

    if warm.status != scratch.status {
        return Err(format!(
            "{mode:?}: status diverged: warm {} vs scratch {}",
            warm.status, scratch.status
        ));
    }
    if scratch.status == Status::Optimal
        && (warm.objective - scratch.objective).abs() > 1e-7 * (1.0 + scratch.objective.abs())
    {
        return Err(format!(
            "{mode:?}: objective diverged: warm {} vs scratch {}",
            warm.objective, scratch.objective
        ));
    }
    if stats.phase1_iterations + stats.primal_iterations + stats.dual_iterations
        < base_sol.iterations + warm.iterations
    {
        return Err(format!("{mode:?}: {stats:?} lost pivots"));
    }
    if base_sol.status != Status::Optimal {
        return Ok(warm);
    }
    match mode {
        Append::Slack if warm.iterations != 0 || stats.warm_solves != 1 => Err(format!(
            "slack row cost {} pivots: {stats:?}",
            warm.iterations
        )),
        Append::Violated if warm.status == Status::Optimal && stats.dual_iterations == 0 => Err(
            format!("violated cut absorbed without a dual pivot: {stats:?}"),
        ),
        Append::JointlyInfeasible
            if warm.status != Status::Infeasible || stats.warm_fallbacks != 1 =>
        {
            Err(format!(
                "expected a fallback to Infeasible: {} {stats:?}",
                warm.status
            ))
        }
        _ => Ok(warm),
    }
}

#[test]
fn dense_random_feasible_lps_are_solved_exactly() {
    // Deterministic seeds across a grid of sizes; checks objective against
    // brute force for n=3 with two rows.
    type Case = (Vec<f64>, Vec<(f64, f64)>, Vec<(Vec<f64>, f64, f64)>);
    let cases: &[Case] = &[
        (
            vec![1.0, 2.0, -1.0],
            vec![(0.0, 4.0), (0.0, 4.0), (0.0, 4.0)],
            vec![
                (vec![1.0, 1.0, 1.0], -10.0, 6.0),
                (vec![1.0, -1.0, 0.0], -2.0, 2.0),
            ],
        ),
        (
            vec![-1.0, -1.0, 3.0],
            vec![(1.0, 3.0), (0.0, 2.0), (0.0, 5.0)],
            vec![(vec![2.0, 1.0, -1.0], 0.0, 4.0)],
        ),
    ];
    for (obj, bounds, rows) in cases {
        let n = obj.len();
        let mut lp = LpProblem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|j| lp.add_var(bounds[j].0, bounds[j].1, obj[j]))
            .collect();
        for (c, l, u) in rows {
            lp.add_row(vars.iter().zip(c).map(|(&v, &a)| (v, a)), *l, *u);
        }
        let sol = lp.solve().unwrap();
        let best = brute_force(n, obj, bounds, rows).expect("feasible by construction");
        assert!(
            (sol.objective - best).abs() <= 1e-6 * (1.0 + best.abs()),
            "simplex {} vs brute {}",
            sol.objective,
            best
        );
    }
}

/// An LP with free, one-sided and boxed variables and `<=`, `>=`, range and
/// equality rows, feasible by construction (every row holds at a planted
/// point inside the variable bounds) and usually bounded (half the draws
/// cap the objective with a row of its own).
fn gen_restart_lp(rng: &mut Pcg32) -> RandLp {
    let n = rng.range_usize_inclusive(2, 5);
    let sense = if rng.chance(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let obj: Vec<f64> = (0..n).map(|_| rng.range_f64(-4.0, 4.0)).collect();
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| match rng.range_usize(0, 7) {
            0 => (f64::NEG_INFINITY, f64::INFINITY),
            1 => (rng.range_f64(-1.0, 1.0), f64::INFINITY),
            2 => (f64::NEG_INFINITY, rng.range_f64(0.0, 3.0)),
            _ => (rng.range_f64(-1.0, 1.0), rng.range_f64(1.5, 5.0)),
        })
        .collect();
    let planted: Vec<f64> = bounds
        .iter()
        .map(|&(l, u)| {
            let lo = if l.is_finite() { l } else { u.min(0.0) - 2.0 };
            let hi = if u.is_finite() { u } else { lo + 4.0 };
            rng.range_f64(lo, hi)
        })
        .collect();
    let mut rows = Vec::new();
    for _ in 0..rng.range_usize_inclusive(2, 6) {
        let c: Vec<f64> = (0..n)
            .map(|_| {
                if rng.chance(0.3) {
                    0.0
                } else {
                    rng.range_f64(-3.0, 3.0)
                }
            })
            .collect();
        let act = dot(&c, &planted);
        rows.push(match rng.range_usize(0, 5) {
            0 => (c, f64::NEG_INFINITY, act + rng.range_f64(0.0, 3.0)),
            1 => (c, act - rng.range_f64(0.0, 3.0), f64::INFINITY),
            2 => (c, act, act),
            _ => (
                c,
                act - rng.range_f64(0.0, 3.0),
                act + rng.range_f64(0.0, 3.0),
            ),
        });
    }
    if rng.chance(0.5) {
        let at = dot(&obj, &planted);
        let room = rng.range_f64(0.5, 3.0);
        rows.push(match sense {
            Sense::Maximize => (obj.clone(), f64::NEG_INFINITY, at + room),
            Sense::Minimize => (obj.clone(), at - room, f64::INFINITY),
        });
    }
    RandLp {
        sense,
        obj,
        bounds,
        rows,
    }
}

/// `lp` with every finite row bound moved (equalities stay equalities).
fn perturb_row_bounds(lp: &RandLp, rng: &mut Pcg32) -> RandLp {
    let mut out = lp.clone();
    for (_, lo, hi) in &mut out.rows {
        let by = rng.range_f64(-0.4, 0.4);
        if *lo < *hi {
            // A range keeps its width or widens, so it cannot cross itself.
            *lo -= by.abs();
            *hi += rng.range_f64(-0.4, 0.4).max(-0.4 * (*hi - *lo).min(1.0));
        } else {
            *lo += by;
            *hi += by;
        }
    }
    out
}

/// `lp` with every objective coefficient moved.
fn perturb_costs(lp: &RandLp, rng: &mut Pcg32) -> RandLp {
    let mut out = lp.clone();
    for c in &mut out.obj {
        *c += rng.range_f64(-0.6, 0.6);
    }
    out
}

fn incremental(lp: &RandLp, reinvert_every: usize) -> IncrementalLp {
    let mut problem = lp.build();
    problem.set_options(SimplexOptions {
        reinvert_every,
        ..SimplexOptions::default()
    });
    IncrementalLp::new(problem)
}

/// Solves `lp` from `start` and from the crash basis and holds the two to
/// the same status and objective; an optimum reached from `start` must
/// also pass the independent KKT check. Returns the started solve's
/// answer, counters and final basis.
fn restart(
    lp: &RandLp,
    start: &Basis,
    reinvert_every: usize,
) -> Result<(Solution, IncrementalStats, Option<Basis>), String> {
    let mut inc = incremental(lp, reinvert_every);
    inc.offer_basis(start.clone());
    let warm = inc.solve().unwrap();
    let stats = inc.stats();
    let cold = incremental(lp, reinvert_every).solve().unwrap();
    if warm.status != cold.status {
        return Err(format!(
            "status diverged: started {} vs cold {}",
            warm.status, cold.status
        ));
    }
    if stats.warm_solves + stats.cold_solves != 1 || stats.cold_solves != stats.warm_fallbacks {
        return Err(format!("solve miscounted: {stats:?}"));
    }
    if warm.status == Status::Optimal {
        if (warm.objective - cold.objective).abs() > 1e-7 * (1.0 + cold.objective.abs()) {
            return Err(format!(
                "objective diverged: started {} vs cold {}",
                warm.objective, cold.objective
            ));
        }
        kkt_check(lp, &warm)?;
    }
    Ok((warm, stats, inc.basis()))
}

/// An exported basis restarts a rebuilt model: the same model costs one
/// factorization and no pivot, ends on the basis it started from, and does
/// so bit for bit every time (against the exporting solve, whose basic
/// values were updated pivot by pivot rather than recomputed from fresh
/// factors, the objective agrees to rounding); moved row bounds keep the basis dual
/// feasible, so only the dual loop pivots; moved costs keep it primal
/// feasible, so only the primal loop does; with both moved, and with rows
/// appended beyond the basis' length, the answer is still the cold solve's.
/// Every case runs under three refactorization schedules.
#[test]
fn exported_basis_restarts_a_rebuilt_model() {
    let restarted = std::cell::Cell::new(0usize);
    let pivoted = std::cell::Cell::new((0usize, 0usize));
    forall(
        "exported_basis_restarts_a_rebuilt_model",
        &Config::with_cases(400),
        |rng| {
            let lp = gen_restart_lp(rng);
            let bounds_moved = perturb_row_bounds(&lp, rng);
            let costs_moved = perturb_costs(&lp, rng);
            let both_moved = perturb_costs(&bounds_moved, rng);
            let mut grown = lp.clone();
            grown
                .rows
                .extend(gen_restart_lp(rng).rows.into_iter().map(|(mut c, lo, hi)| {
                    c.resize(lp.obj.len(), 0.0);
                    (c, lo - 1.0, hi + 1.0)
                }));
            (lp, bounds_moved, costs_moved, both_moved, grown)
        },
        no_shrink,
        |(lp, bounds_moved, costs_moved, both_moved, grown)| {
            let default_every = SimplexOptions::default().reinvert_every;
            for every in [default_every, 1, 7] {
                let tag = |e: String| format!("reinvert_every {every}: {e}");
                let mut base = incremental(lp, every);
                let solved = base.solve().unwrap();
                // No basis: the solve was not optimal, or ended with an
                // artificial still basic at zero.
                let Some(start) = base.basis() else {
                    return Ok(());
                };
                if solved.status != Status::Optimal {
                    return Err(tag(format!("{} solve exported a basis", solved.status)));
                }

                let (same, stats, end) = restart(lp, &start, every).map_err(tag)?;
                let pivots =
                    stats.phase1_iterations + stats.primal_iterations + stats.dual_iterations;
                if (stats.warm_solves, stats.refactors, pivots) != (1, 1, 0) {
                    return Err(tag(format!(
                        "same model did not restart in place: {stats:?}"
                    )));
                }
                if end.as_ref() != Some(&start) {
                    return Err(tag("same model ended on another basis".into()));
                }
                let (again, ..) = restart(lp, &start, every).map_err(tag)?;
                if again.objective.to_bits() != same.objective.to_bits()
                    || (same.objective - solved.objective).abs()
                        > 1e-9 * (1.0 + solved.objective.abs())
                {
                    return Err(tag(format!(
                        "same model: objective {} then {} vs exported {}",
                        same.objective, again.objective, solved.objective
                    )));
                }

                let (_, stats, _) = restart(bounds_moved, &start, every).map_err(tag)?;
                if stats.warm_solves == 1 && stats.primal_iterations != 0 {
                    return Err(tag(format!(
                        "moved row bounds cost primal pivots: {stats:?}"
                    )));
                }
                let (dual, primal) = pivoted.get();
                pivoted.set((dual + stats.dual_iterations, primal));

                let (_, stats, _) = restart(costs_moved, &start, every).map_err(tag)?;
                if stats.warm_solves == 1 && stats.dual_iterations != 0 {
                    return Err(tag(format!("moved costs cost dual pivots: {stats:?}")));
                }
                let (dual, primal) = pivoted.get();
                pivoted.set((dual, primal + stats.primal_iterations));

                restart(both_moved, &start, every).map_err(tag)?;
                restart(grown, &start, every).map_err(tag)?;
            }
            restarted.set(restarted.get() + 1);
            Ok(())
        },
    );
    // The corpus must restart real optima and make both loops work.
    let (dual, primal) = pivoted.get();
    assert!(restarted.get() >= 200, "only {} cases", restarted.get());
    assert!(dual > 100 && primal > 100, "{dual} dual, {primal} primal");
}

/// Bases no solve exported: each costs one fallback and yields the cold
/// answer bit for bit, never a panic.
#[test]
fn hostile_bases_fall_back_to_the_cold_answer() {
    use BasisMark::{Basic, Free, Lower, Upper};
    let fallback = |lp: &RandLp, what: &str, start: Basis| -> Result<(), String> {
        let default_every = SimplexOptions::default().reinvert_every;
        for every in [default_every, 1, 7] {
            let cold = incremental(lp, every).solve().unwrap();
            let mut inc = incremental(lp, every);
            inc.offer_basis(start.clone());
            let sol = inc.solve().unwrap();
            let stats = inc.stats();
            if (stats.warm_solves, stats.warm_fallbacks, stats.cold_solves) != (0, 1, 1) {
                return Err(format!("{what}: no fallback: {stats:?}"));
            }
            if sol.status != cold.status
                || (sol.status == Status::Optimal
                    && sol.objective.to_bits() != cold.objective.to_bits())
            {
                return Err(format!(
                    "{what}: {} {} vs cold {} {}",
                    sol.status, sol.objective, cold.status, cold.objective
                ));
            }
        }
        Ok(())
    };
    // A nonbasic mark every column accepts, whatever its bounds.
    let resting = |&(lo, hi): &(f64, f64)| {
        if lo.is_finite() {
            Lower
        } else if hi.is_finite() {
            Upper
        } else {
            Free
        }
    };
    forall(
        "hostile_bases_fall_back_to_the_cold_answer",
        &Config::with_cases(150),
        gen_restart_lp,
        no_shrink,
        |lp| {
            let (n, m) = (lp.obj.len(), lp.rows.len());
            let cols: Vec<BasisMark> = lp.bounds.iter().map(resting).collect();
            let rows: Vec<BasisMark> = lp
                .rows
                .iter()
                .map(|(_, lo, hi)| resting(&(*lo, *hi)))
                .collect();
            let crash = || (cols.clone(), vec![Basic; m]);

            let (mut c, r) = crash();
            c.push(Lower);
            fallback(lp, "one column too many", Basis::from_marks(c, r))?;
            let (mut c, r) = crash();
            c.pop();
            fallback(lp, "one column too few", Basis::from_marks(c, r))?;
            let (c, mut r) = crash();
            r.push(Basic);
            fallback(lp, "one row too many", Basis::from_marks(c, r))?;
            fallback(
                lp,
                "all nonbasic",
                Basis::from_marks(cols.clone(), rows.clone()),
            )?;
            fallback(
                lp,
                "all basic",
                Basis::from_marks(vec![Basic; n], vec![Basic; m]),
            )?;
            if let Some(j) = lp.bounds.iter().position(|b| b.1.is_infinite()) {
                let (mut c, r) = crash();
                c[j] = Upper;
                fallback(
                    lp,
                    "upper mark without an upper bound",
                    Basis::from_marks(c, r),
                )?;
            }
            if let Some(j) = lp.bounds.iter().position(|b| b.0.is_finite()) {
                let (mut c, r) = crash();
                c[j] = Free;
                fallback(lp, "free mark on a bounded column", Basis::from_marks(c, r))?;
            }
            Ok(())
        },
    );

    // Structurally singular: the right number of basics, but the two basic
    // structurals are proportional columns.
    let lp = RandLp {
        sense: Sense::Maximize,
        obj: vec![1.0, 2.0],
        bounds: vec![(0.0, 3.0), (0.0, 3.0)],
        rows: vec![
            (vec![1.0, 1.0], f64::NEG_INFINITY, 4.0),
            (vec![2.0, 2.0], f64::NEG_INFINITY, 10.0),
        ],
    };
    let singular = Basis::from_marks(vec![Basic, Basic], vec![Upper, Upper]);
    fallback(&lp, "singular", singular).unwrap();
    // And a column no row touches cannot be basic anywhere.
    let lp = RandLp {
        rows: vec![(vec![1.0, 0.0], f64::NEG_INFINITY, 2.0)],
        ..lp
    };
    let empty_column = Basis::from_marks(vec![Lower, Basic], vec![Upper]);
    fallback(&lp, "empty basic column", empty_column).unwrap();
}
