//! KKT certificates for cold solves from the crash basis.
//!
//! The cold path starts every row either on its slack (row satisfied at the
//! start point) or on an artificial (row violated there), and runs phase 1
//! only for the latter. These properties draw LPs that mix both kinds of
//! row with equality rows and free, one-sided, and boxed variables, and
//! check every reported optimum with a checker that does not trust the
//! solver: primal bounds, row bounds, the sign of each reduced cost and row
//! dual against the bound its variable or row sits on, and complementary
//! slackness, all read from [`Solution::duals`]. Infeasible and unbounded
//! instances are planted and must be recognized with and without presolve.

use pcf_lp::{LpProblem, Sense, SimplexOptions, Solution, Status, VarId};
use pcf_rng::{forall, no_shrink, Config, Pcg32};

/// A dense description of an LP, kept beside the built model so the checker
/// reads the data, not the solver's copy of it.
#[derive(Debug, Clone)]
struct RandLp {
    sense: Sense,
    obj: Vec<f64>,
    bounds: Vec<(f64, f64)>,
    rows: Vec<(Vec<f64>, f64, f64)>,
}

impl RandLp {
    fn build(&self, presolve: bool) -> LpProblem {
        let mut lp = LpProblem::new(self.sense);
        lp.set_options(SimplexOptions {
            presolve,
            ..SimplexOptions::default()
        });
        let vars: Vec<VarId> = self
            .bounds
            .iter()
            .zip(&self.obj)
            .map(|(&(l, u), &c)| lp.add_var(l, u, c))
            .collect();
        for (c, l, u) in &self.rows {
            lp.add_row(vars.iter().zip(c).map(|(&v, &a)| (v, a)), *l, *u);
        }
        lp
    }

    /// The point the crash basis is built at: every variable on a finite
    /// bound, lower first, zero if free.
    fn start_point(&self) -> Vec<f64> {
        self.bounds
            .iter()
            .map(|&(l, u)| {
                if l.is_finite() {
                    l
                } else if u.is_finite() {
                    u
                } else {
                    0.0
                }
            })
            .collect()
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Checks that `sol` is a KKT point of `lp`: a primal-feasible `x` and row
/// duals `y` such that every reduced cost `r_j = c_j - sum_i y_i a_ij` and
/// every `y_i` has the sign its bound status allows and vanishes when the
/// variable or row is strictly between its bounds. `duals` are
/// d(objective)/d(rhs) in the problem's own sense, so the signs flip for a
/// maximization.
fn kkt_check(lp: &RandLp, sol: &Solution) -> Result<(), String> {
    const TOL: f64 = 1e-6;
    let s = match lp.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    // What a multiplier may be, given where its quantity sits in [lo, hi].
    let sign_ok = |what: String, v: f64, lo: f64, hi: f64, mult: f64| {
        let scale = 1.0 + v.abs();
        if v < lo - TOL * scale || v > hi + TOL * scale {
            return Err(format!("{what} = {v} outside [{lo}, {hi}]"));
        }
        let at_lo = v <= lo + TOL * scale;
        let at_hi = v >= hi - TOL * scale;
        let m = s * mult;
        let ok = match (at_lo, at_hi) {
            (true, true) => true,
            (true, false) => m >= -TOL,
            (false, true) => m <= TOL,
            (false, false) => m.abs() <= TOL,
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{what} = {v} in [{lo}, {hi}] carries multiplier {mult} of the wrong sign"
            ))
        }
    };
    for (j, &(l, u)) in lp.bounds.iter().enumerate() {
        let priced: f64 = lp
            .rows
            .iter()
            .zip(&sol.duals)
            .map(|((c, ..), y)| y * c[j])
            .sum();
        sign_ok(format!("x{j}"), sol.x[j], l, u, lp.obj[j] - priced)?;
    }
    for (i, (c, l, u)) in lp.rows.iter().enumerate() {
        sign_ok(format!("row{i}"), dot(c, &sol.x), *l, *u, sol.duals[i])?;
    }
    let obj = dot(&lp.obj, &sol.x);
    if (obj - sol.objective).abs() > TOL * (1.0 + obj.abs()) {
        return Err(format!("objective {} but c'x = {obj}", sol.objective));
    }
    Ok(())
}

/// What the generator planted.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Planted {
    Nothing,
    /// Two rows over the same coefficients with disjoint ranges.
    Infeasible,
    /// A column no row touches, improving without bound.
    Ray,
}

fn gen_lp(rng: &mut Pcg32) -> (RandLp, Planted) {
    let n = rng.range_usize_inclusive(2, 5);
    let sense = if rng.chance(0.5) {
        Sense::Maximize
    } else {
        Sense::Minimize
    };
    let obj: Vec<f64> = (0..n).map(|_| rng.range_f64(-4.0, 4.0)).collect();
    let bounds: Vec<(f64, f64)> = (0..n)
        .map(|_| match rng.range_usize(0, 5) {
            0 => (f64::NEG_INFINITY, f64::INFINITY),
            1 => (rng.range_f64(-1.0, 1.0), f64::INFINITY),
            2 => (f64::NEG_INFINITY, rng.range_f64(0.0, 3.0)),
            _ => (rng.range_f64(-1.0, 1.0), rng.range_f64(1.5, 5.0)),
        })
        .collect();
    let mut lp = RandLp {
        sense,
        obj,
        bounds,
        rows: Vec::new(),
    };
    let x0 = lp.start_point();
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
        let act = dot(&c, &x0);
        let (lo, hi) = match rng.range_usize(0, 6) {
            // Satisfied at the start point: the slack starts basic.
            0 => (act - rng.range_f64(0.0, 4.0), act + rng.range_f64(0.0, 4.0)),
            1 => (f64::NEG_INFINITY, act + rng.range_f64(0.0, 4.0)),
            // Violated from below / above: an artificial starts basic.
            2 => (act + rng.range_f64(0.5, 3.0), f64::INFINITY),
            3 => (f64::NEG_INFINITY, act - rng.range_f64(0.5, 3.0)),
            // Equalities, met or missed at the start point.
            4 => (act, act),
            _ => {
                let v = act + rng.range_f64(-2.0, 2.0);
                (v, v)
            }
        };
        lp.rows.push((c, lo, hi));
    }
    let planted = match rng.range_usize(0, 6) {
        0 => {
            let (c, lo, hi) = lp.rows[0].clone();
            let hi = if hi.is_finite() {
                hi
            } else if lo.is_finite() {
                lo + 1.0
            } else {
                0.0
            };
            lp.rows[0].2 = hi;
            lp.rows.push((c, hi + 1.0, hi + 2.0));
            Planted::Infeasible
        }
        1 => {
            for (c, ..) in &mut lp.rows {
                c.push(0.0);
            }
            lp.bounds.push((0.0, f64::INFINITY));
            lp.obj.push(match sense {
                Sense::Maximize => 1.0,
                Sense::Minimize => -1.0,
            });
            Planted::Ray
        }
        _ => Planted::Nothing,
    };
    (lp, planted)
}

#[test]
fn crash_start_optima_satisfy_kkt() {
    let optimal = std::cell::Cell::new(0usize);
    forall(
        "crash_start_optima_satisfy_kkt",
        &Config::with_cases(600),
        gen_lp,
        no_shrink,
        |(lp, planted)| {
            // Presolve off is the crash basis on the model as drawn; the
            // default path crashes the presolved model.
            let plain = lp.build(false).solve().unwrap();
            match planted {
                Planted::Infeasible if plain.status != Status::Infeasible => {
                    return Err(format!("planted infeasible, got {}", plain.status));
                }
                Planted::Ray if !matches!(plain.status, Status::Unbounded | Status::Infeasible) => {
                    return Err(format!("planted a ray, got {}", plain.status));
                }
                _ => {}
            }
            let presolved = lp.build(true).solve().unwrap();
            if presolved.status != plain.status {
                return Err(format!(
                    "presolve on: status {} vs presolve off {}",
                    presolved.status, plain.status
                ));
            }
            if plain.status != Status::Optimal {
                return Ok(());
            }
            // Presolve merges proportional rows and reports the merged dual
            // on the representative (see its module docs), so only the
            // solve of the model as drawn is held to the certificate.
            kkt_check(lp, &plain)?;
            if (presolved.objective - plain.objective).abs() > 1e-6 * (1.0 + plain.objective.abs())
            {
                return Err(format!(
                    "presolve on: objective {} vs presolve off {}",
                    presolved.objective, plain.objective
                ));
            }
            optimal.set(optimal.get() + 1);
            Ok(())
        },
    );
    // The corpus must not degenerate into verdict-only cases.
    let optimal = optimal.get();
    assert!(optimal >= 100, "only {optimal} of 600 cases were optimal");
}

#[test]
fn kkt_checker_rejects_a_non_optimal_point() {
    // max x + y, x + y <= 4, x,y in [0,3]: the checker must refuse a
    // feasible but suboptimal point and a wrong-signed dual.
    let lp = RandLp {
        sense: Sense::Maximize,
        obj: vec![1.0, 1.0],
        bounds: vec![(0.0, 3.0), (0.0, 3.0)],
        rows: vec![(vec![1.0, 1.0], f64::NEG_INFINITY, 4.0)],
    };
    let good = lp.build(false).solve().unwrap();
    kkt_check(&lp, &good).unwrap();
    let interior = Solution {
        x: vec![1.0, 1.0],
        objective: 2.0,
        duals: vec![0.0],
        ..good.clone()
    };
    assert!(kkt_check(&lp, &interior).is_err());
    let flipped = Solution {
        duals: vec![-good.duals[0]],
        ..good
    };
    assert!(kkt_check(&lp, &flipped).is_err());
}
