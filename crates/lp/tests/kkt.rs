//! KKT certificates for [`pcf_lp::LpProblem::solve`], the cold solve from
//! the crash basis that every one-shot LP and every master's first round
//! runs.
//!
//! The cold path starts every row either on its slack (row satisfied at the
//! start point) or on an artificial (row violated there), and runs phase 1
//! only for the latter. These properties draw LPs that mix both kinds of
//! row with equality rows and free, one-sided, and boxed variables, and
//! check every reported optimum with a checker that does not trust the
//! solver: primal bounds, row bounds, the sign of each reduced cost and row
//! dual against the bound its variable or row sits on, and complementary
//! slackness, all read from [`Solution::duals`]. Infeasible and unbounded
//! instances are planted and must be recognized.

mod common;

use common::{dot, kkt_check, RandLp};
use pcf_lp::{Sense, Solution, Status};
use pcf_rng::{forall, no_shrink, Config, Pcg32};

/// The point the crash basis is built at: every variable on a finite
/// bound, lower first, zero if free.
fn start_point(lp: &RandLp) -> Vec<f64> {
    lp.bounds
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
    let x0 = start_point(&lp);
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
            let sol = lp.build().solve().unwrap();
            match planted {
                Planted::Infeasible if sol.status != Status::Infeasible => {
                    return Err(format!("planted infeasible, got {}", sol.status));
                }
                Planted::Ray if !matches!(sol.status, Status::Unbounded | Status::Infeasible) => {
                    return Err(format!("planted a ray, got {}", sol.status));
                }
                _ => {}
            }
            if sol.status != Status::Optimal {
                return Ok(());
            }
            kkt_check(lp, &sol)?;
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
    let good = lp.build().solve().unwrap();
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
