//! The independent optimality checker the LP property tests share: a dense
//! copy of each drawn LP and a KKT check that reads the data, not the
//! solver's copy of it.

use pcf_lp::{LpProblem, Sense, Solution, VarId};

/// A dense description of an LP, kept beside the built model so the checker
/// reads the data, not the solver's copy of it.
#[derive(Debug, Clone)]
pub struct RandLp {
    pub sense: Sense,
    pub obj: Vec<f64>,
    pub bounds: Vec<(f64, f64)>,
    pub rows: Vec<(Vec<f64>, f64, f64)>,
}

impl RandLp {
    pub fn build(&self) -> LpProblem {
        let mut lp = LpProblem::new(self.sense);
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
}

pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Checks that `sol` is a KKT point of `lp`: a primal-feasible `x` and row
/// duals `y` such that every reduced cost `r_j = c_j - sum_i y_i a_ij` and
/// every `y_i` has the sign its bound status allows and vanishes when the
/// variable or row is strictly between its bounds. `duals` are
/// d(objective)/d(rhs) in the problem's own sense, so the signs flip for a
/// maximization.
pub fn kkt_check(lp: &RandLp, sol: &Solution) -> Result<(), String> {
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
