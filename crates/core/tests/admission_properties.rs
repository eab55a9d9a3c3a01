//! Property tests for dual-based admission control (Prop. 5 soundness).
//!
//! The serving daemon answers "can demand `d` be added between `s,t`?"
//! from the stored dual bounds without re-solving. These tests pin the
//! two directions of that answer on a real evaluation topology:
//!
//! * **admitted ⇒ safe**: bumping the pair's served demand by the
//!   admitted amount keeps `validate_all` congestion-free over *every*
//!   ≤f-link-failure scenario;
//! * **rejected ⇒ witnessed**: the returned witness scenario really does
//!   violate validation at the requested demand.

use pcf_core::{
    absolute_tolerance, admit, solve_ffc, solve_pcf_tf, validate_all, validate_scenarios,
    AdmitOutcome, FailureModel, Instance, RobustOptions, RobustSolution, Scenario,
};
use pcf_topology::zoo;
use pcf_traffic::gravity;

fn solved_abilene(scheme: &str) -> (Instance, RobustSolution, FailureModel) {
    let topo = zoo::build("Abilene");
    let mut tm = gravity(&topo, 1);
    tm.truncate_to_top_k(40);
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    let inst = pcf_core::tunnel_instance(&topo, &tm, 3);
    let sol = match scheme {
        "ffc" => solve_ffc(&inst, &fm, &opts),
        _ => solve_pcf_tf(&inst, &fm, &opts),
    };
    (inst, sol, fm)
}

/// Sweep pairs × demand levels: every admitted extra must survive
/// exhaustive validation, every witnessed rejection must reproduce a
/// violation, and no rejection may fall back to "no witness" within a
/// generous enumeration budget.
#[test]
fn admission_verdicts_are_sound_across_pairs_and_levels() {
    for scheme in ["ffc", "pcf-tf"] {
        let (inst, sol, fm) = solved_abilene(scheme);
        let served = sol.served(&inst);
        let tol_abs = absolute_tolerance(&served, 1e-6);
        let mut admissions = 0usize;
        let mut rejections = 0usize;
        for p in inst.pair_ids().take(12) {
            let headroom = (sol.worst_available[p.0] - served[p.0]).max(0.0);
            for extra in [
                0.0,
                0.25 * headroom,
                0.9 * headroom,
                headroom + 0.5 + served[p.0],
            ] {
                let outcome = admit(
                    &inst,
                    p,
                    &fm,
                    &sol.a,
                    &sol.b,
                    served[p.0],
                    sol.worst_available[p.0],
                    extra,
                    tol_abs,
                    1_000_000,
                );
                match outcome {
                    AdmitOutcome::Admitted { headroom: h, .. } => {
                        admissions += 1;
                        assert!(
                            extra <= h + tol_abs + 1e-9,
                            "{scheme} pair {p:?}: admitted {extra} beyond headroom {h}"
                        );
                        let mut bumped = served.clone();
                        bumped[p.0] += extra;
                        let report = validate_all(&inst, &fm, &sol.a, &sol.b, &bumped, 1e-6);
                        assert!(
                            report.congestion_free(),
                            "{scheme} pair {p:?}: admitted extra {extra} violates: {:?}",
                            report.violations
                        );
                    }
                    AdmitOutcome::Rejected {
                        worst_available,
                        witness,
                    } => {
                        rejections += 1;
                        assert!(
                            served[p.0] + extra > worst_available,
                            "{scheme} pair {p:?}: rejected {extra} below the bound"
                        );
                        let witness = witness.unwrap_or_else(|| {
                            panic!("{scheme} pair {p:?}: rejection without witness in budget")
                        });
                        let mut mask = vec![false; inst.topo().link_count()];
                        for l in &witness {
                            mask[l.index()] = true;
                        }
                        let mut bumped = served.clone();
                        bumped[p.0] += extra;
                        let witnessed = [Scenario::from_mask(mask)];
                        let report =
                            validate_scenarios(&inst, &sol.a, &sol.b, &bumped, &witnessed, 1e-6);
                        assert!(
                            !report.congestion_free(),
                            "{scheme} pair {p:?}: witness {witness:?} does not violate at {extra}"
                        );
                    }
                }
            }
        }
        // The sweep must exercise both verdicts to mean anything.
        assert!(admissions > 0, "{scheme}: no admissions exercised");
        assert!(rejections > 0, "{scheme}: no rejections exercised");
    }
}

/// Zero extra demand is always admissible: the plan already serves it.
#[test]
fn zero_extra_is_always_admitted() {
    let (inst, sol, fm) = solved_abilene("ffc");
    let served = sol.served(&inst);
    let tol_abs = absolute_tolerance(&served, 1e-6);
    for p in inst.pair_ids() {
        let outcome = admit(
            &inst,
            p,
            &fm,
            &sol.a,
            &sol.b,
            served[p.0],
            sol.worst_available[p.0],
            0.0,
            tol_abs,
            1_000_000,
        );
        assert!(outcome.admitted(), "pair {p:?}: {outcome:?}");
    }
}
