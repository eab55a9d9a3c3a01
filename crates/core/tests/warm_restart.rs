//! A re-plan restarts from the previous optimum.
//!
//! The cut pool of a base solve carries the binding scenarios *and* the
//! optimal basis of the master that held them. Offered to the same pair set
//! under non-uniform demand drift, it must land where a cold solve lands —
//! certified by the same separation pass, checked by `validate_all` — in no
//! more rounds and a fraction of the pivots, without the LP ever falling
//! back to the crash basis, and identically on 1 and 4 separation threads.

use pcf_core::{
    pcf_ls_instance, solve_pcf_ls, solve_pcf_ls_seeded, validate_all, FailureModel, Instance,
    Objective, RobustOptions, RobustSolution,
};
use pcf_rng::Pcg32;
use pcf_topology::{zoo, Topology};
use pcf_traffic::{gravity, TrafficMatrix};

/// Gravity seed 1, top 200 pairs: what the CLI and the benchmark plan.
fn base_traffic(topo: &Topology) -> TrafficMatrix {
    let mut tm = gravity(topo, 1);
    tm.truncate_to_top_k(200);
    tm
}

/// `tm` with every positive demand moved by its own factor in
/// `1 ± percent/100`; the pair set is untouched.
fn drifted(tm: &TrafficMatrix, percent: f64, rng: &mut Pcg32) -> TrafficMatrix {
    let mut out = tm.clone();
    for (s, t, d) in tm.positive_pairs() {
        let by = rng.range_f64(-1.0, 1.0) * percent / 100.0;
        out.set_demand(s, t, d * (1.0 + by));
    }
    out
}

fn options(objective: Objective, threads: usize) -> RobustOptions {
    RobustOptions {
        objective,
        threads,
        ..RobustOptions::default()
    }
}

fn congestion_free(inst: &Instance, fm: &FailureModel, sol: &RobustSolution) -> bool {
    validate_all(inst, fm, &sol.a, &sol.b, &sol.served(inst), 1e-6).congestion_free()
}

fn drift_restarts_from_the_base_optimum(name: &str) {
    let topo = zoo::build(name);
    let tm = base_traffic(&topo);
    let fm = FailureModel::links(1);
    let mut rng = Pcg32::seed_from_u64(0x5eed_ba51);
    for objective in [Objective::DemandScale, Objective::Throughput] {
        let base = pcf_ls_instance(&topo, &tm, 3);
        let (_, pool) = solve_pcf_ls_seeded(&base, &fm, &options(objective, 1), None).unwrap();
        assert!(!pool.is_empty(), "{name}: f=1 separates cuts");
        for percent in [0.0, 2.0, 10.0, 30.0] {
            let label = format!("{name} {objective:?} ±{percent}%");
            let inst = pcf_ls_instance(&topo, &drifted(&tm, percent, &mut rng), 3);
            let cold = solve_pcf_ls(&inst, &fm, &options(objective, 1));
            let (warm, next) =
                solve_pcf_ls_seeded(&inst, &fm, &options(objective, 1), Some(&pool)).unwrap();

            assert_eq!(warm.seeded_cuts, pool.len(), "{label}: pool not taken");
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                "{label}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            assert!(
                congestion_free(&inst, &fm, &warm),
                "{label}: warm plan overloads a link"
            );
            assert!(
                warm.rounds <= cold.rounds,
                "{label}: {} rounds warm, {} cold",
                warm.rounds,
                cold.rounds
            );
            let lp = warm.lp_stats;
            assert_eq!(
                (lp.warm_fallbacks, lp.cold_solves, lp.phase1_iterations),
                (0, 0, 0),
                "{label}: {lp:?}"
            );
            assert_eq!(warm.warm_rounds, warm.rounds, "{label}");
            // Restarting at the old vertex is the point: the drift costs a
            // fraction of the pivots the cold solve spends finding it.
            let pivots = |s: &pcf_lp::IncrementalStats| s.primal_iterations + s.dual_iterations;
            assert!(
                2 * pivots(&lp) < pivots(&cold.lp_stats),
                "{label}: {lp:?} vs cold {:?}",
                cold.lp_stats
            );
            assert!(next.len() >= pool.len(), "{label}: the pool only grows");

            let (wide, wide_next) =
                solve_pcf_ls_seeded(&inst, &fm, &options(objective, 4), Some(&pool)).unwrap();
            assert_eq!(
                wide.objective.to_bits(),
                warm.objective.to_bits(),
                "{label}"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&wide.a),
                bits(&warm.a),
                "{label}: a differs by threads"
            );
            assert_eq!(
                bits(&wide.b),
                bits(&warm.b),
                "{label}: b differs by threads"
            );
            assert_eq!(
                (wide.rounds, wide.cuts, wide_next.len()),
                (warm.rounds, warm.cuts, next.len()),
                "{label}"
            );
        }
    }
}

#[test]
fn abilene_drift_restarts_from_the_base_optimum() {
    drift_restarts_from_the_base_optimum("Abilene");
}

#[test]
fn sprint_drift_restarts_from_the_base_optimum() {
    drift_restarts_from_the_base_optimum("Sprint");
}
