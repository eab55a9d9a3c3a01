//! Layer probes of the traced run: each times one public function of one
//! crate on the common instance, outside any workload loop. A workload's
//! traced run only runs the probes of layers its op enters.

use crate::harness::{median_us, plan_is_valid, Base, Layers};
use pcf_core::dualized::solve_pcf_tf_dual;
use pcf_core::realize::pairs_of_interest;
use pcf_core::{
    absolute_tolerance, adversary::worst_case_link, pcf_ls_instance, realize_routing,
    reservation_matrix, tunnel_instance, validate_all, FailureState, Objective,
};
use pcf_lp::{IncrementalLp, LpProblem, Sense, SimplexOptions, SparseLu, VarId};
use pcf_paths::select_tunnels;
use pcf_serve::{parse_request, Json};
use pcf_topology::zoo;
use pcf_traffic::{gravity, TrafficMatrix};
use std::hint::black_box;

fn base_traffic(base: &Base) -> TrafficMatrix {
    let mut tm = gravity(&base.spec.topo, base.spec.seed);
    tm.truncate_to_top_k(base.spec.max_pairs);
    tm
}

/// What set-up is made of on every workload: topology, traffic, tunnel
/// selection, instance assembly and validation of the base plan.
pub fn build(base: &Base, layers: &mut Layers) {
    let spec = &base.spec;
    let e = &base.epoch;
    layers.set(
        "topology.build_us",
        median_us(25, || {
            black_box(zoo::build(black_box("Quest")));
        }),
    );
    layers.set(
        "traffic.gravity_us",
        median_us(25, || {
            black_box(gravity(&spec.topo, black_box(spec.seed)));
        }),
    );
    let tm = base_traffic(base);
    layers.set(
        "paths.select_tunnels_us",
        median_us(5, || {
            for (s, t, _) in tm.positive_pairs() {
                black_box(select_tunnels(&spec.topo, s, t, spec.tunnels));
            }
        }),
    );
    layers.set("paths.tunnels", e.inst.num_tunnels() as f64);
    layers.set(
        "core.instance_build_us",
        median_us(5, || {
            black_box(pcf_ls_instance(&spec.topo, &tm, spec.tunnels));
        }),
    );
    layers.set(
        "core.validate_us",
        median_us(11, || {
            black_box(plan_is_valid(e, &e.served));
        }),
    );
    let report = validate_all(&e.inst, &e.fm, &e.a, &e.b, &e.served, e.tol);
    layers.set("core.validate_states", report.distinct_states as f64);
}

/// `n x n` transportation LP, the shape `BENCH_lp.json` used.
fn transportation_lp(n: usize) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    let mut v = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            v.push(lp.add_nonneg(((i * 7 + j * 3) % 10 + 1) as f64));
        }
    }
    for i in 0..n {
        lp.add_eq((0..n).map(|j| (v[i * n + j], 1.0)), 1.0);
    }
    for j in 0..n {
        lp.add_eq((0..n).map(|i| (v[i * n + j], 1.0)), 1.0);
    }
    (lp, v)
}

/// The LP layer used cold and warm, the separation oracle, and the rebase
/// probe: what `plan-cold` and `replan-warm` spend their time in.
pub fn solve(base: &Base, layers: &mut Layers) {
    let spec = &base.spec;
    let e = &base.epoch;

    let tunnels_only = tunnel_instance(&spec.topo, &base_traffic(base), spec.tunnels);
    layers.set(
        "lp.dualized_solve_us",
        median_us(1, || {
            black_box(
                solve_pcf_tf_dual(
                    &tunnels_only,
                    &e.fm,
                    Objective::DemandScale,
                    &SimplexOptions::default(),
                )
                .is_ok(),
            );
        }),
    );

    // One cut appended to a solved 24x24 transportation LP: re-solved from
    // the retained basis, against rebuilt and solved from scratch.
    const N: usize = 24;
    let cut =
        |v: &[VarId]| -> Vec<(VarId, f64)> { (0..N).step_by(2).map(|j| (v[j], 1.0)).collect() };
    let (mut cold_iterations, mut warm_iterations, mut fallbacks) = (0, 0, 0);
    layers.set(
        "lp.incr_cold_us",
        median_us(9, || {
            let (mut lp, v) = transportation_lp(N);
            lp.add_le(cut(&v), 0.6);
            cold_iterations = lp.solve().map_or(0, |s| s.iterations);
        }),
    );
    let mut warm_us = Vec::with_capacity(9);
    for _ in 0..9 {
        let (lp, v) = transportation_lp(N);
        let mut inc = IncrementalLp::new(lp);
        let solved = inc.solve().is_ok();
        inc.add_le(cut(&v), 0.6);
        warm_us.push(median_us(1, || {
            warm_iterations = inc.solve().map_or(0, |s| s.iterations);
        }));
        fallbacks = inc.stats().warm_fallbacks + usize::from(!solved);
    }
    layers.set("lp.incr_warm_us", crate::stats::median(&mut warm_us));
    layers.set("lp.incr_cold_iterations", cold_iterations as f64);
    layers.set("lp.incr_warm_iterations", warm_iterations as f64);
    layers.set("lp.incr_warm_fallbacks", fallbacks as f64);

    layers.set(
        "core.separation_round_us",
        median_us(5, || {
            for p in e.inst.pair_ids() {
                black_box(worst_case_link(&e.inst, p, &e.fm, &e.a, &e.b).is_ok());
            }
        }),
    );

    // Does a capacity rebase warm-start? Same spec with one link at half
    // capacity, re-solved with the base pool offered. 0 today: the demand
    // pair set shifts with the capacities (README.md, "Honest limitations").
    let mut rebased = spec.clone();
    let link = pcf_topology::LinkId(0);
    rebased
        .topo
        .set_capacity(link, spec.topo.capacity(link) * 0.5);
    let seeded = rebased
        .solve_epoch_seeded(2, 1.0, spec.seed, 8, Some(&base.pool))
        .map_or(0, |(epoch, _)| epoch.warm_cuts);
    layers.set("core.rebase_seeded_cuts", seeded as f64);
}

/// One cold realization with `dead` down, split into assembling `M`,
/// factoring it and back-substituting: a cache miss pays all three, a hit
/// only the last.
pub fn realize(base: &Base, dead: u32, layers: &mut Layers) {
    let e = &base.epoch;
    let mut mask = vec![false; e.inst.topo().link_count()];
    mask[dead as usize] = true;
    let Ok(state) = FailureState::new(&e.inst, &mask) else {
        return;
    };
    let tol_abs = absolute_tolerance(&e.served, e.tol);
    let pairs = pairs_of_interest(&e.inst, &state, &e.served, &e.b, tol_abs);
    layers.set(
        "core.realize_assemble_us",
        median_us(51, || {
            let pairs = pairs_of_interest(&e.inst, &state, &e.served, &e.b, tol_abs);
            black_box(reservation_matrix(&e.inst, &state, &e.a, &e.b, &pairs));
        }),
    );
    let m = reservation_matrix(&e.inst, &state, &e.a, &e.b, &pairs);
    layers.set("core.matrix_dim", m.n() as f64);
    layers.set(
        "lp.lu_factor_us",
        median_us(51, || {
            black_box(SparseLu::factor_dense_compat(&m).is_ok());
        }),
    );
    if let Ok(lu) = SparseLu::factor_dense_compat(&m) {
        let d: Vec<f64> = pairs.iter().map(|&p| e.served[p.0]).collect();
        layers.set("lp.lu_nnz", lu.nnz() as f64);
        layers.set(
            "lp.lu_solve_us",
            median_us(201, || {
                black_box(lu.solve(black_box(&d)));
            }),
        );
    }
    layers.set(
        "core.realize_cold_us",
        median_us(51, || {
            black_box(realize_routing(&e.inst, &state, &e.a, &e.b, &e.served, e.tol).is_ok());
        }),
    );
}

/// Wire-format cost per request: parsing one `admit` line into a `Request`
/// plus parsing a `realize` response, and rendering that response.
pub fn json(admit_line: &str, layers: &mut Layers) {
    let response = Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("gen".into(), Json::Num(1.0)),
        ("stage".into(), Json::str("normal")),
        ("max_utilization".into(), Json::Num(0.732_521_320_191_360_2)),
        ("shed".into(), Json::Num(0.0)),
        ("dead_links".into(), Json::Num(1.0)),
    ]);
    let rendered = response.render();
    const BATCH: usize = 100;
    layers.set(
        "serve.json_parse_us",
        median_us(101, || {
            for _ in 0..BATCH {
                black_box(parse_request(black_box(admit_line)).is_ok());
                black_box(Json::parse(black_box(&rendered)).is_ok());
            }
        }) / BATCH as f64,
    );
    layers.set(
        "serve.json_render_us",
        median_us(101, || {
            for _ in 0..BATCH {
                black_box(black_box(&response).render());
            }
        }) / BATCH as f64,
    );
}
