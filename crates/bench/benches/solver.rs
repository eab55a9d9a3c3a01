//! Benches for the substrate: LP solver, linear systems, paths, the online
//! failure-response step (the paper's "solving a linear system is much
//! faster than solving LPs" claim, §4.1), and the incremental warm-started
//! robust engine against a cold rebuild-every-round baseline.

use pcf_bench::harness::Harness;
use pcf_core::realize::{proportional_routing, realize_routing, FailureState};
use pcf_core::{
    pcf_ls_instance, solve_pcf_ls, solve_pcf_tf, tunnel_instance, FailureModel, RobustOptions,
};
use pcf_lp::{
    solve_dense, DenseMatrix, EngineKind, IncrementalLp, LpProblem, Pricing, Sense, SimplexOptions,
    VarId,
};
use pcf_topology::zoo;
use pcf_traffic::gravity;
use std::hint::black_box;

fn bench_simplex(c: &mut Harness) {
    let mut g = c.benchmark_group("lp");
    g.sample_size(20);
    // A structured LP: transportation problem 12x12.
    g.bench_function("simplex_transportation_12x12", |b| {
        b.iter(|| {
            let n = 12;
            let mut lp = LpProblem::new(Sense::Minimize);
            let mut v = Vec::new();
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
            black_box(lp.solve().unwrap().objective)
        })
    });
    g.finish();
}

/// Transportation problem `n x n` with the given solver options; returns the
/// problem plus its variable grid so callers can append cut rows.
fn transportation_lp(n: usize, opts: &SimplexOptions) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    lp.set_options(opts.clone());
    let mut v = Vec::new();
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

/// The cut appended at step `k` of the cut-sequence benches: cap the even
/// columns of supply row `k`, tightening the transportation optimum a bit.
fn cut_row(v: &[VarId], n: usize, k: usize) -> Vec<(VarId, f64)> {
    (0..n).step_by(2).map(|j| (v[k * n + j], 1.0)).collect()
}

fn bench_lp_sparse(c: &mut Harness) {
    // The sparse basis engine (CSC + sparse LU + devex + presolve) against
    // the retained dense product-form engine on the same model, plus the
    // warm-start payoff: appending cuts to a live IncrementalLp versus
    // rebuilding and re-solving from scratch after every cut.
    let n = 24;
    let sparse = SimplexOptions::default();
    let dense = SimplexOptions {
        engine: EngineKind::Dense,
        pricing: Pricing::Dantzig,
        presolve: false,
        ..SimplexOptions::default()
    };
    // The engines must agree before we time them.
    let o_sparse = transportation_lp(n, &sparse).0.solve().unwrap().objective;
    let o_dense = transportation_lp(n, &dense).0.solve().unwrap().objective;
    assert!(
        (o_sparse - o_dense).abs() <= 1e-6 * (1.0 + o_dense.abs()),
        "engine disagreement: sparse {o_sparse} vs dense {o_dense}"
    );

    let mut g = c.benchmark_group("lp_sparse");
    g.sample_size(10);
    g.bench_function("cold_sparse_transport_24", |b| {
        b.iter(|| black_box(transportation_lp(n, &sparse).0.solve().unwrap().objective))
    });
    g.bench_function("cold_dense_transport_24", |b| {
        b.iter(|| black_box(transportation_lp(n, &dense).0.solve().unwrap().objective))
    });
    g.bench_function("warm_cut_sequence_10", |b| {
        b.iter(|| {
            let (lp, v) = transportation_lp(n, &sparse);
            let mut inc = IncrementalLp::new(lp);
            let mut last = inc.solve().unwrap().objective;
            for k in 0..10 {
                inc.add_le(cut_row(&v, n, k), 0.6);
                last = inc.solve().unwrap().objective;
            }
            black_box(last)
        })
    });
    g.bench_function("cold_cut_sequence_10", |b| {
        b.iter(|| {
            let mut last = 0.0;
            for upto in 0..=10 {
                let (mut lp, v) = transportation_lp(n, &sparse);
                for k in 0..upto {
                    lp.add_le(cut_row(&v, n, k), 0.6);
                }
                last = lp.solve().unwrap().objective;
            }
            black_box(last)
        })
    });
    g.finish();
}

fn bench_linear_system_vs_lp(c: &mut Harness) {
    // The paper's §4.1 point: responding to a failure needs only a linear
    // system solve, much cheaper than re-running an optimization.
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 5);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let fm = FailureModel::links(1);
    let sol = solve_pcf_ls(&inst, &fm, &RobustOptions::default());
    let served: Vec<f64> = inst
        .pair_ids()
        .map(|p| sol.z[p.0] * inst.demand(p))
        .collect();
    let mut dead = vec![false; topo.link_count()];
    dead[0] = true;
    let state = FailureState::new(&inst, &dead).expect("mask matches topology");

    let mut g = c.benchmark_group("online_response");
    g.bench_function("linear_system_routing", |b| {
        b.iter(|| {
            black_box(
                realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6)
                    .unwrap()
                    .u
                    .len(),
            )
        })
    });
    g.bench_function("proportional_routing", |b| {
        b.iter(|| {
            black_box(
                proportional_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6)
                    .unwrap()
                    .u
                    .len(),
            )
        })
    });
    g.sample_size(10);
    g.bench_function("full_offline_resolve_for_comparison", |b| {
        b.iter(|| black_box(solve_pcf_ls(&inst, &fm, &RobustOptions::default()).objective))
    });
    g.finish();
}

fn bench_mmatrix_solvers(c: &mut Harness) {
    // Diagonally dominant M-matrix, n = 100.
    let n = 100;
    let mut m = DenseMatrix::zeros(n);
    for i in 0..n {
        m.set(i, i, 4.0);
        m.set(i, (i + 1) % n, -1.0);
        m.set(i, (i + 7) % n, -0.5);
    }
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
    let mut g = c.benchmark_group("linsys");
    g.bench_function("dense_gaussian_100", |bch| {
        bch.iter(|| black_box(solve_dense(&m, std::slice::from_ref(&b)).unwrap()[0][0]))
    });
    g.finish();
}

fn bench_paths(c: &mut Harness) {
    let topo = zoo::build("Deltacom");
    let mut g = c.benchmark_group("paths");
    g.bench_function("yen_8_deltacom", |b| {
        b.iter(|| {
            black_box(
                pcf_paths::yen_k_shortest(
                    &topo,
                    pcf_topology::NodeId(0),
                    pcf_topology::NodeId(60),
                    8,
                )
                .len(),
            )
        })
    });
    g.bench_function("select_3_tunnels_deltacom", |b| {
        b.iter(|| {
            black_box(
                pcf_paths::select_tunnels(
                    &topo,
                    pcf_topology::NodeId(0),
                    pcf_topology::NodeId(60),
                    3,
                )
                .len(),
            )
        })
    });
    g.finish();
}

fn bench_robust_engine(c: &mut Harness) {
    // The incremental engine's two levers measured head-to-head: a live
    // master warm-started across cutting-plane rounds with 4 separation
    // threads, versus rebuilding the master from scratch every round on a
    // single thread (how the engine worked before the refactor).
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 7);
    let inst = tunnel_instance(&topo, &tm, 4);
    let fm = FailureModel::links(2);
    let warm = RobustOptions {
        threads: 4,
        warm_start: true,
        ..RobustOptions::default()
    };
    let cold = RobustOptions {
        threads: 1,
        warm_start: false,
        ..RobustOptions::default()
    };

    let mut g = c.benchmark_group("robust_solve");
    g.sample_size(10);
    g.bench_function("warm_4threads", |b| {
        b.iter(|| black_box(solve_pcf_tf(&inst, &fm, &warm).objective))
    });
    g.bench_function("cold_rebuild_1thread", |b| {
        b.iter(|| black_box(solve_pcf_tf(&inst, &fm, &cold).objective))
    });
    g.finish();
}

fn main() {
    let mut c = Harness::from_args("solver");
    bench_simplex(&mut c);
    bench_lp_sparse(&mut c);
    bench_linear_system_vs_lp(&mut c);
    bench_mmatrix_solvers(&mut c);
    bench_paths(&mut c);
    bench_robust_engine(&mut c);
    c.finish();
}
