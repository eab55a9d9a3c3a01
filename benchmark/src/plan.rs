//! `plan-cold` and `replan-warm`: time to a validated plan.
//!
//! Both walk the same six demand scales over the same instance; the only
//! difference is whether the previous op's cut pool is offered to the next
//! solve. `replan-warm/op_p50_us` against `plan-cold/op_p50_us` is therefore
//! the warm-vs-cold question of ROADMAP item 1, and a change to the warm
//! path must leave `plan-cold` where it was.

use crate::harness::{
    announce_instance, plan_is_valid, require_identical_passes, solve_base, timed_setups, Base,
    Config, Layers, Measured, Report, PASSES,
};
use crate::stats::{median, spread, Fnv};
use crate::trace::{Rec, Tracer};
use crate::{alloc, probes};
use pcf_core::{pcf_ls_instance, solve_pcf_ls_seeded, validate_all, CutPool, FailureModel};
use pcf_traffic::gravity;
use std::hint::black_box;
use std::time::Instant;

/// The demand-scale cycle of one pass. `--seed` does not touch it: the plan
/// ops have no random input, and reordering the cycle changes what each warm
/// solve starts from (measured: 10–17% on `replan-warm` between orders).
const SCALES: [f64; 6] = [1.10, 0.90, 1.25, 0.80, 1.40, 1.00];

/// Cache capacity of the solved epochs; plan ops never realize through it.
const EPOCH_CACHE: usize = 8;

/// Measured passes: a pass of six solves is about 4 s cold and 2.7 s warm;
/// never fewer than [`PASSES`], so each slot's median outlives two disturbed
/// passes (with 3 and 4 passes `replan-warm` spread 13% between runs).
fn passes(seconds: u64, warm: bool) -> usize {
    let pass_seconds = if warm { 2.7 } else { 4.0 };
    ((seconds as f64 / pass_seconds).round() as usize).max(PASSES)
}

/// What one op produced, for the checks and the determinism digest.
struct OpOut {
    objective: f64,
    seeded_cuts: usize,
    valid: bool,
    digest: u64,
}

/// The measured op: one call to the public epoch solver plus validation of
/// what it returned. `pool` is `Some` on `replan-warm` and is advanced to
/// the pool the solve exports.
fn plan_op(base: &Base, scale: f64, pool: Option<&mut CutPool>) -> Result<OpOut, String> {
    let spec = &base.spec;
    let (epoch, next) = match &pool {
        None => (
            spec.solve_epoch(2, scale, spec.seed, EPOCH_CACHE)
                .map_err(|e| format!("solve_epoch({scale}) failed: {e}"))?,
            None,
        ),
        Some(prev) => spec
            .solve_epoch_seeded(2, scale, spec.seed, EPOCH_CACHE, Some(prev))
            .map_err(|e| format!("solve_epoch_seeded({scale}) failed: {e}"))?,
    };
    let valid = plan_is_valid(&epoch, &epoch.served);
    let mut h = Fnv::default();
    h.eat(epoch.plan_digest);
    h.eat(epoch.warm_cuts as u64);
    if let Some(pool) = pool {
        *pool = next.ok_or("warm solve exported no cut pool")?;
        h.eat(pool.len() as u64);
    }
    Ok(OpOut {
        objective: epoch.objective,
        seeded_cuts: epoch.warm_cuts,
        valid,
        digest: h.0,
    })
}

/// Counters of one decomposed op.
struct TracedOut {
    out: OpOut,
    rounds: usize,
    cuts: usize,
    warm_rounds: usize,
}

/// The same op replayed layer by layer, with a span around each call.
/// Mirrors `PlanSpec::solve_epoch_seeded` for PCF-LS with `mlu = 0`.
fn plan_op_traced(
    base: &Base,
    scale: f64,
    pool: Option<&mut CutPool>,
    rec: &mut Tracer,
) -> Result<TracedOut, String> {
    let spec = &base.spec;
    let op = rec.begin("op");
    let s = rec.begin("traffic.gravity");
    let mut tm = gravity(&spec.topo, spec.seed);
    rec.end(s);
    let s = rec.begin("traffic.truncate_scale");
    tm.truncate_to_top_k(spec.max_pairs);
    tm.scale(scale);
    rec.end(s);
    let s = rec.begin("core.instance_build");
    let inst = pcf_ls_instance(&spec.topo, &tm, spec.tunnels);
    rec.end(s);
    let fm = FailureModel::links(spec.f);
    let s = rec.begin("core.robust_solve");
    let solved = solve_pcf_ls_seeded(&inst, &fm, &spec.opts, pool.as_deref());
    rec.end(s);
    let (sol, next) = solved.map_err(|e| format!("solve_pcf_ls_seeded({scale}) failed: {e}"))?;
    let s = rec.begin("core.validate");
    let served: Vec<f64> = inst
        .pair_ids()
        .map(|p| sol.z[p.0] * inst.demand(p))
        .collect();
    let valid = validate_all(&inst, &fm, &sol.a, &sol.b, &served, spec.tol).congestion_free();
    rec.end(s);
    rec.end(op);
    let mut h = Fnv::default();
    h.eat_f64(sol.objective);
    h.eat(sol.rounds as u64);
    h.eat(sol.cuts as u64);
    h.eat(sol.warm_rounds as u64);
    h.eat(sol.seeded_cuts as u64);
    h.eat(next.len() as u64);
    if let Some(pool) = pool {
        *pool = next;
    }
    Ok(TracedOut {
        out: OpOut {
            objective: sol.objective,
            seeded_cuts: sol.seeded_cuts,
            valid,
            digest: h.0,
        },
        rounds: sol.rounds,
        cuts: sol.cuts,
        warm_rounds: sol.warm_rounds,
    })
}

/// `seeded_cuts > 0` on every warm op and `= 0` on every cold one is what
/// makes the two workloads a contrast; a run where it does not hold measured
/// something else and is rejected.
fn check_contrast(warm: bool, scale: f64, seeded_cuts: usize) -> Result<(), String> {
    if warm == (seeded_cuts > 0) {
        Ok(())
    } else {
        Err(format!(
            "run invalid: op at scale {scale} seeded {seeded_cuts} cuts on the {} workload",
            if warm { "warm" } else { "cold" }
        ))
    }
}

pub fn run(cfg: &Config, warm: bool) -> Result<Report, String> {
    let scales = SCALES;
    if cfg.trace {
        return run_traced(cfg, warm, &scales);
    }
    let k = passes(cfg.seconds, warm);
    let mut samples_ns: Vec<u64> = Vec::with_capacity(k * scales.len());
    let mut pass_wall_ns = Vec::with_capacity(k);
    let mut digests = Vec::with_capacity(k);
    let mut objectives = vec![0.0; scales.len()];
    alloc::rebase();

    let (base, setup_s) = timed_setups(|| solve_base(EPOCH_CACHE))?;
    announce_instance(&base);
    println!("scale cycle {scales:?}, {k} passes");

    let mut failed = 0u64;
    for _ in 0..k {
        let mut pool = warm.then(|| base.pool.clone());
        let mut h = Fnv::default();
        let pass = Instant::now();
        for (i, &scale) in scales.iter().enumerate() {
            let t = Instant::now();
            let out = black_box(plan_op(&base, black_box(scale), pool.as_mut())?);
            samples_ns.push(t.elapsed().as_nanos() as u64);
            check_contrast(warm, scale, out.seeded_cuts)?;
            failed += u64::from(!out.valid);
            objectives[i] = out.objective;
            h.eat(out.digest);
        }
        pass_wall_ns.push(pass.elapsed().as_nanos() as u64);
        digests.push(h.0);
    }
    require_identical_passes(&digests)?;

    let measured = Measured {
        setup_s,
        pass_wall_ns,
        ops_per_pass: scales.len() as u64,
        samples_ns,
        plan_objective: objectives.iter().sum::<f64>() / objectives.len() as f64,
    };
    Ok(Report {
        attempted: (k * scales.len()) as u64,
        failed,
        metrics: measured.end_to_end(),
    })
}

/// Traced run: one untraced reference pass (for the tracing overhead), two
/// decomposed passes under the tracer, then the layer probes.
fn run_traced(cfg: &Config, warm: bool, scales: &[f64]) -> Result<Report, String> {
    const TRACED_PASSES: usize = 2;
    let n = scales.len();
    let mut tracer = Tracer::with_capacity(TRACED_PASSES * n * 8);
    let mut reference_ns: Vec<f64> = Vec::with_capacity(n);
    alloc::rebase();

    let base = solve_base(EPOCH_CACHE)?;
    announce_instance(&base);
    let mut layers = Layers::default();
    let mut failed = 0u64;

    let mut pool = warm.then(|| base.pool.clone());
    let allocs_before = alloc::allocations();
    for &scale in scales {
        let t = Instant::now();
        let out = black_box(plan_op(&base, black_box(scale), pool.as_mut())?);
        reference_ns.push(t.elapsed().as_nanos() as f64);
        failed += u64::from(!out.valid);
    }
    let allocs_per_op = (alloc::allocations() - allocs_before) as f64 / n as f64;

    let mut digests = Vec::with_capacity(TRACED_PASSES);
    let mut pass_s = Vec::with_capacity(TRACED_PASSES);
    let mut last = Vec::with_capacity(n);
    for _ in 0..TRACED_PASSES {
        let mut pool = warm.then(|| base.pool.clone());
        let mut h = Fnv::default();
        last.clear();
        let pass = Instant::now();
        for &scale in scales {
            let t = plan_op_traced(&base, scale, pool.as_mut(), &mut tracer)?;
            check_contrast(warm, scale, t.out.seeded_cuts)?;
            failed += u64::from(!t.out.valid);
            h.eat(t.out.digest);
            last.push(t);
        }
        pass_s.push(pass.elapsed().as_secs_f64());
        digests.push(h.0);
    }
    require_identical_passes(&digests)?;

    // Untraced composed op against the decomposed one: the gap is tracing
    // overhead plus whatever the decomposition does differently.
    let robust_solve_us = tracer.median_us("core.robust_solve");
    let mean = |f: &dyn Fn(&TracedOut) -> usize| {
        last.iter().map(|t| f(t) as f64).sum::<f64>() / last.len() as f64
    };
    layers.set("core.robust_solve_us", robust_solve_us);
    layers.set("core.rounds", mean(&|t| t.rounds));
    layers.set("core.cuts", mean(&|t| t.cuts));
    layers.set("core.warm_rounds", mean(&|t| t.warm_rounds));
    layers.set("core.seeded_cuts", mean(&|t| t.out.seeded_cuts));
    layers.set("bench.layer_sum_ratio", tracer.layer_sum_ratio());
    layers.set(
        "bench.trace_overhead_ratio",
        tracer.median_us("op") * 1e3 / median(&mut reference_ns),
    );
    layers.set("bench.pass_spread", spread(&pass_s));
    layers.set("proc.allocs_per_op", allocs_per_op);

    probes::build(&base, &mut layers);
    probes::solve(&base, &mut layers);
    // Estimate: every round separates all pairs once, at about the cost
    // measured at the final plan.
    layers.set(
        "core.separation_share",
        layers.get("core.rounds") * layers.get("core.separation_round_us") / robust_solve_us,
    );
    crate::write_trace(cfg, &tracer);
    Ok(Report {
        attempted: ((TRACED_PASSES + 1) * n) as u64,
        failed,
        metrics: layers.into_metrics(),
    })
}

/// `--self-test`: a plan whose served demand is inflated 1.5x must fail the
/// same validity check the plan ops use.
pub fn self_test_detects_overload(base: &Base, inflated: &[f64]) -> bool {
    plan_is_valid(&base.epoch, &base.epoch.served) && !plan_is_valid(&base.epoch, inflated)
}
