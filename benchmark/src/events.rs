//! `events-revisit` and `events-churn`: the failure-event path of
//! `pcf-replay` with the factor cache larger and smaller than the working
//! set.
//!
//! Op = link swap: revive the dead link, fail another, realize the routing
//! through the degradation ladder, judge its peak utilization. Exactly one
//! link is dead after every op, which is the `f = 1` the plan guarantees,
//! so every realization must come back at stage `normal`.

use crate::harness::{
    announce_instance, require_identical_passes, solve_base, timed_setups, Base, Config, Layers,
    Measured, Report, PASSES,
};
use crate::stats::{quantile_sorted, spread, Fnv};
use crate::trace::{Off, Rec, Tracer};
use crate::{alloc, probes};
use pcf_core::{peak_utilization, DegradeMode, LadderStage};
use pcf_replay::{CacheStats, EventKind, LinkEvent, ReplayEngine};
use pcf_rng::Pcg32;
use pcf_topology::LinkId;
use std::hint::black_box;
use std::time::Instant;

/// The two cache regimes.
pub struct Variant {
    /// Private factor-cache capacity, against about 30 distinct states.
    pub cache_capacity: usize,
    /// Ops per pass per `--seconds`, fixed so op counts never depend on how
    /// fast the machine is (about 2 s a pass at 10 µs and 160 µs per op).
    pub ops_per_pass_second: usize,
}

pub const REVISIT: Variant = Variant {
    cache_capacity: 1024,
    ops_per_pass_second: 17_000,
};

pub const CHURN: Variant = Variant {
    cache_capacity: 8,
    ops_per_pass_second: 1_250,
};

/// Sequence of dead links: consecutive shuffled permutations of all links,
/// neighbours always distinct. Entry 0 is the link down before the first op.
pub fn dead_link_sequence(links: u32, ops: usize, seed: u64) -> Vec<u32> {
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..links).collect();
    let mut seq = Vec::with_capacity(ops + 1 + links as usize);
    while seq.len() < ops + 1 {
        rng.shuffle(&mut perm);
        if seq.last() == perm.first() {
            perm.swap(0, 1);
        }
        seq.extend_from_slice(&perm);
    }
    seq.truncate(ops + 1);
    seq
}

/// An engine over `served` with `dead` already down.
pub fn engine_with_dead<'a>(
    base: &'a Base,
    served: &'a [f64],
    cache_capacity: usize,
    dead: u32,
) -> Result<ReplayEngine<'a>, String> {
    let e = &base.epoch;
    let mut engine = ReplayEngine::new(&e.inst, &e.a, &e.b, served, e.tol, cache_capacity);
    engine.set_degrade(DegradeMode::Shed);
    engine
        .apply(&LinkEvent {
            link: LinkId(dead),
            kind: EventKind::Down,
        })
        .map_err(|e| format!("initial down failed: {e}"))?;
    Ok(engine)
}

/// One link swap. Returns the peak utilization when the realization is
/// congestion-free at stage `normal`, `None` when the op counts as failed.
pub fn swap_op<R: Rec>(
    base: &Base,
    engine: &mut ReplayEngine<'_>,
    old: u32,
    new: u32,
    rec: &mut R,
) -> Option<f64> {
    let op = rec.begin("op");
    let s = rec.begin("replay.apply");
    let up = engine.apply(&LinkEvent {
        link: LinkId(old),
        kind: EventKind::Up,
    });
    rec.end(s);
    let s = rec.begin("replay.apply");
    let down = engine.apply(&LinkEvent {
        link: LinkId(new),
        kind: EventKind::Down,
    });
    rec.end(s);
    let s = rec.begin("replay.realize");
    // Only a traced op asks the cache whether this lookup missed.
    let misses = if R::ON {
        engine.cache_stats().misses
    } else {
        0
    };
    let realized = engine.realize_degraded();
    let missed = R::ON && engine.cache_stats().misses != misses;
    rec.end_as(
        s,
        Some(if missed {
            "replay.realize_miss"
        } else {
            "replay.realize_hit"
        }),
    );
    let s = rec.begin("core.peak_utilization");
    let util = realized.as_ref().ok().map(|d| {
        (
            d.ladder_stage,
            peak_utilization(&base.epoch.inst, &d.routing, engine.capacities()),
        )
    });
    rec.end(s);
    rec.end(op);
    match (up, down, util) {
        (Ok(()), Ok(()), Some((LadderStage::Normal, u))) if u <= 1.0 + base.epoch.tol => Some(u),
        _ => None,
    }
}

/// Counts of one pass over the timed region.
struct PassOut {
    wall_ns: u64,
    failed: u64,
    cache: CacheStats,
    digest: u64,
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        errors: after.errors - before.errors,
    }
}

/// One pass: a fresh engine, an untimed walk over the first `prime` swaps
/// (one permutation of the links, so `events-revisit` starts with every
/// state cached), then the timed swaps.
fn pass(
    base: &Base,
    variant: &Variant,
    seq: &[u32],
    prime: usize,
    samples_ns: &mut Vec<u64>,
    rec: &mut impl Rec,
) -> Result<PassOut, String> {
    let mut engine = engine_with_dead(base, &base.epoch.served, variant.cache_capacity, seq[0])?;
    for w in seq[..=prime].windows(2) {
        swap_op(base, &mut engine, w[0], w[1], &mut Off);
    }
    let before = engine.cache_stats();
    let mut h = Fnv::default();
    let mut failed = 0u64;
    let start = Instant::now();
    for w in seq[prime..].windows(2) {
        let t = Instant::now();
        let util = black_box(swap_op(
            base,
            &mut engine,
            black_box(w[0]),
            black_box(w[1]),
            rec,
        ));
        samples_ns.push(t.elapsed().as_nanos() as u64);
        match util {
            Some(u) => h.eat_f64(u),
            None => failed += 1,
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let cache = cache_delta(engine.cache_stats(), before);
    for word in [cache.hits, cache.misses, cache.evictions, cache.errors] {
        h.eat(word);
    }
    Ok(PassOut {
        wall_ns,
        failed,
        cache,
        digest: h.0,
    })
}

/// The hit-ratio band that makes the two workloads a contrast.
fn check_contrast(variant: &Variant, cache: CacheStats) -> Result<(), String> {
    let ratio = cache.hit_rate();
    let ok = if variant.cache_capacity >= 30 {
        ratio >= 0.99
    } else {
        ratio <= 0.10
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "run invalid: hit ratio {ratio:.4} with cache capacity {} is outside the workload's band",
            variant.cache_capacity
        ))
    }
}

pub fn run(cfg: &Config, variant: &Variant) -> Result<Report, String> {
    let links = crate::harness::quest_spec().topo.link_count();
    let prime = links;
    // The traced run records five spans per op; a quarter of the ops keeps
    // the span buffer in the tens of megabytes.
    let (passes, ops) = if cfg.trace {
        (3, variant.ops_per_pass_second * cfg.seconds as usize / 4)
    } else {
        (PASSES, variant.ops_per_pass_second * cfg.seconds as usize)
    };
    // Untimed warm-up pass; in the traced run it doubles as the untraced
    // reference and gets as many ops as a traced pass.
    let warm_ops = if cfg.trace { ops } else { ops / 4 };
    let seq = dead_link_sequence(links as u32, prime + ops, cfg.seed);
    let mut samples_ns: Vec<u64> = Vec::with_capacity(passes * ops);
    let mut tracer = cfg.trace.then(|| Tracer::with_capacity(passes * ops * 5));
    alloc::rebase();

    let (base, setup_s) = timed_setups(|| solve_base(variant.cache_capacity))?;
    announce_instance(&base);
    println!(
        "{ops} swaps a pass after {prime} untimed, cache capacity {}",
        variant.cache_capacity
    );

    let allocs_before = alloc::allocations();
    let warm_seq = &seq[..=prime + warm_ops];
    pass(&base, variant, warm_seq, prime, &mut samples_ns, &mut Off)?;
    let allocs_per_op = (alloc::allocations() - allocs_before) as f64 / (prime + warm_ops) as f64;
    samples_ns.sort_unstable();
    let reference_p50 = quantile_sorted(&samples_ns, 0.5) as f64;
    let reference_p99 = quantile_sorted(&samples_ns, 0.99) as f64;
    samples_ns.clear();

    let mut outs = Vec::with_capacity(passes);
    for _ in 0..passes {
        outs.push(match tracer.as_mut() {
            Some(t) => pass(&base, variant, &seq, prime, &mut samples_ns, t)?,
            None => pass(&base, variant, &seq, prime, &mut samples_ns, &mut Off)?,
        });
    }
    let digests: Vec<u64> = outs.iter().map(|o| o.digest).collect();
    require_identical_passes(&digests)?;
    let cache = outs[0].cache;
    check_contrast(variant, cache)?;
    println!(
        "cache per pass: {} hits, {} misses, {} evictions",
        cache.hits, cache.misses, cache.evictions
    );
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let attempted = (passes * ops) as u64;

    let Some(tracer) = tracer else {
        let measured = Measured {
            setup_s,
            pass_wall_ns: outs.iter().map(|o| o.wall_ns).collect(),
            ops_per_pass: ops as u64,
            samples_ns,
            plan_objective: base.epoch.objective,
        };
        return Ok(Report {
            attempted,
            failed,
            metrics: measured.end_to_end(),
        });
    };

    let mut layers = Layers::default();
    layers.set("replay.apply_us", tracer.median_us("replay.apply"));
    layers.set(
        "replay.realize_hit_us",
        tracer.median_us("replay.realize_hit"),
    );
    layers.set(
        "replay.realize_miss_us",
        tracer.median_us("replay.realize_miss"),
    );
    layers.set("replay.cache_hits", cache.hits as f64);
    layers.set("replay.cache_misses", cache.misses as f64);
    layers.set("replay.cache_evictions", cache.evictions as f64);
    layers.set("replay.hit_ratio", cache.hit_rate());
    layers.set(
        "replay.stage_normal_ratio",
        (attempted - failed) as f64 / attempted as f64,
    );
    layers.set("replay.op_p99_us", reference_p99 / 1e3);
    samples_ns.sort_unstable();
    layers.set("bench.layer_sum_ratio", tracer.layer_sum_ratio());
    layers.set(
        "bench.trace_overhead_ratio",
        quantile_sorted(&samples_ns, 0.5) as f64 / reference_p50,
    );
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_ns as f64).collect();
    layers.set("bench.pass_spread", spread(&walls));
    layers.set("proc.allocs_per_op", allocs_per_op);
    probes::build(&base, &mut layers);
    probes::realize(&base, seq[0], &mut layers);
    crate::write_trace(cfg, &tracer);
    Ok(Report {
        attempted,
        failed,
        metrics: layers.into_metrics(),
    })
}

/// `--self-test`: with served demand inflated 1.5x the same op must count
/// failures (the realization leaves stage `normal` or overloads a link).
pub fn self_test_failed_ops(base: &Base, inflated: &[f64]) -> Result<(u64, u64), String> {
    let links = base.epoch.inst.topo().link_count() as u32;
    let seq = dead_link_sequence(links, links as usize, 1);
    let mut counts = [0u64; 2];
    for (served, failed) in [&base.epoch.served[..], inflated]
        .into_iter()
        .zip(&mut counts)
    {
        let mut engine = engine_with_dead(base, served, 64, seq[0])?;
        for w in seq.windows(2) {
            if swap_op(base, &mut engine, w[0], w[1], &mut Off).is_none() {
                *failed += 1;
            }
        }
    }
    Ok((counts[0], counts[1]))
}
