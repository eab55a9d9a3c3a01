//! Property tests for the replay engine, on the workspace's deterministic
//! `forall` harness.
//!
//! The two contracts that make the realization cache trustworthy:
//!
//! 1. **Bit-identity** — for any trace, realizing through the cached
//!    engine produces exactly (`f64::to_bits` exactly) the routing the
//!    cold path (`realize_routing` on a freshly built `FailureState`)
//!    produces, including agreeing on errors.
//! 2. **Determinism** — the same seed yields the same trace, and replaying
//!    it twice (or across different thread counts) yields identical
//!    reports.

use pcf_core::{
    pcf_ls_instance, realize_routing, solve_pcf_ls, DegradeMode, FailureModel, FailureState,
    Instance, RobustOptions,
};
use pcf_replay::{
    replay_batch, replay_trace, EventKind, EventStage, EventTrace, FaultInjector, ReplayEngine,
    ReplayOptions,
};
use pcf_rng::{forall, Config, Pcg32};
use pcf_topology::zoo;
use pcf_traffic::gravity;

/// One solved plan shared by every property case (solving dominates the
/// test's cost; the properties vary the traces, not the plan).
fn sprint_plan() -> (Instance, Vec<f64>, Vec<f64>, Vec<f64>) {
    let topo = zoo::build("Sprint");
    let tm = gravity(&topo, 11);
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &RobustOptions::default());
    let served = sol.served(&inst);
    (inst, sol.a, sol.b, served)
}

/// Trace parameters a property case explores.
#[derive(Debug, Clone)]
struct TraceParams {
    seed: u64,
    events: usize,
    max_down: usize,
    cache_capacity: usize,
}

fn gen_params(rng: &mut Pcg32) -> TraceParams {
    TraceParams {
        seed: rng.next_u64(),
        events: rng.range_usize(10, 80),
        // max_down 2 exceeds the f=1 plan on purpose: error paths must be
        // bit-identical too.
        max_down: rng.range_usize_inclusive(1, 2),
        cache_capacity: *rng.pick(&[1usize, 2, 8, 1024]),
    }
}

fn shrink_params(p: &TraceParams) -> Vec<TraceParams> {
    let mut out = Vec::new();
    if p.events > 1 {
        out.push(TraceParams {
            events: p.events / 2,
            ..p.clone()
        });
        out.push(TraceParams {
            events: p.events - 1,
            ..p.clone()
        });
    }
    if p.max_down > 1 {
        out.push(TraceParams {
            max_down: p.max_down - 1,
            ..p.clone()
        });
    }
    out
}

#[test]
fn cached_engine_is_bit_identical_to_cold_realization() {
    let (inst, a, b, served) = sprint_plan();
    forall(
        "cached replay == cold realize_routing, bit for bit",
        &Config::with_cases(16),
        gen_params,
        shrink_params,
        |p| {
            let trace = EventTrace::flaps(inst.topo(), p.events, p.max_down, p.seed);
            let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, p.cache_capacity);
            let mut mask = vec![false; inst.topo().link_count()];
            for (i, ev) in trace.events.iter().enumerate() {
                engine
                    .apply(ev)
                    .map_err(|e| format!("event {i}: apply failed: {e}"))?;
                mask[ev.link.index()] = ev.kind == EventKind::Down;
                let state = FailureState::new(&inst, &mask).expect("valid mask");
                let cached = engine.realize();
                let cold = realize_routing(&inst, &state, &a, &b, &served, 1e-6);
                match (cached, cold) {
                    (Ok(x), Ok(y)) => {
                        if x.pairs != y.pairs || x.bump != y.bump {
                            return Err(format!("event {i}: pair sets or bumps differ"));
                        }
                        for (name, c, f) in [
                            ("u", &x.u, &y.u),
                            ("tunnel_flow", &x.tunnel_flow, &y.tunnel_flow),
                            ("arc_loads", &x.arc_loads, &y.arc_loads),
                        ] {
                            if c.iter().zip(f).any(|(c, f)| c.to_bits() != f.to_bits()) {
                                return Err(format!("event {i}: {name} cached != cold"));
                            }
                        }
                    }
                    (Err(x), Err(y)) => {
                        if x != y {
                            return Err(format!("event {i}: errors differ: {x:?} vs {y:?}"));
                        }
                    }
                    (x, y) => {
                        return Err(format!("event {i}: cached {x:?} disagrees with cold {y:?}"))
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn same_seed_replay_is_deterministic() {
    let (inst, a, b, served) = sprint_plan();
    forall(
        "same seed, same report",
        &Config::with_cases(12),
        gen_params,
        shrink_params,
        |p| {
            let t1 = EventTrace::flaps(inst.topo(), p.events, p.max_down, p.seed);
            let t2 = EventTrace::flaps(inst.topo(), p.events, p.max_down, p.seed);
            if t1 != t2 {
                return Err("generator is not deterministic".into());
            }
            let opts = ReplayOptions {
                cache_capacity: p.cache_capacity,
                ..ReplayOptions::default()
            };
            let r1 = replay_trace(&inst, &a, &b, &served, &t1, &opts);
            let r2 = replay_trace(&inst, &a, &b, &served, &t2, &opts);
            // Latency differs run to run; everything else must not.
            if r1.event_utilization != r2.event_utilization {
                return Err("utilizations differ across identical replays".into());
            }
            if r1.violations != r2.violations {
                return Err("violations differ across identical replays".into());
            }
            if r1.cache != r2.cache {
                return Err(format!(
                    "cache stats differ: {:?} vs {:?}",
                    r1.cache, r2.cache
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn batch_report_is_thread_count_invariant() {
    let (inst, a, b, served) = sprint_plan();
    let traces: Vec<EventTrace> = (0..5)
        .map(|s| EventTrace::flaps(inst.topo(), 40, 1, 900 + s))
        .collect();
    let run = |threads| {
        let opts = ReplayOptions {
            threads,
            ..ReplayOptions::default()
        };
        replay_batch(&inst, &a, &b, &served, &traces, &opts)
    };
    let base = run(1);
    for threads in [2, 3, 8] {
        let r = run(threads);
        assert_eq!(
            base.event_utilization, r.event_utilization,
            "{threads} threads"
        );
        assert_eq!(base.violations, r.violations, "{threads} threads");
        assert_eq!(base.cache, r.cache, "{threads} threads");
    }
}

/// Chaos parameters a degrade property case explores.
#[derive(Debug, Clone)]
struct ChaosParams {
    seed: u64,
    events: usize,
    f: usize,
    mode: DegradeMode,
}

fn gen_chaos(rng: &mut Pcg32) -> ChaosParams {
    ChaosParams {
        seed: rng.next_u64(),
        events: rng.range_usize(10, 60),
        // Well beyond the f=1 plan: the ladder must carry the slack.
        f: rng.range_usize_inclusive(2, 8),
        mode: *rng.pick(&[DegradeMode::Rescale, DegradeMode::Shed]),
    }
}

fn shrink_chaos(p: &ChaosParams) -> Vec<ChaosParams> {
    let mut out = Vec::new();
    if p.events > 1 {
        out.push(ChaosParams {
            events: p.events / 2,
            ..p.clone()
        });
    }
    if p.f > 2 {
        out.push(ChaosParams {
            f: p.f - 1,
            ..p.clone()
        });
    }
    out
}

/// The tentpole contract: with a degrade mode on, any chaos trace — deep
/// beyond-budget failures plus capacity wobble — replays with no panic,
/// no blank event, and a ladder stage on every event.
#[test]
fn degraded_replay_is_total_under_chaos() {
    let (inst, a, b, served) = sprint_plan();
    let total_served: f64 = served.iter().sum();
    forall(
        "degraded replay serves every event",
        &Config::with_cases(12),
        gen_chaos,
        shrink_chaos,
        |p| {
            let trace = FaultInjector::new(p.seed).chaos(inst.topo(), p.events, p.f);
            let opts = ReplayOptions {
                degrade: p.mode,
                ..ReplayOptions::default()
            };
            let r = replay_trace(&inst, &a, &b, &served, &trace, &opts);
            if r.events != trace.len() {
                return Err(format!("replay stopped at {}/{}", r.events, trace.len()));
            }
            if r.event_stage.len() != trace.len() || r.event_shed.len() != trace.len() {
                return Err("per-event vectors out of step with the trace".into());
            }
            for (i, (&stage, &shed)) in r.event_stage.iter().zip(&r.event_shed).enumerate() {
                if stage == EventStage::Failed {
                    return Err(format!("event {i} fell off the ladder"));
                }
                if !(0.0..=total_served + 1e-9).contains(&shed) {
                    return Err(format!("event {i}: shed {shed} out of [0, total]"));
                }
                if stage == EventStage::Normal && shed > 1e-9 {
                    return Err(format!("event {i}: stage-1 event sheds demand"));
                }
            }
            if r.degrade.total() != trace.len() as u64 {
                return Err(format!(
                    "degrade counters {:?} don't cover the trace",
                    r.degrade
                ));
            }
            if r.worst_overload < 0.0 {
                return Err("negative overload bound".into());
            }
            // Identical replays agree exactly (degraded paths included).
            let r2 = replay_trace(&inst, &a, &b, &served, &trace, &opts);
            if r.event_stage != r2.event_stage
                || r.event_shed != r2.event_shed
                || r.event_utilization != r2.event_utilization
            {
                return Err("degraded replay is not deterministic".into());
            }
            Ok(())
        },
    );
}

/// Partial-capacity degradation threads through the batch path without
/// breaking determinism: a mixed fleet of degradation storms, flaps, and
/// interleaved degrade+failure traces produces byte-identical
/// deterministic JSON (utilization and degrade digests included) at every
/// thread count.
#[test]
fn degraded_capacity_batch_digests_are_thread_count_invariant() {
    let (inst, a, b, served) = sprint_plan();
    let inj = FaultInjector::new(77);
    let mut traces: Vec<EventTrace> = (0..3)
        .map(|s| EventTrace::flaps(inst.topo(), 30, 1, 700 + s))
        .collect();
    traces.push(inj.degradation_storm(inst.topo(), 40, 400));
    // Interleave degradations with failures inside one trace.
    let mut mixed = EventTrace::flaps(inst.topo(), 30, 1, 910);
    let storm = inj.degradation_storm(inst.topo(), 30, 500);
    mixed.events = mixed
        .events
        .iter()
        .zip(&storm.events)
        .flat_map(|(&x, &y)| [x, y])
        .collect();
    mixed.name = "mixed_degrade_flaps".into();
    traces.push(mixed);
    let run = |threads| {
        let opts = ReplayOptions {
            threads,
            degrade: DegradeMode::Shed,
            ..ReplayOptions::default()
        };
        replay_batch(&inst, &a, &b, &served, &traces, &opts)
    };
    let base = run(1);
    assert!(base.events > 0);
    let base_json = base.deterministic_json();
    assert!(base_json.contains("\"utilization_digest\""));
    for threads in [2, 3, 8] {
        let r = run(threads);
        assert_eq!(
            base_json,
            r.deterministic_json(),
            "degraded batch diverged at {threads} threads"
        );
    }
}

/// Scripted-trace text of `lines > 0` lines, at least one of them
/// malformed (unknown verb, missing or trailing argument, unparsable or
/// out-of-range number), among well-formed filler and comments.
fn malformed_trace(seed: u64, lines: usize) -> String {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xbad_u64.wrapping_mul(0x9e3779b97f4a7c15));
    let poison_at = rng.range_usize(0, lines);
    let mut out = String::new();
    for i in 0..lines {
        let line = if i == poison_at || rng.chance(0.4) {
            match rng.range_usize(0, 7) {
                0 => format!("explode {}", rng.range_usize(0, 50)),
                1 => "down".to_string(),
                2 => format!("down x{}", rng.range_usize(0, 50)),
                3 => format!("up {} {}", rng.range_usize(0, 50), rng.range_usize(0, 50)),
                4 => format!("wobble {}", rng.range_usize(0, 50)),
                5 => format!("wobble {} not-a-number", rng.range_usize(0, 50)),
                _ => format!("down {}", u64::from(u32::MAX) + 1),
            }
        } else {
            // Well-formed filler (possibly idempotent or naming a missing
            // link: the malformed line fails the parse first).
            match rng.range_usize(0, 4) {
                0 => format!("down {}", rng.range_usize(0, 20)),
                1 => format!("up e{}", rng.range_usize(0, 20)),
                2 => format!(
                    "wobble {} {}",
                    rng.range_usize(0, 20),
                    rng.range_usize(1, 2001)
                ),
                _ => "# comment".to_string(),
            }
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The parser never panics on corrupt text, and when it rejects a trace
/// the error points at a line inside it.
#[test]
fn trace_parser_is_total_on_malformed_text() {
    let topo = zoo::build("Sprint");
    forall(
        "parse rejects fuzzed traces gracefully",
        &Config::with_cases(40),
        |rng| (rng.next_u64(), rng.range_usize(1, 60)),
        |&(seed, lines)| {
            if lines > 1 {
                vec![(seed, lines / 2), (seed, lines - 1)]
            } else {
                Vec::new()
            }
        },
        |&(seed, lines)| {
            let text = malformed_trace(seed, lines);
            match EventTrace::parse("fuzz", &text, &topo, &[]) {
                Ok(_) => Err("poisoned trace parsed cleanly".into()),
                Err(e) => {
                    if e.line < 1 || e.line > lines {
                        return Err(format!("error line {} outside 1..={lines}", e.line));
                    }
                    if e.to_string().is_empty() {
                        return Err("empty parse error message".into());
                    }
                    Ok(())
                }
            }
        },
    );
}
