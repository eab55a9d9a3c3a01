//! Replaying traces and aggregating the outcome.
//!
//! [`replay_trace`] drives a [`ReplayEngine`] through one
//! [`EventTrace`], realizing the routing after every event and checking
//! it the same way the offline validator does (utilization range, arc
//! capacities). [`replay_batch`] replays many traces concurrently —
//! one engine (and one cache) per trace, traces distributed over scoped
//! threads exactly like the robust engine's separation workers — and
//! merges the per-trace reports. Results are deterministic regardless of
//! thread count: every trace is independent and reports merge in trace
//! order.

use crate::engine::{CacheStats, DegradeStats, ReplayEngine};
use crate::trace::EventTrace;
use pcf_core::{exceeds_capacity, DegradeMode, Instance, LadderStage, ViolationKind, OVERLOAD_TOL};
use pcf_rng::json::{self, Layout, ObjWriter};
use pcf_rng::Fnv1a;
#[expect(clippy::disallowed_types, reason = "latency histogram only")]
use std::time::Instant;

/// Options for [`replay_trace`] / [`replay_batch`].
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Relative feasibility tolerance (same meaning as `realize_routing`).
    pub tol: f64,
    /// Retained realizations per engine; `0` retains none (the cold
    /// baseline: every realization is computed afresh).
    pub cache_capacity: usize,
    /// Worker threads for [`replay_batch`]. `0` means "use
    /// [`std::thread::available_parallelism`]"; `1` replays inline.
    pub threads: usize,
    /// How far down the degradation ladder beyond-budget events may fall
    /// (default [`DegradeMode::Off`]: they stay realize violations).
    pub degrade: DegradeMode,
    /// Stop each trace at its first violation (in a batch, every trace
    /// stops independently — merged reports stay thread-count invariant).
    pub fail_fast: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            tol: OVERLOAD_TOL,
            cache_capacity: 1024,
            threads: 0,
            degrade: DegradeMode::Off,
            fail_fast: false,
        }
    }
}

/// How one replayed event was served — the per-event view of the
/// degradation ladder ([`LadderStage`] plus the "nothing served" case).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventStage {
    /// Normal congestion-free realization.
    Normal,
    /// Proportional rescale (ladder stage 2).
    Rescaled,
    /// Max-min fair shedding LP (ladder stage 3).
    Shed,
    /// Realization failed and no fallback applied: the event served
    /// nothing (only possible with [`DegradeMode::Off`] or an apply
    /// error).
    Failed,
}

impl EventStage {
    /// Stable short name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            EventStage::Normal => "normal",
            EventStage::Rescaled => "rescaled",
            EventStage::Shed => "shed",
            EventStage::Failed => "failed",
        }
    }

    /// Stable numeric code folded into deterministic digests.
    pub fn code(self) -> u8 {
        match self {
            EventStage::Normal => 0,
            EventStage::Rescaled => 1,
            EventStage::Shed => 2,
            EventStage::Failed => 3,
        }
    }
}

impl From<LadderStage> for EventStage {
    fn from(s: LadderStage) -> Self {
        match s {
            LadderStage::Normal => EventStage::Normal,
            LadderStage::Rescaled => EventStage::Rescaled,
            LadderStage::Shed => EventStage::Shed,
        }
    }
}

/// One failed event during replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayViolation {
    /// Index of the trace within the batch (0 for single-trace replays).
    pub trace: usize,
    /// Index of the offending event within its trace.
    pub event: usize,
    /// What went wrong (shared with the offline validator).
    pub kind: ViolationKind,
}

/// Realization-latency distribution over the replayed events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    samples_ns: Vec<u64>,
}

impl LatencyHistogram {
    /// Records one realization latency.
    pub fn record(&mut self, ns: u64) {
        self.samples_ns.push(ns);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_ns.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_ns.is_empty()
    }

    /// The q-th percentile (nearest-rank) in nanoseconds; 0 when empty.
    /// `q` is clamped to `[0, 100]`.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        if self.samples_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 100.0) / 100.0;
        let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
        sorted[rank.min(sorted.len() - 1)]
    }

    /// Median latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 99th-percentile latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }

    /// Mean latency in nanoseconds; 0 when empty.
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().map(|&n| n as f64).sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Merges another histogram's samples into this one.
    pub fn absorb(&mut self, other: &LatencyHistogram) {
        self.samples_ns.extend_from_slice(&other.samples_ns);
    }
}

/// Outcome of replaying one trace (or, merged, a whole batch).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayReport {
    /// Events replayed.
    pub events: usize,
    /// Per-event maximum arc utilization, in event order (batches
    /// concatenate in trace order).
    pub event_utilization: Vec<f64>,
    /// Highest arc utilization over the whole replay.
    pub max_utilization: f64,
    /// Events whose realization failed or violated a capacity.
    pub violations: Vec<ReplayViolation>,
    /// Realization latencies.
    pub latency: LatencyHistogram,
    /// Factorization-cache counters (batches sum per-engine counters).
    pub cache: CacheStats,
    /// Which ladder stage served each event, in event order (parallel to
    /// `event_utilization`).
    pub event_stage: Vec<EventStage>,
    /// Demand shed at each event (0 for normal events; the whole served
    /// demand for failed ones).
    pub event_shed: Vec<f64>,
    /// Sum of `event_shed`.
    pub total_shed: f64,
    /// Worst residual arc overload over all events:
    /// `max(0, load / capacity − 1)` against the capacities in effect.
    pub worst_overload: f64,
    /// Ladder-stage counters (batches sum per-engine counters).
    pub degrade: DegradeStats,
    /// Largest [`ReplayEngine::max_bump`] over the engines: `0` when every
    /// event was realized by Prop. 7's walk alone, otherwise the most rows
    /// any state solved in the LU blocks of its LS cycles.
    pub max_bump: usize,
}

impl ReplayReport {
    /// True when every event realized a feasible, congestion-free routing.
    pub fn congestion_free(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges per-trace reports (in the given order) into one.
    pub fn merge(reports: &[ReplayReport]) -> ReplayReport {
        let mut out = ReplayReport::default();
        for r in reports {
            out.events += r.events;
            out.event_utilization
                .extend_from_slice(&r.event_utilization);
            out.max_utilization = out.max_utilization.max(r.max_utilization);
            out.violations.extend_from_slice(&r.violations);
            out.latency.absorb(&r.latency);
            out.cache.absorb(&r.cache);
            out.event_stage.extend_from_slice(&r.event_stage);
            out.event_shed.extend_from_slice(&r.event_shed);
            out.total_shed += r.total_shed;
            out.worst_overload = out.worst_overload.max(r.worst_overload);
            out.degrade.absorb(&r.degrade);
            out.max_bump = out.max_bump.max(r.max_bump);
        }
        out
    }

    /// Renders the replay outcome as JSON containing *only* fields that
    /// are a pure function of the inputs: event counts, utilizations, the
    /// violation list, cache counters, and an FNV-1a digest over the
    /// per-event utilization bit patterns. Latency statistics are
    /// deliberately excluded — they vary run to run — so the output is
    /// byte-identical across repeated runs and across thread counts
    /// (asserted by `deterministic_json_is_byte_identical`).
    pub fn deterministic_json(&self) -> String {
        // FNV-1a over the exact f64 bit patterns: any nondeterminism in
        // the realization path shows up as a digest mismatch even when
        // the rounded summary fields happen to agree.
        let mut digest = Fnv1a::new();
        for u in &self.event_utilization {
            digest.write_u64(u.to_bits());
        }
        let digest = digest.finish();
        // The per-event ladder stages and shed amounts get their own
        // digest so degraded replays are held to the same byte-identity
        // bar as utilizations.
        let mut degrade_digest = Fnv1a::new();
        for s in &self.event_stage {
            degrade_digest.write_bytes(&[s.code()]);
        }
        for s in &self.event_shed {
            degrade_digest.write_u64(s.to_bits());
        }
        let degrade_digest = degrade_digest.finish();
        let hex = |x: u64| format!("{x:x}");
        json::report(|w| {
            w.uint("events", self.events as u64)
                .str("max_utilization", &hex(self.max_utilization.to_bits()))
                .str("utilization_digest", &format!("{digest:016x}"))
                .array("violations", Layout::Inline, &self.violations, |o, v| {
                    ObjWriter::open(o, Layout::Inline)
                        .uint("trace", v.trace as u64)
                        .uint("event", v.event as u64)
                        .finish()
                })
                .obj("cache", Layout::Inline, |w| self.cache.write_fields(w))
                .obj("degrade", Layout::Inline, |w| self.degrade.write_fields(w))
                .uint("max_bump", self.max_bump as u64)
                .str("total_shed", &hex(self.total_shed.to_bits()))
                .str("worst_overload", &hex(self.worst_overload.to_bits()))
                .str("degrade_digest", &format!("{degrade_digest:016x}"))
        })
    }

    /// Renders the report as a small JSON object (counts and summary
    /// statistics, not the raw per-event data).
    pub fn to_json(&self) -> String {
        json::report(|w| {
            w.uint("events", self.events as u64)
                .fixed("max_utilization", self.max_utilization, 6)
                .uint("violations", self.violations.len() as u64)
                .obj("latency_ns", Layout::Inline, |w| {
                    w.uint("p50", self.latency.p50_ns())
                        .uint("p99", self.latency.p99_ns())
                        .fixed("mean", self.latency.mean_ns(), 1)
                })
                .obj("cache", Layout::Inline, |w| {
                    let hit_rate = self.cache.hit_rate();
                    self.cache.write_fields(w).fixed("hit_rate", hit_rate, 4)
                })
                .obj("degrade", Layout::Inline, |w| self.degrade.write_fields(w))
                .uint("max_bump", self.max_bump as u64)
                .fixed("total_shed", self.total_shed, 6)
                .fixed("worst_overload", self.worst_overload, 6)
        })
    }
}

/// Replays one trace on a fresh engine and reports the outcome.
///
/// `served[p] = z_p * d_p`, as everywhere in the realization API.
pub fn replay_trace(
    inst: &Instance,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    trace: &EventTrace,
    opts: &ReplayOptions,
) -> ReplayReport {
    replay_indexed(inst, a, b, served, trace, opts, 0)
}

fn replay_indexed(
    inst: &Instance,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    trace: &EventTrace,
    opts: &ReplayOptions,
    trace_idx: usize,
) -> ReplayReport {
    let topo = inst.topo();
    let mut engine = ReplayEngine::new(inst, a, b, served, opts.tol, opts.cache_capacity);
    engine.set_degrade(opts.degrade);
    let total_served: f64 = served.iter().sum();
    let mut event_utilization = Vec::with_capacity(trace.len());
    let mut event_stage = Vec::with_capacity(trace.len());
    let mut event_shed = Vec::with_capacity(trace.len());
    let mut max_utilization = 0.0f64;
    let mut total_shed = 0.0f64;
    let mut worst_overload = 0.0f64;
    let mut violations = Vec::new();
    let mut latency = LatencyHistogram::default();
    for (i, ev) in trace.events.iter().enumerate() {
        // An event that fails to apply is served nothing, as a failed
        // realization is; only realizations are timed.
        let realized = engine.apply(ev).and_then(|()| {
            #[expect(clippy::disallowed_types, reason = "latency histogram only")]
            let t0 = Instant::now();
            let realized = engine.realize_degraded();
            latency.record(t0.elapsed().as_nanos() as u64);
            realized
        });
        match realized {
            Err(e) => {
                violations.push(ReplayViolation {
                    trace: trace_idx,
                    event: i,
                    kind: ViolationKind::Realize(e),
                });
                event_utilization.push(0.0);
                event_stage.push(EventStage::Failed);
                event_shed.push(total_served);
                total_shed += total_served;
                if opts.fail_fast {
                    break;
                }
            }
            Ok(degraded) => {
                let mut peak = 0.0f64;
                let mut overloaded = false;
                for arc in topo.arcs() {
                    let load = degraded.routing.arc_loads[arc.index()];
                    // Overloads are judged against the capacities in
                    // effect (wobble events rescale them), not nominal.
                    let cap = engine.capacity(arc.link());
                    if exceeds_capacity(load, cap, opts.tol) {
                        overloaded = true;
                        violations.push(ReplayViolation {
                            trace: trace_idx,
                            event: i,
                            kind: ViolationKind::Overload {
                                arc: arc.index(),
                                load,
                                capacity: cap,
                            },
                        });
                    }
                    peak = peak.max(load / cap);
                }
                event_utilization.push(peak);
                max_utilization = max_utilization.max(peak);
                event_stage.push(EventStage::from(degraded.ladder_stage));
                event_shed.push(degraded.shed_demand);
                total_shed += degraded.shed_demand;
                worst_overload = worst_overload.max(degraded.overload_bound);
                if overloaded && opts.fail_fast {
                    break;
                }
            }
        }
    }
    ReplayReport {
        events: event_utilization.len(),
        event_utilization,
        max_utilization,
        violations,
        latency,
        cache: engine.cache_stats(),
        event_stage,
        event_shed,
        total_shed,
        worst_overload,
        degrade: engine.degrade_stats(),
        max_bump: engine.max_bump(),
    }
}

/// Replays every trace concurrently (one engine per trace, traces chunked
/// over scoped threads) and merges the reports in trace order.
pub fn replay_batch(
    inst: &Instance,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    traces: &[EventTrace],
    opts: &ReplayOptions,
) -> ReplayReport {
    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    let nt = threads.min(traces.len().max(1));
    let mut out = vec![ReplayReport::default(); traces.len()];
    let chunk = traces.len().div_ceil(nt);
    // Replays the traces of chunk `ci` into their slots.
    let replay_chunk = |ci: usize, ts: &[EventTrace], slots: &mut [ReplayReport]| {
        for (j, (slot, t)) in slots.iter_mut().zip(ts).enumerate() {
            *slot = replay_indexed(inst, a, b, served, t, opts, ci * chunk + j);
        }
    };
    if nt <= 1 {
        replay_chunk(0, traces, &mut out);
    } else {
        std::thread::scope(|s| {
            for (ci, (ts, slots)) in traces.chunks(chunk).zip(out.chunks_mut(chunk)).enumerate() {
                s.spawn(move || replay_chunk(ci, ts, slots));
            }
        });
    }
    ReplayReport::merge(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_core::{pcf_ls_instance, solve_pcf_ls, FailureModel, RobustOptions};
    use pcf_topology::zoo;
    use pcf_traffic::gravity;

    fn sprint_plan(f: usize) -> (Instance, Vec<f64>, Vec<f64>, Vec<f64>) {
        let topo = zoo::build("Sprint");
        let tm = gravity(&topo, 11);
        let inst = pcf_ls_instance(&topo, &tm, 3);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(f), &RobustOptions::default());
        let served = sol.served(&inst);
        (inst, sol.a, sol.b, served)
    }

    #[test]
    fn solved_plan_replays_violation_free() {
        let (inst, a, b, served) = sprint_plan(1);
        let trace = EventTrace::flaps(inst.topo(), 300, 1, 21);
        let report = replay_trace(&inst, &a, &b, &served, &trace, &ReplayOptions::default());
        assert_eq!(report.events, 300);
        assert_eq!(report.event_utilization.len(), 300);
        assert!(
            report.congestion_free(),
            "violations: {:?}",
            &report.violations[..report.violations.len().min(3)]
        );
        assert!(report.max_utilization <= 1.0 + 1e-6);
        assert!(report.cache.hit_rate() > 0.0);
        assert_eq!(report.latency.len(), 300);
    }

    #[test]
    fn overdriven_plan_reports_violations() {
        let (inst, a, b, mut served) = sprint_plan(1);
        // Demand far beyond what the plan reserved.
        for s in &mut served {
            *s *= 50.0;
        }
        let trace = EventTrace::flaps(inst.topo(), 50, 1, 21);
        let report = replay_trace(&inst, &a, &b, &served, &trace, &ReplayOptions::default());
        assert!(!report.congestion_free());
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let (inst, a, b, served) = sprint_plan(1);
        let traces: Vec<EventTrace> = (0..6)
            .map(|s| EventTrace::flaps(inst.topo(), 60, 1, 100 + s))
            .collect();
        let run = |threads: usize| {
            let opts = ReplayOptions {
                threads,
                ..ReplayOptions::default()
            };
            replay_batch(&inst, &a, &b, &served, &traces, &opts)
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.events, 6 * 60);
        assert_eq!(serial.events, parallel.events);
        assert_eq!(serial.event_utilization, parallel.event_utilization);
        assert_eq!(serial.violations, parallel.violations);
        assert_eq!(serial.cache, parallel.cache);
    }

    #[test]
    fn cold_and_cached_replays_agree_on_outcomes() {
        let (inst, a, b, served) = sprint_plan(1);
        let trace = EventTrace::flaps(inst.topo(), 120, 1, 77);
        let cached = replay_trace(&inst, &a, &b, &served, &trace, &ReplayOptions::default());
        let cold_opts = ReplayOptions {
            cache_capacity: 0,
            ..ReplayOptions::default()
        };
        let cold = replay_trace(&inst, &a, &b, &served, &trace, &cold_opts);
        assert_eq!(cached.event_utilization, cold.event_utilization);
        assert_eq!(cached.violations, cold.violations);
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 120);
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = LatencyHistogram::default();
        for n in [5u64, 1, 9, 3, 7] {
            h.record(n);
        }
        assert_eq!(h.p50_ns(), 5);
        assert_eq!(h.p99_ns(), 9);
        assert_eq!(h.percentile_ns(0.0), 1);
        assert!((h.mean_ns() - 5.0).abs() < 1e-12);
        assert_eq!(LatencyHistogram::default().p99_ns(), 0);
    }

    #[test]
    fn deterministic_json_is_byte_identical() {
        let (inst, a, b, served) = sprint_plan(1);
        let traces: Vec<EventTrace> = (0..6)
            .map(|s| EventTrace::flaps(inst.topo(), 40, 1, 300 + s))
            .collect();
        let run = |threads: usize| {
            let opts = ReplayOptions {
                threads,
                ..ReplayOptions::default()
            };
            replay_batch(&inst, &a, &b, &served, &traces, &opts).deterministic_json()
        };
        // Two runs at the same thread count, and two different thread
        // counts, must all serialize to the same bytes.
        let first = run(4);
        let second = run(4);
        assert_eq!(first, second, "4-thread replays diverged");
        let serial = run(1);
        assert_eq!(first, serial, "1-thread vs 4-thread replays diverged");
        assert!(first.contains("\"utilization_digest\""));
        assert!(
            !first.contains("latency"),
            "wall-clock leaked into deterministic output"
        );
    }

    #[test]
    fn json_summary_contains_the_headline_numbers() {
        let (inst, a, b, served) = sprint_plan(1);
        let trace = EventTrace::flaps(inst.topo(), 20, 1, 5);
        let report = replay_trace(&inst, &a, &b, &served, &trace, &ReplayOptions::default());
        let json = report.to_json();
        assert!(json.contains("\"events\": 20"));
        assert!(json.contains("\"hit_rate\""));
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"degrade\""));
        assert!(json.contains("\"worst_overload\""));
    }

    /// A hand-built report: every field set, latencies fixed.
    fn pinned_report() -> ReplayReport {
        let mut latency = LatencyHistogram::default();
        for ns in [1_000, 3_000, 2_500] {
            latency.record(ns);
        }
        let overload = |trace, event| ReplayViolation {
            trace,
            event,
            kind: ViolationKind::Overload {
                arc: 3,
                load: 1.25,
                capacity: 1.0,
            },
        };
        ReplayReport {
            events: 3,
            event_utilization: vec![0.5, 0.75, 1.25],
            max_utilization: 1.25,
            violations: vec![overload(0, 2), overload(1, 0)],
            latency,
            cache: CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                errors: 0,
            },
            event_stage: vec![EventStage::Normal, EventStage::Normal, EventStage::Shed],
            event_shed: vec![0.0, 0.0, 1.0 / 3.0],
            total_shed: 1.0 / 3.0,
            worst_overload: 0.25,
            degrade: DegradeStats {
                normal: 2,
                rescaled: 0,
                shed: 1,
                failed: 0,
            },
            max_bump: 4,
        }
    }

    #[test]
    fn report_writers_keep_their_bytes() {
        let rep = pinned_report();
        let full = r#"{
  "events": 3,
  "max_utilization": 1.250000,
  "violations": 2,
  "latency_ns": { "p50": 2500, "p99": 3000, "mean": 2166.7 },
  "cache": { "hits": 2, "misses": 1, "evictions": 0, "errors": 0, "hit_rate": 0.6667 },
  "degrade": { "normal": 2, "rescaled": 0, "shed": 1, "failed": 0 },
  "max_bump": 4,
  "total_shed": 0.333333,
  "worst_overload": 0.250000
}
"#;
        assert_eq!(rep.to_json(), full);
        let det = r#"{
  "events": 3,
  "max_utilization": "3ff4000000000000",
  "utilization_digest": "2f993257d696b554",
  "violations": [{ "trace": 0, "event": 2 }, { "trace": 1, "event": 0 }],
  "cache": { "hits": 2, "misses": 1, "evictions": 0, "errors": 0 },
  "degrade": { "normal": 2, "rescaled": 0, "shed": 1, "failed": 0 },
  "max_bump": 4,
  "total_shed": "3fd5555555555555",
  "worst_overload": "3fd0000000000000",
  "degrade_digest": "d3e8f1a55b91a817"
}
"#;
        assert_eq!(rep.deterministic_json(), det);
    }

    /// A trace whose bursts fail far more links than the plan's budget,
    /// so realization errors (disconnections) are guaranteed.
    fn beyond_budget_trace(inst: &Instance, seed: u64) -> EventTrace {
        crate::inject::FaultInjector::new(seed).beyond_budget_bursts(inst.topo(), 4, 9)
    }

    #[test]
    fn beyond_budget_replay_degrades_instead_of_failing() {
        let (inst, a, b, served) = sprint_plan(1);
        let trace = beyond_budget_trace(&inst, 41);
        let off = replay_trace(&inst, &a, &b, &served, &trace, &ReplayOptions::default());
        // Without the ladder the deep bursts surface as realize failures
        // with blank (zero-utilization, full-shed) events.
        assert!(
            off.event_stage.contains(&EventStage::Failed),
            "burst trace never overwhelmed the plan; stages {:?}",
            off.degrade
        );
        assert!(!off.congestion_free());
        // With shedding the serving path is total: every event carries a
        // stage, none of them Failed, and stage 2/3 demonstrably engaged.
        let opts = ReplayOptions {
            degrade: DegradeMode::Shed,
            ..ReplayOptions::default()
        };
        let shed = replay_trace(&inst, &a, &b, &served, &trace, &opts);
        assert_eq!(shed.events, trace.len());
        assert_eq!(shed.event_stage.len(), trace.len());
        assert_eq!(shed.event_shed.len(), trace.len());
        assert!(!shed.event_stage.contains(&EventStage::Failed));
        assert!(shed.degrade.degraded() > 0, "{:?}", shed.degrade);
        assert_eq!(shed.degrade.failed, 0);
        assert_eq!(shed.degrade.total(), trace.len() as u64);
        assert!(shed.total_shed > 0.0);
        // Shed routings are capacity-feasible, so no replay violations.
        assert!(
            shed.congestion_free(),
            "violations: {:?}",
            &shed.violations[..shed.violations.len().min(3)]
        );
    }

    #[test]
    fn fail_fast_stops_at_the_first_violation() {
        let (inst, a, b, mut served) = sprint_plan(1);
        for s in &mut served {
            *s *= 50.0;
        }
        let trace = EventTrace::flaps(inst.topo(), 50, 1, 21);
        let opts = ReplayOptions {
            fail_fast: true,
            ..ReplayOptions::default()
        };
        let report = replay_trace(&inst, &a, &b, &served, &trace, &opts);
        assert!(!report.congestion_free());
        assert!(report.events < trace.len(), "fail-fast replayed everything");
        // The per-event vectors stay aligned with the truncated count.
        assert_eq!(report.event_utilization.len(), report.events);
        assert_eq!(report.event_stage.len(), report.events);
        assert_eq!(report.event_shed.len(), report.events);
    }

    #[test]
    fn degraded_batch_is_deterministic_across_thread_counts() {
        let (inst, a, b, served) = sprint_plan(1);
        let traces: Vec<EventTrace> = (0..6)
            .map(|s| beyond_budget_trace(&inst, 500 + s))
            .collect();
        let run = |threads: usize| {
            let opts = ReplayOptions {
                threads,
                degrade: DegradeMode::Shed,
                ..ReplayOptions::default()
            };
            replay_batch(&inst, &a, &b, &served, &traces, &opts)
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(serial.degrade.degraded() > 0);
        assert_eq!(serial.event_stage, parallel.event_stage);
        assert_eq!(serial.event_shed, parallel.event_shed);
        assert_eq!(serial.degrade, parallel.degrade);
        assert_eq!(
            serial.deterministic_json(),
            parallel.deterministic_json(),
            "degraded replays diverged across thread counts"
        );
        assert!(serial.deterministic_json().contains("\"degrade_digest\""));
    }
}
