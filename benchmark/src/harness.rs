//! What every workload shares: the common instance, the repeated timed
//! set-up, the end-to-end metric computation, and the per-layer name table.

use crate::alloc;
use crate::stats::{median, spread, Fnv};
use pcf_core::{validate_all, CutPool, Instance, RobustOptions};
use pcf_serve::{PlanEpoch, PlanSpec, SchemeKind};
use pcf_topology::zoo;
use std::time::Instant;

/// Set-up runs this many times per process and `setup_s` is the median: a
/// single 0.7 s sample moved 6–9% between identical runs.
pub const SETUP_REPEATS: usize = 3;

/// Measured passes on the event and serve workloads, and the fewest on the
/// plan workloads.
pub const PASSES: usize = 5;

/// Arguments of one run.
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run hands back to `main` for printing.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Every per-layer metric, in `BENCHMARK.json` order. A traced run prints
/// all of them; a layer its workload never enters reads 0.
pub const LAYERS: &[(&str, &str)] = &[
    ("topology.build_us", "us"),
    ("traffic.gravity_us", "us"),
    ("paths.select_tunnels_us", "us"),
    ("paths.tunnels", "count"),
    ("core.instance_build_us", "us"),
    ("lp.dualized_solve_us", "us"),
    ("lp.incr_cold_us", "us"),
    ("lp.incr_warm_us", "us"),
    ("lp.incr_cold_iterations", "count"),
    ("lp.incr_warm_iterations", "count"),
    ("lp.incr_warm_fallbacks", "count"),
    ("core.robust_solve_us", "us"),
    ("core.rounds", "count"),
    ("core.cuts", "count"),
    ("core.warm_rounds", "count"),
    ("core.seeded_cuts", "count"),
    ("core.separation_round_us", "us"),
    ("core.separation_share", "ratio"),
    ("core.validate_us", "us"),
    ("core.validate_states", "count"),
    ("core.rebase_seeded_cuts", "count"),
    ("core.realize_assemble_us", "us"),
    ("lp.lu_factor_us", "us"),
    ("lp.lu_solve_us", "us"),
    ("lp.lu_nnz", "count"),
    ("core.matrix_dim", "count"),
    ("core.realize_cold_us", "us"),
    ("replay.apply_us", "us"),
    ("replay.realize_hit_us", "us"),
    ("replay.realize_miss_us", "us"),
    ("replay.cache_hits", "count"),
    ("replay.cache_misses", "count"),
    ("replay.cache_evictions", "count"),
    ("replay.hit_ratio", "ratio"),
    ("replay.stage_normal_ratio", "ratio"),
    ("replay.op_p99_us", "us"),
    ("serve.bind_us", "us"),
    ("serve.json_parse_us", "us"),
    ("serve.json_render_us", "us"),
    ("serve.rtt_depth1_us", "us"),
    ("serve.realize_us", "us"),
    ("serve.util_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.event_us", "us"),
    ("core.admit_us", "us"),
    ("serve.engine_share", "ratio"),
    ("serve.op_p99_us", "us"),
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.warm_epochs", "count"),
    ("serve.cold_epochs", "count"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.allocs_per_op", "count"),
    ("bench.pass_spread", "ratio"),
    ("bench.layer_sum_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// The per-layer values of one traced run, every name present from the start.
pub struct Layers(Vec<Metric>);

impl Default for Layers {
    fn default() -> Layers {
        Layers(
            LAYERS
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 0.0,
                    unit,
                })
                .collect(),
        )
    }
}

impl Layers {
    /// Sets a metric; a name missing from [`LAYERS`] is a bug in the caller.
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => panic!("{name} is not a declared per-layer metric"),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }

    /// The finished list, with the process-level reading taken last.
    pub fn into_metrics(mut self) -> Vec<Metric> {
        self.set("proc.peak_rss_mb", peak_rss_mb());
        self.0
    }
}

/// The common instance: Quest, PCF-LS, f = 1, 3 tunnels, gravity seed 1,
/// no MLU normalization, 200 heaviest pairs, single-threaded separation.
/// Quest is the largest built-in topology whose solve repeats exactly from
/// process to process (see README.md, "Honest limitations").
pub fn quest_spec() -> PlanSpec {
    PlanSpec {
        topo: zoo::build("Quest"),
        scheme: SchemeKind::PcfLs,
        tunnels: 3,
        f: 1,
        seed: 1,
        mlu: 0.0,
        max_pairs: 200,
        tol: 1e-6,
        opts: RobustOptions {
            threads: 1,
            ..RobustOptions::default()
        },
        srlgs: Vec::new(),
    }
}

/// The base plan every workload starts from.
pub struct Base {
    pub spec: PlanSpec,
    pub epoch: PlanEpoch,
    pub pool: CutPool,
}

/// True when the plan survives every enumerated failure scenario without
/// congestion — the check behind every plan op and the base plan.
pub fn plan_is_valid(epoch: &PlanEpoch, served: &[f64]) -> bool {
    validate_all(
        &epoch.inst,
        &epoch.fm,
        &epoch.a,
        &epoch.b,
        served,
        epoch.tol,
    )
    .congestion_free()
}

/// One set-up: build the topology, solve the base plan cold, validate it.
pub fn solve_base(cache_capacity: usize) -> Result<Base, String> {
    let spec = quest_spec();
    let (epoch, pool) = spec
        .solve_epoch_seeded(1, 1.0, spec.seed, cache_capacity, None)
        .map_err(|e| format!("base solve failed: {e}"))?;
    let pool = pool.ok_or("PCF-LS must export a cut pool")?;
    if !plan_is_valid(&epoch, &epoch.served) {
        return Err("base plan is not congestion-free".into());
    }
    Ok(Base { spec, epoch, pool })
}

/// Runs `setup` [`SETUP_REPEATS`] times, timing each; keeps the last product.
pub fn timed_setups<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS > 0"), times))
}

/// FNV digest of what the solver is given: tunnel link lists, LS node lists
/// and demand bits. Printed by every run so two runs can be shown to have
/// measured the same instance.
pub fn instance_digest(inst: &Instance) -> u64 {
    let mut h = Fnv::default();
    for l in inst.tunnel_ids() {
        h.eat(inst.tunnel_pair(l).0 as u64);
        for link in &inst.tunnel(l).links {
            h.eat(link.index() as u64);
        }
    }
    for q in inst.ls_ids() {
        h.eat(inst.ls_pair(q).0 as u64);
        for n in &inst.ls(q).hops {
            h.eat(n.index() as u64);
        }
    }
    for p in inst.pair_ids() {
        h.eat_f64(inst.demand(p));
    }
    h.0
}

/// Prints the instance line: sizes, input digest, base objective bits.
pub fn announce_instance(base: &Base) {
    let inst = &base.epoch.inst;
    println!(
        "instance Quest pcf-ls f=1: {} pairs, {} tunnels, {} LSs, digest {:016x}, \
         base objective {:.9} (bits {:016x}), pool {} cuts",
        inst.num_pairs(),
        inst.num_tunnels(),
        inst.num_lss(),
        instance_digest(inst),
        base.epoch.objective,
        base.epoch.objective.to_bits(),
        base.pool.len()
    );
}

/// Fails the run when the passes did not do bit-identical work: every
/// `HashMap::new()` inside the stack draws fresh keys, so pass-to-pass
/// identity is a real test, and timings of unequal work must not be
/// reported as one metric.
pub fn require_identical_passes(digests: &[u64]) -> Result<(), String> {
    match digests.iter().find(|&&d| d != digests[0]) {
        None => {
            println!(
                "determinism: {} passes, digest {:016x} each",
                digests.len(),
                digests[0]
            );
            Ok(())
        }
        Some(_) => Err(format!(
            "run invalid: pass digests differ {:016x?} (counts or result bits changed between \
             identical passes)",
            digests
        )),
    }
}

/// The raw timings of an untraced run.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub pass_wall_ns: Vec<u64>,
    pub ops_per_pass: u64,
    /// Per-op latency samples of every pass, nanoseconds, pass after pass.
    /// Every pass has the same number of samples in the same order (one per
    /// op, or on `serve-mixed` one per batch: round trip / 32).
    pub samples_ns: Vec<u64>,
    pub plan_objective: f64,
}

impl Measured {
    /// Median latency of each sample slot across the passes, nanoseconds.
    ///
    /// Passes repeat identical work, so slot `i` of every pass timed the
    /// same op on the same state, and the median across passes drops what
    /// hit that op in fewer than half of them: a preemption, an interrupt,
    /// a neighbour on the host. Summed over a pass this is far steadier than
    /// the pass's wall time (events-revisit: 3% against 8% between runs).
    fn slot_medians_ns(&self) -> Vec<f64> {
        let passes = self.pass_wall_ns.len();
        let slots = self.samples_ns.len() / passes;
        let mut across = vec![0.0; passes];
        (0..slots)
            .map(|slot| {
                for (pass, sample) in across.iter_mut().enumerate() {
                    *sample = self.samples_ns[pass * slots + slot] as f64;
                }
                median(&mut across)
            })
            .collect()
    }

    /// The five end-to-end metrics, printing what they were derived from.
    pub fn end_to_end(mut self) -> Vec<Metric> {
        let peak_heap_mb = alloc::peak_bytes() as f64 / 1e6;
        let wall_rates: Vec<f64> = self
            .pass_wall_ns
            .iter()
            .map(|&ns| self.ops_per_pass as f64 / (ns as f64 / 1e9))
            .collect();
        println!(
            "passes: {} x {} ops; wall-clock ops/s per pass {:.1?}; (max-min)/median {:.4}",
            wall_rates.len(),
            self.ops_per_pass,
            wall_rates,
            spread(&wall_rates)
        );
        println!("set-ups: {:.4?} s", self.setup_s);
        let mut slots = self.slot_medians_ns();
        let ops_per_sample = self.ops_per_pass as f64 / slots.len() as f64;
        let pass_s = slots.iter().sum::<f64>() * ops_per_sample / 1e9;
        println!(
            "ops_per_s and op_p50_us from {} latency samples ({} per pass), each slot's median \
             across passes; a pass of such ops takes {pass_s:.4} s",
            self.samples_ns.len(),
            slots.len()
        );
        vec![
            Metric {
                name: "setup_s",
                value: median(&mut self.setup_s),
                unit: "s",
            },
            Metric {
                name: "ops_per_s",
                value: self.ops_per_pass as f64 / pass_s,
                unit: "1/s",
            },
            Metric {
                name: "op_p50_us",
                value: median(&mut slots) / 1e3,
                unit: "us",
            },
            Metric {
                name: "plan_objective",
                value: self.plan_objective,
                unit: "scale",
            },
            Metric {
                name: "peak_heap_mb",
                value: peak_heap_mb,
                unit: "MB",
            },
        ]
    }
}

/// Median of a probe repeated `reps` times, in microseconds.
pub fn median_us(reps: usize, mut probe: impl FnMut()) -> f64 {
    let mut us: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            probe();
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&mut us)
}

/// `VmHWM` from `/proc/self/status` in MB (0 where the file is missing).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1e3)
}
