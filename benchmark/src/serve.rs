//! `serve-mixed`: the `pcf-serve` daemon on loopback, one client, closed
//! loop, fixed batches of 32 pipelined requests.
//!
//! A batch is one link swap (`up` + `down`: two writes to the event log)
//! followed by 20 `realize`, 6 `util` and 4 `admit` answered under that dead
//! link from the epoch's shared factor cache. It is the only workload where
//! protocol, JSON and socket cost dominate, and every query is a real
//! Prop. 6 solve on a PCF-LS plan with one link dead. Client and daemon take
//! turns, so both are pinned to one CPU (see `affinity.rs`).

use crate::events::{dead_link_sequence, engine_with_dead, swap_op};
use crate::harness::{
    announce_instance, median_us, require_identical_passes, solve_base, timed_setups, Base, Config,
    Layers, Measured, Report, PASSES,
};
use crate::stats::{quantile_sorted, spread, Fnv};
use crate::trace::{Off, Rec, Tracer};
use crate::{affinity, alloc, probes};
use pcf_core::{absolute_tolerance, admit, peak_utilization, PairId};
use pcf_rng::Pcg32;
use pcf_serve::{Json, ServeClient, ServeOptions, Server};
use std::hint::black_box;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Instant;

const REALIZES: usize = 20;
const UTILS: usize = 6;
const ADMITS: usize = 4;
const BATCH: usize = 2 + REALIZES + UTILS + ADMITS;

/// Batches per pass per `--seconds` (about 2 s a pass at 85k requests/s).
const BATCHES_PER_PASS_SECOND: usize = 500;

/// Distinct admission queries the batches draw from.
const ADMIT_POOL: usize = 64;

const REALIZE: &str = r#"{"cmd":"realize"}"#;
const UTIL: &str = r#"{"cmd":"util","limit":3}"#;
const STATS: &str = r#"{"cmd":"stats"}"#;

/// Pre-rendered request lines and the answers an in-process engine gives.
struct Script {
    up: Vec<String>,
    down: Vec<String>,
    admit: Vec<String>,
    /// Expected `admitted` per pool entry.
    admitted: Vec<bool>,
    /// The in-process admission arguments, for the engine-share probe.
    admit_args: Vec<(PairId, f64)>,
    /// Expected peak utilization with exactly link `l` dead.
    util: Vec<f64>,
    /// Dead link after batch `i` is `dead[i + 1]`.
    dead: Vec<u32>,
    /// Admission pool indices, [`ADMITS`] per batch.
    picks: Vec<u8>,
}

fn in_process_admit(base: &Base, p: PairId, extra: f64) -> bool {
    let e = &base.epoch;
    admit(
        &e.inst,
        p,
        &e.fm,
        &e.a,
        &e.b,
        e.served[p.0],
        e.worst_available[p.0],
        extra,
        absolute_tolerance(&e.served, e.tol),
        ServeOptions::default().max_admit_evals,
    )
    .admitted()
}

fn script(base: &Base, batches: usize, seed: u64) -> Result<Script, String> {
    let e = &base.epoch;
    let topo = e.inst.topo();
    let links = topo.link_count() as u32;
    let event = |cmd: &str, l: u32| format!(r#"{{"cmd":"{cmd}","link":{l}}}"#);
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x5e72_7665);
    let demand_pairs: Vec<PairId> = e.inst.pair_ids().filter(|p| e.served[p.0] > 0.0).collect();
    let mut admit_lines = Vec::with_capacity(ADMIT_POOL);
    let mut admit_args = Vec::with_capacity(ADMIT_POOL);
    for _ in 0..ADMIT_POOL {
        let p = *rng.pick(&demand_pairs);
        // Up to half the pair's served demand again: some fit the relaxed
        // headroom, some need the exact enumeration, some are rejected.
        let extra = e.served[p.0] * rng.range_f64(0.0, 0.5);
        let (s, t) = e.inst.pair(p);
        admit_lines.push(
            Json::Obj(vec![
                ("cmd".into(), Json::str("admit")),
                ("src".into(), Json::str(topo.node_name(s))),
                ("dst".into(), Json::str(topo.node_name(t))),
                ("demand".into(), Json::Num(extra)),
            ])
            .render(),
        );
        admit_args.push((p, extra));
    }
    let mut util = Vec::with_capacity(links as usize);
    for l in 0..links {
        let mut engine = engine_with_dead(base, &e.served, 1, l)?;
        let d = engine
            .realize_degraded()
            .map_err(|err| format!("link {l} dead does not realize: {err}"))?;
        util.push(peak_utilization(&e.inst, &d.routing, engine.capacities()));
    }
    Ok(Script {
        up: (0..links).map(|l| event("up", l)).collect(),
        down: (0..links).map(|l| event("down", l)).collect(),
        admit: admit_lines,
        admitted: admit_args
            .iter()
            .map(|&(p, extra)| in_process_admit(base, p, extra))
            .collect(),
        admit_args,
        util,
        dead: dead_link_sequence(links, batches, seed),
        picks: (0..batches * ADMITS)
            .map(|_| rng.below(ADMIT_POOL as u64) as u8)
            .collect(),
    })
}

impl Script {
    /// Fills `lines` with batch `i`: swap, realizes, utils, admits.
    fn batch<'a>(&'a self, i: usize, lines: &mut Vec<&'a str>) {
        lines.clear();
        lines.push(&self.up[self.dead[i] as usize]);
        lines.push(&self.down[self.dead[i + 1] as usize]);
        lines.extend(std::iter::repeat_n(REALIZE, REALIZES));
        lines.extend(std::iter::repeat_n(UTIL, UTILS));
        for &pick in &self.picks[i * ADMITS..(i + 1) * ADMITS] {
            lines.push(&self.admit[pick as usize]);
        }
    }

    /// Counts the responses of batch `i` that are not what an in-process
    /// engine over the same plan answers.
    fn failed_responses(&self, i: usize, responses: &[Json], tol: f64, h: &mut Fnv) -> u64 {
        let ok = |r: &Json| r.get("ok").and_then(Json::as_bool) == Some(true);
        let dead_links = |r: &Json| r.get("dead_links").and_then(Json::as_u64);
        let expected_util = self.util[self.dead[i + 1] as usize];
        let mut failed = 0u64;
        for (j, r) in responses.iter().enumerate() {
            let good = ok(r)
                && match j {
                    0 => dead_links(r) == Some(0),
                    1 => dead_links(r) == Some(1),
                    _ if j < 2 + REALIZES + UTILS => {
                        let util = r.get("max_utilization").and_then(Json::as_f64);
                        h.eat_f64(util.unwrap_or(f64::NAN));
                        r.get("stage").and_then(Json::as_str) == Some("normal")
                            && dead_links(r) == Some(1)
                            && util.is_some_and(|u| {
                                u <= 1.0 + tol && (u - expected_util).abs() <= 1e-9 * expected_util
                            })
                    }
                    _ => {
                        let pick = self.picks[i * ADMITS + (j - 2 - REALIZES - UTILS)];
                        let admitted = r.get("admitted").and_then(Json::as_bool);
                        h.eat(u64::from(admitted == Some(true)));
                        admitted == Some(self.admitted[pick as usize])
                    }
                };
            failed += u64::from(!good);
        }
        failed + (BATCH - responses.len()) as u64
    }
}

/// The client the traced run uses: `ServeClient::request_batch` unrolled so
/// each of its three phases gets a span.
struct SpannedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl SpannedClient {
    fn connect(addr: &str) -> Result<SpannedClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(SpannedClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            line: String::with_capacity(1024),
        })
    }

    fn read_line(&mut self) -> Result<(), String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn request_batch(
        &mut self,
        lines: &[&str],
        out: &mut Vec<Json>,
        rec: &mut Tracer,
    ) -> Result<(), String> {
        out.clear();
        let parse = |line: &str| Json::parse(line.trim()).map_err(|e| format!("bad response: {e}"));
        let op = rec.begin("op");
        let s = rec.begin("serve.write_batch");
        let mut wrote = Ok(());
        for line in lines {
            wrote = wrote
                .and_then(|()| self.writer.write_all(line.as_bytes()))
                .and_then(|()| self.writer.write_all(b"\n"));
        }
        wrote = wrote.and_then(|()| self.writer.flush());
        rec.end(s);
        let s = rec.begin("serve.await_first");
        let first = self.read_line();
        rec.end(s);
        let s = rec.begin("serve.read_parse");
        let mut rest = first.and_then(|()| parse(&self.line).map(|j| out.push(j)));
        for _ in 1..lines.len() {
            rest = rest
                .and_then(|()| self.read_line())
                .and_then(|()| parse(&self.line).map(|j| out.push(j)));
        }
        rec.end(s);
        rec.end(op);
        wrote.map_err(|e| format!("write: {e}"))?;
        rest
    }
}

/// Either client, so one pass loop serves both runs.
enum Client<'t> {
    Plain(ServeClient),
    Spanned(SpannedClient, &'t mut Tracer),
}

impl Client<'_> {
    fn request_batch(&mut self, lines: &[&str], out: &mut Vec<Json>) -> Result<(), String> {
        match self {
            Client::Plain(c) => {
                *out = c
                    .request_batch(lines)
                    .map_err(|e| format!("request_batch: {e}"))?;
                Ok(())
            }
            Client::Spanned(c, tracer) => c.request_batch(lines, out, tracer),
        }
    }
}

/// The counters of the `stats` verb this benchmark reads.
#[derive(Clone, Copy, Default)]
struct ServerStats {
    queries: u64,
    events: u64,
    protocol_errors: u64,
    degrade_failed: u64,
    warm_epochs: u64,
    cold_epochs: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn server_stats(control: &mut ServeClient) -> Result<ServerStats, String> {
    let r = control.request(STATS).map_err(|e| format!("stats: {e}"))?;
    let report = r.get("report").ok_or("stats response has no report")?;
    let top = |k: &str| report.get(k).and_then(Json::as_u64).unwrap_or(0);
    let nested = |outer: &str, k: &str| {
        report
            .get(outer)
            .and_then(|o| o.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    Ok(ServerStats {
        queries: top("queries"),
        events: top("events"),
        protocol_errors: top("protocol_errors"),
        degrade_failed: nested("degrade", "failed"),
        warm_epochs: top("warm_epochs"),
        cold_epochs: top("cold_epochs"),
        hits: nested("cache", "hits"),
        misses: nested("cache", "misses"),
        evictions: nested("cache", "evictions"),
    })
}

struct PassOut {
    wall_ns: u64,
    failed: u64,
    digest: u64,
    hits: u64,
    misses: u64,
}

/// One pass over `batches` batches. The connection's engine is first put
/// back to "only `dead[0]` is down" so every pass starts from one state.
fn pass(
    script: &Script,
    batches: usize,
    tol: f64,
    client: &mut Client<'_>,
    control: &mut ServeClient,
    samples_ns: &mut Vec<u64>,
) -> Result<PassOut, String> {
    let mut responses: Vec<Json> = Vec::with_capacity(BATCH);
    let mut lines: Vec<&str> = Vec::with_capacity(BATCH);
    lines.push(r#"{"cmd":"reset"}"#);
    lines.push(&script.down[script.dead[0] as usize]);
    client.request_batch(&lines, &mut responses)?;
    let before = server_stats(control)?;
    let mut h = Fnv::default();
    let mut failed = 0u64;
    let start = Instant::now();
    for i in 0..batches {
        script.batch(i, &mut lines);
        let t = Instant::now();
        client.request_batch(black_box(&lines), &mut responses)?;
        samples_ns.push(t.elapsed().as_nanos() as u64 / BATCH as u64);
        failed += script.failed_responses(i, black_box(&responses), tol, &mut h);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = server_stats(control)?;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    h.eat(hits);
    h.eat(misses);
    h.eat(after.evictions - before.evictions);
    Ok(PassOut {
        wall_ns,
        failed,
        digest: h.0,
        hits,
        misses,
    })
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    // Before anything is spawned: the daemon's threads inherit the mask.
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("client and daemon pinned to CPU {cpu}"),
        None => println!("could not pin to one CPU; timings may be bimodal"),
    }
    let (passes, batches) = if cfg.trace {
        (3, BATCHES_PER_PASS_SECOND * cfg.seconds as usize / 4)
    } else {
        (PASSES, BATCHES_PER_PASS_SECOND * cfg.seconds as usize)
    };
    let reference_batches = if cfg.trace { batches } else { batches / 4 };
    let mut samples_ns: Vec<u64> = Vec::with_capacity(passes * batches);
    let mut tracer = cfg
        .trace
        .then(|| Tracer::with_capacity(passes * (batches + 1) * 4));
    alloc::rebase();

    // Two log entries a batch, two more to reset each pass, and the event
    // probe's 200 batches of 32, on an append-only log never truncated.
    let opts = ServeOptions {
        cache_capacity: 1024,
        event_log_capacity: (passes + 1) * (2 * batches + 2) + 8192,
        ..ServeOptions::default()
    };
    let ((base, server), setup_s) = timed_setups(|| {
        let base = solve_base(opts.cache_capacity)?;
        let server = Server::bind(base.spec.clone(), opts.clone(), "127.0.0.1:0")
            .map_err(|e| format!("bind failed: {e}"))?;
        Ok((base, server))
    })?;
    announce_instance(&base);
    let script = script(&base, batches, cfg.seed)?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?
        .to_string();
    println!("{batches} batches of {BATCH} a pass, server on {addr}");

    let mut layers = Layers::default();
    let session = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run());
        let session = (|| -> Result<(Vec<PassOut>, f64, ServerStats), String> {
            let mut control = ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?;
            let plan = control
                .request(r#"{"cmd":"plan"}"#)
                .map_err(|e| format!("plan: {e}"))?;
            let served_digest = plan.get("plan_digest").and_then(Json::as_str);
            let validated = format!("{:016x}", base.epoch.plan_digest);
            if served_digest != Some(validated.as_str()) {
                return Err(format!(
                    "served plan {served_digest:?} is not the validated plan {validated}"
                ));
            }
            let tol = base.epoch.tol;

            // Warm-up (and, traced, the untraced reference): fills the
            // shared cache with every single-link state.
            let mut plain =
                Client::Plain(ServeClient::connect(&addr).map_err(|e| format!("connect: {e}"))?);
            let allocs_before = alloc::allocations();
            pass(
                &script,
                reference_batches,
                tol,
                &mut plain,
                &mut control,
                &mut samples_ns,
            )?;
            let allocs_per_op =
                (alloc::allocations() - allocs_before) as f64 / (reference_batches * BATCH) as f64;
            samples_ns.sort_unstable();
            let reference_p50 = quantile_sorted(&samples_ns, 0.5) as f64;
            if cfg.trace {
                layers.set(
                    "serve.op_p99_us",
                    quantile_sorted(&samples_ns, 0.99) as f64 / 1e3,
                );
                layers.set("proc.allocs_per_op", allocs_per_op);
            }
            samples_ns.clear();

            let mut client = match tracer.as_mut() {
                Some(t) => Client::Spanned(SpannedClient::connect(&addr)?, t),
                None => plain,
            };
            let mut outs = Vec::with_capacity(passes);
            for _ in 0..passes {
                outs.push(pass(
                    &script,
                    batches,
                    tol,
                    &mut client,
                    &mut control,
                    &mut samples_ns,
                )?);
            }
            if cfg.trace {
                verb_probes(&script, &mut control, &mut layers)?;
            }
            let stats = server_stats(&mut control)?;
            Ok((outs, reference_p50, stats))
        })();
        // Always stop the daemon, also when the session failed, and wait
        // for its threads.
        server.request_shutdown();
        let joined = daemon.join();
        match joined {
            Ok(Ok(())) => session,
            Ok(Err(e)) => Err(format!("server stopped with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    });
    let (outs, reference_p50, stats) = session?;

    let digests: Vec<u64> = outs.iter().map(|o| o.digest).collect();
    require_identical_passes(&digests)?;
    println!(
        "shared cache per pass: {} hits, {} misses",
        outs[0].hits, outs[0].misses
    );
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let attempted = (passes * batches * BATCH) as u64;

    let Some(tracer) = tracer else {
        let measured = Measured {
            setup_s,
            pass_wall_ns: outs.iter().map(|o| o.wall_ns).collect(),
            ops_per_pass: (batches * BATCH) as u64,
            samples_ns,
            plan_objective: base.epoch.objective,
        };
        return Ok(Report {
            attempted,
            failed,
            metrics: measured.end_to_end(),
        });
    };

    samples_ns.sort_unstable();
    let traced_p50 = quantile_sorted(&samples_ns, 0.5) as f64;
    layers.set("bench.layer_sum_ratio", tracer.layer_sum_ratio());
    layers.set("bench.trace_overhead_ratio", traced_p50 / reference_p50);
    let walls: Vec<f64> = outs.iter().map(|o| o.wall_ns as f64).collect();
    layers.set("bench.pass_spread", spread(&walls));
    layers.set("replay.cache_hits", outs[0].hits as f64);
    layers.set("replay.cache_misses", outs[0].misses as f64);
    layers.set(
        "replay.hit_ratio",
        outs[0].hits as f64 / (outs[0].hits + outs[0].misses).max(1) as f64,
    );
    layers.set(
        "replay.stage_normal_ratio",
        (attempted - failed) as f64 / attempted as f64,
    );
    layers.set("serve.requests", (stats.queries + stats.events) as f64);
    layers.set(
        "serve.errors",
        (stats.protocol_errors + stats.degrade_failed) as f64,
    );
    layers.set("serve.warm_epochs", stats.warm_epochs as f64);
    layers.set("serve.cold_epochs", stats.cold_epochs as f64);
    layers.set(
        "serve.bind_us",
        median_us(3, || {
            black_box(Server::bind(base.spec.clone(), opts.clone(), "127.0.0.1:0").is_ok());
        }),
    );
    layers.set(
        "serve.engine_share",
        engine_mix_us(&base, &script)? / (reference_p50 / 1e3),
    );
    probes::build(&base, &mut layers);
    probes::realize(&base, script.dead[0], &mut layers);
    probes::json(&script.admit[0], &mut layers);
    layers.set(
        "core.admit_us",
        median_us(200, || {
            for &(p, extra) in &script.admit_args {
                black_box(in_process_admit(&base, p, extra));
            }
        }) / ADMIT_POOL as f64,
    );
    crate::write_trace(cfg, &tracer);
    Ok(Report {
        attempted,
        failed,
        metrics: layers.into_metrics(),
    })
}

/// Per-verb cost: homogeneous 32-request batches, round trip / 32, and the
/// depth-1 round trip of a single `realize`. Exactly one link is dead
/// throughout, as in the measured passes.
fn verb_probes(
    script: &Script,
    control: &mut ServeClient,
    layers: &mut Layers,
) -> Result<(), String> {
    const REPS: usize = 200; // the event log is sized for this
    let (a, b) = (script.dead[0] as usize, script.dead[1] as usize);
    control
        .request_batch(&[r#"{"cmd":"reset"}"#, &script.down[a]])
        .map_err(|e| format!("probe reset: {e}"))?;
    let mut problem = None;
    let mut batch_us = |lines: &[&str]| {
        median_us(REPS, || match control.request_batch(lines) {
            Ok(responses) => {
                let degraded = responses.iter().any(|r| {
                    r.get("ok").and_then(Json::as_bool) != Some(true)
                        || r.get("stage")
                            .and_then(Json::as_str)
                            .is_some_and(|s| s != "normal")
                });
                if degraded {
                    problem = Some("a probe request was refused or left stage normal".to_string());
                }
            }
            Err(e) => problem = Some(format!("probe batch: {e}")),
        }) / lines.len() as f64
    };
    layers.set("serve.realize_us", batch_us(&[REALIZE; BATCH]));
    layers.set("serve.util_us", batch_us(&[UTIL; BATCH]));
    let admits: Vec<&str> = script
        .admit
        .iter()
        .take(BATCH)
        .map(String::as_str)
        .collect();
    layers.set("serve.admit_us", batch_us(&admits));
    // Eight swaps there and back between two links.
    let swaps: Vec<&str> = (0..BATCH / 4)
        .flat_map(|_| {
            [
                &script.up[a],
                &script.down[b],
                &script.up[b],
                &script.down[a],
            ]
        })
        .map(String::as_str)
        .collect();
    layers.set("serve.event_us", batch_us(&swaps));
    layers.set("serve.rtt_depth1_us", batch_us(&[REALIZE]));
    problem.map_or(Ok(()), Err)
}

/// The same query mix answered in-process by a `ReplayEngine` over the same
/// plan: microseconds per request without protocol, JSON or sockets.
fn engine_mix_us(base: &Base, script: &Script) -> Result<f64, String> {
    let e = &base.epoch;
    let batches = (script.dead.len() - 1).min(2_000);
    let mut engine = engine_with_dead(base, &e.served, 1024, script.dead[0])?;
    let walk = |engine: &mut pcf_replay::ReplayEngine<'_>| {
        let start = Instant::now();
        for i in 0..batches {
            // The swap op holds the two events and the first query.
            black_box(swap_op(
                base,
                engine,
                script.dead[i],
                script.dead[i + 1],
                &mut Off,
            ));
            for _ in 1..REALIZES + UTILS {
                if let Ok(d) = engine.realize_degraded() {
                    black_box(peak_utilization(&e.inst, &d.routing, engine.capacities()));
                }
            }
            for &pick in &script.picks[i * ADMITS..(i + 1) * ADMITS] {
                let (p, extra) = script.admit_args[pick as usize];
                black_box(in_process_admit(base, p, extra));
            }
        }
        start.elapsed().as_nanos() as f64 / 1e3 / (batches * BATCH) as f64
    };
    // The first walk fills the cache; the second, from the same start
    // state, is reported.
    walk(&mut engine);
    let (end, start) = (script.dead[batches], script.dead[0]);
    if end != start {
        swap_op(base, &mut engine, end, start, &mut Off);
    }
    Ok(walk(&mut engine))
}
