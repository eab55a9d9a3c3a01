//! `pcf` — congestion-free traffic engineering from the command line.
//!
//! ```text
//! pcf solve    --topology GEANT --scheme pcf-ls --f 1 [--tunnels 3] [--seed 1]
//! pcf solve    --gml net.gml --scheme pcf-tf --f 2
//! pcf validate --topology B4 --scheme pcf-ls --f 1       # check all scenarios
//! pcf replay   --topology Sprint --f 2 --events 1000      # stream link churn
//! pcf augment  --topology IBM --f 1 --target 1.2          # capacity to reach z*
//! pcf topology --topology Deltacom                        # inspect a topology
//! pcf adversary --topology Abilene --f 1                  # worst-case campaign
//! pcf serve    --topology Abilene --scheme ffc --port 0   # online serving daemon
//! ```
//!
//! Topologies come from the built-in evaluation set (`--topology <name>`)
//! or a Topology Zoo GML file (`--gml <path>`); traffic is a gravity matrix
//! normalised to optimal-routing MLU 0.6 (`--seed` selects the draw;
//! `--mlu` overrides the target).

#![allow(clippy::disallowed_types, reason = "front end: timing and a flag map")]

mod args;

use args::{ArgError, Args};
use pcf_core::validate::validate_all;
use pcf_core::{
    augment_capacity, pcf_cls_pipeline, pcf_ls_instance, scale_to_mlu, solve_ffc, solve_pcf_ls,
    solve_pcf_tf, solve_r3, tunnel_instance, FailureModel, Instance, RobustOptions, RobustSolution,
};
use pcf_core::{DegradeMode, OVERLOAD_TOL};
use pcf_replay::{
    replay_batch, run_campaign, CampaignOptions, CampaignPlan, EventTrace, FaultInjector,
    ReplayOptions,
};
use pcf_topology::{LinkId, SrlgSet, Topology};
use pcf_traffic::{gravity, TrafficMatrix};

const FLAGS: &[&str] = &[
    "topology",
    "gml",
    "scheme",
    "f",
    "tunnels",
    "seed",
    "mlu",
    "target",
    "max-pairs",
    "threads",
    "trace",
    "events",
    "traces",
    "cache",
    "json",
    "degrade",
    "inject",
    "djson",
    "host",
    "port",
    "drive",
    "steps",
    "srlg",
    "srlg-size",
    "srlg-count",
    "degrade-permille",
    "max-down",
    "max-conns",
    "idle-ms",
];

const SWITCHES: &[&str] = &["fail-fast"];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        usage();
        return;
    }
    match run(&argv) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            usage();
            std::process::exit(2);
        }
    }
}

fn usage() {
    eprintln!(
        "pcf — provably congestion-free traffic engineering (PCF, SIGCOMM 2020)\n\
         \n\
         commands:\n\
         \x20 solve     compute a congestion-free allocation\n\
         \x20 validate  solve, then check every targeted failure scenario\n\
         \x20 replay    solve, then stream link up/down events through the plan\n\
         \x20 augment   cheapest capacity additions to reach --target demand scale\n\
         \x20 topology  print a topology summary\n\
         \x20 serve     solve, then serve the plan over TCP (line-delimited JSON;\n\
         \x20           events, realization/utilization queries, admission control)\n\
         \x20 adversary greedy worst-case campaign: per-scheme throughput-retention\n\
         \x20           curves under SRLG/node/link/degradation events\n\
         \n\
         flags:\n\
         \x20 --topology <name>   built-in evaluation topology (e.g. Sprint, GEANT)\n\
         \x20 --gml <path>        Topology Zoo GML file instead of --topology\n\
         \x20 --scheme <s>        ffc | pcf-tf | pcf-ls | pcf-cls | r3   (default pcf-ls)\n\
         \x20 --f <n>             simultaneous link failures to survive  (default 1)\n\
         \x20 --tunnels <k>       tunnels per pair                       (default 3)\n\
         \x20 --seed <n>          gravity traffic seed                   (default 1)\n\
         \x20 --mlu <x>           optimal-routing MLU target; 0 skips the\n\
         \x20                     normalization (fast on large topologies) (default 0.6)\n\
         \x20 --max-pairs <n>     keep only the n heaviest demands       (default 200)\n\
         \x20 --threads <n>       separation worker threads; 0 = all available cores\n\
         \x20                     (default 0)\n\
         \x20 --target <z>        (augment) demand scale to guarantee\n\
         \x20 --trace <path>      (replay) scripted trace file (`down <l>` / `up <l>` / `node <n>`\n\
         \x20                     / `srlg <g>` lines; groups come from --srlg)\n\
         \x20 --events <n>        (replay) generate an n-event flap trace    (default 1000)\n\
         \x20 --traces <n>        (replay) replay n generated traces in parallel (default 1)\n\
         \x20 --cache <n>         (replay) retained realizations; 0 = cold (default 1024)\n\
         \x20 --json <path>       (solve/validate/replay) also write the report as JSON\n\
         \x20 --djson <path>      (replay) write the deterministic (digest) report as JSON\n\
         \x20 --degrade <m>       (replay) off | rescale | shed: how far down the\n\
         \x20                     degradation ladder beyond-budget events may fall\n\
         \x20                     (default off; see DESIGN.md \u{a7}10)\n\
         \x20 --inject <kind>     (replay) adversarial traces instead of flaps:\n\
         \x20                     bursts (beyond-budget) | wobble (capacity) | chaos (both) |\n\
         \x20                     srlg (correlated group bursts; honors --srlg* flags) |\n\
         \x20                     storm (partial-capacity degradation squeezes)\n\
         \x20 --fail-fast         (replay) stop each trace at its first violation\n\
         \x20 --steps <n>         (adversary) adversarial events to pick     (default 4)\n\
         \x20 --srlg <path>       (adversary/replay/serve) SRLG sidecar file (`group e0 e1\n\
         \x20                     ...` lines); default synthesizes groups from the topology\n\
         \x20 --srlg-size <n>     (adversary/replay) links per synthetic group (default 2)\n\
         \x20 --srlg-count <n>    (adversary/replay) synthetic groups          (default 4)\n\
         \x20 --degrade-permille <p> (adversary/replay) partial-capacity level (default 500)\n\
         \x20 --max-down <n>      (adversary) concurrent dead-link budget    (default f+2)\n\
         \x20 --host <ip>         (serve) bind address                     (default 127.0.0.1)\n\
         \x20 --port <n>          (serve) bind port; 0 picks a free one    (default 7474)\n\
         \x20 --max-conns <n>     (serve) concurrent-connection cap; extra clients get\n\
         \x20                     a busy reject; 0 = unlimited             (default 64)\n\
         \x20 --idle-ms <n>       (serve) reap connections idle this long; 0 = never\n\
         \x20                     (default 0)\n\
         \x20 --drive <path>      (serve) run a command script against the server,\n\
         \x20                     then shut down; exit 1 on protocol violations\n\
         \n\
         exit codes: 0 clean (degraded-but-served events included), 1 violations\n\
         found by validate/replay, 2 usage or input errors"
    );
}

fn run(argv: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(argv, FLAGS, SWITCHES)?;
    let topo = load_topology(&args)?;
    match args.command.as_str() {
        "topology" => {
            describe(&topo);
            Ok(())
        }
        "solve" => {
            let (inst, sol, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, &scheme);
            if let Some(path) = args.get("json") {
                std::fs::write(path, solve_json(&topo, &inst, &sol, &scheme))?;
                println!("  report written to {path}");
            }
            Ok(())
        }
        "validate" => {
            let f = args.get_or("f", 1usize)?;
            let (inst, sol, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, &scheme);
            let served = sol.served(&inst);
            let fm = FailureModel::links(f);
            let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, OVERLOAD_TOL);
            println!(
                "validate: {} scenarios ({} distinct states, max LU bump {}), \
                 max utilization {:.4} -> {}",
                report.scenarios,
                report.distinct_states,
                report.max_bump,
                report.max_utilization,
                if report.congestion_free() {
                    "CONGESTION-FREE"
                } else {
                    "VIOLATIONS FOUND"
                }
            );
            if let Some(path) = args.get("json") {
                std::fs::write(
                    path,
                    format!(
                        "{{\n  \"scenarios\": {},\n  \"distinct_states\": {},\n  \
                         \"max_utilization\": {:.6},\n  \"violations\": {},\n  \
                         \"max_bump\": {},\n  \"digest\": \"{:016x}\"\n}}\n",
                        report.scenarios,
                        report.distinct_states,
                        report.max_utilization,
                        report.violations.len(),
                        report.max_bump,
                        report.digest(),
                    ),
                )?;
                println!("  report written to {path}");
            }
            for hot in &report.top_arcs {
                let arc = pcf_topology::ArcId(hot.arc as u32);
                println!(
                    "  hotspot arc {} ({} -> {}): peak utilization {:.4}",
                    hot.arc,
                    topo.node_name(topo.arc_src(arc)),
                    topo.node_name(topo.arc_dst(arc)),
                    hot.utilization
                );
            }
            if !report.congestion_free() {
                let s = report.summarize();
                println!(
                    "  {} violation(s): {} disconnected, {} realize, {} overload \
                     (worst residual overload {:.4})",
                    s.total(),
                    s.disconnected,
                    s.realize,
                    s.overload,
                    report.worst_overload()
                );
                std::process::exit(1);
            }
            Ok(())
        }
        "replay" => {
            let f = args.get_or("f", 1usize)?;
            let (inst, sol, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, &scheme);
            let served = sol.served(&inst);
            let seed = args.get_or("seed", 1u64)?;
            let degrade = degrade_mode(&args, DegradeMode::Off)?;
            let traces: Vec<EventTrace> = match (args.get("trace"), args.get("inject")) {
                (Some(_), Some(_)) => {
                    return Err(Box::new(ArgError(
                        "--trace and --inject are mutually exclusive".into(),
                    )))
                }
                (Some(path), None) => {
                    // Scripted files must name real links, nodes and
                    // `--srlg` groups and describe consistent state changes.
                    let text = std::fs::read_to_string(path)?;
                    let groups = srlg_groups(&args, &topo, false)?;
                    vec![EventTrace::parse(path, &text, &topo, &groups)?]
                }
                (None, inject) => {
                    if let Some(kind) = inject {
                        if !["bursts", "wobble", "chaos", "srlg", "storm"].contains(&kind) {
                            return Err(Box::new(ArgError(format!(
                                "--inject: expected bursts | wobble | chaos | srlg | storm, \
                                 got {kind:?}"
                            ))));
                        }
                    }
                    let groups = if inject == Some("srlg") {
                        srlg_groups(&args, &topo, true)?
                    } else {
                        Vec::new()
                    };
                    let min_permille = args.get_or("degrade-permille", 500u32)?;
                    let events = args.get_or("events", 1000usize)?;
                    let n = args.get_or("traces", 1usize)?;
                    (0..n as u64)
                        .map(|i| {
                            let s = seed.wrapping_add(i);
                            match inject {
                                None => EventTrace::flaps(&topo, events, f, s),
                                Some("bursts") => FaultInjector::new(s).beyond_budget_bursts(
                                    &topo,
                                    events.div_ceil(2),
                                    f,
                                ),
                                Some("wobble") => {
                                    FaultInjector::new(s).capacity_wobble(&topo, events, 500)
                                }
                                Some("srlg") => {
                                    EventTrace::srlg_bursts(&groups, events.div_ceil(2), s)
                                }
                                Some("storm") => FaultInjector::new(s).degradation_storm(
                                    &topo,
                                    events,
                                    min_permille,
                                ),
                                _ => FaultInjector::new(s).chaos(&topo, events, f),
                            }
                        })
                        .collect()
                }
            };
            let opts = ReplayOptions {
                cache_capacity: args.get_or("cache", 1024usize)?,
                threads: args.get_or("threads", 0usize)?,
                degrade,
                fail_fast: args.has("fail-fast"),
                ..ReplayOptions::default()
            };
            let t0 = std::time::Instant::now();
            let rep = replay_batch(&inst, &sol.a, &sol.b, &served, &traces, &opts);
            let secs = t0.elapsed().as_secs_f64();
            println!(
                "replay: {} events over {} trace(s): {:.0} events/s, max utilization {:.4} -> {}",
                rep.events,
                traces.len(),
                rep.events as f64 / secs.max(1e-9),
                rep.max_utilization,
                if rep.congestion_free() {
                    "CONGESTION-FREE"
                } else {
                    "VIOLATIONS FOUND"
                }
            );
            println!(
                "  realization latency p50/p99: {}/{} us; cache hits {} misses {} \
                 errors {} evictions {} (hit rate {:.1}%)",
                rep.latency.p50_ns() / 1_000,
                rep.latency.p99_ns() / 1_000,
                rep.cache.hits,
                rep.cache.misses,
                rep.cache.errors,
                rep.cache.evictions,
                100.0 * rep.cache.hit_rate()
            );
            if degrade != DegradeMode::Off || rep.degrade.degraded() > 0 {
                println!(
                    "  degradation ladder ({}): normal {} rescaled {} shed {} failed {}; \
                     total shed {:.4}, worst residual overload {:.4}",
                    degrade.as_flag(),
                    rep.degrade.normal,
                    rep.degrade.rescaled,
                    rep.degrade.shed,
                    rep.degrade.failed,
                    rep.total_shed,
                    rep.worst_overload
                );
            }
            for v in rep.violations.iter().take(5) {
                println!(
                    "  violation: trace {} event {}: {:?}",
                    v.trace, v.event, v.kind
                );
            }
            if let Some(path) = args.get("json") {
                std::fs::write(path, rep.to_json())?;
                println!("  report written to {path}");
            }
            if let Some(path) = args.get("djson") {
                std::fs::write(path, rep.deterministic_json())?;
                println!("  deterministic report written to {path}");
            }
            // Exit policy: degraded-but-served events are absorbed (the
            // ladder did its job); only genuine violations — overloads or
            // events that served nothing — fail the replay.
            if !rep.congestion_free() {
                std::process::exit(1);
            }
            Ok(())
        }
        "serve" => {
            let scheme_flag = args.get("scheme").unwrap_or("pcf-ls");
            let scheme = pcf_serve::SchemeKind::from_flag(scheme_flag).ok_or(ArgError(format!(
                "serve: --scheme must be ffc | pcf-tf | pcf-ls | pcf-cls, got {scheme_flag:?}"
            )))?;
            let degrade = degrade_mode(&args, DegradeMode::Shed)?;
            let srlgs = srlg_groups(&args, &topo, false)?;
            let spec = pcf_serve::PlanSpec {
                topo: topo.clone(),
                scheme,
                tunnels: args.get_or("tunnels", 3usize)?,
                f: args.get_or("f", 1usize)?,
                seed: args.get_or("seed", 1u64)?,
                mlu: args.get_or("mlu", 0.6f64)?,
                max_pairs: args.get_or("max-pairs", 200usize)?,
                tol: OVERLOAD_TOL,
                opts: robust_options(&args)?,
                srlgs,
            };
            let opts = pcf_serve::ServeOptions {
                cache_capacity: args.get_or("cache", 1024usize)?,
                degrade,
                max_conns: args.get_or("max-conns", 64usize)?,
                idle_timeout_ms: args.get_or("idle-ms", 0u64)?,
                ..pcf_serve::ServeOptions::default()
            };
            let host = args.get("host").unwrap_or("127.0.0.1");
            let port = args.get_or("port", 7474u16)?;
            let server = pcf_serve::Server::bind(spec, opts, &format!("{host}:{port}"))?;
            let addr = server.local_addr()?;
            println!(
                "pcf serve: {} on {} (f={}), listening on {addr}",
                scheme.as_flag(),
                topo.name(),
                args.get_or("f", 1usize)?
            );
            match args.get("drive") {
                None => server.run()?,
                Some(path) => {
                    let script = std::fs::read_to_string(path)?;
                    let drive = std::thread::scope(|s| {
                        let daemon = s.spawn(|| server.run());
                        let drive = pcf_serve::run_script(&addr.to_string(), &script);
                        server.request_shutdown();
                        let _ = daemon.join();
                        drive
                    })?;
                    let rep = server.report();
                    println!(
                        "  drive: {} command(s), {} violation(s)",
                        drive.commands, drive.violations
                    );
                    if let Some(path) = args.get("json") {
                        std::fs::write(path, rep.to_json())?;
                        println!("  report written to {path}");
                    }
                    if let Some(path) = args.get("djson") {
                        std::fs::write(path, rep.deterministic_json())?;
                        println!("  deterministic report written to {path}");
                    }
                    if !drive.clean() {
                        for (req, resp) in drive.transcript.iter().take(50) {
                            println!("  {req} => {resp}");
                        }
                        std::process::exit(1);
                    }
                }
            }
            Ok(())
        }
        "adversary" => {
            let f = args.get_or("f", 1usize)?;
            let k = args.get_or("tunnels", 3usize)?;
            let tm = load_traffic(&args, &topo)?;
            let fm = FailureModel::links(f);
            let ropts = robust_options(&args)?;
            let groups = srlg_groups(&args, &topo, true)?;
            let copts = CampaignOptions {
                steps: args.get_or("steps", 4usize)?,
                groups,
                degrade_permille: args.get_or("degrade-permille", 500u32)?,
                max_down: args.get_or("max-down", f + 2)?,
                tol: OVERLOAD_TOL,
            };
            // All three schemes solve against the same traffic and link
            // budget; FFC and PCF-TF share the tunnel-only instance.
            let tunnel_inst = tunnel_instance(&topo, &tm, k);
            let ffc = solve_ffc(&tunnel_inst, &fm, &ropts);
            let tf = solve_pcf_tf(&tunnel_inst, &fm, &ropts);
            let ls_inst = pcf_ls_instance(&topo, &tm, k);
            let ls = solve_pcf_ls(&ls_inst, &fm, &ropts);
            let ffc_served = ffc.served(&tunnel_inst);
            let tf_served = tf.served(&tunnel_inst);
            let ls_served = ls.served(&ls_inst);
            let plans = [
                CampaignPlan {
                    scheme: "ffc".into(),
                    inst: &tunnel_inst,
                    a: &ffc.a,
                    b: &ffc.b,
                    served: &ffc_served,
                },
                CampaignPlan {
                    scheme: "pcf-tf".into(),
                    inst: &tunnel_inst,
                    a: &tf.a,
                    b: &tf.b,
                    served: &tf_served,
                },
                CampaignPlan {
                    scheme: "pcf-ls".into(),
                    inst: &ls_inst,
                    a: &ls.a,
                    b: &ls.b,
                    served: &ls_served,
                },
            ];
            let rep = run_campaign(&plans, &copts);
            println!(
                "adversary on {} (f={f}, {} srlg groups, {} steps, budget {} dead):",
                topo.name(),
                copts.groups.len(),
                copts.steps,
                copts.max_down
            );
            for c in &rep.curves {
                println!(
                    "  {:7} admitted {:9.4} -> retained {:9.4} ({:5.1}%)",
                    c.scheme,
                    c.admitted,
                    c.retained(),
                    100.0 * c.retained_fraction()
                );
                for s in &c.steps {
                    println!(
                        "    {:16} delivered {:9.4} shed {:9.4} [{}]",
                        s.event,
                        s.delivered,
                        s.shed,
                        s.stage.name()
                    );
                }
            }
            println!("  digest {:016x}", rep.digest());
            if let Some(path) = args.get("json") {
                std::fs::write(path, rep.to_json())?;
                println!("  report written to {path}");
            }
            match rep.separation_ok() {
                Some(true) => {
                    println!("  separation: pcf-ls retained > ffc retained -- OK");
                    Ok(())
                }
                verdict => {
                    println!("  separation VIOLATED ({verdict:?}): pcf-ls did not beat ffc");
                    std::process::exit(1);
                }
            }
        }
        "augment" => {
            let f = args.get_or("f", 1usize)?;
            let target: f64 = args
                .get("target")
                .ok_or(ArgError("augment needs --target".into()))?
                .parse()
                .map_err(|_| ArgError("--target must be a number".into()))?;
            let tm = load_traffic(&args, &topo)?;
            let k = args.get_or("tunnels", 3usize)?;
            let inst = tunnel_instance(&topo, &tm, k);
            let aug = augment_capacity(
                &inst,
                &FailureModel::links(f),
                target,
                |_| 1.0,
                &robust_options(&args)?,
            )
            .map_err(|e| ArgError(format!("augmentation failed: {e}")))?
            .ok_or(ArgError("augmentation did not converge".into()))?;
            println!(
                "target demand scale {target} under {f} failures: add {:.4} capacity units",
                aug.total_cost
            );
            for l in topo.links() {
                if aug.extra[l.index()] > 1e-6 {
                    let link = topo.link(l);
                    println!(
                        "  {} ({} - {}): {:.2} -> {:.2}",
                        l,
                        topo.node_name(link.u),
                        topo.node_name(link.v),
                        link.capacity,
                        link.capacity + aug.extra[l.index()]
                    );
                }
            }
            Ok(())
        }
        other => Err(Box::new(ArgError(format!("unknown command {other:?}")))),
    }
}

fn load_topology(args: &Args) -> Result<Topology, Box<dyn std::error::Error>> {
    match (args.get("gml"), args.get("topology")) {
        (Some(path), _) => {
            let src = std::fs::read_to_string(path)?;
            let raw = pcf_topology::gml::parse_gml(&src)?;
            let (pruned, _) = pcf_topology::transform::prune_degree_one(&raw);
            if pruned.node_count() == 0 {
                return Err(Box::new(ArgError(
                    "topology is a tree: nothing survives degree-1 pruning".into(),
                )));
            }
            Ok(pruned)
        }
        (None, Some(name)) => {
            if !pcf_topology::zoo::names().contains(&name) {
                return Err(Box::new(ArgError(format!(
                    "unknown topology {name:?}; available: {}",
                    pcf_topology::zoo::names().join(", ")
                ))));
            }
            Ok(pcf_topology::zoo::build(name))
        }
        (None, None) => Err(Box::new(ArgError(
            "need --topology <name> or --gml <path>".into(),
        ))),
    }
}

/// The `--degrade` ladder depth, `default` without the flag.
fn degrade_mode(args: &Args, default: DegradeMode) -> Result<DegradeMode, ArgError> {
    match args.get("degrade") {
        None => Ok(default),
        Some(s) => DegradeMode::from_flag(s).ok_or(ArgError(format!(
            "--degrade: expected off | rescale | shed, got {s:?}"
        ))),
    }
}

/// The link groups of the `--srlg` sidecar file. Without the flag:
/// `--srlg-count` groups of `--srlg-size` links drawn from `--seed` when
/// `synthetic`, none otherwise.
fn srlg_groups(
    args: &Args,
    topo: &Topology,
    synthetic: bool,
) -> Result<Vec<Vec<LinkId>>, Box<dyn std::error::Error>> {
    let set = match args.get("srlg") {
        Some(path) => SrlgSet::parse_strict(&std::fs::read_to_string(path)?, topo)?,
        None if synthetic => SrlgSet::synthetic(
            topo,
            args.get_or("srlg-size", 2usize)?,
            args.get_or("srlg-count", 4usize)?,
            args.get_or("seed", 1u64)?,
        ),
        None => return Ok(Vec::new()),
    };
    Ok(set.link_groups())
}

/// Robust-engine options from the command line: `--threads 0` (the
/// default) lets the engine use every available core for separation.
fn robust_options(args: &Args) -> Result<RobustOptions, ArgError> {
    Ok(RobustOptions {
        threads: args.get_or("threads", 0usize)?,
        ..RobustOptions::default()
    })
}

/// The `solve --json` report: the headline numbers, the separation LPs
/// and their pivots, and the LP-layer counters of the master.
fn solve_json(topo: &Topology, inst: &Instance, sol: &RobustSolution, scheme: &str) -> String {
    let lp = sol.lp_stats;
    format!(
        "{{\n  \"scheme\": \"{scheme}\",\n  \"topology\": \"{}\",\n  \"nodes\": {},\n  \
         \"links\": {},\n  \"pairs\": {},\n  \"tunnels\": {},\n  \"logical_sequences\": {},\n  \
         \"objective\": {:.9},\n  \"rounds\": {},\n  \"cuts\": {},\n  \"warm_rounds\": {},\n  \
         \"separation_lps\": {},\n  \"separation_pivots\": {},\n  \"cold_solves\": {},\n  \"warm_solves\": {},\n  \"warm_fallbacks\": {},\n  \
         \"phase1_iterations\": {},\n  \"primal_iterations\": {},\n  \"dual_iterations\": {},\n  \
         \"refactors\": {},\n  \"update_entries\": {},\n  \"refactor_peeled\": {},\n  \
         \"refactor_bump\": {}\n}}\n",
        topo.name(),
        topo.node_count(),
        topo.link_count(),
        inst.num_pairs(),
        inst.num_tunnels(),
        inst.num_lss(),
        sol.objective,
        sol.rounds,
        sol.cuts,
        sol.warm_rounds,
        sol.separation_lps,
        sol.separation_pivots,
        lp.cold_solves,
        lp.warm_solves,
        lp.warm_fallbacks,
        lp.phase1_iterations,
        lp.primal_iterations,
        lp.dual_iterations,
        lp.refactors,
        lp.update_entries,
        lp.refactor_peeled,
        lp.refactor_bump,
    )
}

fn load_traffic(args: &Args, topo: &Topology) -> Result<TrafficMatrix, Box<dyn std::error::Error>> {
    let seed = args.get_or("seed", 1u64)?;
    let mlu = args.get_or("mlu", 0.6f64)?;
    let max_pairs = args.get_or("max-pairs", 200usize)?;
    let mut tm = gravity(topo, seed);
    tm.truncate_to_top_k(max_pairs);
    // `--mlu 0` skips the optimal-routing normalization: the max-concurrent-
    // flow LP it solves costs far more than the robust solve itself on
    // Deltacom/ION-scale topologies, and the guaranteed demand scale is
    // relative to the matrix either way.
    if mlu > 0.0 {
        let (scaled, _) = scale_to_mlu(topo, &tm, mlu);
        tm = scaled;
    }
    Ok(tm)
}

fn solve(
    args: &Args,
    topo: &Topology,
) -> Result<(Instance, RobustSolution, String), Box<dyn std::error::Error>> {
    let f = args.get_or("f", 1usize)?;
    let k = args.get_or("tunnels", 3usize)?;
    let scheme = args.get("scheme").unwrap_or("pcf-ls").to_string();
    let tm = load_traffic(args, topo)?;
    let fm = FailureModel::links(f);
    let opts = robust_options(args)?;
    let (inst, sol) = match scheme.as_str() {
        "ffc" => {
            let inst = tunnel_instance(topo, &tm, k);
            let sol = solve_ffc(&inst, &fm, &opts);
            (inst, sol)
        }
        "pcf-tf" => {
            let inst = tunnel_instance(topo, &tm, k);
            let sol = solve_pcf_tf(&inst, &fm, &opts);
            (inst, sol)
        }
        "pcf-ls" => {
            let inst = pcf_ls_instance(topo, &tm, k);
            let sol = solve_pcf_ls(&inst, &fm, &opts);
            (inst, sol)
        }
        "pcf-cls" => {
            let cls = pcf_cls_pipeline(topo, &tm, k, &fm, &opts);
            (cls.instance, cls.solution)
        }
        "r3" => {
            // R3 has no tunnel/LS plan to validate; report and exit here.
            let r3 = solve_r3(topo, &tm, f);
            println!(
                "R3 on {} (f={f}): guaranteed demand scale {:.4}",
                topo.name(),
                r3.objective
            );
            std::process::exit(0);
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown scheme {other:?} (ffc | pcf-tf | pcf-ls | pcf-cls | r3)"
            ))))
        }
    };
    Ok((inst, sol, scheme))
}

fn report(topo: &Topology, inst: &Instance, sol: &RobustSolution, scheme: &str) {
    println!(
        "{scheme} on {} ({} nodes, {} links): guaranteed demand scale {:.4}",
        topo.name(),
        topo.node_count(),
        topo.link_count(),
        sol.objective
    );
    println!(
        "  {} pairs, {} tunnels, {} logical sequences; {} cutting-plane rounds, {} cuts",
        inst.num_pairs(),
        inst.num_tunnels(),
        inst.num_lss(),
        sol.rounds,
        sol.cuts
    );
    if sol.objective > 1e-9 {
        println!(
            "  max link utilization at guarantee: {:.4}",
            1.0 / sol.objective
        );
    } else {
        println!("  no traffic can be guaranteed under this failure budget");
    }
}

fn describe(topo: &Topology) {
    println!(
        "{}: {} nodes, {} links, total capacity {:.1}",
        topo.name(),
        topo.node_count(),
        topo.link_count(),
        topo.total_capacity()
    );
    println!(
        "  2-edge-connected: {}  bridges: {}",
        topo.is_two_edge_connected(),
        topo.bridges().len()
    );
    let mut degs: Vec<usize> = topo.nodes().map(|n| topo.degree(n)).collect();
    degs.sort_unstable();
    println!(
        "  degree min/median/max: {}/{}/{}",
        degs.first().unwrap_or(&0),
        degs.get(degs.len() / 2).unwrap_or(&0),
        degs.last().unwrap_or(&0)
    );
}
