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
    augment_capacity, scale_to_mlu, solve_r3, tunnel_instance, FailureModel, Instance, Plan,
    RobustOptions, RobustSolution, Scheme,
};
use pcf_core::{DegradeMode, OVERLOAD_TOL};
use pcf_replay::{
    replay_batch, run_campaign, CampaignOptions, CampaignPlan, EventTrace, FaultInjector,
    ReplayOptions,
};
use pcf_rng::json;
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
         \x20 --cache <n>         (replay/serve) retained realizations; 0 = cold (default 1024)\n\
         \x20 --json <path>       (solve/validate/replay/adversary/serve --drive) report as JSON\n\
         \x20 --djson <path>      (replay/serve --drive) deterministic (digest) report as JSON\n\
         \x20 --degrade <m>       (replay/serve) off | rescale | shed: how far down the\n\
         \x20                     degradation ladder beyond-budget events may fall\n\
         \x20                     (default off for replay, shed for serve; see DESIGN.md \u{a7}10)\n\
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
            if args.get("scheme") == Some("r3") {
                // R3 has no tunnel/LS plan: its objective is the report.
                let f = args.get_or("f", 1usize)?;
                let r3 = solve_r3(&topo, &load_traffic(&args, &topo)?, f);
                println!(
                    "R3 on {} (f={f}): guaranteed demand scale {:.4}",
                    topo.name(),
                    r3.objective
                );
                return Ok(());
            }
            let (Plan { inst, sol, .. }, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, scheme);
            write_report(&args, "json", || solve_json(&topo, &inst, &sol, scheme))?;
            Ok(())
        }
        "validate" => {
            let f = args.get_or("f", 1usize)?;
            let (Plan { inst, sol, .. }, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, scheme);
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
            write_report(&args, "json", || {
                json::report(|w| {
                    w.uint("scenarios", report.scenarios as u64)
                        .uint("distinct_states", report.distinct_states as u64)
                        .fixed("max_utilization", report.max_utilization, 6)
                        .uint("violations", report.violations.len() as u64)
                        .uint("max_bump", report.max_bump as u64)
                        .str("digest", &format!("{:016x}", report.digest()))
                })
            })?;
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
            let (Plan { inst, sol, .. }, scheme) = solve(&args, &topo)?;
            report(&topo, &inst, &sol, scheme);
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
            write_report(&args, "json", || rep.to_json())?;
            write_report(&args, "djson", || rep.deterministic_json())?;
            // Exit policy: degraded-but-served events are absorbed (the
            // ladder did its job); only genuine violations — overloads or
            // events that served nothing — fail the replay.
            if !rep.congestion_free() {
                std::process::exit(1);
            }
            Ok(())
        }
        "serve" => {
            let scheme = scheme_flag(&args)?;
            let degrade = degrade_mode(&args, DegradeMode::Shed)?;
            let srlgs = srlg_groups(&args, &topo, false)?;
            let spec = pcf_serve::PlanSpec {
                topo: topo.clone(),
                scheme,
                tunnels: args.get_or("tunnels", 3usize)?,
                f: args.get_or("f", 1usize)?,
                seed: args.get_or("seed", 1u64)?,
                mlu: nonnegative(&args, "mlu", 0.6)?,
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
                    write_report(&args, "json", || rep.to_json())?;
                    write_report(&args, "djson", || rep.deterministic_json())?;
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
            // budget.
            let solved: Vec<(Scheme, Plan)> = [Scheme::Ffc, Scheme::PcfTf, Scheme::PcfLs]
                .into_iter()
                .map(|scheme| {
                    Ok((
                        scheme,
                        scheme.plan(&topo, tm.clone(), k, &fm, &ropts, None)?,
                    ))
                })
                .collect::<Result<_, pcf_core::RobustError>>()?;
            let served: Vec<Vec<f64>> = solved.iter().map(|(_, p)| p.sol.served(&p.inst)).collect();
            let plans: Vec<CampaignPlan<'_>> = solved
                .iter()
                .zip(&served)
                .map(|((scheme, p), served)| CampaignPlan {
                    scheme: scheme.as_flag().into(),
                    inst: &p.inst,
                    a: &p.sol.a,
                    b: &p.sol.b,
                    served,
                })
                .collect();
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
            write_report(&args, "json", || rep.to_json())?;
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
            if args.get("target").is_none() {
                return Err(ArgError("augment needs --target".into()).into());
            }
            let target = nonnegative(&args, "target", 0.0)?;
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

/// Writes the report `render` builds to the `--<flag>` path, if given.
fn write_report(args: &Args, flag: &str, render: impl FnOnce() -> String) -> std::io::Result<()> {
    if let Some(path) = args.get(flag) {
        std::fs::write(path, render())?;
        let kind = if flag == "json" { "" } else { "deterministic " };
        println!("  {kind}report written to {path}");
    }
    Ok(())
}

/// The `solve --json` report: the headline numbers, the separation LPs
/// and their pivots, and the LP-layer counters of the master.
fn solve_json(topo: &Topology, inst: &Instance, sol: &RobustSolution, scheme: Scheme) -> String {
    let lp = sol.lp_stats;
    json::report(|w| {
        w.str("scheme", scheme.as_flag())
            .str("topology", topo.name())
            .uint("nodes", topo.node_count() as u64)
            .uint("links", topo.link_count() as u64)
            .uint("pairs", inst.num_pairs() as u64)
            .uint("tunnels", inst.num_tunnels() as u64)
            .uint("logical_sequences", inst.num_lss() as u64)
            .fixed("objective", sol.objective, 9)
            .uint("rounds", sol.rounds as u64)
            .uint("cuts", sol.cuts as u64)
            .uint("warm_rounds", sol.warm_rounds as u64)
            .uint("separation_lps", sol.separation_lps as u64)
            .uint("separation_pivots", sol.separation_pivots as u64)
            .uint("cold_solves", lp.cold_solves as u64)
            .uint("warm_solves", lp.warm_solves as u64)
            .uint("warm_fallbacks", lp.warm_fallbacks as u64)
            .uint("phase1_iterations", lp.phase1_iterations as u64)
            .uint("primal_iterations", lp.primal_iterations as u64)
            .uint("dual_iterations", lp.dual_iterations as u64)
            .uint("refactors", lp.refactors as u64)
            .uint("update_entries", lp.update_entries as u64)
            .uint("refactor_peeled", lp.refactor_peeled as u64)
            .uint("refactor_bump", lp.refactor_bump as u64)
    })
}

fn load_traffic(args: &Args, topo: &Topology) -> Result<TrafficMatrix, Box<dyn std::error::Error>> {
    let seed = args.get_or("seed", 1u64)?;
    let mlu = nonnegative(args, "mlu", 0.6)?;
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

/// The `--<name>` number (`default` when absent), which must be finite and
/// `>= 0`: an infinite or NaN `--mlu` or `--target` would reach an
/// assertion, and a negative one would read as `0`.
fn nonnegative(args: &Args, name: &str, default: f64) -> Result<f64, ArgError> {
    let x = args.get_or(name, default)?;
    if x.is_finite() && x >= 0.0 {
        Ok(x)
    } else {
        Err(ArgError(format!(
            "--{name} must be a finite number >= 0, got {x}"
        )))
    }
}

/// The `--scheme` flag (default `pcf-ls`). R3 has no tunnel plan, so
/// here it is a usage error, raised before any LP runs (`solve` answers
/// r3 itself).
fn scheme_flag(args: &Args) -> Result<Scheme, ArgError> {
    let flag = args.get("scheme").unwrap_or(Scheme::PcfLs.as_flag());
    if flag == "r3" {
        return Err(ArgError(format!(
            "{}: --scheme r3 has no tunnel plan to check; only solve takes r3",
            args.command
        )));
    }
    Scheme::from_flag(flag).ok_or_else(|| {
        let known: Vec<&str> = Scheme::ALL.iter().map(|s| s.as_flag()).collect();
        ArgError(format!(
            "unknown scheme {flag:?} ({}; solve also takes r3)",
            known.join(" | ")
        ))
    })
}

/// Plans the `--scheme` scheme; a solver failure is an error exit.
fn solve(args: &Args, topo: &Topology) -> Result<(Plan, Scheme), Box<dyn std::error::Error>> {
    let scheme = scheme_flag(args)?;
    let f = args.get_or("f", 1usize)?;
    let k = args.get_or("tunnels", 3usize)?;
    let tm = load_traffic(args, topo)?;
    let opts = robust_options(args)?;
    let plan = scheme.plan(topo, tm, k, &FailureModel::links(f), &opts, None)?;
    Ok((plan, scheme))
}

fn report(topo: &Topology, inst: &Instance, sol: &RobustSolution, scheme: Scheme) {
    println!(
        "{} on {} ({} nodes, {} links): guaranteed demand scale {:.4}",
        scheme.as_flag(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_rng::json::Json;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn r3_is_a_usage_error_for_validate_and_replay() {
        for cmd in ["validate", "replay"] {
            let err = run(&argv(&format!("{cmd} --topology Abilene --scheme r3"))).unwrap_err();
            assert!(err.downcast_ref::<ArgError>().is_some(), "{err}");
            assert!(err.to_string().contains("r3"), "{err}");
        }
    }

    #[test]
    fn non_finite_or_negative_numbers_are_usage_errors() {
        for (line, flag) in [
            ("solve --topology Abilene --mlu inf", "mlu"),
            ("validate --topology Abilene --mlu inf", "mlu"),
            ("solve --topology Abilene --mlu nan", "mlu"),
            ("validate --topology Abilene --mlu -1", "mlu"),
            ("solve --topology Abilene --scheme r3 --mlu nan", "mlu"),
            ("serve --topology Abilene --mlu inf", "mlu"),
            ("serve --topology Abilene --mlu -0.5", "mlu"),
            ("augment --topology Abilene --target inf", "target"),
            ("augment --topology Abilene --target nan", "target"),
            ("augment --topology Abilene --target -1", "target"),
        ] {
            let err = run(&argv(line)).unwrap_err();
            assert!(err.downcast_ref::<ArgError>().is_some(), "{line}: {err}");
            let want = format!("--{flag} must be a finite number >= 0");
            assert!(err.to_string().contains(&want), "{line}: {err}");
        }
        let err = run(&argv("augment --topology Abilene")).unwrap_err();
        assert_eq!(err.to_string(), "augment needs --target");
    }

    /// A GML `label` may hold any string; the report must still parse.
    #[test]
    fn solve_json_escapes_the_topology_name() {
        let name = "lab\\net\tA\u{1}";
        let mut topo = Topology::new(name);
        let nodes: Vec<_> = (0..4).map(|i| topo.add_node(format!("n{i}"))).collect();
        for i in 0..4 {
            topo.add_link(nodes[i], nodes[(i + 1) % 4], 10.0);
        }
        let inst = tunnel_instance(&topo, &gravity(&topo, 1), 2);
        let sol = pcf_core::solve_ffc(&inst, &FailureModel::links(1), &RobustOptions::default());
        let json = solve_json(&topo, &inst, &sol, Scheme::Ffc);
        let parsed = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(parsed.get("topology").and_then(Json::as_str), Some(name));
        assert_eq!(parsed.get("scheme").and_then(Json::as_str), Some("ffc"));
    }
}
