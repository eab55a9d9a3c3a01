//! The serving daemon: a std-only TCP server over the line protocol.
//!
//! Concurrency layout (all safe Rust, all scoped threads):
//!
//! * **Connection threads** (one per client) own a private
//!   [`ReplayEngine`] borrowing the current [`PlanEpoch`]. Before every
//!   command they replay any [`EventLog`] entries they have not applied
//!   yet — the only shared state on the event path is the lock-free log
//!   and the epoch's [`SharedFactorCache`](pcf_replay::SharedFactorCache).
//! * **The solver thread** drains `update` commands from a channel,
//!   re-solves the plan at the requested scale/seed, and publishes the
//!   new epoch through [`PlanCell::swap`]. Readers notice the generation
//!   bump (one `Acquire` load) at their next command and rebuild their
//!   engine against the new epoch; in-flight queries finish against the
//!   old one.
//! * **Shutdown** is a flag plus a self-connect poke so the blocking
//!   `accept` wakes up; connection reads use a short timeout so every
//!   thread observes the flag promptly and the scope joins.
//!
//! Responses are one JSON line per request, in request order — see
//! [`crate::protocol`] for the full verb table.

use crate::log::{EventLog, LogEvent};
use crate::plan::{PlanCell, PlanEpoch, PlanSpec};
use crate::protocol::{error_response, parse_request, Request, MAX_REQUEST_LINE};
use crate::telemetry::{ServeReport, Stopwatch, Telemetry};
use crate::ServeError;
use pcf_core::{
    absolute_tolerance, admit, peak_utilization, AdmitOutcome, DegradeMode, RealizeError,
};
use pcf_replay::{EventKind, LinkEvent, ReplayEngine};
use pcf_rng::json::{Json, Layout, ObjWriter};
use pcf_topology::LinkId;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Server tunables (everything except the plan itself).
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Capacity of each epoch's shared realization cache (entries).
    pub cache_capacity: usize,
    /// Degradation ladder allowance for `realize`/`util`.
    pub degrade: DegradeMode,
    /// Fixed capacity of the failure-event log.
    pub event_log_capacity: usize,
    /// Scenario-enumeration budget for exact admission checks.
    pub max_admit_evals: usize,
    /// Connection read timeout — bounds how long shutdown waits on an
    /// idle connection.
    pub read_timeout_ms: u64,
    /// Concurrent-connection cap; further clients get a one-line
    /// `{"ok":false,...,"busy":true}` reject and a close. `0` = unlimited.
    pub max_conns: usize,
    /// Reap a connection after this long without a complete request
    /// (`{"ok":false,"error":"idle timeout..."}` then close). `0` = never.
    pub idle_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            cache_capacity: 1024,
            degrade: DegradeMode::Shed,
            event_log_capacity: 65_536,
            max_admit_evals: 200_000,
            read_timeout_ms: 25,
            max_conns: 64,
            idle_timeout_ms: 0,
        }
    }
}

/// What the connection does after writing a response.
enum Action {
    Respond,
    RespondAndClose,
}

/// A bound, solved, ready-to-run serving daemon.
pub struct Server {
    listener: TcpListener,
    spec: PlanSpec,
    opts: ServeOptions,
    cell: PlanCell,
    /// Generation 1's cut pool, held until the solver thread takes it so
    /// the first `update`/`rebase` re-solves warm like every later one.
    first_pool: Mutex<Option<pcf_core::CutPool>>,
    log: EventLog,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    /// Live connection count, maintained by the acceptor (up) and the
    /// connection threads (down); only the acceptor reads it for the cap
    /// check, so the cap is never exceeded.
    active: AtomicUsize,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and solves the initial plan at
    /// generation 1. Returns before accepting — call [`Server::run`].
    pub fn bind(spec: PlanSpec, opts: ServeOptions, addr: &str) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let (epoch, pool) =
            spec.solve_epoch_seeded(1, 1.0, spec.seed, opts.cache_capacity, None)?;
        let log = EventLog::new(opts.event_log_capacity);
        Ok(Server {
            listener,
            spec,
            opts,
            cell: PlanCell::new(Arc::new(epoch)),
            first_pool: Mutex::new(pool),
            log,
            telemetry: Telemetry::default(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A telemetry snapshot against the currently published epoch.
    pub fn report(&self) -> ServeReport {
        let epoch = self.cell.current();
        self.telemetry
            .snapshot(epoch.gen, epoch.plan_digest, epoch.cache.stats())
    }

    /// Serves until a `shutdown` command arrives. Blocks; every
    /// connection and the background solver run as scoped threads, so
    /// returning means all of them have joined.
    pub fn run(&self) -> io::Result<()> {
        let (tx, rx) = mpsc::channel::<Request>();
        thread::scope(|s| {
            s.spawn(|| self.solver_loop(rx));
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if self.shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let active = self.active.load(Ordering::Acquire);
                        if self.opts.max_conns > 0 && active >= self.opts.max_conns {
                            // Graceful reject: one JSON line, then close —
                            // the client can back off and retry rather
                            // than hang on an unaccepted socket.
                            Telemetry::bump(&self.telemetry.busy_rejects);
                            let max = self.opts.max_conns;
                            let why = format!("busy: {active} connections active (max {max})");
                            let mut reject = String::new();
                            let w = ObjWriter::new(&mut reject).bool("ok", false);
                            w.str("error", &why).bool("busy", true).finish();
                            reject.push('\n');
                            let _ = (&stream).write_all(reject.as_bytes());
                            continue;
                        }
                        self.active.fetch_add(1, Ordering::AcqRel);
                        Telemetry::bump(&self.telemetry.connections);
                        let tx = tx.clone();
                        s.spawn(move || {
                            // A dropped/reset connection is that client's
                            // problem, not the server's.
                            let _ = self.handle_conn(stream, tx);
                            self.active.fetch_sub(1, Ordering::AcqRel);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
                if self.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            // Drop our sender so the solver's recv loop can observe
            // disconnection; it also polls the shutdown flag.
            drop(tx);
        });
        Ok(())
    }

    /// Requests shutdown from outside the protocol (tests, signal glue).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        self.poke_acceptor();
    }

    fn solver_loop(&self, rx: mpsc::Receiver<Request>) {
        // The previous epoch's cut pool, carried across re-solves so each
        // epoch's master starts from the optimum of the last one.
        let mut pool = self
            .first_pool
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        // The solver's view of the topology: `rebase` commands mutate it
        // permanently, and every later re-solve (rebase or not) builds
        // against the accumulated capacities.
        let mut spec = self.spec.clone();
        loop {
            match rx.recv_timeout(Duration::from_millis(50)) {
                // Connections send only `update` and `rebase` requests.
                Ok(cmd) => {
                    let current = self.cell.current();
                    let (gen, mut scale, mut seed) = (current.gen + 1, current.scale, current.seed);
                    if let Request::Update { scale: s, seed: d } = cmd {
                        (scale, seed) = (s.unwrap_or(scale), d.unwrap_or(seed));
                    }
                    if let Request::Rebase { link, permille } = cmd {
                        let l = LinkId(link);
                        let Some(cap) = rebased_capacity(spec.topo.capacity(l), permille) else {
                            // Keep the old topology and epoch: a capacity
                            // of 0 or infinity is no network to plan for.
                            Telemetry::bump(&self.telemetry.solve_failures);
                            continue;
                        };
                        spec.topo.set_capacity(l, cap);
                    }
                    match spec.solve_epoch_seeded(
                        gen,
                        scale,
                        seed,
                        self.opts.cache_capacity,
                        pool.as_ref(),
                    ) {
                        Ok((epoch, next_pool)) => {
                            if epoch.warm_cuts > 0 {
                                Telemetry::bump(&self.telemetry.warm_epochs);
                            } else {
                                Telemetry::bump(&self.telemetry.cold_epochs);
                            }
                            if epoch.tunnels_reused {
                                Telemetry::bump(&self.telemetry.tunnel_reuses);
                            }
                            pool = next_pool;
                            self.cell.swap(Arc::new(epoch));
                            Telemetry::bump(&self.telemetry.swaps);
                        }
                        Err(_) => {
                            // Keep serving the old epoch; the failure is
                            // visible in telemetry.
                            Telemetry::bump(&self.telemetry.solve_failures);
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Wakes a blocking `accept` after the shutdown flag is set.
    fn poke_acceptor(&self) {
        if let Ok(addr) = self.listener.local_addr() {
            let target = if addr.ip().is_unspecified() {
                SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), addr.port())
            } else {
                addr
            };
            let _ = TcpStream::connect_timeout(&target, Duration::from_millis(100));
        }
    }

    fn handle_conn(&self, stream: TcpStream, tx: mpsc::Sender<Request>) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(
            self.opts.read_timeout_ms.max(1),
        )))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        // One request line and one response, reused for every request.
        let (mut line, mut out) = (Vec::new(), String::new());
        // Set when `line` holds a request read under an epoch that has
        // since been replaced, so the next epoch answers it.
        let mut pending = false;
        // Outer loop: one iteration per plan epoch this connection serves.
        // The engine borrows the epoch `Arc` held by this frame, so a swap
        // elsewhere never invalidates it; we re-enter on a generation bump.
        'epoch: loop {
            let epoch = self.cell.current();
            let mut engine = ReplayEngine::with_shared_cache(
                &epoch.inst,
                &epoch.a,
                &epoch.b,
                &epoch.served,
                epoch.tol,
                &epoch.cache,
            );
            engine.set_degrade(self.opts.degrade);
            let mut conn = Conn {
                epoch: &epoch,
                engine,
                applied: 0,
            };
            loop {
                out.clear();
                if !std::mem::take(&mut pending) {
                    line.clear();
                    // Pipelining-aware flush: while more requests sit in
                    // the read buffer, responses coalesce in the BufWriter
                    // (which drains itself at capacity); deliver them only
                    // when about to wait on the socket. This is what lets
                    // deep request batches amortize write syscalls.
                    if reader.buffer().is_empty() {
                        writer.flush()?;
                    }
                    match self.read_request(&mut reader, &mut line)? {
                        ReadOutcome::Line => {}
                        ReadOutcome::Closed => return Ok(()),
                        ReadOutcome::Refused(why) => {
                            error_response(&mut out, &why);
                            writeln!(writer, "{out}")?;
                            return writer.flush();
                        }
                    }
                }
                let answered = match std::str::from_utf8(&line).map(str::trim) {
                    Ok("") => continue,
                    Ok(_) if self.cell.generation() != epoch.gen => {
                        // A new plan was published: rebuild the engine
                        // against it, replaying the request we already read.
                        pending = true;
                        continue 'epoch;
                    }
                    Ok(request) => self.answer(request, &mut conn, &tx, &mut out),
                    Err(_) => self.protocol_error("request line is not UTF-8".into()),
                };
                let action = answered.unwrap_or_else(|msg| {
                    out.clear();
                    error_response(&mut out, &msg);
                    Action::Respond
                });
                out.push('\n');
                writer.write_all(out.as_bytes())?;
                if let Action::RespondAndClose = action {
                    return writer.flush();
                }
            }
        }
    }

    /// Counts a request the protocol refuses, and refuses it.
    fn protocol_error<T>(&self, msg: String) -> Result<T, String> {
        Telemetry::bump(&self.telemetry.protocol_errors);
        Err(msg)
    }

    /// `link` as a link of the served topology, or a protocol error.
    fn link_id(&self, epoch: &PlanEpoch, link: u32) -> Result<LinkId, String> {
        let count = epoch.inst.topo().link_count();
        if (link as usize) < count {
            Ok(LinkId(link))
        } else {
            self.protocol_error(format!(
                "link {link} out of range (topology has {count} links)"
            ))
        }
    }

    /// Writes the answer to request `line` into `out`, or returns the
    /// message of its `{"ok":false}` response.
    fn answer(
        &self,
        line: &str,
        conn: &mut Conn<'_>,
        tx: &mpsc::Sender<Request>,
        out: &mut String,
    ) -> Result<Action, String> {
        let request = parse_request(line).or_else(|msg| self.protocol_error(msg))?;
        let epoch = conn.epoch;
        let down = |link| {
            LogEvent::Link(LinkEvent {
                link,
                kind: EventKind::Down,
            })
        };
        match request {
            Request::Ping => {
                let w = ObjWriter::new(out).bool("ok", true).bool("pong", true);
                w.num("gen", epoch.gen as f64).finish();
            }
            Request::Link { link, kind } => {
                let link = self.link_id(epoch, link)?;
                let event = LogEvent::Link(LinkEvent { link, kind });
                self.log_events(conn, std::iter::once(event), false, out)?;
            }
            // A correlated burst (SRLG group or node failure) is one Down
            // log entry per member link, appended in member order.
            // Redundant downs of already-dead links are no-ops in every
            // reader's engine, so concurrent bursts over overlapping groups
            // compose cleanly.
            Request::Srlg { group } => {
                let Some(members) = self.spec.srlgs.get(group as usize) else {
                    let groups = self.spec.srlgs.len();
                    return self.protocol_error(format!(
                        "unknown srlg group {group} (table has {groups} groups)"
                    ));
                };
                self.log_events(conn, members.iter().map(|&l| down(l)), true, out)?;
            }
            Request::Node { node } => {
                let topo = epoch.inst.topo();
                if (node as usize) >= topo.node_count() {
                    let nodes = topo.node_count();
                    return self.protocol_error(format!(
                        "node {node} out of range (topology has {nodes} nodes)"
                    ));
                }
                let n = pcf_topology::NodeId(node);
                let members: Vec<LinkId> =
                    topo.links().filter(|&l| topo.link(l).touches(n)).collect();
                self.log_events(conn, members.into_iter().map(down), true, out)?;
            }
            Request::Reset => {
                self.log_events(conn, std::iter::once(LogEvent::Reset), false, out)?
            }
            Request::Realize => self.handle_realize(conn, None, out)?,
            Request::Util { limit } => self.handle_realize(conn, Some(limit), out)?,
            Request::Plan => self.handle_plan(epoch, out),
            Request::Admit { src, dst, demand } => {
                self.handle_admit(epoch, &src, &dst, demand, out)?
            }
            Request::Stats => {
                let (gen, cache) = (epoch.gen, epoch.cache.stats());
                let report = self.telemetry.snapshot(gen, epoch.plan_digest, cache);
                ObjWriter::new(out)
                    .bool("ok", true)
                    .with("report", |o| o.push_str(&report.to_json()))
                    .with("deterministic", |o| {
                        o.push_str(&report.deterministic_json())
                    })
                    .finish();
            }
            Request::Rebase { .. } | Request::Update { .. } => {
                if let Request::Rebase { link, .. } = request {
                    self.link_id(epoch, link)?;
                }
                tx.send(request).map_err(|_| "solver unavailable")?;
                let w = ObjWriter::new(out).bool("ok", true);
                w.num("gen", epoch.gen as f64).finish();
            }
            Request::Wait { gen, timeout_ms } => {
                let sw = Stopwatch::start();
                let mut now = self.cell.generation();
                while now < gen && sw.elapsed_ms() < timeout_ms {
                    thread::sleep(Duration::from_millis(2));
                    now = self.cell.generation();
                }
                ObjWriter::new(out)
                    .bool("ok", now >= gen)
                    .when(now < gen, |w| {
                        w.str("error", &format!("timeout waiting for generation {gen}"))
                    })
                    .num("gen", now as f64)
                    .finish();
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                self.poke_acceptor();
                ObjWriter::new(out).bool("ok", true).finish();
                return Ok(Action::RespondAndClose);
            }
        }
        Ok(Action::Respond)
    }

    /// Appends `events` to the log, replays them into the connection's
    /// engine, and answers; a burst also reports how many links it downed.
    fn log_events(
        &self,
        conn: &mut Conn<'_>,
        events: impl ExactSizeIterator<Item = LogEvent>,
        burst: bool,
        out: &mut String,
    ) -> Result<(), String> {
        let sw = Stopwatch::start();
        let downed = events.len();
        for event in events {
            self.log.push(event).map_err(|e| e.to_string())?;
            Telemetry::bump(&self.telemetry.events);
        }
        conn.sync(&self.log)?;
        self.telemetry.event_latency.record(sw.elapsed_ns());
        ObjWriter::new(out)
            .bool("ok", true)
            .num("gen", conn.epoch.gen as f64)
            .num("dead_links", conn.engine.dead_links() as f64)
            .when(burst, |w| w.num("downed", downed as f64))
            .finish();
        Ok(())
    }

    /// Answers `realize`, or `util` when `hot_arcs` carries its limit.
    fn handle_realize(
        &self,
        conn: &mut Conn<'_>,
        hot_arcs: Option<usize>,
        out: &mut String,
    ) -> Result<(), String> {
        let sw = Stopwatch::start();
        conn.sync(&self.log)?;
        let result = conn.engine.realize_degraded();
        Telemetry::bump(&self.telemetry.queries);
        self.telemetry.query_latency.record(sw.elapsed_ns());
        let d = result.map_err(|e| {
            self.telemetry.record_stage(3);
            format!("realization failed: {e}")
        })?;
        self.telemetry.record_stage(d.ladder_stage.code());
        self.telemetry.record_bump(d.routing.bump);
        let (epoch, engine) = (conn.epoch, &conn.engine);
        let max_util = peak_utilization(&epoch.inst, &d.routing, engine.capacities());
        let w = ObjWriter::new(out)
            .bool("ok", true)
            .num("gen", epoch.gen as f64)
            .str("stage", d.ladder_stage.name())
            .num("max_utilization", max_util)
            .num("shed", d.shed_demand)
            .num("dead_links", engine.dead_links() as f64);
        let w = match hot_arcs {
            Some(limit) => w.array(
                "hot_arcs",
                Layout::Compact,
                hot_arcs_of(epoch, engine, &d.routing, limit),
                |o, (idx, util)| {
                    let w = ObjWriter::new(o).num("arc", idx as f64);
                    w.num("utilization", util).finish();
                },
            ),
            None => w,
        };
        w.finish();
        Ok(())
    }

    fn handle_plan(&self, epoch: &PlanEpoch, out: &mut String) {
        ObjWriter::new(out)
            .bool("ok", true)
            .num("gen", epoch.gen as f64)
            .str("topology", epoch.inst.topo().name())
            .str("scheme", self.spec.scheme.as_flag())
            .num("f", self.spec.f as f64)
            .num("pairs", epoch.inst.num_pairs() as f64)
            .num("objective", epoch.objective)
            .num("scale", epoch.scale)
            .num("seed", epoch.seed as f64)
            .num("warm_cuts", epoch.warm_cuts as f64)
            .bool("tunnels_reused", epoch.tunnels_reused)
            .str("plan_digest", &format!("{:016x}", epoch.plan_digest))
            .finish();
    }

    fn handle_admit(
        &self,
        epoch: &PlanEpoch,
        src: &str,
        dst: &str,
        demand: f64,
        out: &mut String,
    ) -> Result<(), String> {
        let sw = Stopwatch::start();
        let topo = epoch.inst.topo();
        let Some(s) = topo.node_by_name(src) else {
            return self.protocol_error(format!("unknown node {src:?}"));
        };
        let Some(t) = topo.node_by_name(dst) else {
            return self.protocol_error(format!("unknown node {dst:?}"));
        };
        let p = epoch
            .inst
            .pair_id(s, t)
            .ok_or_else(|| format!("no demand pair {src} -> {dst} in the served plan"))?;
        let tol_abs = absolute_tolerance(&epoch.served, epoch.tol);
        let outcome = admit(
            &epoch.inst,
            p,
            &epoch.fm,
            &epoch.a,
            &epoch.b,
            epoch.served[p.0],
            epoch.worst_available[p.0],
            demand,
            tol_abs,
            self.opts.max_admit_evals,
        );
        Telemetry::bump(&self.telemetry.queries);
        self.telemetry.query_latency.record(sw.elapsed_ns());
        let w = ObjWriter::new(out).bool("ok", true);
        let w = match outcome {
            AdmitOutcome::Admitted { headroom, relaxed } => {
                Telemetry::bump(&self.telemetry.admitted);
                w.bool("admitted", true)
                    .num("headroom", headroom)
                    .bool("relaxed", relaxed)
            }
            AdmitOutcome::Rejected {
                worst_available,
                witness,
            } => {
                Telemetry::bump(&self.telemetry.rejected);
                let witness = match witness {
                    Some(links) => {
                        Json::Arr(links.iter().map(|l| Json::Num(f64::from(l.0))).collect())
                    }
                    None => Json::Null,
                };
                w.bool("admitted", false)
                    .num("worst_available", worst_available)
                    .value("witness", &witness)
            }
        };
        w.num("gen", epoch.gen as f64).finish();
        Ok(())
    }
}

/// One connection's replay state: the epoch it serves, its private engine
/// over that epoch, and how many event-log entries the engine has applied.
struct Conn<'e> {
    epoch: &'e PlanEpoch,
    engine: ReplayEngine<'e>,
    applied: usize,
}

impl Conn<'_> {
    /// Replays the log entries the engine has not applied yet.
    fn sync(&mut self, log: &EventLog) -> Result<(), String> {
        let tail = log.tail();
        while self.applied < tail {
            match log.get(self.applied) {
                LogEvent::Link(ev) => self.engine.apply(&ev),
                LogEvent::Reset => reset_engine(self.epoch, &mut self.engine),
            }
            .map_err(|e| format!("event replay failed: {e}"))?;
            self.applied += 1;
        }
        Ok(())
    }
}

/// The `limit` hottest arcs of a routing, hottest first, as `(arc,
/// utilization)` against the capacities currently in effect.
fn hot_arcs_of(
    epoch: &PlanEpoch,
    engine: &ReplayEngine<'_>,
    routing: &pcf_core::Routing,
    limit: usize,
) -> Vec<(usize, f64)> {
    let topo = epoch.inst.topo();
    let mut arcs: Vec<(usize, f64)> = topo
        .arcs()
        .map(|arc| {
            let cap = engine.capacity(arc.link());
            let load = routing.arc_loads[arc.index()];
            let util = if cap > 0.0 {
                load / cap
            } else if load > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            (arc.index(), util)
        })
        .collect();
    // Hottest first, ties by index: a total order, so selecting the top
    // `limit` and sorting only those equals sorting everything.
    let hotter = |x: &(usize, f64), y: &(usize, f64)| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0));
    let top = limit.min(arcs.len());
    if top < arcs.len() {
        arcs.select_nth_unstable_by(top, hotter);
    }
    arcs.truncate(top);
    arcs.sort_unstable_by(hotter);
    arcs
}

/// A `rebase` of capacity `cap` to `permille`/1000 of itself, or `None`
/// when the result is no capacity a topology can hold: not finite, or below
/// `f64::MIN_POSITIVE` (repeated small rebases underflow to 0, repeated
/// large ones overflow to infinity).
fn rebased_capacity(cap: f64, permille: u32) -> Option<f64> {
    let rebased = cap * f64::from(permille) / 1000.0;
    (rebased.is_finite() && rebased >= f64::MIN_POSITIVE).then_some(rebased)
}

/// Applies a reset as ordinary events: revive every dead link, clear
/// every partial degradation, restore every wobbled capacity to nominal.
/// Expressing reset in the engine's own event vocabulary keeps replay
/// append-only. Degradations restore before the wobble check so the
/// remaining capacity deficit (if any) is attributable to wobble alone.
fn reset_engine(epoch: &PlanEpoch, engine: &mut ReplayEngine<'_>) -> Result<(), RealizeError> {
    let topo = epoch.inst.topo();
    let state = engine.state();
    for l in topo.links() {
        if state.dead[l.index()] {
            engine.apply(&LinkEvent {
                link: l,
                kind: EventKind::Up,
            })?;
        }
        // cap_scale is exactly permille/1000, so a degraded link sits
        // strictly below 1.0 — no epsilon needed.
        if state.cap_scale[l.index()] < 1.0 {
            engine.apply(&LinkEvent {
                link: l,
                kind: EventKind::Degrade { permille: 1000 },
            })?;
        }
        #[expect(clippy::float_cmp, reason = "1000-permille factors restore exactly")]
        if engine.capacity(l) != topo.capacity(l) {
            engine.apply(&LinkEvent {
                link: l,
                kind: EventKind::Wobble { permille: 1000 },
            })?;
        }
    }
    Ok(())
}

enum ReadOutcome {
    Line,
    Closed,
    /// Refused with this message, then closed.
    Refused(String),
}

impl Server {
    /// Reads one request line (newline included) into `line`, polling for
    /// shutdown: timeouts loop (partial bytes stay appended in `line`, so a
    /// line split across timeouts reassembles), and a set shutdown flag
    /// reads as a clean close. A line longer than [`MAX_REQUEST_LINE`], or
    /// no complete request within a nonzero idle budget, is refused.
    fn read_request(
        &self,
        reader: &mut BufReader<TcpStream>,
        line: &mut Vec<u8>,
    ) -> io::Result<ReadOutcome> {
        let (sw, idle_ms) = (Stopwatch::start(), self.opts.idle_timeout_ms);
        loop {
            // One byte past the cap tells a line that is too long.
            let budget = (MAX_REQUEST_LINE + 1 - line.len()) as u64;
            match reader.by_ref().take(budget).read_until(b'\n', line) {
                Ok(0) if line.is_empty() => return Ok(ReadOutcome::Closed),
                // End of stream: a last line without a newline still counts.
                Ok(0) => return Ok(ReadOutcome::Line),
                Ok(_) if line.ends_with(b"\n") => return Ok(ReadOutcome::Line),
                Ok(_) if line.len() > MAX_REQUEST_LINE => {
                    Telemetry::bump(&self.telemetry.protocol_errors);
                    let why = format!("request line longer than {MAX_REQUEST_LINE} bytes, closing");
                    return Ok(ReadOutcome::Refused(why));
                }
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.shutdown.load(Ordering::Acquire) {
                        return Ok(ReadOutcome::Closed);
                    }
                    if idle_ms > 0 && sw.elapsed_ms() >= idle_ms {
                        Telemetry::bump(&self.telemetry.idle_reaps);
                        let why = format!("idle timeout ({idle_ms} ms), closing");
                        return Ok(ReadOutcome::Refused(why));
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rebased_capacity;

    #[test]
    fn rebased_capacity_stays_finite_and_positive() {
        assert_eq!(rebased_capacity(10.0, 500), Some(5.0));
        assert_eq!(
            rebased_capacity(f64::MIN_POSITIVE, 1000),
            Some(f64::MIN_POSITIVE)
        );
        assert_eq!(rebased_capacity(f64::MIN_POSITIVE, 999), None);
        assert!(rebased_capacity(f64::MAX / 1e4, 10_000).is_some());
        assert_eq!(rebased_capacity(f64::MAX / 10.0, 10_000), None);
        // Repeated rebases leave the range after finitely many steps; the
        // last capacity handed out is still one a topology accepts.
        for permille in [1, 10_000] {
            let (mut cap, mut steps) = (100.0, 0);
            while let Some(next) = rebased_capacity(cap, permille) {
                (cap, steps) = (next, steps + 1);
            }
            assert!(cap.is_finite() && cap >= f64::MIN_POSITIVE, "{cap}");
            assert!((100..400).contains(&steps), "{permille}: {steps} steps");
        }
    }
}
