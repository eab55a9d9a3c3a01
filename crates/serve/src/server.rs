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
use crate::protocol::{error_response, parse_request, Request};
use crate::telemetry::{ServeReport, Stopwatch, Telemetry};
use crate::{json::Json, ServeError};
use pcf_core::{
    absolute_tolerance, admit, peak_utilization, AdmitOutcome, DegradeMode, RealizeError,
};
use pcf_replay::{EventKind, LinkEvent, ReplayEngine};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
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

/// An `update`/`rebase` command in flight to the solver thread.
struct UpdateCmd {
    scale: Option<f64>,
    seed: Option<u64>,
    /// Permanent capacity rebase: link index and the new nominal capacity
    /// in permille of the current nominal.
    rebase: Option<(u32, u32)>,
}

enum Action {
    Respond(String),
    RespondAndClose(String),
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
        let (tx, rx) = mpsc::channel::<UpdateCmd>();
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
                            let mut w = BufWriter::new(stream);
                            let _ = w.write_all(
                                format!(
                                    "{{\"ok\":false,\"error\":\"busy: {active} connections \
                                     active (max {})\",\"busy\":true}}\n",
                                    self.opts.max_conns
                                )
                                .as_bytes(),
                            );
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

    fn solver_loop(&self, rx: mpsc::Receiver<UpdateCmd>) {
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
                Ok(cmd) => {
                    let current = self.cell.current();
                    let gen = current.gen + 1;
                    let scale = cmd.scale.unwrap_or(current.scale);
                    let seed = cmd.seed.unwrap_or(current.seed);
                    if let Some((link, permille)) = cmd.rebase {
                        let l = pcf_topology::LinkId(link);
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

    fn handle_conn(&self, stream: TcpStream, tx: mpsc::Sender<UpdateCmd>) -> io::Result<()> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(
            self.opts.read_timeout_ms.max(1),
        )))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let mut pending: Option<String> = None;
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
            let mut applied = 0usize;
            let mut line = String::new();
            loop {
                let request = match pending.take() {
                    Some(stashed) => stashed,
                    None => {
                        line.clear();
                        // Pipelining-aware flush: while more requests sit
                        // in the read buffer, responses coalesce in the
                        // BufWriter (which drains itself at capacity);
                        // deliver them only when about to wait on the
                        // socket. This is what lets deep request batches
                        // amortize write syscalls.
                        if reader.buffer().is_empty() {
                            writer.flush()?;
                        }
                        match read_line_shutdown_aware(
                            &mut reader,
                            &mut line,
                            &self.shutdown,
                            self.opts.idle_timeout_ms,
                        )? {
                            ReadOutcome::Closed => return Ok(()),
                            ReadOutcome::Idle => {
                                Telemetry::bump(&self.telemetry.idle_reaps);
                                let _ = writer.write_all(
                                    format!(
                                        "{{\"ok\":false,\"error\":\"idle timeout \
                                         ({} ms), closing\"}}\n",
                                        self.opts.idle_timeout_ms
                                    )
                                    .as_bytes(),
                                );
                                let _ = writer.flush();
                                return Ok(());
                            }
                            ReadOutcome::Line => line.clone(),
                        }
                    }
                };
                let trimmed = request.trim();
                if trimmed.is_empty() {
                    continue;
                }
                if self.cell.generation() != epoch.gen {
                    // A new plan was published: rebuild the engine against
                    // it, replaying the request we already read.
                    pending = Some(request);
                    continue 'epoch;
                }
                match self.handle_request(trimmed, &epoch, &mut engine, &mut applied, &tx) {
                    Action::Respond(resp) => {
                        writer.write_all(resp.as_bytes())?;
                        writer.write_all(b"\n")?;
                    }
                    Action::RespondAndClose(resp) => {
                        writer.write_all(resp.as_bytes())?;
                        writer.write_all(b"\n")?;
                        writer.flush()?;
                        return Ok(());
                    }
                }
            }
        }
    }

    fn handle_request(
        &self,
        line: &str,
        epoch: &PlanEpoch,
        engine: &mut ReplayEngine<'_>,
        applied: &mut usize,
        tx: &mpsc::Sender<UpdateCmd>,
    ) -> Action {
        let request = match parse_request(line) {
            Ok(r) => r,
            Err(msg) => {
                Telemetry::bump(&self.telemetry.protocol_errors);
                return Action::Respond(error_response(&msg));
            }
        };
        match request {
            Request::Ping => Action::Respond(
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("pong".into(), Json::Bool(true)),
                    ("gen".into(), Json::Num(epoch.gen as f64)),
                ])
                .render(),
            ),
            Request::Down { link } => self.handle_event(epoch, engine, applied, link, |link| {
                LogEvent::Link(LinkEvent {
                    link,
                    kind: EventKind::Down,
                })
            }),
            Request::Up { link } => self.handle_event(epoch, engine, applied, link, |link| {
                LogEvent::Link(LinkEvent {
                    link,
                    kind: EventKind::Up,
                })
            }),
            Request::Wobble { link, permille } => {
                self.handle_event(epoch, engine, applied, link, move |link| {
                    LogEvent::Link(LinkEvent {
                        link,
                        kind: EventKind::Wobble { permille },
                    })
                })
            }
            Request::Degrade { link, permille } => {
                self.handle_event(epoch, engine, applied, link, move |link| {
                    LogEvent::Link(LinkEvent {
                        link,
                        kind: EventKind::Degrade { permille },
                    })
                })
            }
            Request::Srlg { group } => {
                let Some(members) = self.spec.srlgs.get(group as usize) else {
                    Telemetry::bump(&self.telemetry.protocol_errors);
                    return Action::Respond(error_response(&format!(
                        "unknown srlg group {group} (table has {} groups)",
                        self.spec.srlgs.len()
                    )));
                };
                self.handle_burst(epoch, engine, applied, members.clone())
            }
            Request::Node { node } => {
                let topo = epoch.inst.topo();
                if (node as usize) >= topo.node_count() {
                    Telemetry::bump(&self.telemetry.protocol_errors);
                    return Action::Respond(error_response(&format!(
                        "node {node} out of range (topology has {} nodes)",
                        topo.node_count()
                    )));
                }
                let n = pcf_topology::NodeId(node);
                let members: Vec<pcf_topology::LinkId> =
                    topo.links().filter(|&l| topo.link(l).touches(n)).collect();
                self.handle_burst(epoch, engine, applied, members)
            }
            Request::Rebase { link, permille } => {
                let topo = epoch.inst.topo();
                if (link as usize) >= topo.link_count() {
                    Telemetry::bump(&self.telemetry.protocol_errors);
                    return Action::Respond(error_response(&format!(
                        "link {link} out of range (topology has {} links)",
                        topo.link_count()
                    )));
                }
                match tx.send(UpdateCmd {
                    scale: None,
                    seed: None,
                    rebase: Some((link, permille)),
                }) {
                    Ok(()) => Action::Respond(
                        Json::Obj(vec![
                            ("ok".into(), Json::Bool(true)),
                            ("gen".into(), Json::Num(epoch.gen as f64)),
                        ])
                        .render(),
                    ),
                    Err(_) => Action::Respond(error_response("solver unavailable")),
                }
            }
            Request::Reset => self.handle_event(epoch, engine, applied, 0, |_| LogEvent::Reset),
            Request::Realize => self.handle_realize(epoch, engine, applied, 0, false),
            Request::Util { limit } => self.handle_realize(epoch, engine, applied, limit, true),
            Request::Plan => self.handle_plan(epoch),
            Request::Admit { src, dst, demand } => self.handle_admit(epoch, &src, &dst, demand),
            Request::Stats => {
                let report =
                    self.telemetry
                        .snapshot(epoch.gen, epoch.plan_digest, epoch.cache.stats());
                Action::Respond(format!(
                    "{{\"ok\":true,\"report\":{},\"deterministic\":{}}}",
                    report.to_json(),
                    report.deterministic_json()
                ))
            }
            Request::Update { scale, seed } => match tx.send(UpdateCmd {
                scale,
                seed,
                rebase: None,
            }) {
                Ok(()) => Action::Respond(
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("gen".into(), Json::Num(epoch.gen as f64)),
                    ])
                    .render(),
                ),
                Err(_) => Action::Respond(error_response("solver unavailable")),
            },
            Request::Wait { gen, timeout_ms } => {
                let sw = Stopwatch::start();
                loop {
                    let now = self.cell.generation();
                    if now >= gen {
                        return Action::Respond(
                            Json::Obj(vec![
                                ("ok".into(), Json::Bool(true)),
                                ("gen".into(), Json::Num(now as f64)),
                            ])
                            .render(),
                        );
                    }
                    if sw.elapsed_ms() >= timeout_ms {
                        return Action::Respond(
                            Json::Obj(vec![
                                ("ok".into(), Json::Bool(false)),
                                (
                                    "error".into(),
                                    Json::str(format!("timeout waiting for generation {gen}")),
                                ),
                                ("gen".into(), Json::Num(now as f64)),
                            ])
                            .render(),
                        );
                    }
                    thread::sleep(Duration::from_millis(2));
                }
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                self.poke_acceptor();
                Action::RespondAndClose(Json::Obj(vec![("ok".into(), Json::Bool(true))]).render())
            }
        }
    }

    fn handle_event(
        &self,
        epoch: &PlanEpoch,
        engine: &mut ReplayEngine<'_>,
        applied: &mut usize,
        link: u32,
        build: impl FnOnce(pcf_topology::LinkId) -> LogEvent,
    ) -> Action {
        let sw = Stopwatch::start();
        let topo = epoch.inst.topo();
        if (link as usize) >= topo.link_count() {
            Telemetry::bump(&self.telemetry.protocol_errors);
            return Action::Respond(error_response(&format!(
                "link {link} out of range (topology has {} links)",
                topo.link_count()
            )));
        }
        let event = build(pcf_topology::LinkId(link));
        if let Err(e) = self.log.push(event) {
            return Action::Respond(error_response(&e.to_string()));
        }
        if let Err(e) = sync_engine(epoch, engine, &self.log, applied) {
            return Action::Respond(error_response(&format!("event replay failed: {e}")));
        }
        Telemetry::bump(&self.telemetry.events);
        self.telemetry.event_latency.record(sw.elapsed_ns());
        Action::Respond(
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("gen".into(), Json::Num(epoch.gen as f64)),
                ("dead_links".into(), Json::Num(engine.dead_links() as f64)),
            ])
            .render(),
        )
    }

    /// Applies a correlated burst (SRLG group or node failure): one Down
    /// log entry per member link, appended in member order. Redundant
    /// downs of already-dead links are no-ops in every reader's engine,
    /// so concurrent bursts over overlapping groups compose cleanly.
    fn handle_burst(
        &self,
        epoch: &PlanEpoch,
        engine: &mut ReplayEngine<'_>,
        applied: &mut usize,
        members: Vec<pcf_topology::LinkId>,
    ) -> Action {
        let sw = Stopwatch::start();
        for &l in &members {
            if let Err(e) = self.log.push(LogEvent::Link(LinkEvent {
                link: l,
                kind: EventKind::Down,
            })) {
                return Action::Respond(error_response(&e.to_string()));
            }
            Telemetry::bump(&self.telemetry.events);
        }
        if let Err(e) = sync_engine(epoch, engine, &self.log, applied) {
            return Action::Respond(error_response(&format!("event replay failed: {e}")));
        }
        self.telemetry.event_latency.record(sw.elapsed_ns());
        Action::Respond(
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("gen".into(), Json::Num(epoch.gen as f64)),
                ("dead_links".into(), Json::Num(engine.dead_links() as f64)),
                ("downed".into(), Json::Num(members.len() as f64)),
            ])
            .render(),
        )
    }

    fn handle_realize(
        &self,
        epoch: &PlanEpoch,
        engine: &mut ReplayEngine<'_>,
        applied: &mut usize,
        limit: usize,
        with_arcs: bool,
    ) -> Action {
        let sw = Stopwatch::start();
        if let Err(e) = sync_engine(epoch, engine, &self.log, applied) {
            return Action::Respond(error_response(&format!("event replay failed: {e}")));
        }
        let result = engine.realize_degraded();
        Telemetry::bump(&self.telemetry.queries);
        self.telemetry.query_latency.record(sw.elapsed_ns());
        match result {
            Ok(d) => {
                self.telemetry.record_stage(d.ladder_stage.code());
                self.telemetry.record_bump(d.routing.bump);
                let max_util = peak_utilization(&epoch.inst, &d.routing, engine.capacities());
                let mut fields = vec![
                    ("ok".into(), Json::Bool(true)),
                    ("gen".into(), Json::Num(epoch.gen as f64)),
                    ("stage".into(), Json::str(d.ladder_stage.name())),
                    ("max_utilization".into(), Json::Num(max_util)),
                    ("shed".into(), Json::Num(d.shed_demand)),
                    ("dead_links".into(), Json::Num(engine.dead_links() as f64)),
                ];
                if with_arcs {
                    fields.push((
                        "hot_arcs".into(),
                        hot_arcs(epoch, engine, &d.routing, limit),
                    ));
                }
                Action::Respond(Json::Obj(fields).render())
            }
            Err(e) => {
                self.telemetry.record_stage(3);
                Action::Respond(error_response(&format!("realization failed: {e}")))
            }
        }
    }

    fn handle_plan(&self, epoch: &PlanEpoch) -> Action {
        Action::Respond(
            Json::Obj(vec![
                ("ok".into(), Json::Bool(true)),
                ("gen".into(), Json::Num(epoch.gen as f64)),
                ("topology".into(), Json::str(epoch.inst.topo().name())),
                ("scheme".into(), Json::str(self.spec.scheme.as_flag())),
                ("f".into(), Json::Num(self.spec.f as f64)),
                ("pairs".into(), Json::Num(epoch.inst.num_pairs() as f64)),
                ("objective".into(), Json::Num(epoch.objective)),
                ("scale".into(), Json::Num(epoch.scale)),
                ("seed".into(), Json::Num(epoch.seed as f64)),
                ("warm_cuts".into(), Json::Num(epoch.warm_cuts as f64)),
                ("tunnels_reused".into(), Json::Bool(epoch.tunnels_reused)),
                (
                    "plan_digest".into(),
                    Json::str(format!("{:016x}", epoch.plan_digest)),
                ),
            ])
            .render(),
        )
    }

    fn handle_admit(&self, epoch: &PlanEpoch, src: &str, dst: &str, demand: f64) -> Action {
        let sw = Stopwatch::start();
        let topo = epoch.inst.topo();
        let Some(s) = topo.node_by_name(src) else {
            Telemetry::bump(&self.telemetry.protocol_errors);
            return Action::Respond(error_response(&format!("unknown node {src:?}")));
        };
        let Some(t) = topo.node_by_name(dst) else {
            Telemetry::bump(&self.telemetry.protocol_errors);
            return Action::Respond(error_response(&format!("unknown node {dst:?}")));
        };
        let Some(p) = epoch.inst.pair_id(s, t) else {
            return Action::Respond(error_response(&format!(
                "no demand pair {src} -> {dst} in the served plan"
            )));
        };
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
        match outcome {
            AdmitOutcome::Admitted { headroom, relaxed } => {
                Telemetry::bump(&self.telemetry.admitted);
                Action::Respond(
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("admitted".into(), Json::Bool(true)),
                        ("headroom".into(), Json::Num(headroom)),
                        ("relaxed".into(), Json::Bool(relaxed)),
                        ("gen".into(), Json::Num(epoch.gen as f64)),
                    ])
                    .render(),
                )
            }
            AdmitOutcome::Rejected {
                worst_available,
                witness,
            } => {
                Telemetry::bump(&self.telemetry.rejected);
                let witness_json = match witness {
                    Some(links) => {
                        Json::Arr(links.iter().map(|l| Json::Num(f64::from(l.0))).collect())
                    }
                    None => Json::Null,
                };
                Action::Respond(
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("admitted".into(), Json::Bool(false)),
                        ("worst_available".into(), Json::Num(worst_available)),
                        ("witness".into(), witness_json),
                        ("gen".into(), Json::Num(epoch.gen as f64)),
                    ])
                    .render(),
                )
            }
        }
    }
}

/// The hottest arcs of a routing, by utilization against the capacities
/// currently in effect.
fn hot_arcs(
    epoch: &PlanEpoch,
    engine: &ReplayEngine<'_>,
    routing: &pcf_core::Routing,
    limit: usize,
) -> Json {
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
    arcs.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
    Json::Arr(
        arcs.into_iter()
            .take(limit)
            .map(|(idx, util)| {
                Json::Obj(vec![
                    ("arc".into(), Json::Num(idx as f64)),
                    ("utilization".into(), Json::Num(util)),
                ])
            })
            .collect(),
    )
}

/// A `rebase` of capacity `cap` to `permille`/1000 of itself, or `None`
/// when the result is no capacity a topology can hold: not finite, or below
/// `f64::MIN_POSITIVE` (repeated small rebases underflow to 0, repeated
/// large ones overflow to infinity).
fn rebased_capacity(cap: f64, permille: u32) -> Option<f64> {
    let rebased = cap * f64::from(permille) / 1000.0;
    (rebased.is_finite() && rebased >= f64::MIN_POSITIVE).then_some(rebased)
}

/// Replays log entries `[*applied, tail)` into this connection's engine.
fn sync_engine(
    epoch: &PlanEpoch,
    engine: &mut ReplayEngine<'_>,
    log: &EventLog,
    applied: &mut usize,
) -> Result<(), RealizeError> {
    let tail = log.tail();
    while *applied < tail {
        match log.get(*applied) {
            LogEvent::Link(ev) => engine.apply(&ev)?,
            LogEvent::Reset => reset_engine(epoch, engine)?,
        }
        *applied += 1;
    }
    Ok(())
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
    /// No complete request arrived within the idle budget.
    Idle,
}

/// `read_line` with shutdown polling: timeouts loop (partial bytes stay
/// appended in `line`, so a line split across timeouts reassembles), a
/// set shutdown flag reads as a clean close, and — when `idle_timeout_ms`
/// is nonzero — a connection that produces no complete request within the
/// budget reads as [`ReadOutcome::Idle`] so the caller can reap it.
fn read_line_shutdown_aware(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    shutdown: &AtomicBool,
    idle_timeout_ms: u64,
) -> io::Result<ReadOutcome> {
    let sw = Stopwatch::start();
    loop {
        match reader.read_line(line) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            Ok(_) => return Ok(ReadOutcome::Line),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(ReadOutcome::Closed);
                }
                if idle_timeout_ms > 0 && sw.elapsed_ms() >= idle_timeout_ms {
                    return Ok(ReadOutcome::Idle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
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
