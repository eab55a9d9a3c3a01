//! `pcf-serve`: an online serving daemon for solved PCF plans.
//!
//! The offline pipeline (`pcf-core`) produces a robust plan — tunnel and
//! logical-sequence reservations proven to survive every ≤f-link-failure
//! scenario. This crate keeps that plan *hot*: a std-only TCP daemon
//! speaks a line-delimited JSON protocol ([`protocol`]) for failure-event
//! ingestion, realization and utilization queries, admission control
//! answered from the stored dual bounds, and plan hot-swaps.
//!
//! Architecture (one module each):
//!
//! * [`plan`] — immutable solved [`PlanEpoch`]s behind the lock-free
//!   [`PlanCell`] generation/slot cell; the background solver publishes,
//!   readers poll one atomic.
//! * [`log`] — the append-only atomic [`EventLog`]; the only shared
//!   mutable state on the event path.
//! * [`server`] — the daemon: scoped connection threads with private
//!   replay engines over the epoch's shared realization cache, a solver
//!   thread, and flag-plus-poke shutdown.
//! * [`client`] — a pipelining client and a scripted-session driver.
//! * [`telemetry`] — wait-free counters/histograms and the
//!   [`ServeReport`] with its CI-comparable deterministic form.
//! * [`json`] — the dependency-free JSON used on the wire.
//!
//! Everything is safe Rust on `std` alone: no async runtime, no serde,
//! no external crates.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod client;
pub mod json;
pub mod log;
pub mod plan;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{run_script, ClientError, ScriptReport, ServeClient};
pub use json::{Json, JsonError};
pub use log::{EventLog, LogEvent, LogFull};
pub use plan::{PlanCell, PlanEpoch, PlanSpec, SchemeKind};
pub use protocol::{error_response, parse_request, Request};
pub use server::{ServeOptions, Server};
pub use telemetry::{AtomicHistogram, ServeReport, Stopwatch, Telemetry};

/// A serving-side failure: transport, plan construction, or the robust
/// engine itself.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept).
    Io(std::io::Error),
    /// The plan spec could not be solved into an epoch.
    BadSpec(String),
    /// The robust engine failed while solving an epoch.
    Solve(pcf_core::RobustError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::BadSpec(what) => write!(f, "bad plan spec: {what}"),
            ServeError::Solve(e) => write!(f, "epoch solve failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<pcf_core::RobustError> for ServeError {
    fn from(e: pcf_core::RobustError) -> ServeError {
        ServeError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_core::RobustOptions;
    use pcf_topology::zoo;
    use std::io::BufRead;
    use std::thread;

    fn abilene_spec() -> PlanSpec {
        PlanSpec {
            topo: zoo::build("Abilene"),
            scheme: SchemeKind::Ffc,
            tunnels: 3,
            f: 1,
            seed: 1,
            mlu: 0.0,
            max_pairs: 40,
            tol: 1e-6,
            opts: RobustOptions::default(),
            srlgs: Vec::new(),
        }
    }

    fn boot() -> Server {
        Server::bind(abilene_spec(), ServeOptions::default(), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn scripted_session_round_trips() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let script = r#"
                # basic liveness and plan introspection
                {"cmd":"ping"}
                {"cmd":"plan"}
                {"cmd":"realize"}
                # fail a link, observe, recover
                {"cmd":"down","link":0}
                {"cmd":"realize"}
                {"cmd":"util","limit":3}
                {"cmd":"up","link":0}
                {"cmd":"wobble","link":1,"permille":500}
                {"cmd":"reset"}
                {"cmd":"realize"}
                {"cmd":"stats"}
                # malformed lines must fail without desyncing the stream
                ! {"cmd":"warp"}
                ! {"cmd":"down","link":999999}
                ! not json at all
                {"cmd":"ping"}
                {"cmd":"shutdown"}
            "#;
            let report = run_script(&addr, script).unwrap();
            assert!(report.clean(), "violations: {:?}", report.transcript);
            assert_eq!(report.commands, 16);
        });
    }

    #[test]
    fn realization_matches_offline_engine() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let resps = client
                .request_batch(&[
                    r#"{"cmd":"down","link":2}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"shutdown"}"#,
                ])
                .unwrap();
            let served_util = resps[1]
                .get("max_utilization")
                .and_then(Json::as_f64)
                .unwrap();
            assert_eq!(resps[1].get("stage").and_then(Json::as_str), Some("normal"));

            // The same failure through an offline engine, bit-for-bit.
            let epoch = abilene_spec().solve_epoch(1, 1.0, 1, 0).unwrap();
            let mut engine = pcf_replay::ReplayEngine::new(
                &epoch.inst,
                &epoch.a,
                &epoch.b,
                &epoch.served,
                epoch.tol,
                0,
            );
            engine
                .apply(&pcf_replay::LinkEvent {
                    link: pcf_topology::LinkId(2),
                    kind: pcf_replay::EventKind::Down,
                })
                .unwrap();
            let routing = engine.realize().unwrap();
            let offline = pcf_core::peak_utilization(&epoch.inst, &routing, engine.capacities());
            assert_eq!(served_util.to_bits(), offline.to_bits());
        });
    }

    #[test]
    fn update_publishes_a_new_generation() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let first = client.request(r#"{"cmd":"plan"}"#).unwrap();
            assert_eq!(first.get("gen").and_then(Json::as_u64), Some(1));
            client.request(r#"{"cmd":"update","scale":0.5}"#).unwrap();
            let waited = client
                .request(r#"{"cmd":"wait","gen":2,"timeout_ms":60000}"#)
                .unwrap();
            assert_eq!(waited.get("ok").and_then(Json::as_bool), Some(true));
            let second = client.request(r#"{"cmd":"plan"}"#).unwrap();
            assert_eq!(second.get("gen").and_then(Json::as_u64), Some(2));
            // Rescaled demand means a different plan digest.
            assert_ne!(
                first.get("plan_digest").and_then(Json::as_str),
                second.get("plan_digest").and_then(Json::as_str)
            );
            // Events and queries still flow on the new epoch.
            let post = client
                .request_batch(&[
                    r#"{"cmd":"down","link":0}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"shutdown"}"#,
                ])
                .unwrap();
            assert_eq!(post[1].get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(post[1].get("gen").and_then(Json::as_u64), Some(2));
        });
    }

    #[test]
    fn first_update_resolves_warm_from_the_bind_epoch() {
        // `bind` keeps generation 1's cut pool, so the very first re-solve
        // is seeded (it used to start from nothing: 0 warm / 1 cold) and
        // still publishes the plan a cold solve of the same inputs finds.
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let resps = client
                .request_batch(&[
                    r#"{"cmd":"update","scale":0.9}"#,
                    r#"{"cmd":"wait","gen":2,"timeout_ms":60000}"#,
                    r#"{"cmd":"plan"}"#,
                    r#"{"cmd":"stats"}"#,
                    r#"{"cmd":"shutdown"}"#,
                ])
                .unwrap();
            let det = resps[3].get("deterministic").unwrap();
            assert_eq!(det.get("warm_epochs").and_then(Json::as_u64), Some(1));
            assert_eq!(det.get("cold_epochs").and_then(Json::as_u64), Some(0));
            let swapped = resps[2].get("objective").and_then(Json::as_f64).unwrap();
            let cold = abilene_spec().solve_epoch(2, 0.9, 1, 0).unwrap();
            assert!(
                (swapped - cold.objective).abs() <= 1e-9,
                "warm {swapped} vs cold {}",
                cold.objective
            );
        });
    }

    #[test]
    fn admission_answers_by_node_name() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let plan = client.request(r#"{"cmd":"plan"}"#).unwrap();
            assert!(plan.get("pairs").and_then(Json::as_u64).unwrap() > 0);

            // Find a served pair via the offline epoch, then query by name.
            let epoch = abilene_spec().solve_epoch(1, 1.0, 1, 0).unwrap();
            let p = pcf_core::PairId(0);
            let (s_node, t_node) = epoch.inst.pair(p);
            let topo = epoch.inst.topo();
            let src = topo.node_name(s_node);
            let dst = topo.node_name(t_node);

            let admits = [
                format!(r#"{{"cmd":"admit","src":"{src}","dst":"{dst}","demand":0}}"#),
                format!(r#"{{"cmd":"admit","src":"{src}","dst":"{dst}","demand":1e12}}"#),
                r#"{"cmd":"admit","src":"Nowhere","dst":"Noplace","demand":1}"#.to_string(),
            ];
            let answers = client.request_batch(&admits).unwrap();
            let [tiny, huge, unknown] = &answers[..] else {
                panic!("expected three answers, got {}", answers.len());
            };
            assert_eq!(tiny.get("admitted").and_then(Json::as_bool), Some(true));
            assert_eq!(huge.get("admitted").and_then(Json::as_bool), Some(false));
            assert_eq!(unknown.get("ok").and_then(Json::as_bool), Some(false));

            // Admission is a pure function of the plan: a second connection
            // gets byte-identical answers to the same lines.
            let mut other = ServeClient::connect(&addr).unwrap();
            let again = other.request_batch(&admits).unwrap();
            let render = |rs: &[Json]| rs.iter().map(Json::render).collect::<Vec<_>>();
            assert_eq!(render(&again), render(&answers));
            client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        });
    }

    #[test]
    fn correlated_and_degrade_verbs_flow_through_the_log() {
        let spec = PlanSpec {
            srlgs: vec![
                vec![pcf_topology::LinkId(0), pcf_topology::LinkId(1)],
                vec![pcf_topology::LinkId(2)],
            ],
            ..abilene_spec()
        };
        let server = Server::bind(spec, ServeOptions::default(), "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            // SRLG burst: both members die as one command.
            let burst = client.request(r#"{"cmd":"srlg","group":0}"#).unwrap();
            assert_eq!(burst.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(burst.get("downed").and_then(Json::as_u64), Some(2));
            assert_eq!(burst.get("dead_links").and_then(Json::as_u64), Some(2));
            // Overlap composes: group 1 adds one more dead link.
            let more = client.request(r#"{"cmd":"srlg","group":1}"#).unwrap();
            assert_eq!(more.get("dead_links").and_then(Json::as_u64), Some(3));
            // Out-of-range group is a structured error.
            let bad = client.request(r#"{"cmd":"srlg","group":9}"#).unwrap();
            assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
            assert!(bad
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("unknown srlg group"));
            // Reset, then a node failure: every incident link goes down.
            client.request(r#"{"cmd":"reset"}"#).unwrap();
            let node = client.request(r#"{"cmd":"node","node":0}"#).unwrap();
            let downed = node.get("downed").and_then(Json::as_u64).unwrap();
            assert!(downed >= 1);
            assert_eq!(node.get("dead_links").and_then(Json::as_u64), Some(downed));
            let bad_node = client.request(r#"{"cmd":"node","node":999}"#).unwrap();
            assert_eq!(bad_node.get("ok").and_then(Json::as_bool), Some(false));
            // Reset again; degrade must still realize (reservations
            // rescale under the shrunken capacity), and reset clears it.
            client.request(r#"{"cmd":"reset"}"#).unwrap();
            let resps = client
                .request_batch(&[
                    r#"{"cmd":"degrade","link":0,"permille":500}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"reset"}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"shutdown"}"#,
                ])
                .unwrap();
            assert_eq!(resps[1].get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(resps[3].get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(resps[3].get("stage").and_then(Json::as_str), Some("normal"));
            assert_eq!(resps[3].get("dead_links").and_then(Json::as_u64), Some(0));
        });
    }

    #[test]
    fn rebase_republishes_against_new_capacities() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let first = client.request(r#"{"cmd":"plan"}"#).unwrap();
            // Halve link 0's nominal capacity, permanently.
            let ack = client
                .request(r#"{"cmd":"rebase","link":0,"permille":500}"#)
                .unwrap();
            assert_eq!(ack.get("ok").and_then(Json::as_bool), Some(true));
            let waited = client
                .request(r#"{"cmd":"wait","gen":2,"timeout_ms":60000}"#)
                .unwrap();
            assert_eq!(waited.get("ok").and_then(Json::as_bool), Some(true));
            let second = client.request(r#"{"cmd":"plan"}"#).unwrap();
            assert_eq!(second.get("gen").and_then(Json::as_u64), Some(2));
            // A capacity change re-solves into a different plan.
            assert_ne!(
                first.get("plan_digest").and_then(Json::as_str),
                second.get("plan_digest").and_then(Json::as_str)
            );
            let bad = client
                .request(r#"{"cmd":"rebase","link":999999,"permille":500}"#)
                .unwrap();
            assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
            client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        });
    }

    #[test]
    fn rebases_past_the_finite_range_keep_the_solver_alive() {
        // 120 rebases to 1/1000 take link 0's capacity past
        // f64::MIN_POSITIVE towards 0, which `set_capacity` rejects with a
        // panic. Each rebase that would leave the range must count as a
        // failed re-solve and keep the old topology and epoch; a later
        // update must still publish, and shutdown must join the solver.
        const REBASES: u64 = 120;
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let rebase = r#"{"cmd":"rebase","link":0,"permille":1}"#;
            let acks = client
                .request_batch(&vec![rebase; REBASES as usize])
                .unwrap();
            assert!(acks
                .iter()
                .all(|a| a.get("ok").and_then(Json::as_bool) == Some(true)));
            let update = client.request(r#"{"cmd":"update","scale":0.5}"#).unwrap();
            assert_eq!(update.get("ok").and_then(Json::as_bool), Some(true));
            // The solver takes commands in order, so the update's epoch is
            // the first at scale 0.5 and every rebase was handled before it.
            let plan = r#"{"cmd":"plan"}"#;
            let mut now = client.request(plan).unwrap();
            let mut stalled = None;
            while now.get("scale").and_then(Json::as_f64) != Some(0.5) {
                let gen = now.get("gen").and_then(Json::as_u64).unwrap();
                let next = format!(r#"{{"cmd":"wait","gen":{},"timeout_ms":30000}}"#, gen + 1);
                let waited = client.request(&next).unwrap();
                if waited.get("ok").and_then(Json::as_bool) != Some(true) {
                    stalled = Some(gen);
                    break;
                }
                now = client.request(plan).unwrap();
            }
            let stats = client.request(r#"{"cmd":"stats"}"#).unwrap();
            // Shut down before judging, so a failure here cannot leave the
            // server thread running.
            client.request(r#"{"cmd":"shutdown"}"#).unwrap();
            assert_eq!(stalled, None, "no epoch after this generation");
            let det = stats.get("deterministic").unwrap();
            let count = |k: &str| det.get(k).and_then(Json::as_u64).unwrap();
            assert!(count("solve_failures") > 0);
            assert_eq!(count("swaps") + count("solve_failures"), REBASES + 1);
            assert_eq!(count("gen"), 1 + count("swaps"));
        });
    }

    #[test]
    fn connection_cap_rejects_with_busy_line() {
        let opts = ServeOptions {
            max_conns: 1,
            ..ServeOptions::default()
        };
        let server = Server::bind(abilene_spec(), opts, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut first = ServeClient::connect(&addr).unwrap();
            // A completed request proves the slot is held.
            first.request(r#"{"cmd":"ping"}"#).unwrap();
            // The second connection gets one busy line, then EOF.
            let over = std::net::TcpStream::connect(&addr).unwrap();
            let mut line = String::new();
            std::io::BufReader::new(over).read_line(&mut line).unwrap();
            let busy = Json::parse(line.trim()).unwrap();
            assert_eq!(busy.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(busy.get("busy").and_then(Json::as_bool), Some(true));
            first.request(r#"{"cmd":"shutdown"}"#).unwrap();
        });
    }

    #[test]
    fn idle_connections_are_reaped() {
        let opts = ServeOptions {
            idle_timeout_ms: 60,
            read_timeout_ms: 10,
            ..ServeOptions::default()
        };
        let server = Server::bind(abilene_spec(), opts, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            // Connect and send nothing: the server must reap us with a
            // final explanatory line.
            let idle = std::net::TcpStream::connect(&addr).unwrap();
            let mut reader = std::io::BufReader::new(idle);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let reaped = Json::parse(line.trim()).unwrap();
            assert_eq!(reaped.get("ok").and_then(Json::as_bool), Some(false));
            assert!(reaped
                .get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("idle timeout"));
            // And the socket is closed afterwards.
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0);
            // A live client still gets served.
            let mut client = ServeClient::connect(&addr).unwrap();
            client.request(r#"{"cmd":"ping"}"#).unwrap();
            client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        });
    }

    /// A client that never sends a newline cannot grow its connection's
    /// buffer past the cap: it gets one failure line, then EOF, and the
    /// refusal counts as a protocol error.
    #[test]
    fn overlong_request_lines_are_refused_and_closed() {
        use crate::protocol::MAX_REQUEST_LINE;
        use std::io::Write;
        /// Stops the daemon when the test body unwinds, so a failed
        /// assertion fails the test instead of leaving the scope waiting.
        struct StopOnDrop<'a>(&'a Server);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.request_shutdown();
            }
        }
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let _stop = StopOnDrop(&server);
            let stream = std::net::TcpStream::connect(&addr).unwrap();
            // A server that keeps reading fails the test instead of hanging it.
            let timeout = std::time::Duration::from_secs(30);
            stream.set_read_timeout(Some(timeout)).unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            // A request at the cap, newline included, is still served.
            let padded = format!(
                "{{\"cmd\":\"ping\"}}{}\n",
                " ".repeat(MAX_REQUEST_LINE - 15)
            );
            assert_eq!(padded.len(), MAX_REQUEST_LINE);
            writer.write_all(padded.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with(r#"{"ok":true,"pong":true"#), "{line}");
            // One byte more without a newline is refused. Exactly the
            // bytes the server reads are sent, so it closes cleanly.
            writer.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            let refused = Json::parse(line.trim()).unwrap();
            assert_eq!(refused.get("ok").and_then(Json::as_bool), Some(false));
            let why = refused.get("error").and_then(Json::as_str).unwrap();
            assert!(why.contains("longer than 65536 bytes"), "{why}");
            line.clear();
            assert_eq!(reader.read_line(&mut line).unwrap(), 0);
            let mut client = ServeClient::connect(&addr).unwrap();
            let stats = client.request(r#"{"cmd":"stats"}"#).unwrap();
            let det = stats.get("deterministic").unwrap();
            assert_eq!(det.get("protocol_errors").and_then(Json::as_u64), Some(1));
            client.request(r#"{"cmd":"shutdown"}"#).unwrap();
        });
    }

    #[test]
    fn stats_deterministic_form_reflects_the_session() {
        let server = boot();
        let addr = server.local_addr().unwrap().to_string();
        thread::scope(|s| {
            s.spawn(|| server.run());
            let mut client = ServeClient::connect(&addr).unwrap();
            let resps = client
                .request_batch(&[
                    r#"{"cmd":"down","link":0}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"realize"}"#,
                    r#"{"cmd":"stats"}"#,
                    r#"{"cmd":"shutdown"}"#,
                ])
                .unwrap();
            let det = resps[3].get("deterministic").unwrap();
            assert_eq!(det.get("events").and_then(Json::as_u64), Some(1));
            assert_eq!(det.get("queries").and_then(Json::as_u64), Some(2));
            assert_eq!(det.get("swaps").and_then(Json::as_u64), Some(0));
            // Latency and cache counters live only in the full report.
            assert!(det.get("latency_ns").is_none());
            assert!(det.get("cache").is_none());
            let full = resps[3].get("report").unwrap();
            assert!(full.get("latency_ns").is_some());
            assert!(full.get("cache").is_some());
        });
    }
}
