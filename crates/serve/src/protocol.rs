//! The wire protocol: one JSON object per line, `cmd` selects the verb.
//!
//! Requests (⇒ example response):
//!
//! ```text
//! {"cmd":"ping"}                                ⇒ {"ok":true,"pong":true,"gen":1}
//! {"cmd":"down","link":3}                       ⇒ {"ok":true,"gen":1,"dead_links":1}
//! {"cmd":"up","link":3}                         ⇒ {"ok":true,"gen":1,"dead_links":0}
//! {"cmd":"wobble","link":3,"permille":500}      ⇒ {"ok":true,"gen":1,"dead_links":0}
//! {"cmd":"degrade","link":3,"permille":500}     ⇒ {"ok":true,"gen":1,"dead_links":0}
//! {"cmd":"srlg","group":0}                      ⇒ {"ok":true,"gen":1,"dead_links":2,"downed":2}
//! {"cmd":"node","node":4}                       ⇒ {"ok":true,"gen":1,"dead_links":3,"downed":3}
//! {"cmd":"rebase","link":3,"permille":500}      ⇒ {"ok":true,"gen":1}      (new plan published later)
//! {"cmd":"reset"}                               ⇒ {"ok":true,"gen":1,"dead_links":0}
//! {"cmd":"realize"}                             ⇒ {"ok":true,"gen":1,"stage":"normal","max_utilization":0.7,"shed":0,"dead_links":0}
//! {"cmd":"util","limit":3}                      ⇒ {"ok":true,"gen":1,"max_utilization":0.7,"hot_arcs":[{"arc":4,"utilization":0.7}]}
//! {"cmd":"plan"}                                ⇒ {"ok":true,"gen":1,"topology":"Sprint","scheme":"pcf-ls",...,"plan_digest":"..."}
//! {"cmd":"admit","src":"A","dst":"B","demand":2}⇒ {"ok":true,"admitted":true,"headroom":3.1,"relaxed":true,"gen":1}
//! {"cmd":"stats"}                               ⇒ {"ok":true,"report":{...},"deterministic":{...}}
//! {"cmd":"update","scale":1.2,"seed":7}         ⇒ {"ok":true,"gen":1}      (new plan published later)
//! {"cmd":"wait","gen":2,"timeout_ms":30000}     ⇒ {"ok":true,"gen":2}
//! {"cmd":"shutdown"}                            ⇒ {"ok":true}
//! ```
//!
//! Every response carries `"ok"`. Failures are
//! `{"ok":false,"error":"..."}` — still one line, still JSON, so a
//! scripted client can always keep request/response alignment. A request
//! line longer than [`MAX_REQUEST_LINE`] bytes is answered with one such
//! failure, and the server then closes the connection.

use crate::json::{Json, ObjWriter};
use pcf_replay::{EventKind, DEGRADE_PERMILLE, WOBBLE_PERMILLE};
use std::ops::RangeInclusive;

/// Longest request line the server reads, in bytes, newline included.
/// The longest verb (`admit` with two node names) needs about 100.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// A link event: `down`, `up`, `wobble` (rescale the capacity, which
    /// realization does not see) or `degrade` (partial capacity: the
    /// reservations rescale and the realization-cache key forks).
    /// Capacities are permille of nominal ([`WOBBLE_PERMILLE`],
    /// [`DEGRADE_PERMILLE`]; 1000 restores).
    Link {
        /// Link index.
        link: u32,
        /// What happens to it.
        kind: EventKind,
    },
    /// Fire a shared-risk link group: every member link goes down as one
    /// correlated burst.
    Srlg {
        /// Group index into the served plan's SRLG table.
        group: u32,
    },
    /// Fail a node: every incident link goes down.
    Node {
        /// Node index.
        node: u32,
    },
    /// Permanently rebase a link's nominal capacity to `permille` of its
    /// current nominal, and re-solve the plan against the new topology.
    Rebase {
        /// Link index.
        link: u32,
        /// New nominal capacity in permille of the current nominal
        /// (1..=10000 — rebases can add capacity too).
        permille: u32,
    },
    /// Clear all failures, wobbles, and degradations.
    Reset,
    /// Realize the routing for the current failure state.
    Realize,
    /// Realize and report the hottest arcs.
    Util {
        /// Maximum number of hot arcs to report.
        limit: usize,
    },
    /// Describe the published plan.
    Plan,
    /// Admission check: can `demand` extra units be served between `src`
    /// and `dst` under every modeled failure scenario?
    Admit {
        /// Source node name.
        src: String,
        /// Destination node name.
        dst: String,
        /// Extra demand to admit.
        demand: f64,
    },
    /// Telemetry snapshot.
    Stats,
    /// Ask the background solver for a new plan.
    Update {
        /// New demand scale (defaults to the current epoch's).
        scale: Option<f64>,
        /// New gravity seed (defaults to the current epoch's).
        seed: Option<u64>,
    },
    /// Block until the published generation reaches `gen`.
    Wait {
        /// Target generation.
        gen: u64,
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// Stop the server.
    Shutdown,
}

/// Parses one request line. Errors are human-readable strings the server
/// echoes back in an `{"ok":false}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing \"cmd\" field")?;
    let index = |key: &str| -> Result<u32, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .filter(|&i| i < (1 << 30))
            .map(|i| i as u32)
            .ok_or_else(|| format!("{cmd}: needs \"{key}\" (index < 2^30)"))
    };
    // The trace grammar's ranges, so a served session and a replayed trace
    // accept the same capacity events.
    let permille = |range: RangeInclusive<u32>, why: &str| -> Result<u32, String> {
        v.get("permille")
            .and_then(Json::as_u64)
            .and_then(|p| u32::try_from(p).ok())
            .filter(|p| range.contains(p))
            .ok_or_else(|| format!("{cmd}: needs \"permille\" in {range:?} ({why})"))
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "down" | "up" | "wobble" | "degrade" => Ok(Request::Link {
            kind: match cmd {
                "down" => EventKind::Down,
                "up" => EventKind::Up,
                "wobble" => EventKind::Wobble {
                    permille: permille(WOBBLE_PERMILLE, "a zero-capacity link is a down")?,
                },
                _ => EventKind::Degrade {
                    permille: permille(DEGRADE_PERMILLE, "script total loss as down")?,
                },
            },
            link: index("link")?,
        }),
        "srlg" => Ok(Request::Srlg {
            group: index("group")?,
        }),
        "node" => Ok(Request::Node {
            node: index("node")?,
        }),
        "rebase" => {
            let permille = v
                .get("permille")
                .and_then(Json::as_u64)
                .filter(|&p| (1..=10_000).contains(&p))
                .ok_or("rebase: needs \"permille\" in 1..=10000")?;
            Ok(Request::Rebase {
                link: index("link")?,
                permille: permille as u32,
            })
        }
        "reset" => Ok(Request::Reset),
        "realize" => Ok(Request::Realize),
        "util" => {
            let limit = v.get("limit").and_then(Json::as_u64).unwrap_or(5) as usize;
            Ok(Request::Util {
                limit: limit.min(64),
            })
        }
        "plan" => Ok(Request::Plan),
        "admit" => {
            let src = v
                .get("src")
                .and_then(Json::as_str)
                .ok_or("admit: needs \"src\" node name")?;
            let dst = v
                .get("dst")
                .and_then(Json::as_str)
                .ok_or("admit: needs \"dst\" node name")?;
            let demand = v
                .get("demand")
                .and_then(Json::as_f64)
                .filter(|d| d.is_finite() && *d >= 0.0)
                .ok_or("admit: needs finite non-negative \"demand\"")?;
            Ok(Request::Admit {
                src: src.to_string(),
                dst: dst.to_string(),
                demand,
            })
        }
        "stats" => Ok(Request::Stats),
        "update" => {
            let scale = match v.get("scale") {
                None => None,
                Some(s) => Some(
                    s.as_f64()
                        .filter(|x| x.is_finite() && *x > 0.0)
                        .ok_or("update: \"scale\" must be positive and finite")?,
                ),
            };
            let seed = match v.get("seed") {
                None => None,
                Some(s) => Some(
                    s.as_u64()
                        .ok_or("update: \"seed\" must be a non-negative integer")?,
                ),
            };
            Ok(Request::Update { scale, seed })
        }
        "wait" => {
            let gen = v
                .get("gen")
                .and_then(Json::as_u64)
                .ok_or("wait: needs target \"gen\"")?;
            let timeout_ms = v.get("timeout_ms").and_then(Json::as_u64).unwrap_or(30_000);
            Ok(Request::Wait { gen, timeout_ms })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Appends the uniform failure response to `out`.
pub fn error_response(out: &mut String, message: &str) {
    ObjWriter::new(out)
        .bool("ok", false)
        .str("error", message)
        .finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(
            parse_request(r#"{"cmd":"down","link":3}"#),
            Ok(Request::Link {
                link: 3,
                kind: EventKind::Down
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"wobble","link":1,"permille":250}"#),
            Ok(Request::Link {
                link: 1,
                kind: EventKind::Wobble { permille: 250 }
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"degrade","link":2,"permille":500}"#),
            Ok(Request::Link {
                link: 2,
                kind: EventKind::Degrade { permille: 500 }
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"srlg","group":1}"#),
            Ok(Request::Srlg { group: 1 })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"node","node":4}"#),
            Ok(Request::Node { node: 4 })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"rebase","link":3,"permille":2000}"#),
            Ok(Request::Rebase {
                link: 3,
                permille: 2000
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"admit","src":"A","dst":"B","demand":1.5}"#),
            Ok(Request::Admit {
                src: "A".into(),
                dst: "B".into(),
                demand: 1.5
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"update","scale":1.25}"#),
            Ok(Request::Update {
                scale: Some(1.25),
                seed: None
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"wait","gen":2}"#),
            Ok(Request::Wait {
                gen: 2,
                timeout_ms: 30_000
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"util"}"#),
            Ok(Request::Util { limit: 5 })
        );
    }

    #[test]
    fn malformed_commands_are_rejected_with_reasons() {
        for (line, needle) in [
            ("nonsense", "json error"),
            (r#"{"verb":"ping"}"#, "cmd"),
            (r#"{"cmd":"warp"}"#, "unknown command"),
            (r#"{"cmd":"down"}"#, "link"),
            (r#"{"cmd":"wobble","link":1,"permille":2001}"#, "permille"),
            (r#"{"cmd":"degrade","link":1,"permille":0}"#, "permille"),
            (r#"{"cmd":"degrade","link":1,"permille":1001}"#, "permille"),
            (r#"{"cmd":"srlg"}"#, "group"),
            (r#"{"cmd":"node"}"#, "node"),
            (r#"{"cmd":"rebase","link":1,"permille":0}"#, "permille"),
            (r#"{"cmd":"rebase","link":1,"permille":20000}"#, "permille"),
            (
                r#"{"cmd":"admit","src":"A","dst":"B","demand":-1}"#,
                "demand",
            ),
            (r#"{"cmd":"admit","src":"A","demand":1}"#, "dst"),
            (r#"{"cmd":"update","scale":0}"#, "scale"),
            (r#"{"cmd":"wait"}"#, "gen"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    /// A served session and a replayed trace accept the same capacity
    /// events: a wobble to 0 — which would divide loads by a zero
    /// capacity — is refused by both, with a reason.
    #[test]
    fn capacity_events_take_the_trace_grammar_ranges() {
        let topo = pcf_topology::zoo::build("Abilene");
        for verb in ["wobble", "degrade"] {
            for permille in [0u64, 1, 999, 1000, 1001, 2000, 2001, 1 << 32] {
                let served = parse_request(&format!(
                    r#"{{"cmd":"{verb}","link":0,"permille":{permille}}}"#
                ));
                let traced =
                    pcf_replay::EventTrace::parse("t", &format!("{verb} 0 {permille}"), &topo, &[]);
                assert_eq!(served.is_ok(), traced.is_ok(), "{verb} {permille}");
                if let Err(err) = served {
                    assert!(err.contains("permille"), "{verb} {permille}: {err}");
                }
            }
        }
        let err = parse_request(r#"{"cmd":"wobble","link":0,"permille":0}"#).unwrap_err();
        assert!(err.contains("1..=2000"), "{err}");
        assert_eq!(
            parse_request(r#"{"cmd":"wobble","link":0,"permille":2000}"#),
            Ok(Request::Link {
                link: 0,
                kind: EventKind::Wobble { permille: 2000 }
            })
        );
    }

    /// JSON numbers are f64s, whose integers are exact only below 2^53:
    /// 2^53 + 1 parses as 2^53, so accepting 2^53 would read two seeds
    /// (or two generations) as one.
    #[test]
    fn integers_from_two_to_the_53_are_rejected() {
        let err = parse_request(r#"{"cmd":"update","seed":9007199254740993}"#).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let err = parse_request(r#"{"cmd":"wait","gen":9007199254740992}"#).unwrap_err();
        assert!(err.contains("gen"), "{err}");
        assert_eq!(
            parse_request(r#"{"cmd":"update","seed":9007199254740991}"#),
            Ok(Request::Update {
                scale: None,
                seed: Some(9_007_199_254_740_991)
            })
        );
    }

    /// The request lines of the CI `serve-smoke` session.
    const SMOKE: &[&str] = &[
        r#"{"cmd":"ping"}"#,
        r#"{"cmd":"plan"}"#,
        r#"{"cmd":"down","link":0}"#,
        r#"{"cmd":"realize"}"#,
        r#"{"cmd":"util","limit":3}"#,
        r#"{"cmd":"admit","src":"Abilene-0","dst":"Abilene-1","demand":0}"#,
        r#"{"cmd":"admit","src":"Abilene-0","dst":"Abilene-1","demand":1000000}"#,
        r#"{"cmd":"reset"}"#,
        r#"{"cmd":"srlg","group":0}"#,
        r#"{"cmd":"node","node":5}"#,
        r#"{"cmd":"degrade","link":2,"permille":600}"#,
        r#"{"cmd":"update","scale":0.9}"#,
        r#"{"cmd":"wait","gen":2,"timeout_ms":120000}"#,
        r#"{"cmd":"rebase","link":0,"permille":900}"#,
        r#"{"cmd":"stats"}"#,
        r#"{"cmd":"warp"}"#,
        r#"{"cmd":"down","link":999999}"#,
        r#"{"cmd":"srlg","group":99}"#,
        r#"{"cmd":"degrade","link":0,"permille":0}"#,
        r#"{"cmd":"wobble","link":0,"permille":0}"#,
        "not json",
        r#"{"cmd":"shutdown"}"#,
    ];

    /// One to four byte-level mutations of `line`: flip a bit, insert,
    /// delete, truncate, or duplicate a span.
    fn mutate(line: &str, rng: &mut pcf_rng::Pcg32) -> Vec<u8> {
        const BYTES: &[u8] = b"{}[]\":,-.0123456789eE+ \\nu\x00\x1f\x7f\xc3\xa9\xff";
        let mut line = line.as_bytes().to_vec();
        for _ in 0..rng.range_usize_inclusive(1, 4) {
            let at = rng.range_usize_inclusive(0, line.len());
            match rng.below(5) {
                0 if at < line.len() => line[at] ^= 1 << rng.below(8),
                1 => line.insert(at, *rng.pick(BYTES)),
                2 if at < line.len() => {
                    line.remove(at);
                }
                3 => line.truncate(at),
                _ => {
                    let end = rng.range_usize_inclusive(at, line.len());
                    let span = line[at..end].to_vec();
                    line.splice(at..at, span);
                }
            }
        }
        line
    }

    #[test]
    fn mutated_smoke_requests_never_panic_the_parser() {
        for smoke in SMOKE {
            pcf_rng::forall(
                smoke,
                &pcf_rng::Config::with_cases(300),
                |rng| mutate(smoke, rng),
                pcf_rng::no_shrink,
                |line: &Vec<u8>| {
                    // The server refuses a line that is not UTF-8 before
                    // it parses; the lossy form still reaches the parser.
                    let _ = parse_request(&String::from_utf8_lossy(line));
                    Ok(())
                },
            );
        }
    }

    #[test]
    fn error_responses_are_parseable_json() {
        let mut resp = String::new();
        error_response(&mut resp, "bad \"thing\"\nhappened");
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("bad"));
    }
}
