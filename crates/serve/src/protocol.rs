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
//! scripted client can always keep request/response alignment.

use crate::json::Json;
use pcf_replay::{DEGRADE_PERMILLE, WOBBLE_PERMILLE};
use std::ops::RangeInclusive;

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Fail a link.
    Down {
        /// Link index.
        link: u32,
    },
    /// Recover a link.
    Up {
        /// Link index.
        link: u32,
    },
    /// Rescale a link's capacity.
    Wobble {
        /// Link index.
        link: u32,
        /// New capacity in permille of nominal
        /// ([`WOBBLE_PERMILLE`]; 1000 restores).
        permille: u32,
    },
    /// Partially degrade a link's capacity: unlike `wobble`, the
    /// realization sees it (reservations rescale) and it participates in
    /// the realization-cache key.
    Degrade {
        /// Link index.
        link: u32,
        /// Surviving capacity in permille of nominal
        /// ([`DEGRADE_PERMILLE`]; 1000 restores).
        permille: u32,
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
    let link = |v: &Json| -> Result<u32, String> {
        v.get("link")
            .and_then(Json::as_u64)
            .filter(|&l| l < (1 << 30))
            .map(|l| l as u32)
            .ok_or_else(|| format!("{cmd}: needs \"link\" (index < 2^30)"))
    };
    // The trace grammar's ranges, so a served session and a replayed trace
    // accept the same capacity events.
    let permille = |v: &Json, range: RangeInclusive<u32>, why: &str| -> Result<u32, String> {
        v.get("permille")
            .and_then(Json::as_u64)
            .and_then(|p| u32::try_from(p).ok())
            .filter(|p| range.contains(p))
            .ok_or_else(|| format!("{cmd}: needs \"permille\" in {range:?} ({why})"))
    };
    match cmd {
        "ping" => Ok(Request::Ping),
        "down" => Ok(Request::Down { link: link(&v)? }),
        "up" => Ok(Request::Up { link: link(&v)? }),
        "wobble" => Ok(Request::Wobble {
            permille: permille(&v, WOBBLE_PERMILLE, "a zero-capacity link is a down")?,
            link: link(&v)?,
        }),
        "degrade" => Ok(Request::Degrade {
            permille: permille(&v, DEGRADE_PERMILLE, "script total loss as down")?,
            link: link(&v)?,
        }),
        "srlg" => {
            let group = v
                .get("group")
                .and_then(Json::as_u64)
                .filter(|&g| g < (1 << 30))
                .ok_or("srlg: needs \"group\" (index < 2^30)")?;
            Ok(Request::Srlg {
                group: group as u32,
            })
        }
        "node" => {
            let node = v
                .get("node")
                .and_then(Json::as_u64)
                .filter(|&n| n < (1 << 30))
                .ok_or("node: needs \"node\" (index < 2^30)")?;
            Ok(Request::Node { node: node as u32 })
        }
        "rebase" => {
            let permille = v
                .get("permille")
                .and_then(Json::as_u64)
                .filter(|&p| (1..=10_000).contains(&p))
                .ok_or("rebase: needs \"permille\" in 1..=10000")?;
            Ok(Request::Rebase {
                link: link(&v)?,
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

/// Builds the uniform failure response.
pub fn error_response(message: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(message)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_request(r#"{"cmd":"ping"}"#), Ok(Request::Ping));
        assert_eq!(
            parse_request(r#"{"cmd":"down","link":3}"#),
            Ok(Request::Down { link: 3 })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"wobble","link":1,"permille":250}"#),
            Ok(Request::Wobble {
                link: 1,
                permille: 250
            })
        );
        assert_eq!(
            parse_request(r#"{"cmd":"degrade","link":2,"permille":500}"#),
            Ok(Request::Degrade {
                link: 2,
                permille: 500
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
            Ok(Request::Wobble {
                link: 0,
                permille: 2000
            })
        );
    }

    #[test]
    fn error_responses_are_parseable_json() {
        let resp = error_response("bad \"thing\"\nhappened");
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        assert!(v
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("bad"));
    }
}
