//! The wire bytes of a scripted session, held to a checked-in golden.
//!
//! Drives the CI `serve-smoke` session (Abilene, FFC, f = 1, two SRLG
//! groups) against an in-process daemon over a raw socket and compares
//! every response line byte for byte with
//! `tests/golden/serve-Abilene-transcript.txt`, in request order. The
//! `stats` response is left out: it carries latencies. The session's
//! deterministic report (`pcf serve --djson`) is held to
//! `tests/golden/serve-Abilene-djson.json` the same way.
//!
//! Unlike `run_script`'s transcript, which re-renders each parsed
//! response, this reads the bytes the server wrote, so a change to how
//! responses are rendered (field order, number or string formatting)
//! fails here.

use pcf_core::Scheme;
use pcf_serve::{PlanSpec, ServeOptions, Server};
use pcf_topology::SrlgSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread;

/// The CI `serve-smoke` script; a leading `!` marks a request that must
/// fail (`"ok":false`).
const SCRIPT: &str = r#"
{"cmd":"ping"}
{"cmd":"plan"}
{"cmd":"down","link":0}
{"cmd":"realize"}
{"cmd":"util","limit":3}
{"cmd":"admit","src":"Abilene-0","dst":"Abilene-1","demand":0}
{"cmd":"admit","src":"Abilene-0","dst":"Abilene-1","demand":1000000}
{"cmd":"reset"}
{"cmd":"srlg","group":0}
{"cmd":"node","node":5}
{"cmd":"realize"}
{"cmd":"reset"}
{"cmd":"degrade","link":2,"permille":600}
{"cmd":"realize"}
{"cmd":"reset"}
{"cmd":"update","scale":0.9}
{"cmd":"wait","gen":2,"timeout_ms":120000}
{"cmd":"rebase","link":0,"permille":900}
{"cmd":"wait","gen":3,"timeout_ms":120000}
{"cmd":"realize"}
{"cmd":"stats"}
! {"cmd":"warp"}
! {"cmd":"down","link":999999}
! {"cmd":"srlg","group":99}
! {"cmd":"degrade","link":0,"permille":0}
! {"cmd":"wobble","link":0,"permille":0}
! not json
{"cmd":"shutdown"}
"#;

const TRANSCRIPT: &str = include_str!("../../../tests/golden/serve-Abilene-transcript.txt");
const DJSON: &str = include_str!("../../../tests/golden/serve-Abilene-djson.json");

/// `pcf serve --topology Abilene --scheme ffc --f 1 --mlu 0
/// --srlg <group e0 e1 e2, group e5 e6>` with every other flag at its
/// default.
fn smoke_spec() -> PlanSpec {
    let topo = pcf_topology::zoo::build("Abilene");
    let srlgs = SrlgSet::parse_strict("group e0 e1 e2\ngroup e5 e6\n", &topo)
        .unwrap()
        .link_groups();
    PlanSpec {
        topo,
        scheme: Scheme::Ffc,
        tunnels: 3,
        f: 1,
        seed: 1,
        mlu: 0.0,
        max_pairs: 200,
        tol: pcf_core::OVERLOAD_TOL,
        opts: pcf_core::RobustOptions::default(),
        srlgs,
    }
}

/// Runs the script one request at a time and returns the raw response
/// bytes (all but `stats`) and the deterministic report.
fn session() -> (String, String) {
    let server = Server::bind(smoke_spec(), ServeOptions::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let wire = thread::scope(|s| {
        let daemon = s.spawn(|| server.run());
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut wire = Vec::new();
        for line in SCRIPT.lines().map(str::trim).filter(|l| !l.is_empty()) {
            let (expect_ok, cmd) = match line.strip_prefix('!') {
                Some(rest) => (false, rest.trim()),
                None => (true, line),
            };
            writer.write_all(cmd.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut resp = Vec::new();
            reader.read_until(b'\n', &mut resp).unwrap();
            assert!(resp.ends_with(b"\n"), "{cmd}: truncated response {resp:?}");
            let ok = if expect_ok {
                "{\"ok\":true"
            } else {
                "{\"ok\":false"
            };
            assert!(
                resp.starts_with(ok.as_bytes()),
                "{cmd}: {}",
                String::from_utf8_lossy(&resp)
            );
            if cmd != r#"{"cmd":"stats"}"# {
                wire.extend_from_slice(&resp);
            }
        }
        daemon.join().unwrap().unwrap();
        wire
    });
    (
        String::from_utf8(wire).unwrap(),
        server.report().deterministic_json(),
    )
}

#[test]
fn smoke_session_wire_bytes_match_the_golden() {
    let (wire, djson) = session();
    for (i, (got, want)) in wire.lines().zip(TRANSCRIPT.lines()).enumerate() {
        assert_eq!(got, want, "response line {}", i + 1);
    }
    assert_eq!(wire, TRANSCRIPT);
    assert_eq!(djson, DJSON.trim_end());
}
