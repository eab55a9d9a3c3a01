//! Plan hot-swap consistency under concurrent readers.
//!
//! While the background solver publishes new plan generations, every
//! reader must observe a *single consistent* generation per response —
//! a generation always travels with exactly the plan digest it was
//! solved with, generations only move forward on any one connection, and
//! the generation→digest table is byte-identical whether 1 or 8 reader
//! threads hammered the server. This is the test the nightly TSan job
//! runs over the `PlanCell` fast path.

use pcf_core::Scheme;
use pcf_serve::{run_script, Json, PlanSpec, ServeClient, ServeOptions, Server};
use std::collections::BTreeMap;
use std::thread;

fn abilene_spec() -> PlanSpec {
    PlanSpec {
        topo: pcf_topology::zoo::build("Abilene"),
        scheme: Scheme::Ffc,
        tunnels: 3,
        f: 1,
        seed: 1,
        mlu: 0.0,
        max_pairs: 40,
        tol: 1e-6,
        opts: pcf_core::RobustOptions::default(),
        srlgs: Vec::new(),
    }
}

/// Runs one serving session with `readers` concurrent reader threads
/// spanning two hot swaps, and returns the merged generation→digest
/// table every reader observed.
fn swap_session(readers: usize) -> BTreeMap<u64, String> {
    let server = Server::bind(abilene_spec(), ServeOptions::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let tables: Vec<BTreeMap<u64, String>> = thread::scope(|s| {
        let daemon = s.spawn(|| server.run());

        // Readers: interleave realization queries with plan polls until
        // they see generation 3, recording every (gen, digest) response.
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = ServeClient::connect(&addr).unwrap();
                    let mut table: BTreeMap<u64, String> = BTreeMap::new();
                    let mut last_gen = 0u64;
                    loop {
                        let resps = client
                            .request_batch(&[r#"{"cmd":"realize"}"#, r#"{"cmd":"plan"}"#])
                            .unwrap();
                        for resp in &resps {
                            assert_eq!(
                                resp.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "{}",
                                resp.render()
                            );
                            let gen = resp.get("gen").and_then(Json::as_u64).unwrap();
                            // Generations never move backwards on a
                            // connection: a reader that saw the new plan
                            // can never be served the old one again.
                            assert!(gen >= last_gen, "gen went backwards: {last_gen} -> {gen}");
                            last_gen = gen;
                        }
                        let plan = &resps[1];
                        let gen = plan.get("gen").and_then(Json::as_u64).unwrap();
                        let digest = plan
                            .get("plan_digest")
                            .and_then(Json::as_str)
                            .unwrap()
                            .to_string();
                        // One digest per generation, ever: a response can
                        // never mix one epoch's generation with another
                        // epoch's plan.
                        if let Some(seen) = table.get(&gen) {
                            assert_eq!(seen, &digest, "gen {gen} served two digests");
                        }
                        table.insert(gen, digest);
                        if gen >= 3 {
                            return table;
                        }
                    }
                })
            })
            .collect();

        // Controller: drive two swaps while the readers hammer the plan.
        let script = r#"
            {"cmd":"wait","gen":1,"timeout_ms":1000}
            {"cmd":"update","scale":0.9}
            {"cmd":"wait","gen":2,"timeout_ms":120000}
            {"cmd":"update","scale":0.8}
            {"cmd":"wait","gen":3,"timeout_ms":120000}
        "#;
        let drive = run_script(&addr, script).unwrap();
        assert!(
            drive.clean(),
            "controller violations: {:?}",
            drive.transcript
        );

        let tables: Vec<BTreeMap<u64, String>> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        server.request_shutdown();
        let _ = daemon.join();
        tables
    });

    // Merge: all readers must agree on the digest of every generation.
    let mut merged: BTreeMap<u64, String> = BTreeMap::new();
    for table in tables {
        for (gen, digest) in table {
            if let Some(seen) = merged.get(&gen) {
                assert_eq!(seen, &digest, "readers disagree on gen {gen}");
            }
            merged.insert(gen, digest);
        }
    }
    merged
}

#[test]
fn concurrent_readers_observe_consistent_generations() {
    let single = swap_session(1);
    let eight = swap_session(8);
    // Every session reaches generation 3 and the final plans agree.
    assert!(single.contains_key(&3));
    assert!(eight.contains_key(&3));
    // The generation→digest association is thread-count independent:
    // identical re-solves digest identically, so the tables agree on
    // every generation both sessions observed.
    for (gen, digest) in &single {
        if let Some(other) = eight.get(gen) {
            assert_eq!(
                digest, other,
                "gen {gen} digest differs across thread counts"
            );
        }
    }
    // Swaps change the plan: consecutive generations have distinct digests.
    let digests: Vec<&String> = eight.values().collect();
    for pair in digests.windows(2) {
        assert_ne!(pair[0], pair[1], "swap published an identical plan");
    }
}
