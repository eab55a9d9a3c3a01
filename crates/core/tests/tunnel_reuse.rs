//! A re-plan takes the previous epoch's tunnels back instead of selecting
//! them again, and the instance it builds is the one selection builds.
//!
//! Tunnel selection reads the topology's structure (node count, link
//! endpoints in link order), the pair and `k` — no capacity, demand or name.
//! So over the same pair list and structure the tunnel set a cut pool
//! carries is exactly what selection would return, and sharing it must be
//! invisible in every index the solvers and the realization read. Where the
//! pairs, `k` or the structure moved, or a tunnel was given explicitly, the
//! offer must be refused and selection must run.

use pcf_core::{
    pcf_ls_instance, try_solve_robust, tunnel_instance, AdversaryKind, FailureModel, Instance,
    InstanceBuilder, RobustOptions, TunnelSet,
};
use pcf_topology::{transform::split_sublinks, zoo, LinkId, NodeId, Topology};
use pcf_traffic::{gravity, TrafficMatrix};
use std::sync::Arc;

/// The demand scales the benchmark's re-plans walk.
const SCALES: [f64; 6] = [1.10, 0.90, 1.25, 0.80, 1.40, 1.00];

/// The two instance shapes a plan epoch builds.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// FFC / PCF-TF: tunnels only ([`tunnel_instance`]).
    Tunnels,
    /// PCF-LS: tunnels plus the shortest-path LSs ([`pcf_ls_instance`]).
    Lss,
}

/// Gravity traffic, 200 heaviest pairs: what the CLI and the benchmark plan.
fn traffic(topo: &Topology, seed: u64) -> TrafficMatrix {
    let mut tm = gravity(topo, seed);
    tm.truncate_to_top_k(200);
    tm
}

/// A build by the public instance helpers: selection, nothing offered.
fn fresh(topo: &Topology, tm: &TrafficMatrix, k: usize, shape: Shape) -> Instance {
    match shape {
        Shape::Tunnels => tunnel_instance(topo, tm, k),
        Shape::Lss => pcf_ls_instance(topo, tm, k),
    }
}

/// The same build with `offered` on the table, as a plan epoch makes it.
fn offered_build(
    topo: &Topology,
    tm: &TrafficMatrix,
    k: usize,
    shape: Shape,
    offered: &Arc<TunnelSet>,
) -> Instance {
    let builder = InstanceBuilder::new(topo, tm)
        .tunnels_per_pair(k)
        .offer_tunnels(Some(offered));
    match shape {
        Shape::Tunnels => builder.build(),
        Shape::Lss => builder.shortest_path_lss().build(),
    }
}

/// Every index a solver or a realization reads, compared item by item.
fn assert_same_instance(got: &Instance, want: &Instance, label: &str) {
    assert_eq!(got.num_pairs(), want.num_pairs(), "{label}: pairs");
    assert_eq!(got.num_tunnels(), want.num_tunnels(), "{label}: tunnels");
    assert_eq!(got.num_lss(), want.num_lss(), "{label}: LSs");
    for p in want.pair_ids() {
        assert_eq!(got.pair(p), want.pair(p), "{label}: pair {p:?}");
        assert_eq!(got.demand(p).to_bits(), want.demand(p).to_bits(), "{label}");
        assert_eq!(got.tunnels_of(p), want.tunnels_of(p), "{label}: T{p:?}");
        assert_eq!(got.lss_of(p), want.lss_of(p), "{label}: L{p:?}");
        assert_eq!(got.segments_of(p), want.segments_of(p), "{label}: Q{p:?}");
    }
    for l in want.tunnel_ids() {
        assert_eq!(got.tunnel(l), want.tunnel(l), "{label}: tunnel {l:?}");
        assert_eq!(got.tunnel_pair(l), want.tunnel_pair(l), "{label}: {l:?}");
        assert_eq!(got.tunnel_arcs(l), want.tunnel_arcs(l), "{label}: {l:?}");
    }
    for q in want.ls_ids() {
        assert_eq!(got.ls(q), want.ls(q), "{label}: LS {q:?}");
        assert_eq!(got.segment_pairs(q), want.segment_pairs(q), "{label}");
    }
    for e in want.topo().links() {
        assert_eq!(
            got.tunnels_on_link(e),
            want.tunnels_on_link(e),
            "{label}: link {e:?}"
        );
    }
}

fn same_pairs(a: &Instance, b: &Instance) -> bool {
    a.num_pairs() == b.num_pairs() && a.pair_ids().all(|p| a.pair(p) == b.pair(p))
}

fn same_tunnels(a: &Instance, b: &Instance) -> bool {
    a.num_tunnels() == b.num_tunnels() && a.tunnel_ids().all(|l| a.tunnel(l) == b.tunnel(l))
}

/// `topo` with link `e` moved off one endpoint onto a node it did not
/// touch: same node count, same link count, other structure.
fn rewired(topo: &Topology, e: LinkId) -> Topology {
    let moved = topo.link(e);
    let to = topo
        .nodes()
        .find(|&n| {
            n != moved.u && n != moved.v && !topo.incident(moved.u).iter().any(|&(m, _)| m == n)
        })
        .expect("a node not adjacent to the link's endpoint");
    let mut out = Topology::new(topo.name());
    for n in topo.nodes() {
        out.add_node(topo.node_name(n));
    }
    for l in topo.links() {
        let link = topo.link(l);
        let v = if l == e { to } else { link.v };
        out.add_link(link.u, v, link.capacity);
    }
    out
}

#[test]
fn reused_tunnels_equal_a_fresh_selection() {
    let sprint = zoo::build("Sprint");
    let topologies = [
        zoo::build("Quest"),
        zoo::build("Abilene"),
        zoo::build("B4"),
        split_sublinks(&sprint, 2),
        sprint,
    ];
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();
    for topo in &topologies {
        let tm = traffic(topo, 1);
        let mut capacity_only = topo.clone();
        let e = LinkId(0);
        capacity_only.set_capacity(e, topo.capacity(e) * 0.5);
        for shape in [Shape::Tunnels, Shape::Lss] {
            let base = fresh(topo, &tm, 3, shape);
            let (_, pool) =
                try_solve_robust(&base, &fm, AdversaryKind::LinkBased, &opts, None).unwrap();
            let offered = pool.tunnel_set().expect("an exported pool carries tunnels");
            assert!(
                Arc::ptr_eq(offered, base.tunnel_set()),
                "shared, not copied"
            );
            let rescaled = SCALES.iter().map(|&s| (topo, s, "scale"));
            let recapacitated = std::iter::once((&capacity_only, 1.0, "capacity"));
            for (at, scale, what) in rescaled.chain(recapacitated) {
                let label = format!("{} {shape:?} {what} {scale}", topo.name());
                let tm = tm.scaled(scale);
                let reused = offered_build(at, &tm, 3, shape, offered);
                assert!(
                    Arc::ptr_eq(reused.tunnel_set(), offered),
                    "{label}: selected afresh"
                );
                let selected = fresh(at, &tm, 3, shape);
                assert!(!Arc::ptr_eq(selected.tunnel_set(), offered));
                assert_same_instance(&reused, &selected, &label);
                assert!(pool.matches(&reused) && pool.matches(&selected), "{label}");
            }
        }
    }
}

#[test]
fn tunnels_are_selected_afresh_where_selection_could_differ() {
    let refused = |got: &Instance, offered: &Instance, want: &Instance, label: &str| {
        assert!(
            !Arc::ptr_eq(got.tunnel_set(), offered.tunnel_set()),
            "{label}: offer taken"
        );
        assert_same_instance(got, want, label);
    };

    // A new gravity seed moves Quest's 200 heaviest pairs.
    let quest = zoo::build("Quest");
    for shape in [Shape::Tunnels, Shape::Lss] {
        let base = fresh(&quest, &traffic(&quest, 1), 3, shape);
        let tm = traffic(&quest, 2);
        let want = fresh(&quest, &tm, 3, shape);
        assert!(!same_pairs(&base, &want), "seed 2 kept the pair list");
        let got = offered_build(&quest, &tm, 3, shape, base.tunnel_set());
        refused(&got, &base, &want, &format!("Quest {shape:?} seed 2"));
    }

    // Another `k` over the same pairs.
    let sprint = zoo::build("Sprint");
    let tm = traffic(&sprint, 1);
    for shape in [Shape::Tunnels, Shape::Lss] {
        let base = fresh(&sprint, &tm, 3, shape);
        let want = fresh(&sprint, &tm, 2, shape);
        assert!(same_pairs(&base, &want));
        let got = offered_build(&sprint, &tm, 2, shape, base.tunnel_set());
        refused(&got, &base, &want, &format!("Sprint {shape:?} k=2"));
    }

    // Same node count and pairs, one link rewired: the selection moves.
    let moved = rewired(&sprint, LinkId(0));
    let base = fresh(&sprint, &tm, 3, Shape::Tunnels);
    let want = fresh(&moved, &tm, 3, Shape::Tunnels);
    assert!(same_pairs(&base, &want) && !same_tunnels(&base, &want));
    let got = offered_build(&moved, &tm, 3, Shape::Tunnels, base.tunnel_set());
    refused(&got, &base, &want, "Sprint rewired");

    // Explicit tunnels: a set holding one is not what selection returns,
    // and a build with one does not select every tunnel.
    let (s, t) = (NodeId(0), NodeId(5));
    let demand = vec![(s, t, 1.0)];
    let path = pcf_paths::shortest_path(&sprint, s, t).unwrap();
    let explicit = InstanceBuilder::with_demands(&sprint, demand.clone())
        .add_tunnel(path.clone())
        .build();
    let selected = InstanceBuilder::with_demands(&sprint, demand.clone()).build();
    assert!(same_pairs(&explicit, &selected) && !same_tunnels(&explicit, &selected));
    let got = InstanceBuilder::with_demands(&sprint, demand.clone())
        .offer_tunnels(Some(explicit.tunnel_set()))
        .build();
    refused(&got, &explicit, &selected, "explicit set offered");
    let got = InstanceBuilder::with_demands(&sprint, demand)
        .add_tunnel(path)
        .offer_tunnels(Some(selected.tunnel_set()))
        .build();
    refused(&got, &selected, &explicit, "explicit build");
}
