//! Property tests for the path algorithms on random ring-and-chord graphs.

use pcf_paths::{select_tunnels, shortest_path, yen_k_shortest};
use pcf_rng::{forall, no_shrink, Config, Pcg32};
use pcf_topology::{NodeId, Topology};

/// A random 2-edge-connected topology: ring plus chords.
#[derive(Debug, Clone)]
struct Graph {
    n: usize,
    chords: Vec<(usize, usize)>,
}

impl Graph {
    fn build(&self) -> Topology {
        let mut t = Topology::new("random");
        let nodes: Vec<NodeId> = (0..self.n).map(|i| t.add_node(format!("n{i}"))).collect();
        for i in 0..self.n {
            t.add_link(nodes[i], nodes[(i + 1) % self.n], 1.0);
        }
        for &(a, b) in &self.chords {
            if a != b {
                t.add_link(nodes[a], nodes[b], 1.0);
            }
        }
        t
    }
}

fn gen_graph(rng: &mut Pcg32) -> Graph {
    let n = rng.range_usize_inclusive(4, 9);
    let chords = (0..rng.range_usize_inclusive(0, 3))
        .map(|_| (rng.range_usize(0, n), rng.range_usize(0, n)))
        .collect();
    Graph { n, chords }
}

#[test]
fn yen_paths_are_simple_sorted_and_start_with_shortest() {
    forall(
        "yen_paths_are_simple_sorted_and_start_with_shortest",
        &Config::with_cases(64),
        gen_graph,
        no_shrink,
        |g| {
            let topo = g.build();
            let (s, t) = (NodeId(0), NodeId((g.n / 2) as u32));
            let paths = yen_k_shortest(&topo, s, t, 4);
            let sp = shortest_path(&topo, s, t).expect("ring is connected");
            if paths.is_empty() {
                return Err("no paths on a connected graph".into());
            }
            if paths[0].len() != sp.len() {
                return Err(format!(
                    "first Yen path has {} hops, Dijkstra found {}",
                    paths[0].len(),
                    sp.len()
                ));
            }
            for w in paths.windows(2) {
                if w[0].len() > w[1].len() {
                    return Err(format!(
                        "paths out of order: {} hops before {}",
                        w[0].len(),
                        w[1].len()
                    ));
                }
            }
            for p in &paths {
                if !p.is_simple() {
                    return Err(format!("non-simple path: {p:?}"));
                }
                if p.source() != s || p.dest() != t {
                    return Err(format!("endpoints wrong: {p:?}"));
                }
            }
            Ok(())
        },
    );
}

#[test]
fn selected_tunnels_connect_the_pair() {
    forall(
        "selected_tunnels_connect_the_pair",
        &Config::with_cases(64),
        gen_graph,
        no_shrink,
        |g| {
            let topo = g.build();
            let (s, t) = (NodeId(0), NodeId((g.n - 1) as u32));
            let tunnels = select_tunnels(&topo, s, t, 3);
            if tunnels.is_empty() {
                return Err("no tunnels on a connected graph".into());
            }
            for p in &tunnels {
                if p.source() != s || p.dest() != t {
                    return Err(format!("tunnel endpoints wrong: {p:?}"));
                }
            }
            Ok(())
        },
    );
}

/// The tunnels `select_tunnels(.., 3)` picks for every ordered pair of the
/// quick-scale topologies (and the 2-way sub-link splits of three of them,
/// which take the collapsed-graph branch), as one FNV-1a digest of their
/// link lists. The value was recorded before the selection moved into a
/// reused workspace; any change to which tunnels are chosen, or in what
/// order, moves it.
#[test]
fn tunnel_selection_over_the_quick_topologies_is_pinned() {
    use pcf_topology::{transform::split_sublinks, zoo};
    let quick = [
        "Sprint",
        "B4",
        "IBM",
        "Highwinds",
        "CWIX",
        "Quest",
        "Darkstrand",
    ];
    let split = ["Sprint", "B4", "IBM"].map(|name| split_sublinks(&zoo::build(name), 2));
    let topos = quick.iter().map(|name| zoo::build(name)).chain(split);
    let mut h = pcf_rng::Fnv1a::new();
    for topo in topos {
        for s in topo.nodes() {
            for t in topo.nodes().filter(|&t| t != s) {
                let tunnels = select_tunnels(&topo, s, t, 3);
                h.write_u64(tunnels.len() as u64);
                for path in &tunnels {
                    h.write_u64(path.links.len() as u64);
                    for l in &path.links {
                        h.write_u64(l.index() as u64);
                    }
                }
            }
        }
    }
    assert_eq!(h.finish(), 0x92d9_2c61_9d1b_9939, "tunnel selection moved");
}
