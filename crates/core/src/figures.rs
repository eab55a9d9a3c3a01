//! The paper's worked examples: topologies, tunnels, and logical sequences
//! of Figures 1, 3, 4, and 5.
//!
//! These fixtures drive the reproduction of Fig. 2 and Table 1 and the
//! proposition tests. Where the figure is ambiguous in prose, the link
//! capacities are chosen so that every number the paper states is
//! reproduced exactly (verified in `tests/paper_examples.rs`).

use crate::failure::Condition;
use crate::instance::{Instance, InstanceBuilder, LogicalSequence};
use pcf_paths::Path;
use pcf_topology::{LinkId, NodeId, Topology};

/// Node handles of the Fig. 1 example.
#[derive(Debug, Clone, Copy)]
pub struct Fig1 {
    /// Source.
    pub s: NodeId,
    /// Intermediate routers 1–4.
    pub r: [NodeId; 4],
    /// Destination.
    pub t: NodeId,
}

/// Fig. 1 topology: routers s, 1..4, t.
///
/// Solid links (capacity 1): s-1, 1-t, s-2, 2-t, s-3, 3-t.
/// Dashed links (capacity 1/2): s-4, 4-3.
pub fn fig1_topology() -> (Topology, Fig1) {
    let mut topo = Topology::new("fig1");
    let s = topo.add_node("s");
    let r1 = topo.add_node("1");
    let r2 = topo.add_node("2");
    let r3 = topo.add_node("3");
    let r4 = topo.add_node("4");
    let t = topo.add_node("t");
    topo.add_link(s, r1, 1.0);
    topo.add_link(r1, t, 1.0);
    topo.add_link(s, r2, 1.0);
    topo.add_link(r2, t, 1.0);
    topo.add_link(s, r3, 1.0);
    topo.add_link(r3, t, 1.0);
    topo.add_link(s, r4, 0.5);
    topo.add_link(r4, r3, 0.5);
    (
        topo,
        Fig1 {
            s,
            r: [r1, r2, r3, r4],
            t,
        },
    )
}

/// Builds a [`Path`] through the listed nodes, resolving each hop to the
/// (first) link between consecutive nodes.
///
/// # Panics
/// Panics if two consecutive nodes are not adjacent.
pub fn path_through(topo: &Topology, nodes: &[NodeId]) -> Path {
    assert!(nodes.len() >= 2);
    let mut links = Vec::new();
    for w in nodes.windows(2) {
        #[expect(clippy::panic, reason = "fixture hops are adjacent")]
        let l = topo
            .incident(w[0])
            .iter()
            .find(|&&(v, _)| v == w[1])
            .map(|&(_, l)| l)
            .unwrap_or_else(|| panic!("nodes {} and {} are not adjacent", w[0], w[1]));
        links.push(l);
    }
    Path {
        nodes: nodes.to_vec(),
        links,
    }
}

/// The four tunnels of Fig. 1 in the paper's numbering:
/// `l1 = s-1-t`, `l2 = s-2-t`, `l3 = s-4-3-t`, `l4 = s-3-t`.
pub fn fig1_tunnels(topo: &Topology, ids: Fig1) -> [Path; 4] {
    let Fig1 { s, r, t } = ids;
    [
        path_through(topo, &[s, r[0], t]),
        path_through(topo, &[s, r[1], t]),
        path_through(topo, &[s, r[3], r[2], t]),
        path_through(topo, &[s, r[2], t]),
    ]
}

/// Fig. 1 instance using the first `k` tunnels (`k = 3` for FFC-3, `k = 4`
/// for FFC-4), demand 1 from s to t.
pub fn fig1_instance(k: usize) -> Instance {
    let (topo, ids) = fig1_topology();
    let tunnels = fig1_tunnels(&topo, ids);
    let mut b = InstanceBuilder::with_demands(&topo, vec![(ids.s, ids.t, 1.0)]);
    for path in tunnels.into_iter().take(k) {
        b = b.add_tunnel(path);
    }
    b.build()
}

/// Node handles of the Fig. 3 example.
#[derive(Debug, Clone, Copy)]
pub struct Fig3 {
    /// Source.
    pub s: NodeId,
    /// Middle router.
    pub u: NodeId,
    /// Destination.
    pub t: NodeId,
}

/// Fig. 3 topology: three parallel s-u links `e1..e3` (capacity 1/3) and two
/// parallel u-t links `e4, e5` (capacity 1).
///
/// Returns the topology, node ids, the s-u links, and the u-t links.
pub fn fig3_topology() -> (Topology, Fig3, [LinkId; 3], [LinkId; 2]) {
    let mut topo = Topology::new("fig3");
    let s = topo.add_node("s");
    let u = topo.add_node("u");
    let t = topo.add_node("t");
    let e1 = topo.add_link(s, u, 1.0 / 3.0);
    let e2 = topo.add_link(s, u, 1.0 / 3.0);
    let e3 = topo.add_link(s, u, 1.0 / 3.0);
    let e4 = topo.add_link(u, t, 1.0);
    let e5 = topo.add_link(u, t, 1.0);
    (topo, Fig3 { s, u, t }, [e1, e2, e3], [e4, e5])
}

/// Fig. 3 instance with all six two-hop tunnels (every `e_i × e_j`
/// combination), demand 1 from s to t.
pub fn fig3_instance() -> Instance {
    let (topo, ids, sus, uts) = fig3_topology();
    let mut b = InstanceBuilder::with_demands(&topo, vec![(ids.s, ids.t, 1.0)]);
    for &su in &sus {
        for &ut in &uts {
            b = b.add_tunnel(Path {
                nodes: vec![ids.s, ids.u, ids.t],
                links: vec![su, ut],
            });
        }
    }
    b.build()
}

/// Fig. 4 generalized topology: `m + 1` routers `s0..sm`; `p` parallel links
/// of capacity `1/p` between `s0` and `s1`; `n` parallel links of capacity 1
/// between each later consecutive pair.
pub fn fig4_topology(p: usize, n: usize, m: usize) -> (Topology, Vec<NodeId>) {
    assert!(m >= 1 && p >= 1 && n >= 1);
    let mut topo = Topology::new(format!("fig4(p={p},n={n},m={m})"));
    let nodes: Vec<NodeId> = (0..=m).map(|i| topo.add_node(format!("s{i}"))).collect();
    for _ in 0..p {
        topo.add_link(nodes[0], nodes[1], 1.0 / p as f64);
    }
    for i in 1..m {
        for _ in 0..n {
            topo.add_link(nodes[i], nodes[i + 1], 1.0);
        }
    }
    (topo, nodes)
}

/// Fig. 4 instance for PCF-LS (Corollary 3.1): every link is a tunnel for
/// its endpoint segment, plus the single logical sequence `s0, s1, ..., sm`.
/// Demand 1 from `s0` to `sm`.
pub fn fig4_ls_instance(p: usize, n: usize, m: usize) -> Instance {
    let (topo, nodes) = fig4_topology(p, n, m);
    let mut b =
        InstanceBuilder::with_demands(&topo, vec![(nodes[0], nodes[m], 1.0)]).no_auto_tunnels();
    // Each link is a tunnel between its endpoints.
    for l in topo.links() {
        let link = topo.link(l);
        b = b.add_tunnel(Path {
            nodes: vec![link.u, link.v],
            links: vec![l],
        });
    }
    if m >= 2 {
        b = b.add_ls(LogicalSequence::always(nodes.clone()));
    }
    b.build()
}

/// Node handles of the Fig. 5 example.
#[derive(Debug, Clone, Copy)]
pub struct Fig5 {
    /// Source.
    pub s: NodeId,
    /// Routers 1..7 (index i ↔ router i+1).
    pub r: [NodeId; 7],
    /// Destination.
    pub t: NodeId,
}

/// Fig. 5 topology.
///
/// Solid links (capacity 1): 1-5, 2-6, 3-7, 5-t, 6-t, 7-t.
/// Dashed links (capacity 1/2): s-1, s-2, s-3, s-4, 4-1, 4-2, 4-3.
///
/// With these capacities every Table 1 entry is reproduced exactly:
/// optimal 1, FFC 0, PCF-TF 2/3, PCF-LS 4/5, PCF-CLS 1, R3 0 under two
/// simultaneous failures.
pub fn fig5_topology() -> (Topology, Fig5) {
    let mut topo = Topology::new("fig5");
    let s = topo.add_node("s");
    let mut r = [s; 7];
    for (i, slot) in r.iter_mut().enumerate() {
        *slot = topo.add_node(format!("{}", i + 1));
    }
    let t = topo.add_node("t");
    // Dashed, capacity 1/2.
    topo.add_link(s, r[0], 0.5);
    topo.add_link(s, r[1], 0.5);
    topo.add_link(s, r[2], 0.5);
    topo.add_link(s, r[3], 0.5);
    topo.add_link(r[3], r[0], 0.5);
    topo.add_link(r[3], r[1], 0.5);
    topo.add_link(r[3], r[2], 0.5);
    // Solid, capacity 1.
    topo.add_link(r[0], r[4], 1.0);
    topo.add_link(r[1], r[5], 1.0);
    topo.add_link(r[2], r[6], 1.0);
    topo.add_link(r[4], t, 1.0);
    topo.add_link(r[5], t, 1.0);
    topo.add_link(r[6], t, 1.0);
    (topo, Fig5 { s, r, t })
}

/// The six s→t tunnels of Fig. 5: `s-i-(i+4)-t` and `s-4-i-(i+4)-t` for
/// `i ∈ {1,2,3}`.
pub fn fig5_tunnels(topo: &Topology, ids: Fig5) -> Vec<Path> {
    let Fig5 { s, r, t } = ids;
    let mut out = Vec::new();
    for i in 0..3 {
        out.push(path_through(topo, &[s, r[i], r[i + 4], t]));
    }
    for i in 0..3 {
        out.push(path_through(topo, &[s, r[3], r[i], r[i + 4], t]));
    }
    out
}

/// Which Fig. 5 scheme variant to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig5Variant {
    /// Tunnels only (FFC / PCF-TF).
    TunnelsOnly,
    /// Adds the unconditional LS `(s, 4, t)` with extra s→4 tunnels
    /// (`s-4`, `s-1-4`, `s-2-4`, `s-3-4`) and the 4→t tunnels (PCF-LS).
    UnconditionalLs,
    /// Adds the LS `(s, 4, t)` conditioned on link `s-4` being *alive*,
    /// with segment s4 served by the single tunnel `s-4` (PCF-CLS, §3.4).
    ConditionalLs,
}

/// Builds the Fig. 5 instance for the given variant; demand 1 from s to t.
pub fn fig5_instance(variant: Fig5Variant) -> Instance {
    let (topo, ids) = fig5_topology();
    let Fig5 { s, r, t } = ids;
    let mut b = InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)]);
    for path in fig5_tunnels(&topo, ids) {
        b = b.add_tunnel(path);
    }
    match variant {
        Fig5Variant::TunnelsOnly => {}
        Fig5Variant::UnconditionalLs => {
            b = b.add_ls(LogicalSequence::always(vec![s, r[3], t]));
            // Segment s-4: richer tunnel set so the LS survives failures.
            b = b.add_tunnel(path_through(&topo, &[s, r[3]]));
            for i in 0..3 {
                b = b.add_tunnel(path_through(&topo, &[s, r[i], r[3]]));
            }
            for i in 0..3 {
                b = b.add_tunnel(path_through(&topo, &[r[3], r[i], r[i + 4], t]));
            }
        }
        Fig5Variant::ConditionalLs => {
            #[expect(clippy::expect_used, reason = "fig5_topology adds the s-4 link")]
            let s4 = topo
                .incident(s)
                .iter()
                .find(|&&(v, _)| v == r[3])
                .map(|&(_, l)| l)
                .expect("link s-4 exists");
            b = b.add_ls(LogicalSequence {
                hops: vec![s, r[3], t],
                condition: Condition::AliveDead {
                    alive: vec![s4],
                    dead: vec![],
                },
            });
            // Segment s-4 uses only the direct tunnel (as in the paper).
            b = b.add_tunnel(path_through(&topo, &[s, r[3]]));
            for i in 0..3 {
                b = b.add_tunnel(path_through(&topo, &[r[3], r[i], r[i + 4], t]));
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_structure() {
        let (topo, ids) = fig1_topology();
        assert_eq!(topo.node_count(), 6);
        assert_eq!(topo.link_count(), 8);
        let tunnels = fig1_tunnels(&topo, ids);
        assert_eq!(tunnels[0].len(), 2);
        assert_eq!(tunnels[2].len(), 3); // s-4-3-t
                                         // l3 and l4 share link 3-t.
        assert_eq!(tunnels[2].shared_links(&tunnels[3]), 1);
        // l1, l2, l3 are pairwise disjoint (FFC-3 has p_st = 1).
        assert_eq!(tunnels[0].shared_links(&tunnels[1]), 0);
        assert_eq!(tunnels[0].shared_links(&tunnels[2]), 0);
        assert_eq!(tunnels[1].shared_links(&tunnels[2]), 0);
    }

    #[test]
    fn fig1_instance_p_st() {
        let i3 = fig1_instance(3);
        let i4 = fig1_instance(4);
        assert_eq!(i3.p_st(crate::instance::PairId(0)), 1);
        assert_eq!(i4.p_st(crate::instance::PairId(0)), 2);
    }

    #[test]
    fn fig3_has_six_tunnels() {
        let inst = fig3_instance();
        assert_eq!(inst.num_tunnels(), 6);
        assert_eq!(inst.p_st(crate::instance::PairId(0)), 3);
    }

    #[test]
    fn fig4_structure() {
        let (topo, nodes) = fig4_topology(3, 2, 2);
        assert_eq!(topo.node_count(), 3);
        assert_eq!(topo.link_count(), 3 + 2);
        assert_eq!(nodes.len(), 3);
        let inst = fig4_ls_instance(3, 2, 2);
        assert_eq!(inst.num_tunnels(), 5);
        assert_eq!(inst.num_lss(), 1);
    }

    #[test]
    fn fig5_structure() {
        let (topo, ids) = fig5_topology();
        assert_eq!(topo.node_count(), 9);
        assert_eq!(topo.link_count(), 13);
        let tunnels = fig5_tunnels(&topo, ids);
        assert_eq!(tunnels.len(), 6);
        let inst = fig5_instance(Fig5Variant::TunnelsOnly);
        // Link s-4 is shared by three tunnels: p_st = 3 → FFC must survive
        // f * p_st = 6 tunnel failures out of 6 → zero throughput.
        assert_eq!(inst.p_st(crate::instance::PairId(0)), 3);
    }

    #[test]
    fn path_through_resolves_links() {
        let (topo, ids) = fig1_topology();
        let p = path_through(&topo, &[ids.s, ids.r[0], ids.t]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), ids.s);
        assert_eq!(p.dest(), ids.t);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn path_through_rejects_non_adjacent() {
        let (topo, ids) = fig1_topology();
        path_through(&topo, &[ids.s, ids.t]);
    }
}

/// Node handles of the Fig. 6 realization example (§4).
#[derive(Debug, Clone, Copy)]
pub struct Fig6 {
    /// Router A (the source).
    pub a: NodeId,
    /// Router B (the destination).
    pub b: NodeId,
    /// Router C.
    pub c: NodeId,
    /// Router D.
    pub d: NodeId,
}

/// The §4 walkthrough: tunnels `l1..l5` (each one direct link) and logical
/// sequences `q1 = (A,C,D)`, `q2 = (A,D,B)`, every reservation 1, demand 1
/// from A to B. Fig. 7's reservation matrix and Fig. 6(b)'s tunnel
/// fractions are computed from this instance in the tests.
///
/// Returns the instance and node handles; tunnels are indexed `l1..l5` in
/// the paper's order (`TunnelId(0)..TunnelId(4)`), LSs `q1, q2` as
/// `LsId(0), LsId(1)`.
pub fn fig6_instance() -> (Instance, Fig6) {
    let mut topo = Topology::new("fig6");
    let a = topo.add_node("A");
    let b = topo.add_node("B");
    let c = topo.add_node("C");
    let d = topo.add_node("D");
    topo.add_link(a, c, 1.0); // l1
    topo.add_link(c, d, 1.0); // l2
    topo.add_link(a, d, 1.0); // l3
    topo.add_link(d, b, 1.0); // l4
    topo.add_link(a, b, 1.0); // l5
    let mut builder = InstanceBuilder::with_demands(&topo, vec![(a, b, 1.0)]).no_auto_tunnels();
    for (u, v) in [(a, c), (c, d), (a, d), (d, b), (a, b)] {
        builder = builder.add_tunnel(path_through(&topo, &[u, v]));
    }
    builder = builder.add_ls(LogicalSequence::always(vec![a, c, d]));
    builder = builder.add_ls(LogicalSequence::always(vec![a, d, b]));
    (builder.build(), Fig6 { a, b, c, d })
}
