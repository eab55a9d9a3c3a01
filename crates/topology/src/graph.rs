//! Capacitated multigraph used throughout the PCF reproduction.
//!
//! The paper models a network as an undirected graph `G = <V, E>` where each
//! link `e` has a capacity `c_e`. Traffic engineering formulations operate on
//! *directed arcs*: every undirected link contributes one arc per direction,
//! and — as is standard for full-duplex WAN links (and as FFC/PCF assume) —
//! each direction independently offers the full link capacity. A link
//! *failure* removes both directions at once.
//!
//! Parallel links are allowed; they are required for the paper's sub-link
//! experiments (§5, Fig. 12) where every physical link is split into two
//! independently-failing sub-links of half capacity.

use std::fmt;

/// Index of a node in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Index of an undirected link in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

/// A directed arc: one direction of an undirected link.
///
/// Arc `2*l` points from `link.u` to `link.v`; arc `2*l + 1` points the other
/// way. Both share the link's failure state but have independent capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl NodeId {
    /// Zero-based index as `usize`, for indexing parallel arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// Zero-based index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The arc traversing this link from its `u` endpoint to its `v` endpoint.
    #[inline]
    pub fn forward(self) -> ArcId {
        ArcId(self.0 * 2)
    }

    /// The arc traversing this link from its `v` endpoint to its `u` endpoint.
    #[inline]
    pub fn backward(self) -> ArcId {
        ArcId(self.0 * 2 + 1)
    }
}

impl ArcId {
    /// Zero-based index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The undirected link this arc belongs to.
    #[inline]
    pub fn link(self) -> LinkId {
        LinkId(self.0 / 2)
    }

    /// Whether this arc runs from the link's `u` endpoint to its `v` endpoint.
    #[inline]
    pub fn is_forward(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// The arc traversing the same link in the opposite direction.
    #[inline]
    pub fn reversed(self) -> ArcId {
        ArcId(self.0 ^ 1)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected capacitated link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Capacity per direction (full duplex), in abstract traffic units.
    pub capacity: f64,
    /// When this link was produced by splitting a physical link into
    /// sub-links (§5, Fig. 12), the original link's id in the parent
    /// topology; `None` for ordinary links.
    pub sublink_of: Option<LinkId>,
}

impl Link {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of the link.
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else if n == self.v {
            self.u
        } else {
            // audit:allow(no-panic-paths, documented contract; callers pass endpoints read from this link's own adjacency)
            panic!("node {n} is not an endpoint of link {self:?}");
        }
    }

    /// Whether `n` is one of the two endpoints.
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.u || n == self.v
    }
}

/// A capacitated multigraph network topology.
///
/// Construction is append-only via [`Topology::add_node`] /
/// [`Topology::add_link`]; adjacency indices are built lazily and cached on
/// first use by cloning into the immutable accessors, so typical usage is
/// build-then-query.
#[derive(Debug, Clone)]
pub struct Topology {
    name: String,
    node_names: Vec<String>,
    links: Vec<Link>,
    /// adjacency[u] = list of (neighbor, link) incident to u, in insertion order.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology with the given display name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            node_names: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
        }
    }

    /// Display name (e.g. the Topology Zoo network name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected link between `u` and `v` with the given per-direction
    /// capacity, and returns its id.
    ///
    /// # Panics
    /// Panics if `u == v` (self loops are meaningless for routing), if either
    /// endpoint is out of range, or if `capacity` is not strictly positive
    /// and finite.
    pub fn add_link(&mut self, u: NodeId, v: NodeId, capacity: f64) -> LinkId {
        assert!(u != v, "self loop at {u} rejected");
        assert!(
            u.index() < self.node_names.len() && v.index() < self.node_names.len(),
            "endpoint out of range"
        );
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive and finite, got {capacity}"
        );
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            u,
            v,
            capacity,
            sublink_of: None,
        });
        self.adjacency[u.index()].push((v, id));
        self.adjacency[v.index()].push((u, id));
        id
    }

    /// Like [`Topology::add_link`] but records the parent physical link of a
    /// sub-link (used by [`crate::transform::split_sublinks`]).
    pub fn add_sublink(&mut self, u: NodeId, v: NodeId, capacity: f64, parent: LinkId) -> LinkId {
        let id = self.add_link(u, v, capacity);
        self.links[id.index()].sublink_of = Some(parent);
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of undirected links (sub-links count individually).
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of directed arcs (`2 * link_count`).
    pub fn arc_count(&self) -> usize {
        self.links.len() * 2
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len() as u32).map(NodeId)
    }

    /// All link ids, in order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// All arc ids, in order.
    pub fn arcs(&self) -> impl Iterator<Item = ArcId> + '_ {
        (0..self.arc_count() as u32).map(ArcId)
    }

    /// All ordered node pairs `(s, t)` with `s != t`.
    pub fn node_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |s| self.nodes().filter(move |&t| t != s).map(move |t| (s, t)))
    }

    /// The label of node `n`.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.node_names[n.index()]
    }

    /// Looks a node up by label.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(|i| NodeId(i as u32))
    }

    /// The link record for `l`.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.index()]
    }

    /// Per-direction capacity of link `l`.
    pub fn capacity(&self, l: LinkId) -> f64 {
        self.links[l.index()].capacity
    }

    /// Sets link `l`'s per-direction capacity (a permanent topology
    /// update — the serving daemon's `rebase` verb re-solves against it).
    pub fn set_capacity(&mut self, l: LinkId, capacity: f64) {
        assert!(capacity.is_finite() && capacity > 0.0);
        self.links[l.index()].capacity = capacity;
    }

    /// Rescales every link capacity by `factor` (used when normalising MLU).
    pub fn scale_capacities(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0);
        for l in &mut self.links {
            l.capacity *= factor;
        }
    }

    /// The node an arc leaves from.
    pub fn arc_src(&self, a: ArcId) -> NodeId {
        let link = self.link(a.link());
        if a.is_forward() {
            link.u
        } else {
            link.v
        }
    }

    /// The node an arc points at.
    pub fn arc_dst(&self, a: ArcId) -> NodeId {
        let link = self.link(a.link());
        if a.is_forward() {
            link.v
        } else {
            link.u
        }
    }

    /// The arc traversing link `l` out of node `from`.
    ///
    /// # Panics
    /// Panics if `from` is not an endpoint of `l`.
    pub fn arc_from(&self, l: LinkId, from: NodeId) -> ArcId {
        let link = self.link(l);
        if from == link.u {
            l.forward()
        } else if from == link.v {
            l.backward()
        } else {
            // audit:allow(no-panic-paths, documented contract; routing callers pass link-node pairs read from this topology's own adjacency)
            panic!("node {from} is not an endpoint of link {l}");
        }
    }

    /// Links incident to `n` (with the opposite endpoint), in insertion order.
    pub fn incident(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.index()]
    }

    /// Degree of `n` counting parallel links individually.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Arcs leaving node `n`.
    pub fn out_arcs(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.adjacency[n.index()]
            .iter()
            .map(move |&(_, l)| self.arc_from(l, n))
    }

    /// Arcs entering node `n`.
    pub fn in_arcs(&self, n: NodeId) -> impl Iterator<Item = ArcId> + '_ {
        self.out_arcs(n).map(ArcId::reversed)
    }

    /// Whether the graph is connected when the links in `dead` (a
    /// `link_count()`-sized mask) are removed. An empty graph is connected.
    pub fn connected_without(&self, dead: &[bool]) -> bool {
        assert_eq!(dead.len(), self.link_count());
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &(w, l) in self.incident(u) {
                if !dead[l.index()] && !seen[w.index()] {
                    seen[w.index()] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }

    /// Whether the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.connected_without(&vec![false; self.link_count()])
    }

    /// All bridge links (links whose individual failure disconnects the
    /// graph), via Tarjan's low-link algorithm. Parallel links are never
    /// bridges.
    pub fn bridges(&self) -> Vec<LinkId> {
        let n = self.node_count();
        let mut disc = vec![usize::MAX; n];
        let mut low = vec![usize::MAX; n];
        let mut bridges = Vec::new();
        let mut timer = 0usize;
        // Iterative DFS to avoid stack overflow on long path graphs.
        // Frame: (node, parent-link, next incident index).
        for root in self.nodes() {
            if disc[root.index()] != usize::MAX {
                continue;
            }
            let mut stack: Vec<(NodeId, Option<LinkId>, usize)> = vec![(root, None, 0)];
            disc[root.index()] = timer;
            low[root.index()] = timer;
            timer += 1;
            while !stack.is_empty() {
                let top = stack.len() - 1;
                let (u, parent, idx) = stack[top];
                let inc = self.incident(u);
                if idx < inc.len() {
                    stack[top].2 += 1;
                    let (w, l) = inc[idx];
                    if Some(l) == parent {
                        continue;
                    }
                    if disc[w.index()] == usize::MAX {
                        disc[w.index()] = timer;
                        low[w.index()] = timer;
                        timer += 1;
                        stack.push((w, Some(l), 0));
                    } else {
                        low[u.index()] = low[u.index()].min(disc[w.index()]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _, _)) = stack.last() {
                        low[p.index()] = low[p.index()].min(low[u.index()]);
                        if low[u.index()] > disc[p.index()] {
                            // audit:allow(no-panic-paths, Tarjan invariant; a frame with a predecessor on the stack was pushed with its entering link)
                            bridges.push(parent.expect("non-root frame has a parent link"));
                        }
                    }
                }
            }
        }
        bridges.sort();
        bridges
    }

    /// Whether the topology stays connected under any single link failure
    /// (i.e. is connected and has no bridges). The paper prunes topologies
    /// until this holds.
    pub fn is_two_edge_connected(&self) -> bool {
        self.is_connected() && self.bridges().is_empty()
    }

    /// Sum of all link capacities (both directions counted once).
    pub fn total_capacity(&self) -> f64 {
        self.links.iter().map(|l| l.capacity).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new("triangle");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b, 1.0);
        t.add_link(b, c, 2.0);
        t.add_link(c, a, 3.0);
        t
    }

    #[test]
    fn arc_link_round_trips() {
        let l = LinkId(7);
        assert_eq!(l.forward().link(), l);
        assert_eq!(l.backward().link(), l);
        assert!(l.forward().is_forward());
        assert!(!l.backward().is_forward());
        assert_eq!(l.forward().reversed(), l.backward());
        assert_eq!(l.backward().reversed(), l.forward());
    }

    #[test]
    fn arc_endpoints() {
        let t = triangle();
        let l = LinkId(0);
        assert_eq!(t.arc_src(l.forward()), NodeId(0));
        assert_eq!(t.arc_dst(l.forward()), NodeId(1));
        assert_eq!(t.arc_src(l.backward()), NodeId(1));
        assert_eq!(t.arc_dst(l.backward()), NodeId(0));
        assert_eq!(t.arc_from(l, NodeId(0)), l.forward());
        assert_eq!(t.arc_from(l, NodeId(1)), l.backward());
    }

    #[test]
    fn adjacency_and_degree() {
        let t = triangle();
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.out_arcs(NodeId(0)).count(), 2);
        let dsts: Vec<_> = t.out_arcs(NodeId(0)).map(|a| t.arc_dst(a)).collect();
        assert!(dsts.contains(&NodeId(1)) && dsts.contains(&NodeId(2)));
        let srcs: Vec<_> = t.in_arcs(NodeId(0)).map(|a| t.arc_src(a)).collect();
        assert!(srcs.contains(&NodeId(1)) && srcs.contains(&NodeId(2)));
    }

    #[test]
    fn node_pairs_are_ordered_and_complete() {
        let t = triangle();
        let pairs: Vec<_> = t.node_pairs().collect();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.contains(&(NodeId(0), NodeId(1))));
        assert!(pairs.contains(&(NodeId(1), NodeId(0))));
        assert!(!pairs.contains(&(NodeId(1), NodeId(1))));
    }

    #[test]
    fn triangle_has_no_bridges() {
        let t = triangle();
        assert!(t.is_connected());
        assert!(t.bridges().is_empty());
        assert!(t.is_two_edge_connected());
    }

    #[test]
    fn path_graph_is_all_bridges() {
        let mut t = Topology::new("path");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l0 = t.add_link(a, b, 1.0);
        let l1 = t.add_link(b, c, 1.0);
        assert_eq!(t.bridges(), vec![l0, l1]);
        assert!(!t.is_two_edge_connected());
    }

    #[test]
    fn parallel_links_are_not_bridges() {
        let mut t = Topology::new("parallel");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 1.0);
        t.add_link(a, b, 1.0);
        assert!(t.bridges().is_empty());
        assert!(t.is_two_edge_connected());
    }

    #[test]
    fn bridge_in_barbell() {
        // Two triangles joined by one link: that link is the unique bridge.
        let mut t = Topology::new("barbell");
        let n: Vec<_> = (0..6).map(|i| t.add_node(format!("n{i}"))).collect();
        t.add_link(n[0], n[1], 1.0);
        t.add_link(n[1], n[2], 1.0);
        t.add_link(n[2], n[0], 1.0);
        t.add_link(n[3], n[4], 1.0);
        t.add_link(n[4], n[5], 1.0);
        t.add_link(n[5], n[3], 1.0);
        let bridge = t.add_link(n[2], n[3], 1.0);
        assert_eq!(t.bridges(), vec![bridge]);
    }

    #[test]
    fn connected_without_respects_mask() {
        let t = triangle();
        assert!(t.connected_without(&[true, false, false]));
        assert!(t.connected_without(&[false, true, false]));
        assert!(!t.connected_without(&[true, true, false]));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut t = Topology::new("two islands");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_node("c");
        t.add_link(a, b, 1.0);
        assert!(!t.is_connected());
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let mut t = Topology::new("x");
        let a = t.add_node("a");
        t.add_link(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn non_positive_capacity_rejected() {
        let mut t = Topology::new("x");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 0.0);
    }

    #[test]
    fn scale_capacities_scales_all() {
        let mut t = triangle();
        t.scale_capacities(2.0);
        assert_eq!(t.capacity(LinkId(0)), 2.0);
        assert_eq!(t.capacity(LinkId(2)), 6.0);
        assert_eq!(t.total_capacity(), 12.0);
    }

    #[test]
    fn node_lookup_by_name() {
        let t = triangle();
        assert_eq!(t.node_by_name("b"), Some(NodeId(1)));
        assert_eq!(t.node_by_name("zzz"), None);
        assert_eq!(t.node_name(NodeId(2)), "c");
    }
}
