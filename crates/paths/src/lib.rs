//! Path algorithms for the PCF reproduction.
//!
//! Provides the machinery the paper's evaluation setup needs:
//!
//! * [`shortest_path`] — hop-count Dijkstra with a dead-link mask;
//! * [`yen_k_shortest`] — Yen's algorithm for the k shortest simple paths,
//!   used as the candidate pool for tunnel selection;
//! * [`select_tunnels`] — the paper's tunnel choice rule: "as disjoint as
//!   possible, preferring shorter ones when there are multiple choices" (§5);
//! * [`widest_path`] — maximum-bottleneck path over an arbitrary weighted
//!   digraph, used to decompose logical flows into logical sequences (§3.5).
//!
//! **One workspace per loop over pairs.** Dijkstra, Yen, the disjoint-pair
//! search and tunnel selection run in a [`PathWorkspace`]: distances,
//! predecessors and heap, the dead-link mask, Yen's found and candidate
//! paths (back to back in one arena rather than one allocation per path),
//! the selection pool and link usage, and the residual graph of the
//! disjoint-pair search. An instance build keeps one across its pairs, so
//! selecting three tunnels for a pair allocates only the three paths it
//! returns. The free functions are the same methods on a fresh workspace;
//! a used workspace returns exactly what a fresh one does, since every
//! buffer is refilled before it is read.

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

use pcf_topology::{ArcId, LinkId, NodeId, Topology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simple path through a topology: `nodes.len() == links.len() + 1`,
/// `links[i]` connects `nodes[i]` and `nodes[i+1]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed links, in order.
    pub links: Vec<LinkId>,
}

impl Path {
    /// The source node.
    ///
    /// # Panics
    /// Panics on a malformed empty path; every constructor in this crate
    /// produces at least one node.
    #[expect(clippy::expect_used, reason = "constructors yield non-empty paths")]
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path has at least one node")
    }

    /// The destination node.
    ///
    /// # Panics
    /// Panics on a malformed empty path; every constructor in this crate
    /// produces at least one node.
    #[expect(clippy::expect_used, reason = "constructors yield non-empty paths")]
    pub fn dest(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Hop count.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Whether the path has no links (source == dest).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Whether the path uses the given link.
    pub fn uses(&self, l: LinkId) -> bool {
        self.links.contains(&l)
    }

    /// Number of links shared with another path.
    pub fn shared_links(&self, other: &Path) -> usize {
        self.links
            .iter()
            .filter(|l| other.links.contains(l))
            .count()
    }

    /// Whether the path visits each node at most once.
    pub fn is_simple(&self) -> bool {
        let mut seen = self.nodes.clone();
        seen.sort();
        seen.windows(2).all(|w| w[0] != w[1])
    }

    /// Minimum capacity over the path's links.
    pub fn bottleneck(&self, topo: &Topology) -> f64 {
        self.links
            .iter()
            .map(|&l| topo.capacity(l))
            .fold(f64::INFINITY, f64::min)
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on dist (reverse), ties by node id for determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra's labels and heap, refilled by every search.
#[derive(Debug, Default)]
struct Dijkstra {
    /// Per node: distance and predecessor `(node, link)`.
    label: Vec<(f64, Option<(NodeId, LinkId)>)>,
    heap: BinaryHeap<HeapEntry>,
}

impl Dijkstra {
    /// Dijkstra from `s` to `t` (see [`shortest_path_weighted`]); the path,
    /// source first, goes to `nodes` and `links`. Returns whether `t` is
    /// reachable.
    fn run(
        &mut self,
        topo: &Topology,
        (s, t): (NodeId, NodeId),
        weight: impl Fn(LinkId) -> f64,
        dead: Option<&[bool]>,
        (nodes, links): (&mut Vec<NodeId>, &mut Vec<LinkId>),
    ) -> bool {
        let Dijkstra { label, heap } = self;
        label.clear();
        label.resize(topo.node_count(), (f64::INFINITY, None));
        heap.clear();
        label[s.index()].0 = 0.0;
        heap.push(HeapEntry { dist: 0.0, node: s });
        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            if d > label[u.index()].0 {
                continue;
            }
            if u == t {
                break;
            }
            for &(w, l) in topo.incident(u) {
                if let Some(mask) = dead {
                    if mask[l.index()] {
                        continue;
                    }
                }
                let wl = weight(l);
                debug_assert!(wl >= 0.0, "negative link weight");
                let nd = d + wl;
                if nd < label[w.index()].0 - 1e-15 {
                    label[w.index()] = (nd, Some((u, l)));
                    heap.push(HeapEntry { dist: nd, node: w });
                }
            }
        }
        if label[t.index()].0.is_infinite() {
            return false;
        }
        nodes.clear();
        links.clear();
        nodes.push(t);
        let mut cur = t;
        while cur != s {
            // A finite distance implies a recorded predecessor; report no
            // path rather than panic if the invariant is ever broken.
            let Some((p, l)) = label[cur.index()].1 else {
                return false;
            };
            nodes.push(p);
            links.push(l);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        true
    }
}

/// Paths stored back to back in two flat arrays: path `p` is
/// `nodes[spans[p].0..][..=hops]` and `links[spans[p].1..][..hops]`.
#[derive(Debug, Default)]
struct Arena {
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
    /// `(first node, first link, hops)` of each path.
    spans: Vec<(usize, usize, usize)>,
}

impl Arena {
    fn clear(&mut self) {
        self.nodes.clear();
        self.links.clear();
        self.spans.clear();
    }

    /// Stores a path; returns its index.
    fn push(&mut self, nodes: &[NodeId], links: &[LinkId]) -> usize {
        self.spans
            .push((self.nodes.len(), self.links.len(), links.len()));
        self.nodes.extend_from_slice(nodes);
        self.links.extend_from_slice(links);
        self.spans.len() - 1
    }

    fn nodes(&self, p: usize) -> &[NodeId] {
        let (n, _, hops) = self.spans[p];
        &self.nodes[n..=n + hops]
    }

    fn links(&self, p: usize) -> &[LinkId] {
        let (_, l, hops) = self.spans[p];
        &self.links[l..l + hops]
    }

    /// Whether path `p` is the path `(nodes, links)` ([`Path`] equality).
    fn is(&self, p: usize, nodes: &[NodeId], links: &[LinkId]) -> bool {
        self.nodes(p) == nodes && self.links(p) == links
    }

    /// Whether paths `p` and `q` are equal.
    fn same(&self, p: usize, q: usize) -> bool {
        self.is(p, self.nodes(q), self.links(q))
    }

    /// [`Path::shared_links`] of paths `p` and `q`.
    fn shared_links(&self, p: usize, q: usize) -> usize {
        let other = self.links(q);
        self.links(p).iter().filter(|l| other.contains(l)).count()
    }

    fn path(&self, p: usize) -> Path {
        Path {
            nodes: self.nodes(p).to_vec(),
            links: self.links(p).to_vec(),
        }
    }
}

/// Reused storage of this crate's path searches, so that a caller running
/// one search per demand pair pays for its searches, not for setting each
/// one up: Dijkstra's distances, predecessors and heap, Yen's dead-link
/// mask and its found and candidate paths (back to back in one arena, not
/// one allocation per path), the tunnel pool and link usage of
/// [`PathWorkspace::select_tunnels`], and the residual graph of the
/// disjoint-pair search. Every buffer is refilled before it is read, so a
/// search in a used workspace returns what it returns in a fresh one; the
/// free functions ([`shortest_path_weighted`], [`yen_k_shortest`],
/// [`select_tunnels`], [`edge_disjoint_pair`]) are these methods on a fresh
/// workspace.
#[derive(Debug, Default)]
pub struct PathWorkspace {
    dijkstra: Dijkstra,
    /// The path the last search found, source first.
    nodes: Vec<NodeId>,
    links: Vec<LinkId>,
    /// Yen's dead-link mask.
    dead: Vec<bool>,
    /// The candidate being assembled.
    cand_nodes: Vec<NodeId>,
    cand_links: Vec<LinkId>,
    /// Per node, whether the candidate visits it (simplicity check).
    visited: Vec<bool>,
    arena: Arena,
    /// Yen's found and candidate paths, as arena indices.
    found: Vec<usize>,
    candidates: Vec<usize>,
    /// Tunnel selection's pool and choice, as arena indices.
    pool: Vec<usize>,
    chosen: Vec<usize>,
    usage: Vec<usize>,
    /// `(low end, high end, link)` of every link, sorted: parallel links
    /// are adjacent.
    parallel: Vec<(NodeId, NodeId, LinkId)>,
    disjoint: Disjoint,
}

/// The residual graph and walk state of the disjoint-pair search
/// ([`edge_disjoint_pair`]).
#[derive(Debug, Default)]
struct Disjoint {
    arcs: Vec<ResidualArc>,
    /// Per node: Bellman-Ford distance and predecessor arc.
    label: Vec<(f64, Option<ArcId>)>,
    /// The surviving arcs grouped by source node, ascending within a node:
    /// node `u`'s are `out_arcs[out[u].0..out[u].1]`, taken from the end.
    out: Vec<(usize, usize)>,
    out_arcs: Vec<ArcId>,
}

/// One arc of the disjoint-pair search's residual digraph.
#[derive(Debug, Clone, Copy)]
struct ResidualArc {
    /// An arc of the first path, in its direction: unusable.
    removed: bool,
    weight: f64,
    /// Uses by the two paths, opposite traversals cancelled.
    uses: i32,
}

impl PathWorkspace {
    /// [`shortest_path_weighted`] in this workspace; the path is borrowed
    /// from it as `(nodes, links)`, source first.
    fn shortest_path_weighted(
        &mut self,
        topo: &Topology,
        s: NodeId,
        t: NodeId,
        weight: impl Fn(LinkId) -> f64,
        dead: Option<&[bool]>,
    ) -> Option<(&[NodeId], &[LinkId])> {
        let out = (&mut self.nodes, &mut self.links);
        if !self.dijkstra.run(topo, (s, t), weight, dead, out) {
            return None;
        }
        Some((&self.nodes, &self.links))
    }

    /// [`shortest_path`] in this workspace; the path is borrowed from it as
    /// `(nodes, links)`, source first.
    pub fn shortest_path(
        &mut self,
        topo: &Topology,
        s: NodeId,
        t: NodeId,
    ) -> Option<(&[NodeId], &[LinkId])> {
        self.shortest_path_weighted(topo, s, t, |_| 1.0, None)
    }

    /// Yen's `k` shortest paths into `found` (arena indices), the arena
    /// cleared first; see [`yen_k_shortest`].
    fn yen(&mut self, topo: &Topology, s: NodeId, t: NodeId, k: usize) {
        self.arena.clear();
        self.found.clear();
        self.candidates.clear();
        if k == 0 {
            return;
        }
        let out = (&mut self.nodes, &mut self.links);
        if !self.dijkstra.run(topo, (s, t), |_| 1.0, None, out) {
            return;
        }
        let first = self.arena.push(&self.nodes, &self.links);
        self.found.push(first);
        while self.found.len() < k {
            let Some(&last) = self.found.last() else {
                break;
            };
            // Spur from each node of the last found path.
            for i in 0..self.arena.links(last).len() {
                let spur_node = self.arena.nodes(last)[i];
                let root_nodes = &self.arena.nodes(last)[..=i];
                // Mask links that would recreate already-found paths with
                // this root.
                self.dead.clear();
                self.dead.resize(topo.link_count(), false);
                for &p in self.found.iter().chain(&self.candidates) {
                    let nodes = self.arena.nodes(p);
                    if nodes.len() > i && nodes[..=i] == *root_nodes {
                        if let Some(&l) = self.arena.links(p).get(i) {
                            self.dead[l.index()] = true;
                        }
                    }
                }
                // Mask links touching interior root nodes so paths stay
                // simple.
                for &rn in &root_nodes[..i] {
                    for &(_, l) in topo.incident(rn) {
                        self.dead[l.index()] = true;
                    }
                }
                let out = (&mut self.nodes, &mut self.links);
                let dead = Some(self.dead.as_slice());
                if !self.dijkstra.run(topo, (spur_node, t), |_| 1.0, dead, out) {
                    continue;
                }
                self.cand_nodes.clear();
                self.cand_nodes
                    .extend_from_slice(&self.arena.nodes(last)[..=i]);
                self.cand_nodes.extend_from_slice(&self.nodes[1..]);
                self.cand_links.clear();
                self.cand_links
                    .extend_from_slice(&self.arena.links(last)[..i]);
                self.cand_links.extend_from_slice(&self.links);
                if !self.candidate_is_simple(topo) {
                    continue;
                }
                let (nodes, links) = (&self.cand_nodes, &self.cand_links);
                let known = self.found.iter().chain(&self.candidates);
                if !known.clone().any(|&p| self.arena.is(p, nodes, links)) {
                    let cand = self.arena.push(nodes, links);
                    self.candidates.push(cand);
                }
            }
            if self.candidates.is_empty() {
                break;
            }
            // Take shortest candidate; deterministic tie-break on node
            // sequence.
            let arena = &self.arena;
            let Some(best) = self
                .candidates
                .iter()
                .enumerate()
                .min_by(|&(_, &a), &(_, &b)| {
                    let len = |p: usize| arena.links(p).len();
                    len(a)
                        .cmp(&len(b))
                        .then_with(|| arena.nodes(a).cmp(arena.nodes(b)))
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let next = self.candidates.swap_remove(best);
            self.found.push(next);
        }
    }

    /// [`Path::is_simple`] of the candidate being assembled.
    fn candidate_is_simple(&mut self, topo: &Topology) -> bool {
        self.visited.clear();
        self.visited.resize(topo.node_count(), false);
        for &n in &self.cand_nodes {
            if std::mem::replace(&mut self.visited[n.index()], true) {
                return false;
            }
        }
        true
    }

    /// [`select_tunnels`] in this workspace.
    pub fn select_tunnels(&mut self, topo: &Topology, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
        // Parallel links, grouped by unordered endpoint pair: sorted, each
        // group is a run in link order.
        self.parallel.clear();
        self.parallel.extend(topo.links().map(|l| {
            let link = topo.link(l);
            (link.u.min(link.v), link.u.max(link.v), l)
        }));
        self.parallel.sort_unstable();
        let same_ends =
            |a: &(NodeId, NodeId, LinkId), b: &(NodeId, NodeId, LinkId)| (a.0, a.1) == (b.0, b.1);
        let max_par = self
            .parallel
            .chunk_by(same_ends)
            .map(<[_]>::len)
            .max()
            .unwrap_or(1)
            .max(1);
        self.pool.clear();
        if max_par == 1 {
            self.yen(topo, s, t, (4 * k).max(12));
            self.pool.extend_from_slice(&self.found);
            // Guarantee a fully disjoint pair is always on offer (Yen's
            // pool, ordered by length, can miss a long disjoint
            // alternative).
            if let Some((q1, q2)) = self.edge_disjoint_pair_in(topo, s, t) {
                for q in [q1, q2] {
                    if !self.pool.iter().any(|&p| self.arena.same(p, q)) {
                        self.pool.push(q);
                    }
                }
            }
        } else {
            // Collapsed simple graph with the same node ids, one link per
            // group in ascending endpoint order.
            let mut simple = Topology::new("collapsed");
            for n in topo.nodes() {
                simple.add_node(topo.node_name(n).to_string());
            }
            // Each group as `(first, count)` in `parallel`.
            let mut groups: Vec<(usize, usize)> = Vec::new();
            for g in self.parallel.chunk_by(same_ends) {
                let first = groups.last().map_or(0, |&(at, len)| at + len);
                groups.push((first, g.len()));
                simple.add_link(g[0].0, g[0].1, 1.0);
            }
            self.yen(&simple, s, t, (4 * k).max(12));
            let mut routes = std::mem::take(&mut self.found);
            if let Some((q1, q2)) = self.edge_disjoint_pair_in(&simple, s, t) {
                for q in [q1, q2] {
                    if !routes.iter().any(|&p| self.arena.same(p, q)) {
                        routes.push(q);
                    }
                }
            }
            for &route in &routes {
                for v in 0..max_par {
                    self.cand_nodes.clear();
                    self.cand_nodes.extend_from_slice(self.arena.nodes(route));
                    self.cand_links.clear();
                    self.cand_links
                        .extend(self.arena.links(route).iter().map(|cl| {
                            let (first, count) = groups[cl.index()];
                            self.parallel[first + v % count].2
                        }));
                    let (nodes, links) = (&self.cand_nodes, &self.cand_links);
                    if !self.pool.iter().any(|&p| self.arena.is(p, nodes, links)) {
                        let cand = self.arena.push(nodes, links);
                        self.pool.push(cand);
                    }
                }
            }
            self.found = routes;
        }
        self.chosen.clear();
        self.usage.clear();
        self.usage.resize(topo.link_count(), 0);
        // Seed with a minimum-total-length disjoint pair (when k >= 2 and
        // one exists): disjointness dominates the selection criteria, and a
        // greedy start from the single shortest path can make a disjoint
        // second tunnel impossible (the classic "trap" topology).
        if k >= 2 {
            for &cand in &self.pool {
                let seeded = self.chosen.len();
                if seeded == 0
                    || (seeded == 1 && self.arena.shared_links(cand, self.chosen[0]) == 0)
                {
                    self.chosen.push(cand);
                }
                if self.chosen.len() == 2 {
                    break;
                }
            }
            if self.chosen.len() < 2 {
                self.chosen.clear();
                if let Some((q1, q2)) = self.edge_disjoint_pair_in(topo, s, t) {
                    let len = |q: usize| self.arena.links(q).len();
                    let (short, long) = if len(q1) <= len(q2) {
                        (q1, q2)
                    } else {
                        (q2, q1)
                    };
                    self.chosen.extend([short, long]);
                }
            }
            for &path in &self.chosen {
                for l in self.arena.links(path) {
                    self.usage[l.index()] += 1;
                }
            }
        }
        while self.chosen.len() < k {
            let mut best: Option<(usize, (usize, usize, usize, usize))> = None;
            for (idx, &cand) in self.pool.iter().enumerate() {
                if self.chosen.iter().any(|&c| self.arena.same(c, cand)) {
                    continue;
                }
                let links = self.arena.links(cand);
                let usage = &self.usage;
                let max_overlap = links
                    .iter()
                    .map(|l| usage[l.index()] + 1)
                    .max()
                    .unwrap_or(1);
                let shared: usize = links.iter().map(|l| usage[l.index()]).sum();
                let key = (max_overlap, shared, links.len(), idx);
                if best.is_none_or(|(_, bk)| key < bk) {
                    best = Some((idx, key));
                }
            }
            let Some((idx, _)) = best else { break };
            let pick = self.pool[idx];
            for l in self.arena.links(pick) {
                self.usage[l.index()] += 1;
            }
            self.chosen.push(pick);
        }
        self.chosen.iter().map(|&c| self.arena.path(c)).collect()
    }

    /// [`edge_disjoint_pair`] in this workspace: the two paths are pushed
    /// onto the arena and returned as its indices.
    fn edge_disjoint_pair_in(
        &mut self,
        topo: &Topology,
        s: NodeId,
        t: NodeId,
    ) -> Option<(usize, usize)> {
        let out = (&mut self.nodes, &mut self.links);
        if !self.dijkstra.run(topo, (s, t), |_| 1.0, None, out) {
            return None;
        }
        let (p1_nodes, p1_links) = (&self.nodes, &self.links);
        let Disjoint {
            arcs,
            label,
            out,
            out_arcs,
        } = &mut self.disjoint;
        // Bellman-Ford on the residual digraph: arcs of p1 (in its
        // direction) are removed; their reverses get weight -1; all other
        // arcs weight +1.
        let n = topo.node_count();
        let fresh = ResidualArc {
            removed: false,
            weight: 1.0,
            uses: 0,
        };
        arcs.clear();
        arcs.resize(topo.arc_count(), fresh);
        for (i, &l) in p1_links.iter().enumerate() {
            let fwd = topo.arc_from(l, p1_nodes[i]);
            arcs[fwd.index()].removed = true;
            arcs[fwd.reversed().index()].weight = -1.0;
        }
        label.clear();
        label.resize(n, (f64::INFINITY, None));
        label[s.index()].0 = 0.0;
        for _ in 0..n {
            let mut changed = false;
            for arc in topo.arcs() {
                if arcs[arc.index()].removed {
                    continue;
                }
                let u = topo.arc_src(arc);
                let v = topo.arc_dst(arc);
                if label[u.index()].0.is_finite() {
                    let nd = label[u.index()].0 + arcs[arc.index()].weight;
                    if nd < label[v.index()].0 - 1e-12 {
                        label[v.index()] = (nd, Some(arc));
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        if !label[t.index()].0.is_finite() {
            return None;
        }
        // Arc multiset of both paths, canceling opposite traversals.
        for (i, &l) in p1_links.iter().enumerate() {
            let fwd = topo.arc_from(l, p1_nodes[i]);
            arcs[fwd.index()].uses += 1;
        }
        let mut cur = t;
        let mut guard = 0;
        while cur != s {
            guard += 1;
            if guard > topo.arc_count() + 1 {
                return None; // negative-cycle guard (cannot happen with simple p1)
            }
            let arc = label[cur.index()].1?;
            let rev = arc.reversed();
            if arcs[rev.index()].uses > 0 {
                arcs[rev.index()].uses -= 1; // cancel the reverse arc
            } else {
                arcs[arc.index()].uses += 1;
            }
            cur = topo.arc_src(arc);
        }
        // The surviving arcs by source node, in ascending arc order: the
        // walks below take each node's from the end.
        let uses = |arc: ArcId| arcs[arc.index()].uses.max(0) as usize;
        out.clear();
        out.resize(n, (0, 0));
        for arc in topo.arcs() {
            out[topo.arc_src(arc).index()].1 += uses(arc);
        }
        let mut at = 0;
        for range in out.iter_mut() {
            let count = range.1;
            *range = (at, at);
            at += count;
        }
        out_arcs.clear();
        out_arcs.resize(at, ArcId(0));
        for arc in topo.arcs() {
            let u = topo.arc_src(arc).index();
            for _ in 0..uses(arc) {
                out_arcs[out[u].1] = arc;
                out[u].1 += 1;
            }
        }
        // Walk two arc-disjoint s->t paths through the surviving arc set.
        let (nodes, links) = (&mut self.cand_nodes, &mut self.cand_links);
        let mut walk = |arena: &mut Arena| -> Option<usize> {
            nodes.clear();
            links.clear();
            nodes.push(s);
            let mut cur = s;
            let mut steps = 0;
            while cur != t {
                steps += 1;
                if steps > topo.arc_count() + 1 {
                    return None;
                }
                let range = &mut out[cur.index()];
                if range.1 == range.0 {
                    return None;
                }
                range.1 -= 1;
                let arc = out_arcs[range.1];
                links.push(arc.link());
                cur = topo.arc_dst(arc);
                // Strip any incidental loop so tunnels stay simple paths.
                if let Some(pos) = nodes.iter().position(|&n| n == cur) {
                    nodes.truncate(pos + 1);
                    links.truncate(pos);
                } else {
                    nodes.push(cur);
                }
            }
            Some(arena.push(nodes, links))
        };
        let q1 = walk(&mut self.arena)?;
        let q2 = walk(&mut self.arena)?;
        debug_assert_eq!(
            self.arena.shared_links(q1, q2),
            0,
            "Bhandari paths must be disjoint"
        );
        Some((q1, q2))
    }
}

/// Dijkstra from `s` to `t` with per-link weights and a dead-link mask.
///
/// `weight(l)` must be non-negative; `dead[l]` (if provided) removes links.
/// Ties are broken deterministically toward smaller node ids. Returns `None`
/// when `t` is unreachable.
pub fn shortest_path_weighted(
    topo: &Topology,
    s: NodeId,
    t: NodeId,
    weight: impl Fn(LinkId) -> f64,
    dead: Option<&[bool]>,
) -> Option<Path> {
    let mut ws = PathWorkspace::default();
    ws.shortest_path_weighted(topo, s, t, weight, dead)?;
    Some(Path {
        nodes: ws.nodes,
        links: ws.links,
    })
}

/// Hop-count shortest path (all links weight 1).
pub fn shortest_path(topo: &Topology, s: NodeId, t: NodeId) -> Option<Path> {
    shortest_path_weighted(topo, s, t, |_| 1.0, None)
}

/// Yen's algorithm: the `k` shortest simple paths from `s` to `t` by hop
/// count, in non-decreasing length, deterministic tie order.
///
/// Returns fewer than `k` paths when the graph does not contain that many
/// simple paths.
pub fn yen_k_shortest(topo: &Topology, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    let mut ws = PathWorkspace::default();
    ws.yen(topo, s, t, k);
    ws.found.iter().map(|&p| ws.arena.path(p)).collect()
}

/// Selects `k` tunnels between `s` and `t` following the paper's rule:
/// tunnels "as disjoint as possible, preferring shorter ones when there are
/// multiple choices".
///
/// Candidates are generated on the *collapsed* graph (parallel links merged)
/// so that multigraphs — in particular the paper's sub-link topologies —
/// contribute one candidate per node route; each route is then expanded into
/// parallel-link variants where variant `v` consistently takes the `v`-th
/// parallel link of every hop, which makes variants mutually link-disjoint
/// wherever parallelism allows. Greedy selection then minimizes, in order,
/// (1) the maximum per-link overlap the selection would create (the quantity
/// that drives FFC's `p_st`), (2) total links shared with already selected
/// tunnels, (3) hop length, (4) discovery order.
///
/// One call in a fresh [`PathWorkspace`]; a caller selecting for many pairs
/// keeps one and calls [`PathWorkspace::select_tunnels`].
pub fn select_tunnels(topo: &Topology, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    PathWorkspace::default().select_tunnels(topo, s, t, k)
}

/// Shortest pair of edge-disjoint paths between `s` and `t` (Bhandari's
/// algorithm), or `None` when the pair is separated by a bridge.
///
/// Guarantees the paper's evaluation premise that "any node pair has at
/// least two disjoint physical tunnels" on 2-edge-connected topologies even
/// when the k-shortest pool alone would miss the (possibly much longer)
/// disjoint alternative.
pub fn edge_disjoint_pair(topo: &Topology, s: NodeId, t: NodeId) -> Option<(Path, Path)> {
    let mut ws = PathWorkspace::default();
    let (q1, q2) = ws.edge_disjoint_pair_in(topo, s, t)?;
    Some((ws.arena.path(q1), ws.arena.path(q2)))
}

/// Maximum-bottleneck (widest) path on an arbitrary weighted digraph given
/// as `(from, to, width)` edges over `n` nodes. Returns the node sequence
/// and achieved bottleneck width, or `None` if `t` is unreachable from `s`.
///
/// Used to decompose a logical flow into a logical sequence (paper §3.5):
/// nodes are routers, edge widths are the flow `p_w(i,j)` on each logical
/// segment.
pub fn widest_path(
    n: usize,
    edges: &[(usize, usize, f64)],
    s: usize,
    t: usize,
) -> Option<(Vec<usize>, f64)> {
    assert!(s < n && t < n);
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for &(u, v, w) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        if w > 0.0 {
            adj[u].push((v, w));
        }
    }
    if s == t {
        return Some((vec![s], f64::INFINITY));
    }
    let mut width = vec![0.0f64; n];
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    width[s] = f64::INFINITY;
    loop {
        // Pick unvisited node of maximum width (deterministic tie-break).
        let mut u = None;
        let mut best = 0.0;
        for i in 0..n {
            if !visited[i] && width[i] > best {
                best = width[i];
                u = Some(i);
            }
        }
        let Some(u) = u else { break };
        if u == t {
            break;
        }
        visited[u] = true;
        for &(v, w) in &adj[u] {
            let nw = width[u].min(w);
            if nw > width[v] {
                width[v] = nw;
                prev[v] = Some(u);
            }
        }
    }
    if width[t] <= 0.0 {
        return None;
    }
    let mut nodes = vec![t];
    let mut cur = t;
    while cur != s {
        // Positive width implies a recorded predecessor; bail out rather
        // than panic if the invariant is ever broken.
        let p = prev[cur]?;
        cur = p;
        nodes.push(cur);
    }
    nodes.reverse();
    Some((nodes, width[t]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    /// 2x3 grid: 0-1-2 / 3-4-5 with verticals.
    fn grid() -> Topology {
        let mut t = Topology::new("grid");
        let n: Vec<_> = (0..6).map(|i| t.add_node(format!("n{i}"))).collect();
        t.add_link(n[0], n[1], 1.0); // e0
        t.add_link(n[1], n[2], 1.0); // e1
        t.add_link(n[3], n[4], 1.0); // e2
        t.add_link(n[4], n[5], 1.0); // e3
        t.add_link(n[0], n[3], 1.0); // e4
        t.add_link(n[1], n[4], 1.0); // e5
        t.add_link(n[2], n[5], 1.0); // e6
        t
    }

    #[test]
    fn shortest_path_prefers_fewest_hops() {
        let t = grid();
        let p = shortest_path(&t, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.dest(), NodeId(2));
        assert!(p.is_simple());
    }

    #[test]
    fn shortest_path_respects_dead_links() {
        let t = grid();
        let mut dead = vec![false; t.link_count()];
        dead[0] = true; // kill 0-1
        let p = shortest_path_weighted(&t, NodeId(0), NodeId(2), |_| 1.0, Some(&dead)).unwrap();
        assert!(!p.uses(LinkId(0)));
        assert_eq!(p.len(), 4); // 0-3-4-5-2 or 0-3-4-1-2
    }

    #[test]
    fn shortest_path_unreachable_is_none() {
        let mut t = Topology::new("split");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let d = t.add_node("d");
        t.add_link(a, b, 1.0);
        t.add_link(c, d, 1.0);
        assert!(shortest_path(&t, a, c).is_none());
    }

    #[test]
    fn weighted_dijkstra_uses_weights() {
        let t = grid();
        let p = shortest_path_weighted(
            &t,
            NodeId(0),
            NodeId(2),
            |l| if l == LinkId(1) { 10.0 } else { 1.0 },
            None,
        )
        .unwrap();
        assert!(!p.uses(LinkId(1)));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn yen_returns_increasing_lengths_and_simple_paths() {
        let t = grid();
        let ps = yen_k_shortest(&t, NodeId(0), NodeId(5), 6);
        assert!(ps.len() >= 3);
        for w in ps.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        for p in &ps {
            assert!(p.is_simple());
            assert_eq!(p.source(), NodeId(0));
            assert_eq!(p.dest(), NodeId(5));
        }
        for i in 0..ps.len() {
            for j in (i + 1)..ps.len() {
                assert_ne!(ps[i], ps[j]);
            }
        }
    }

    #[test]
    fn yen_finds_all_paths_in_small_graph() {
        // Triangle: exactly 2 simple paths between any pair.
        let mut t = Topology::new("tri");
        let n: Vec<_> = (0..3).map(|i| t.add_node(format!("n{i}"))).collect();
        t.add_link(n[0], n[1], 1.0);
        t.add_link(n[1], n[2], 1.0);
        t.add_link(n[2], n[0], 1.0);
        let ps = yen_k_shortest(&t, n[0], n[1], 10);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn yen_returns_at_most_k_paths() {
        let t = grid();
        assert!(yen_k_shortest(&t, NodeId(0), NodeId(5), 0).is_empty());
        let one = yen_k_shortest(&t, NodeId(0), NodeId(5), 1);
        assert_eq!(one, vec![shortest_path(&t, NodeId(0), NodeId(5)).unwrap()]);
    }

    #[test]
    fn yen_handles_parallel_links() {
        let mut t = Topology::new("par");
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_link(a, b, 1.0);
        t.add_link(a, b, 1.0);
        let ps = yen_k_shortest(&t, a, b, 5);
        assert_eq!(ps.len(), 2, "two parallel one-hop paths");
        assert_ne!(ps[0].links, ps[1].links);
    }

    #[test]
    fn tunnel_selection_prefers_disjoint() {
        let t = grid();
        let tunnels = select_tunnels(&t, NodeId(0), NodeId(2), 2);
        assert_eq!(tunnels.len(), 2);
        assert_eq!(tunnels[0].shared_links(&tunnels[1]), 0);
    }

    #[test]
    fn tunnel_selection_on_zoo_has_two_disjoint() {
        // Paper: "With all our topologies, any node pair has at least two
        // disjoint physical tunnels." Spot-check a few pairs.
        let t = zoo::build("Sprint");
        for (s, d) in [(0u32, 5u32), (2, 7), (1, 9)] {
            let tunnels = select_tunnels(&t, NodeId(s), NodeId(d), 2);
            assert_eq!(tunnels.len(), 2);
            assert_eq!(
                tunnels[0].shared_links(&tunnels[1]),
                0,
                "pair ({s},{d}) should have 2 disjoint tunnels"
            );
        }
    }

    #[test]
    fn tunnel_selection_three_tunnels_bounded_overlap() {
        let t = zoo::build("Sprint");
        let tunnels = select_tunnels(&t, NodeId(0), NodeId(5), 3);
        assert_eq!(tunnels.len(), 3);
        let mut usage = std::collections::BTreeMap::new();
        for p in &tunnels {
            for l in &p.links {
                *usage.entry(*l).or_insert(0usize) += 1;
            }
        }
        let p_st = usage.values().copied().max().unwrap();
        assert!(p_st <= 2, "selection should keep overlap low, got {p_st}");
    }

    #[test]
    fn widest_path_picks_max_bottleneck() {
        // 0->1->3 widths (5, 2); 0->2->3 widths (3, 3). Widest = 3 via node 2.
        let edges = [(0, 1, 5.0), (1, 3, 2.0), (0, 2, 3.0), (2, 3, 3.0)];
        let (nodes, w) = widest_path(4, &edges, 0, 3).unwrap();
        assert_eq!(nodes, vec![0, 2, 3]);
        assert!((w - 3.0).abs() < 1e-12);
    }

    #[test]
    fn widest_path_unreachable() {
        let edges = [(0, 1, 1.0)];
        assert!(widest_path(3, &edges, 0, 2).is_none());
    }

    #[test]
    fn widest_path_trivial_source_equals_dest() {
        let (nodes, w) = widest_path(2, &[], 1, 1).unwrap();
        assert_eq!(nodes, vec![1]);
        assert!(w.is_infinite());
    }

    #[test]
    fn path_bottleneck_uses_capacities() {
        let t = grid();
        let p = shortest_path(&t, NodeId(0), NodeId(2)).unwrap();
        assert_eq!(p.bottleneck(&t), 1.0);
    }
}

#[cfg(test)]
mod bhandari_tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn disjoint_pair_on_every_zoo_pair() {
        // 2-edge-connected topologies always admit a disjoint pair; verify
        // across a sample of pairs on several networks.
        for name in ["Sprint", "IBM", "B4", "Darkstrand", "CWIX"] {
            let t = zoo::build(name);
            for s in t.nodes().step_by(3) {
                for d in t.nodes().step_by(4) {
                    if s == d {
                        continue;
                    }
                    let (q1, q2) = edge_disjoint_pair(&t, s, d)
                        .unwrap_or_else(|| panic!("{name}: no disjoint pair {s}->{d}"));
                    assert_eq!(q1.shared_links(&q2), 0);
                    assert_eq!(q1.source(), s);
                    assert_eq!(q2.dest(), d);
                    assert!(q1.is_simple() && q2.is_simple());
                }
            }
        }
    }

    #[test]
    fn disjoint_pair_none_across_bridge() {
        let mut t = Topology::new("bridge");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b, 1.0);
        t.add_link(b, c, 1.0);
        assert!(edge_disjoint_pair(&t, a, c).is_none());
    }

    #[test]
    fn selection_always_has_disjoint_pair_on_zoo() {
        // The invariant that broke FFC on IBM: k = 2 tunnels must be fully
        // disjoint on every pair of a 2-edge-connected topology.
        for name in ["IBM", "Darkstrand", "CRLNetwork", "Digex"] {
            let t = zoo::build(name);
            for s in t.nodes().step_by(4) {
                for d in t.nodes().step_by(5) {
                    if s == d {
                        continue;
                    }
                    let ts = select_tunnels(&t, s, d, 2);
                    assert_eq!(ts.len(), 2, "{name} {s}->{d}");
                    assert_eq!(
                        ts[0].shared_links(&ts[1]),
                        0,
                        "{name} {s}->{d}: tunnels share a link"
                    );
                }
            }
        }
    }

    #[test]
    fn bhandari_prefers_short_total_length() {
        // Diamond: the two 2-hop paths.
        let mut t = Topology::new("diamond");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("t");
        t.add_link(s, a, 1.0);
        t.add_link(a, d, 1.0);
        t.add_link(s, b, 1.0);
        t.add_link(b, d, 1.0);
        let (q1, q2) = edge_disjoint_pair(&t, s, d).unwrap();
        assert_eq!(q1.len() + q2.len(), 4);
    }

    #[test]
    fn bhandari_reroutes_through_trap_topology() {
        // The classic "trap": shortest path uses the middle edge, making a
        // naive second-disjoint-path search fail; Bhandari must recover.
        //   s - a - t     s - b - t    and a - b (the trap edge),
        // with the shortest path s-a-b-t (via cheap trap)... emulate with
        // hop counts: s-a, a-b, b-t, plus long arcs s-x-b and a-y-t.
        let mut t = Topology::new("trap");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let tt = t.add_node("t");
        let x = t.add_node("x");
        let y = t.add_node("y");
        t.add_link(s, a, 1.0);
        t.add_link(a, b, 1.0);
        t.add_link(b, tt, 1.0);
        t.add_link(s, x, 1.0);
        t.add_link(x, b, 1.0);
        t.add_link(a, y, 1.0);
        t.add_link(y, tt, 1.0);
        // Shortest path is s-a-b-t (3 hops); the disjoint pair must split
        // into s-a-y-t and s-x-b-t.
        let (q1, q2) = edge_disjoint_pair(&t, s, tt).unwrap();
        assert_eq!(q1.shared_links(&q2), 0);
        assert_eq!(q1.len() + q2.len(), 6);
    }
}
