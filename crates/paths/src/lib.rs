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
    pub fn source(&self) -> NodeId {
        // audit:allow(no-panic-paths, documented contract; all constructors yield non-empty node lists)
        *self.nodes.first().expect("path has at least one node")
    }

    /// The destination node.
    ///
    /// # Panics
    /// Panics on a malformed empty path; every constructor in this crate
    /// produces at least one node.
    pub fn dest(&self) -> NodeId {
        // audit:allow(no-panic-paths, documented contract; all constructors yield non-empty node lists)
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
    let n = topo.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[s.index()] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: s });
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if d > dist[u.index()] {
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
            if nd < dist[w.index()] - 1e-15 {
                dist[w.index()] = nd;
                prev[w.index()] = Some((u, l));
                heap.push(HeapEntry { dist: nd, node: w });
            }
        }
    }
    if dist[t.index()].is_infinite() {
        return None;
    }
    let mut nodes = vec![t];
    let mut links = Vec::new();
    let mut cur = t;
    while cur != s {
        // A finite distance implies a recorded predecessor; bail out rather
        // than panic if the invariant is ever broken.
        let (p, l) = prev[cur.index()]?;
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links })
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
    let mut found: Vec<Path> = Vec::new();
    if k == 0 {
        return found;
    }
    let Some(first) = shortest_path(topo, s, t) else {
        return found;
    };
    found.push(first);
    let mut candidates: Vec<Path> = Vec::new();
    while found.len() < k {
        let Some(last) = found.last().cloned() else {
            break;
        };
        // Spur from each node of the last found path.
        for i in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[i];
            let root_nodes = &last.nodes[..=i];
            let root_links = &last.links[..i];
            // Mask links that would recreate already-found paths with this root.
            let mut dead = vec![false; topo.link_count()];
            for p in found.iter().chain(candidates.iter()) {
                if p.nodes.len() > i && p.nodes[..=i] == *root_nodes {
                    if let Some(&l) = p.links.get(i) {
                        dead[l.index()] = true;
                    }
                }
            }
            // Mask links touching interior root nodes so paths stay simple.
            for &rn in &root_nodes[..i] {
                for &(_, l) in topo.incident(rn) {
                    dead[l.index()] = true;
                }
            }
            let Some(spur) = shortest_path_weighted(topo, spur_node, t, |_| 1.0, Some(&dead))
            else {
                continue;
            };
            let mut nodes = root_nodes.to_vec();
            nodes.extend_from_slice(&spur.nodes[1..]);
            let mut links = root_links.to_vec();
            links.extend_from_slice(&spur.links);
            let cand = Path { nodes, links };
            if !cand.is_simple() {
                continue;
            }
            if !found.contains(&cand) && !candidates.contains(&cand) {
                candidates.push(cand);
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take shortest candidate; deterministic tie-break on node sequence.
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.len().cmp(&b.len()).then_with(|| a.nodes.cmp(&b.nodes)))
            .map(|(i, _)| i)
        else {
            break;
        };
        found.push(candidates.swap_remove(best));
    }
    found
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
pub fn select_tunnels(topo: &Topology, s: NodeId, t: NodeId, k: usize) -> Vec<Path> {
    // Group parallel links by unordered endpoint pair.
    let mut groups: std::collections::BTreeMap<(NodeId, NodeId), Vec<LinkId>> =
        std::collections::BTreeMap::new();
    let mut max_par = 1usize;
    for l in topo.links() {
        let link = topo.link(l);
        let key = (link.u.min(link.v), link.u.max(link.v));
        let g = groups.entry(key).or_default();
        g.push(l);
        max_par = max_par.max(g.len());
    }
    let pool: Vec<Path> = if max_par == 1 {
        let mut pool = yen_k_shortest(topo, s, t, (4 * k).max(12));
        // Guarantee a fully disjoint pair is always on offer (Yen's pool,
        // ordered by length, can miss a long disjoint alternative).
        if let Some((q1, q2)) = edge_disjoint_pair(topo, s, t) {
            for q in [q1, q2] {
                if !pool.contains(&q) {
                    pool.push(q);
                }
            }
        }
        pool
    } else {
        // Collapsed simple graph with the same node ids.
        let mut simple = Topology::new("collapsed");
        for n in topo.nodes() {
            simple.add_node(topo.node_name(n).to_string());
        }
        // Deterministic order over groups.
        let mut keys: Vec<(NodeId, NodeId)> = groups.keys().copied().collect();
        keys.sort();
        let mut group_of: Vec<&Vec<LinkId>> = Vec::new();
        for key in &keys {
            simple.add_link(key.0, key.1, 1.0);
            group_of.push(&groups[key]);
        }
        let mut routes = yen_k_shortest(&simple, s, t, (4 * k).max(12));
        if let Some((q1, q2)) = edge_disjoint_pair(&simple, s, t) {
            for q in [q1, q2] {
                if !routes.contains(&q) {
                    routes.push(q);
                }
            }
        }
        let mut pool = Vec::new();
        for route in routes {
            for v in 0..max_par {
                let links: Vec<LinkId> = route
                    .links
                    .iter()
                    .map(|cl| {
                        let g = group_of[cl.index()];
                        g[v % g.len()]
                    })
                    .collect();
                let cand = Path {
                    nodes: route.nodes.clone(),
                    links,
                };
                if !pool.contains(&cand) {
                    pool.push(cand);
                }
            }
        }
        pool
    };
    let mut chosen: Vec<Path> = Vec::new();
    let mut usage = vec![0usize; topo.link_count()];
    // Seed with a minimum-total-length disjoint pair (when k >= 2 and one
    // exists): disjointness dominates the selection criteria, and a greedy
    // start from the single shortest path can make a disjoint second tunnel
    // impossible (the classic "trap" topology).
    if k >= 2 {
        let mut seed: Vec<Path> = Vec::new();
        for cand in &pool {
            if seed.is_empty() || (seed.len() == 1 && cand.shared_links(&seed[0]) == 0) {
                seed.push(cand.clone());
            }
            if seed.len() == 2 {
                break;
            }
        }
        if seed.len() < 2 {
            seed.clear();
            if let Some((q1, q2)) = edge_disjoint_pair(topo, s, t) {
                let (short, long) = if q1.len() <= q2.len() {
                    (q1, q2)
                } else {
                    (q2, q1)
                };
                seed.push(short);
                seed.push(long);
            }
        }
        for path in seed {
            for l in &path.links {
                usage[l.index()] += 1;
            }
            chosen.push(path);
        }
    }
    while chosen.len() < k {
        let mut best: Option<(usize, (usize, usize, usize, usize))> = None;
        for (idx, cand) in pool.iter().enumerate() {
            if chosen.contains(cand) {
                continue;
            }
            let max_overlap = cand
                .links
                .iter()
                .map(|l| usage[l.index()] + 1)
                .max()
                .unwrap_or(1);
            let shared: usize = cand.links.iter().map(|l| usage[l.index()]).sum();
            let key = (max_overlap, shared, cand.len(), idx);
            if best.is_none_or(|(_, bk)| key < bk) {
                best = Some((idx, key));
            }
        }
        let Some((idx, _)) = best else { break };
        for l in &pool[idx].links {
            usage[l.index()] += 1;
        }
        chosen.push(pool[idx].clone());
    }
    chosen
}

/// Shortest pair of edge-disjoint paths between `s` and `t` (Bhandari's
/// algorithm), or `None` when the pair is separated by a bridge.
///
/// Guarantees the paper's evaluation premise that "any node pair has at
/// least two disjoint physical tunnels" on 2-edge-connected topologies even
/// when the k-shortest pool alone would miss the (possibly much longer)
/// disjoint alternative.
pub fn edge_disjoint_pair(topo: &Topology, s: NodeId, t: NodeId) -> Option<(Path, Path)> {
    let p1 = shortest_path(topo, s, t)?;
    // Bellman-Ford on the residual digraph: arcs of p1 (in its direction)
    // are removed; their reverses get weight -1; all other arcs weight +1.
    let n = topo.node_count();
    let mut removed = vec![false; topo.arc_count()]; // arc unusable
    let mut weight = vec![1.0f64; topo.arc_count()];
    for (i, &l) in p1.links.iter().enumerate() {
        let fwd = topo.arc_from(l, p1.nodes[i]);
        removed[fwd.index()] = true;
        weight[fwd.reversed().index()] = -1.0;
    }
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<ArcId>> = vec![None; n];
    dist[s.index()] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for arc in topo.arcs() {
            if removed[arc.index()] {
                continue;
            }
            let u = topo.arc_src(arc);
            let v = topo.arc_dst(arc);
            if dist[u.index()].is_finite() {
                let nd = dist[u.index()] + weight[arc.index()];
                if nd < dist[v.index()] - 1e-12 {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(arc);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    if !dist[t.index()].is_finite() {
        return None;
    }
    // Arc multiset of both paths, canceling opposite traversals. Ordered
    // map: iteration fixes the order the walks below try arcs in.
    let mut use_count: std::collections::BTreeMap<u32, i32> = std::collections::BTreeMap::new();
    for (i, &l) in p1.links.iter().enumerate() {
        let fwd = topo.arc_from(l, p1.nodes[i]);
        *use_count.entry(fwd.0).or_insert(0) += 1;
    }
    let mut cur = t;
    let mut guard = 0;
    while cur != s {
        guard += 1;
        if guard > topo.arc_count() + 1 {
            return None; // negative-cycle guard (cannot happen with simple p1)
        }
        let arc = prev[cur.index()]?;
        let rev = arc.reversed();
        match use_count.get_mut(&rev.0) {
            Some(cnt) if *cnt > 0 => *cnt -= 1, // cancel the reverse arc
            _ => *use_count.entry(arc.0).or_insert(0) += 1,
        }
        cur = topo.arc_src(arc);
    }
    // Walk two arc-disjoint s->t paths through the surviving arc set.
    let mut out_arcs: Vec<Vec<ArcId>> = vec![Vec::new(); n];
    for (&arc, &cnt) in &use_count {
        for _ in 0..cnt.max(0) {
            let a = ArcId(arc);
            out_arcs[topo.arc_src(a).index()].push(a);
        }
    }
    let mut walk = || -> Option<Path> {
        let mut nodes = vec![s];
        let mut links = Vec::new();
        let mut cur = s;
        let mut steps = 0;
        while cur != t {
            steps += 1;
            if steps > topo.arc_count() + 1 {
                return None;
            }
            let arc = out_arcs[cur.index()].pop()?;
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
        Some(Path { nodes, links })
    };
    let q1 = walk()?;
    let q2 = walk()?;
    debug_assert_eq!(q1.shared_links(&q2), 0, "Bhandari paths must be disjoint");
    Some((q1, q2))
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
