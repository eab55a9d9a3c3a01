//! Problem instances: a topology, demands, tunnels, and logical sequences.
//!
//! Every PCF/FFC model in this crate operates on an [`Instance`]: the pair
//! set of interest, the physical tunnels `T(s,t)` serving each pair, and the
//! logical sequences `L(s,t)` (paper §3.1, §3.3). The instance also indexes
//! `Q(s,t)` — the logical sequences that use `(s,t)` as a segment — which
//! appears on the right-hand side of the reservation constraints (7).
//!
//! Everything a failure event or a realization reads per pair, tunnel or
//! link is interned at build as flat rows (row starts plus one item
//! vector), so those loops read one slice instead of chasing a `Vec` per
//! row or a [`Path`] per tunnel: `T(s,t)`, `L(s,t)` and `Q(s,t)`; each
//! LS's segments as pair ids ([`Instance::segment_pairs`]); each tunnel's
//! directed arcs in hop order ([`Instance::tunnel_arcs`]); and the two
//! reverse indexes a link event needs — the tunnels crossing a link
//! ([`Instance::tunnels_on_link`]) and the LSs whose condition reads it
//! ([`Instance::lss_on_link`]); and the tunnels crossing each directed arc
//! in the order a realization adds their flows
//! ([`Instance::tunnels_on_arc`]).
//!
//! The pair list and everything indexed by the tunnels alone live in one
//! shared [`TunnelSet`]. Tunnel selection reads only the topology's
//! structure, the pair and `k`, so a re-plan over the same pairs of the
//! same structure takes the previous instance's set back
//! ([`InstanceBuilder::offer_tunnels`]) instead of selecting again.

use crate::failure::Condition;
use pcf_paths::{select_tunnels, Path};
use pcf_rng::Fnv1a;
use pcf_topology::{ArcId, LinkId, NodeId, Topology};
use pcf_traffic::TrafficMatrix;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Index of an ordered node pair within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairId(pub usize);

/// Index of a tunnel within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TunnelId(pub usize);

/// Index of a logical sequence within an [`Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LsId(pub usize);

/// A logical sequence (paper §3.3): traffic from `hops.first()` to
/// `hops.last()` traverses every hop in order; each consecutive hop pair is
/// a *logical segment* served recursively by that pair's tunnels and logical
/// sequences. A conditional LS only guarantees its reservation when
/// `condition` holds (§3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalSequence {
    /// Logical hops, source first, destination last; at least 3 entries
    /// (a 2-hop "sequence" would be its own segment, which is vacuous).
    pub hops: Vec<NodeId>,
    /// Activation condition.
    pub condition: Condition,
}

impl LogicalSequence {
    /// An unconditional LS through the given hops.
    pub fn always(hops: Vec<NodeId>) -> Self {
        LogicalSequence {
            hops,
            condition: Condition::Always,
        }
    }

    /// Source node.
    ///
    /// # Panics
    /// Panics on a malformed hop-less LS; `InstanceBuilder` rejects those.
    #[expect(clippy::expect_used, reason = "InstanceBuilder rejects hop-less LSs")]
    pub fn source(&self) -> NodeId {
        *self.hops.first().expect("LS has hops")
    }

    /// Destination node.
    ///
    /// # Panics
    /// Panics on a malformed hop-less LS; `InstanceBuilder` rejects those.
    #[expect(clippy::expect_used, reason = "InstanceBuilder rejects hop-less LSs")]
    pub fn dest(&self) -> NodeId {
        *self.hops.last().expect("LS has hops")
    }

    /// The ordered segments (consecutive hop pairs).
    pub fn segments(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.hops.windows(2).map(|w| (w[0], w[1]))
    }
}

/// Rows stored flat: row `r` is `items[start[r]..start[r + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Rows<T> {
    /// `rows` rows from `(row, item)` entries: each row holds the items of
    /// its entries in entry order.
    fn from_entries(rows: usize, mut entries: Vec<(usize, T)>) -> Self {
        entries.sort_by_key(|&(r, _)| r); // stable: entry order within a row
        let mut start = vec![0; rows + 1];
        for &(r, _) in &entries {
            start[r + 1] += 1;
        }
        for r in 0..rows {
            start[r + 1] += start[r];
        }
        let mut items = Vec::with_capacity(entries.len());
        items.extend(entries.iter().map(|&(_, item)| item));
        Rows { start, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.start[r]..self.start[r + 1]]
    }
}

/// The pairs of an instance in interning order and everything indexed by
/// its tunnels alone: each tunnel's path, pair and arcs, `T(s,t)`, and the
/// tunnels crossing each link and each arc. An [`Instance`] holds it
/// behind an `Arc`, so the [`CutPool`](crate::CutPool) exported from a
/// solve keeps a second reference to the tunnels its cuts index rather
/// than a copy.
#[derive(Debug)]
pub struct TunnelSet {
    /// The structure stamp the tunnels were selected under; `None` when a
    /// tunnel was given explicitly or selection was off, so that the set
    /// is not what selection returns.
    selected_under: Option<u64>,
    pairs: Vec<(NodeId, NodeId)>,
    paths: Vec<Path>,
    tunnel_pair: Vec<PairId>,
    tunnel_arcs: Rows<ArcId>,
    tunnels_of: Rows<TunnelId>, // T(s,t)
    tunnels_on_link: Rows<TunnelId>,
    /// Tunnel indexes per arc, in expansion order (see
    /// [`Instance::tunnels_on_arc`]).
    tunnels_on_arc: Rows<u32>,
}

impl TunnelSet {
    /// The explicit tunnels, in order, then `select_tunnels(s, t, k)` for
    /// every pair without one when `k` is given.
    fn select(
        topo: &Topology,
        mut pairs: Vec<(NodeId, NodeId)>,
        explicit: Vec<(PairId, Path)>,
        k: Option<usize>,
        selected_under: Option<u64>,
    ) -> TunnelSet {
        let mut has_explicit = vec![false; pairs.len()];
        let (mut tunnel_pair, mut paths): (Vec<PairId>, Vec<Path>) = explicit.into_iter().unzip();
        for p in &tunnel_pair {
            has_explicit[p.0] = true;
        }
        if let Some(k) = k {
            for (pi, &(s, t)) in pairs.iter().enumerate() {
                if has_explicit[pi] {
                    continue;
                }
                for path in select_tunnels(topo, s, t, k) {
                    paths.push(path);
                    tunnel_pair.push(PairId(pi));
                }
            }
        }
        let mut arc_entries = Vec::new();
        let mut link_entries = Vec::new();
        for (l, path) in paths.iter().enumerate() {
            for (hop, &link) in path.links.iter().enumerate() {
                arc_entries.push((l, topo.arc_from(link, path.nodes[hop])));
                link_entries.push((link.index(), TunnelId(l)));
            }
        }
        let tunnel_arcs = Rows::from_entries(paths.len(), arc_entries);
        let tunnels_of = Rows::from_entries(
            pairs.len(),
            (tunnel_pair.iter().enumerate())
                .map(|(l, p)| (p.0, TunnelId(l)))
                .collect(),
        );
        // Pairs ascending, each pair's tunnels, hops in path order — not
        // tunnel order, which lists the explicit tunnels first.
        let mut arc_entries = Vec::with_capacity(tunnel_arcs.items.len());
        for p in 0..pairs.len() {
            for &l in tunnels_of.row(p) {
                for arc in tunnel_arcs.row(l.0) {
                    arc_entries.push((arc.index(), l.0 as u32));
                }
            }
        }
        // The set lives as long as the plans sharing it: keep no push slack.
        pairs.shrink_to_fit();
        paths.shrink_to_fit();
        tunnel_pair.shrink_to_fit();
        TunnelSet {
            selected_under,
            tunnel_arcs,
            tunnels_of,
            tunnels_on_link: Rows::from_entries(topo.link_count(), link_entries),
            tunnels_on_arc: Rows::from_entries(topo.arc_count(), arc_entries),
            pairs,
            paths,
            tunnel_pair,
        }
    }
}

/// What [`select_tunnels`] reads of a build besides the pair: FNV over the
/// node count, each link's endpoints in link order, and `k`. Capacities,
/// demands and names do not enter it.
fn structure_stamp(topo: &Topology, k: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(topo.node_count() as u64);
    for l in topo.links() {
        let link = topo.link(l);
        h.write_u64(u64::from(link.u.0));
        h.write_u64(u64::from(link.v.0));
    }
    h.write_u64(k as u64);
    h.finish()
}

/// A fully indexed problem instance. Build with [`InstanceBuilder`].
#[derive(Debug, Clone)]
pub struct Instance {
    topo: Topology,
    tunnels: Arc<TunnelSet>,
    pair_index: BTreeMap<(NodeId, NodeId), PairId>,
    demand: Vec<f64>,
    lss: Vec<LogicalSequence>,
    ls_pair: Vec<PairId>,
    lss_of: Rows<LsId>,      // L(s,t)
    segments_of: Rows<LsId>, // Q(s,t)
    seg_pairs: Rows<PairId>,
    lss_on_link: Rows<LsId>,
    /// `1.0` per pair: the served fractions of every stage-1 routing,
    /// shared rather than built per realization.
    full_service: Arc<[f64]>,
}

impl Instance {
    /// The topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The pairs and tunnels, shared with every instance and
    /// [`CutPool`](crate::CutPool) that took them from this one.
    pub fn tunnel_set(&self) -> &Arc<TunnelSet> {
        &self.tunnels
    }

    /// Number of pairs of interest.
    pub fn num_pairs(&self) -> usize {
        self.tunnels.pairs.len()
    }

    /// Number of tunnels across all pairs.
    pub fn num_tunnels(&self) -> usize {
        self.tunnels.paths.len()
    }

    /// Number of logical sequences.
    pub fn num_lss(&self) -> usize {
        self.lss.len()
    }

    /// All pair ids.
    pub fn pair_ids(&self) -> impl Iterator<Item = PairId> {
        (0..self.num_pairs()).map(PairId)
    }

    /// The `(source, dest)` nodes of a pair.
    pub fn pair(&self, p: PairId) -> (NodeId, NodeId) {
        self.tunnels.pairs[p.0]
    }

    /// Looks up the pair id for `(s, t)`, if it is a pair of interest.
    pub fn pair_id(&self, s: NodeId, t: NodeId) -> Option<PairId> {
        self.pair_index.get(&(s, t)).copied()
    }

    /// Demand of a pair (zero for pure segment pairs).
    pub fn demand(&self, p: PairId) -> f64 {
        self.demand[p.0]
    }

    /// Total demand over all pairs.
    pub fn total_demand(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Tunnel ids of `T(s,t)`.
    pub fn tunnels_of(&self, p: PairId) -> &[TunnelId] {
        self.tunnels.tunnels_of.row(p.0)
    }

    /// The path of tunnel `l`.
    pub fn tunnel(&self, l: TunnelId) -> &Path {
        &self.tunnels.paths[l.0]
    }

    /// The directed arcs tunnel `l` traverses, in hop order (`arc_from`
    /// over `self.tunnel(l)`'s hops, interned at build).
    pub fn tunnel_arcs(&self, l: TunnelId) -> &[ArcId] {
        self.tunnels.tunnel_arcs.row(l.0)
    }

    /// The tunnels that cross link `e` (a tunnel crossing it twice is
    /// listed twice), in tunnel order.
    pub fn tunnels_on_link(&self, e: LinkId) -> &[TunnelId] {
        self.tunnels.tunnels_on_link.row(e.index())
    }

    /// The tunnels that cross arc `arc` as `TunnelId` indexes (a tunnel
    /// crossing it twice is listed twice), in the order a realization adds
    /// their flows into the arc's load: pairs ascending, each pair's
    /// [`Instance::tunnels_of`], each tunnel's hops in path order.
    pub fn tunnels_on_arc(&self, arc: ArcId) -> &[u32] {
        self.tunnels.tunnels_on_arc.row(arc.index())
    }

    /// The LSs whose activation condition reads link `e`, in LS order.
    pub fn lss_on_link(&self, e: LinkId) -> &[LsId] {
        self.lss_on_link.row(e.index())
    }

    /// The pair a tunnel belongs to.
    pub fn tunnel_pair(&self, l: TunnelId) -> PairId {
        self.tunnels.tunnel_pair[l.0]
    }

    /// All tunnel ids.
    pub fn tunnel_ids(&self) -> impl Iterator<Item = TunnelId> {
        (0..self.num_tunnels()).map(TunnelId)
    }

    /// LS ids of `L(s,t)`.
    pub fn lss_of(&self, p: PairId) -> &[LsId] {
        self.lss_of.row(p.0)
    }

    /// LS ids of `Q(s,t)`: sequences that use `(s,t)` as a segment.
    pub fn segments_of(&self, p: PairId) -> &[LsId] {
        self.segments_of.row(p.0)
    }

    /// The logical sequence `q`.
    pub fn ls(&self, q: LsId) -> &LogicalSequence {
        &self.lss[q.0]
    }

    /// The pair an LS connects (its endpoints).
    pub fn ls_pair(&self, q: LsId) -> PairId {
        self.ls_pair[q.0]
    }

    /// The pairs of LS `q`'s segments, in hop order (the pair ids of
    /// `self.ls(q).segments()`, interned at build).
    pub fn segment_pairs(&self, q: LsId) -> &[PairId] {
        self.seg_pairs.row(q.0)
    }

    /// `1.0` for every pair, shared: what a routing that serves every
    /// pair in full reports as its served fractions.
    pub(crate) fn full_service(&self) -> &Arc<[f64]> {
        &self.full_service
    }

    /// All LS ids.
    pub fn ls_ids(&self) -> impl Iterator<Item = LsId> {
        (0..self.lss.len()).map(LsId)
    }

    /// `p_st` (paper §2): the maximum number of tunnels of this pair that
    /// share a common link. 1 when the pair's tunnels are disjoint, 0 when
    /// the pair has no tunnels.
    pub fn p_st(&self, p: PairId) -> usize {
        let mut usage: BTreeMap<u32, usize> = BTreeMap::new();
        for &l in self.tunnels_of(p) {
            for link in &self.tunnel(l).links {
                *usage.entry(link.0).or_insert(0) += 1;
            }
        }
        usage.values().copied().max().unwrap_or(0)
    }
}

/// Builder for [`Instance`].
///
/// Pairs of interest are the demand pairs, LS endpoint pairs, and LS segment
/// pairs. Tunnels are selected per pair with
/// [`pcf_paths::select_tunnels`] unless provided explicitly or taken from
/// an offered [`TunnelSet`].
pub struct InstanceBuilder {
    topo: Topology,
    demands: Vec<(NodeId, NodeId, f64)>,
    tunnels_per_pair: usize,
    auto_tunnels: bool,
    explicit_tunnels: Vec<Path>,
    extra_pairs: Vec<(NodeId, NodeId)>,
    lss: Vec<LogicalSequence>,
    offered: Option<Arc<TunnelSet>>,
}

impl InstanceBuilder {
    /// Starts a builder over `topo` with demands from `tm` (strictly
    /// positive entries only).
    pub fn new(topo: &Topology, tm: &TrafficMatrix) -> Self {
        assert_eq!(
            topo.node_count(),
            tm.node_count(),
            "traffic matrix does not match topology"
        );
        InstanceBuilder {
            topo: topo.clone(),
            demands: tm.positive_pairs(),
            tunnels_per_pair: 3,
            auto_tunnels: true,
            explicit_tunnels: Vec::new(),
            extra_pairs: Vec::new(),
            lss: Vec::new(),
            offered: None,
        }
    }

    /// Starts a builder with an explicit demand list (used by the paper's
    /// single-pair examples).
    pub fn with_demands(topo: &Topology, demands: Vec<(NodeId, NodeId, f64)>) -> Self {
        for &(s, t, d) in &demands {
            assert!(
                s != t && d > 0.0,
                "demands must be off-diagonal and positive"
            );
        }
        InstanceBuilder {
            topo: topo.clone(),
            demands,
            tunnels_per_pair: 3,
            auto_tunnels: true,
            explicit_tunnels: Vec::new(),
            extra_pairs: Vec::new(),
            lss: Vec::new(),
            offered: None,
        }
    }

    /// Number of tunnels to select per pair (paper: 2–6). Default 3.
    pub fn tunnels_per_pair(mut self, k: usize) -> Self {
        self.tunnels_per_pair = k;
        self
    }

    /// Registers `(s, t)` as a pair of interest even without demand or LS
    /// membership (used by the logical-flow model for segment pairs, which
    /// must carry reservations). The pair gets tunnels like any other.
    pub fn add_pair(mut self, s: NodeId, t: NodeId) -> Self {
        assert!(s != t, "pair endpoints must differ");
        self.extra_pairs.push((s, t));
        self
    }

    /// Disables automatic tunnel selection: only explicitly added tunnels
    /// are used, and pairs without any tunnel get none (used by the paper's
    /// examples where the tunnel set is part of the construction).
    pub fn no_auto_tunnels(mut self) -> Self {
        self.auto_tunnels = false;
        self
    }

    /// Supplies explicit tunnels instead of automatic selection for their
    /// endpoint pairs. Pairs without any explicit tunnel still get automatic
    /// selection (unless [`InstanceBuilder::no_auto_tunnels`] is set).
    pub fn add_tunnel(mut self, path: Path) -> Self {
        assert!(!path.is_empty(), "tunnel must have at least one link");
        self.explicit_tunnels.push(path);
        self
    }

    /// Adds a logical sequence. Hops must be at least 3 nodes and
    /// consecutive hops must differ.
    pub fn add_ls(mut self, ls: LogicalSequence) -> Self {
        assert!(ls.hops.len() >= 3, "LS needs at least one intermediate hop");
        for w in ls.hops.windows(2) {
            assert!(w[0] != w[1], "LS hops must not repeat consecutively");
        }
        self.lss.push(ls);
        self
    }

    /// Adds the LS heuristic of §5 for every demand added so far: one
    /// unconditional LS through the nodes of the pair's hop-count shortest
    /// path, skipped for adjacent pairs (whose LS would be trivial).
    pub fn shortest_path_lss(mut self) -> Self {
        for &(s, t, _) in &self.demands {
            if let Some(path) = pcf_paths::shortest_path(&self.topo, s, t) {
                if path.nodes.len() >= 3 {
                    self.lss.push(LogicalSequence::always(path.nodes));
                }
            }
        }
        self
    }

    /// Offers the tunnel set of an earlier instance, e.g. the one a
    /// [`CutPool`](crate::CutPool) carries. [`InstanceBuilder::build`]
    /// shares it instead of selecting only where selection would return it
    /// exactly: the set was selected, not given; this build selects every
    /// tunnel (no explicit tunnel, selection on); and its pair list, in
    /// interning order, and structure stamp (node count, link endpoints in
    /// link order, `k`) equal the set's. Otherwise the offer is ignored.
    pub fn offer_tunnels(mut self, set: Option<&Arc<TunnelSet>>) -> Self {
        self.offered = set.cloned();
        self
    }

    /// Builds the indexed instance.
    pub fn build(self) -> Instance {
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
        let mut pair_index: BTreeMap<(NodeId, NodeId), PairId> = BTreeMap::new();
        let mut demand: Vec<f64> = Vec::new();
        let intern = |s: NodeId,
                      t: NodeId,
                      pairs: &mut Vec<(NodeId, NodeId)>,
                      demand: &mut Vec<f64>,
                      pair_index: &mut BTreeMap<(NodeId, NodeId), PairId>|
         -> PairId {
            *pair_index.entry((s, t)).or_insert_with(|| {
                pairs.push((s, t));
                demand.push(0.0);
                PairId(pairs.len() - 1)
            })
        };
        for &(s, t, d) in &self.demands {
            let p = intern(s, t, &mut pairs, &mut demand, &mut pair_index);
            demand[p.0] += d;
        }
        for &(s, t) in &self.extra_pairs {
            intern(s, t, &mut pairs, &mut demand, &mut pair_index);
        }
        for ls in &self.lss {
            intern(
                ls.source(),
                ls.dest(),
                &mut pairs,
                &mut demand,
                &mut pair_index,
            );
            for (u, v) in ls.segments() {
                intern(u, v, &mut pairs, &mut demand, &mut pair_index);
            }
        }

        // Tunnels: explicit ones first (their pairs skip auto-selection).
        let mut explicit = Vec::with_capacity(self.explicit_tunnels.len());
        for path in self.explicit_tunnels {
            let p = intern(
                path.source(),
                path.dest(),
                &mut pairs,
                &mut demand,
                &mut pair_index,
            );
            explicit.push((p, path));
        }
        let stamp = (explicit.is_empty() && self.auto_tunnels)
            .then(|| structure_stamp(&self.topo, self.tunnels_per_pair));
        let tunnels = match self.offered {
            Some(set) if stamp.is_some() && set.selected_under == stamp && set.pairs == pairs => {
                set
            }
            _ => Arc::new(TunnelSet::select(
                &self.topo,
                pairs,
                explicit,
                self.auto_tunnels.then_some(self.tunnels_per_pair),
                stamp,
            )),
        };
        let num_pairs = tunnels.pairs.len();

        // Logical sequences.
        let mut ls_pair: Vec<PairId> = Vec::with_capacity(self.lss.len());
        let mut segment_entries = Vec::new();
        let mut seg_pair_entries = Vec::new();
        let mut condition_entries = Vec::new();
        for (q, ls) in self.lss.iter().enumerate() {
            ls_pair.push(pair_index[&(ls.source(), ls.dest())]);
            for (u, v) in ls.segments() {
                let sp = pair_index[&(u, v)];
                segment_entries.push((sp.0, LsId(q)));
                seg_pair_entries.push((q, sp));
            }
            for e in ls.condition.links() {
                condition_entries.push((e.index(), LsId(q)));
            }
        }

        let lss_of = ls_pair
            .iter()
            .enumerate()
            .map(|(q, p)| (p.0, LsId(q)))
            .collect();
        // The instance lives as long as its plan: keep no push slack.
        let mut lss = self.lss;
        demand.shrink_to_fit();
        lss.shrink_to_fit();
        Instance {
            lss_of: Rows::from_entries(num_pairs, lss_of),
            segments_of: Rows::from_entries(num_pairs, segment_entries),
            seg_pairs: Rows::from_entries(lss.len(), seg_pair_entries),
            lss_on_link: Rows::from_entries(self.topo.link_count(), condition_entries),
            full_service: vec![1.0; num_pairs].into(),
            topo: self.topo,
            tunnels,
            pair_index,
            demand,
            lss,
            ls_pair,
        }
    }
}

/// Three pairs `(x0,t)`, `(x1,t)`, `(x2,t)` (pair ids 0, 1, 2) over
/// `x0 x1 x2 m y t` with links `xi-m` (`e0`..`e2`), `m-t` (`e3`), `m-y`
/// (`e4`) and `y-t` (`e5`). Each pair has two explicit tunnels, `xi-m-t`
/// then `xi-m-y-t`, added pair 2 first, so tunnel order (2's, then 1's,
/// then 0's) runs against pair order.
#[cfg(test)]
pub(crate) fn out_of_order_fan_in() -> Instance {
    let mut topo = Topology::new("fan-in");
    let n: Vec<NodeId> = ["x0", "x1", "x2", "m", "y", "t"]
        .into_iter()
        .map(|name| topo.add_node(name))
        .collect();
    let (m, y, t) = (n[3], n[4], n[5]);
    let spokes: Vec<LinkId> = (0..3).map(|i| topo.add_link(n[i], m, 1.0)).collect();
    let (mt, my, yt) = (
        topo.add_link(m, t, 1.0),
        topo.add_link(m, y, 1.0),
        topo.add_link(y, t, 1.0),
    );
    let demands = (0..3).map(|i| (n[i], t, 1.0)).collect();
    let mut builder = InstanceBuilder::with_demands(&topo, demands);
    for i in (0..3).rev() {
        builder = builder
            .add_tunnel(Path {
                nodes: vec![n[i], m, t],
                links: vec![spokes[i], mt],
            })
            .add_tunnel(Path {
                nodes: vec![n[i], m, y, t],
                links: vec![spokes[i], my, yt],
            });
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;
    use pcf_traffic::gravity;

    #[test]
    fn builder_interns_demand_pairs() {
        let topo = zoo::build("Sprint");
        let tm = gravity(&topo, 1);
        let inst = InstanceBuilder::new(&topo, &tm).tunnels_per_pair(2).build();
        assert_eq!(inst.num_pairs(), 90); // 10 * 9 ordered pairs
        for p in inst.pair_ids() {
            assert!(inst.demand(p) > 0.0);
            assert!(!inst.tunnels_of(p).is_empty());
            let (s, t) = inst.pair(p);
            for &l in inst.tunnels_of(p) {
                assert_eq!(inst.tunnel(l).source(), s);
                assert_eq!(inst.tunnel(l).dest(), t);
                assert_eq!(inst.tunnel_pair(l), p);
            }
        }
    }

    #[test]
    fn ls_segments_create_pairs_and_q_index() {
        let topo = zoo::build("Sprint");
        let demands = vec![(NodeId(0), NodeId(5), 1.0)];
        let hops = vec![NodeId(0), NodeId(2), NodeId(5)];
        let inst = InstanceBuilder::with_demands(&topo, demands)
            .add_ls(LogicalSequence::always(hops))
            .build();
        // Pairs: (0,5) + segments (0,2), (2,5).
        assert_eq!(inst.num_pairs(), 3);
        let q = LsId(0);
        let p05 = inst.pair_id(NodeId(0), NodeId(5)).unwrap();
        let p02 = inst.pair_id(NodeId(0), NodeId(2)).unwrap();
        let p25 = inst.pair_id(NodeId(2), NodeId(5)).unwrap();
        assert_eq!(inst.lss_of(p05), &[q]);
        assert_eq!(inst.segments_of(p02), &[q]);
        assert_eq!(inst.segments_of(p25), &[q]);
        assert!(inst.segments_of(p05).is_empty());
        assert_eq!(inst.segment_pairs(q), &[p02, p25]);
        assert_eq!(inst.demand(p02), 0.0);
        // Segment pairs still get tunnels to support reservations.
        assert!(!inst.tunnels_of(p02).is_empty());
    }

    /// Every interned row equals what it interns, recomputed item by item:
    /// on the PCF-LS instances of Sprint and Quest, and on a sub-link
    /// multigraph (parallel links share endpoints, so only the link tells
    /// their arcs apart) with conditional LSs, one of which lists a link
    /// twice and one of which repeats a segment pair.
    #[test]
    fn interned_rows_match_their_definitions() {
        let sprint = zoo::build("Sprint");
        let quest = zoo::build("Quest");
        let multi = pcf_topology::transform::split_sublinks(&sprint, 2);
        let (e0, e1, e5) = (LinkId(0), LinkId(1), LinkId(5));
        let mut conditional = InstanceBuilder::new(&multi, &gravity(&multi, 1)).tunnels_per_pair(4);
        for (hops, condition) in [
            (vec![0, 2, 5], Condition::LinkDead(e0)),
            (
                vec![0, 3, 5],
                Condition::AliveDead {
                    alive: vec![e1, e5],
                    dead: vec![e0, e1],
                },
            ),
            (vec![1, 4, 1, 4], Condition::Always),
        ] {
            conditional = conditional.add_ls(LogicalSequence {
                hops: hops.into_iter().map(NodeId).collect(),
                condition,
            });
        }
        let instances = [
            crate::schemes::pcf_ls_instance(&sprint, &gravity(&sprint, 1), 3),
            crate::schemes::pcf_ls_instance(&quest, &gravity(&quest, 1), 3),
            conditional.build(),
        ];
        for inst in &instances {
            let topo = inst.topo();
            assert!(inst.num_lss() > 0);
            let mut tunnels_of = vec![Vec::new(); inst.num_pairs()];
            for l in inst.tunnel_ids() {
                let path = inst.tunnel(l);
                let arcs: Vec<ArcId> = path
                    .links
                    .iter()
                    .zip(&path.nodes)
                    .map(|(&e, &from)| topo.arc_from(e, from))
                    .collect();
                assert_eq!(inst.tunnel_arcs(l), &arcs[..], "tunnel {l:?}");
                tunnels_of[inst.tunnel_pair(l).0].push(l);
            }
            let mut lss_of = vec![Vec::new(); inst.num_pairs()];
            let mut segments_of = vec![Vec::new(); inst.num_pairs()];
            for q in inst.ls_ids() {
                lss_of[inst.ls_pair(q).0].push(q);
                let looked_up: Vec<PairId> = inst
                    .ls(q)
                    .segments()
                    .map(|(u, v)| inst.pair_id(u, v).unwrap())
                    .collect();
                assert_eq!(inst.segment_pairs(q), &looked_up[..], "LS {q:?}");
                for sp in looked_up {
                    segments_of[sp.0].push(q);
                }
            }
            for p in inst.pair_ids() {
                assert_eq!(inst.tunnels_of(p), &tunnels_of[p.0][..], "T{p:?}");
                assert_eq!(inst.lss_of(p), &lss_of[p.0][..], "L{p:?}");
                assert_eq!(inst.segments_of(p), &segments_of[p.0][..], "Q{p:?}");
            }
            // The link indexes against a scan of every tunnel and LS per link.
            for e in topo.links() {
                let crossing: Vec<TunnelId> = inst
                    .tunnel_ids()
                    .flat_map(|l| {
                        let hits = inst.tunnel(l).links.iter().filter(|&&x| x == e).count();
                        std::iter::repeat_n(l, hits)
                    })
                    .collect();
                assert_eq!(inst.tunnels_on_link(e), &crossing[..], "link {e:?}");
                let reading: Vec<LsId> = inst
                    .ls_ids()
                    .flat_map(|q| {
                        let hits = match &inst.ls(q).condition {
                            Condition::Always => 0,
                            Condition::LinkDead(x) => usize::from(*x == e),
                            Condition::AliveDead { alive, dead } => {
                                alive.iter().chain(dead).filter(|&&x| x == e).count()
                            }
                        };
                        std::iter::repeat_n(q, hits)
                    })
                    .collect();
                assert_eq!(inst.lss_on_link(e), &reading[..], "link {e:?}");
            }
        }
        let conditional = &instances[2];
        assert_eq!(conditional.lss_on_link(e1), &[LsId(1), LsId(1)]);
        assert_eq!(conditional.lss_on_link(e0), &[LsId(0), LsId(1)]);
        let p14 = conditional.pair_id(NodeId(1), NodeId(4)).unwrap();
        assert_eq!(conditional.segments_of(p14), &[LsId(2), LsId(2)]);
    }

    /// The per-arc index lists each arc's tunnels in expansion order:
    /// pairs ascending, each pair's tunnels, hops in path order — here the
    /// reverse of tunnel order.
    #[test]
    fn tunnels_on_arc_run_in_pair_order() {
        let inst = out_of_order_fan_in();
        let topo = inst.topo();
        let arc = |link: u32, from: u32| topo.arc_from(LinkId(link), NodeId(from));
        let pair = |i: u32| inst.pair_id(NodeId(i), NodeId(5)).unwrap();
        assert_eq!(
            (pair(0), pair(1), pair(2)),
            (PairId(0), PairId(1), PairId(2))
        );
        assert_eq!(inst.tunnels_of(PairId(0)), &[TunnelId(4), TunnelId(5)]);
        assert_eq!(inst.tunnels_on_arc(arc(3, 3)), &[4, 2, 0]); // m -> t
        assert_eq!(inst.tunnels_on_arc(arc(4, 3)), &[5, 3, 1]); // m -> y
        assert_eq!(inst.tunnels_on_arc(arc(5, 4)), &[5, 3, 1]); // y -> t
        assert_eq!(inst.tunnels_on_arc(arc(1, 1)), &[2, 3]); // x1 -> m
        assert!(inst.tunnels_on_arc(arc(3, 5)).is_empty()); // t -> m
                                                            // Every arc's row holds exactly the tunnels crossing it.
        for a in topo.arcs() {
            let mut listed: Vec<u32> = inst.tunnels_on_arc(a).to_vec();
            listed.sort_unstable();
            let crossing: Vec<u32> = (inst.tunnel_ids())
                .filter(|&l| inst.tunnel_arcs(l).contains(&a))
                .map(|l| l.0 as u32)
                .collect();
            assert_eq!(listed, crossing, "arc {a:?}");
        }
    }

    #[test]
    fn p_st_counts_max_overlap() {
        let topo = zoo::build("Sprint");
        let tm = gravity(&topo, 1);
        let inst = InstanceBuilder::new(&topo, &tm).tunnels_per_pair(2).build();
        for p in inst.pair_ids() {
            // Paper: every pair has two disjoint tunnels in these topologies.
            assert_eq!(inst.p_st(p), 1, "pair {:?}", inst.pair(p));
        }
    }

    #[test]
    fn explicit_tunnels_override_selection() {
        let topo = zoo::build("Sprint");
        let demands = vec![(NodeId(0), NodeId(5), 1.0)];
        let path = pcf_paths::shortest_path(&topo, NodeId(0), NodeId(5)).unwrap();
        let inst = InstanceBuilder::with_demands(&topo, demands)
            .add_tunnel(path.clone())
            .build();
        let p = inst.pair_id(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(inst.tunnels_of(p).len(), 1);
        assert_eq!(inst.tunnel(inst.tunnels_of(p)[0]), &path);
    }

    #[test]
    #[should_panic(expected = "at least one intermediate hop")]
    fn two_hop_ls_rejected() {
        let topo = zoo::build("Sprint");
        let demands = vec![(NodeId(0), NodeId(5), 1.0)];
        let _ = InstanceBuilder::with_demands(&topo, demands)
            .add_ls(LogicalSequence::always(vec![NodeId(0), NodeId(5)]));
    }

    #[test]
    fn duplicate_demands_are_summed() {
        let topo = zoo::build("Sprint");
        let demands = vec![(NodeId(0), NodeId(5), 1.0), (NodeId(0), NodeId(5), 2.0)];
        let inst = InstanceBuilder::with_demands(&topo, demands).build();
        let p = inst.pair_id(NodeId(0), NodeId(5)).unwrap();
        assert_eq!(inst.demand(p), 3.0);
        assert_eq!(inst.total_demand(), 3.0);
    }
}

#[cfg(test)]
mod builder_tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn extra_pairs_are_interned_with_tunnels() {
        let topo = zoo::build("Sprint");
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(5), 1.0)])
            .add_pair(NodeId(2), NodeId(7))
            .tunnels_per_pair(2)
            .build();
        let p = inst
            .pair_id(NodeId(2), NodeId(7))
            .expect("extra pair interned");
        assert_eq!(inst.demand(p), 0.0);
        assert_eq!(inst.tunnels_of(p).len(), 2);
    }

    #[test]
    fn no_auto_tunnels_leaves_pairs_bare() {
        let topo = zoo::build("Sprint");
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(5), 1.0)])
            .no_auto_tunnels()
            .build();
        assert_eq!(inst.num_tunnels(), 0);
        assert_eq!(inst.num_pairs(), 1);
    }

    #[test]
    fn ordered_pairs_are_distinct() {
        // (s,t) and (t,s) are different pairs with their own tunnels.
        let topo = zoo::build("Sprint");
        let inst = InstanceBuilder::with_demands(
            &topo,
            vec![(NodeId(0), NodeId(5), 1.0), (NodeId(5), NodeId(0), 2.0)],
        )
        .tunnels_per_pair(2)
        .build();
        assert_eq!(inst.num_pairs(), 2);
        let p0 = inst.pair_id(NodeId(0), NodeId(5)).unwrap();
        let p1 = inst.pair_id(NodeId(5), NodeId(0)).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(inst.demand(p0), 1.0);
        assert_eq!(inst.demand(p1), 2.0);
        // Tunnels are directional: sources must match.
        for &l in inst.tunnels_of(p1) {
            assert_eq!(inst.tunnel(l).source(), NodeId(5));
        }
    }
}
