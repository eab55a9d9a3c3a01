//! Failure modeling: targeted failure sets, conditions, and enumeration.
//!
//! The paper designs for all scenarios of up to `f` simultaneous link
//! failures (§3.2, Eq. 4), and generalizes to shared-risk link groups and
//! node failures by imposing the budget on *group* indicators instead of
//! individual links (§3.5). [`FailureModel::Budgeted`] is that one form —
//! conjunctive group budgets plus an optional capacity-degradation
//! polytope — and `links`, `srlgs`, `node_failures`, `regional` and
//! `nodes_and_links` are constructors of it.

use pcf_topology::{LinkId, NodeId, Topology};
use std::borrow::Cow;

/// One budgeted family of atomic failure units: up to `f` of the groups
/// fail simultaneously, and a group's failure kills every link it contains.
/// Several budgets compose conjunctively in [`FailureModel::Budgeted`]
/// (e.g. "any one node AND any one additional link").
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBudget {
    /// The link groups that fail atomically; `None` means every link of the
    /// topology is its own group (Eq. 4), which needs no topology to state.
    groups: Option<Vec<Vec<LinkId>>>,
    /// Maximum simultaneous group failures drawn from this budget.
    pub f: usize,
}

impl GroupBudget {
    /// Up to `f` of the listed `groups` fail.
    pub fn new(groups: Vec<Vec<LinkId>>, f: usize) -> Self {
        GroupBudget {
            groups: Some(groups),
            f,
        }
    }

    /// Up to `f` independent single-link failures over the whole topology.
    pub fn every_link(f: usize) -> Self {
        GroupBudget { groups: None, f }
    }

    /// The budget's groups over `topo`.
    pub fn groups(&self, topo: &Topology) -> Cow<'_, [Vec<LinkId>]> {
        match &self.groups {
            Some(groups) => Cow::Borrowed(groups),
            None => Cow::Owned(topo.links().map(|l| vec![l]).collect()),
        }
    }

    /// Visits the budget's groups over `topo` in order, without
    /// materialising them (the separation oracles run this per pair).
    pub fn for_each_group(&self, topo: &Topology, mut visit: impl FnMut(&[LinkId])) {
        match &self.groups {
            Some(groups) => groups.iter().for_each(|g| visit(g)),
            None => topo.links().for_each(|l| visit(&[l])),
        }
    }
}

/// A partial-capacity-degradation polytope: each link's capacity may drop to
/// anywhere in `[floor_e · c_e, c_e]`, optionally with a global budget `g`
/// bounding the total fractional drop `Σ_e d_e ≤ g` (where the realized
/// capacity is `(1 − d_e) · c_e` and `d_e ∈ [0, 1 − floor_e]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Degradation {
    /// Per-link lower bound `α_e ∈ [0, 1]` on the capacity fraction.
    pub floor: Vec<f64>,
    /// Optional budget on the total fractional drop `Σ_e d_e`.
    pub budget: Option<f64>,
}

impl Degradation {
    /// Uniform floor `alpha` across `link_count` links, unbudgeted.
    pub fn uniform(link_count: usize, alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha));
        Degradation {
            floor: vec![alpha; link_count],
            budget: None,
        }
    }

    /// Adds a budget on the total fractional capacity drop.
    pub fn with_budget(mut self, g: f64) -> Self {
        assert!(g >= 0.0);
        self.budget = Some(g);
        self
    }

    /// The capacity-scale corner points used for validation: every
    /// single-link worst drop (`1 − α_e`, clipped to the budget), plus the
    /// all-floors corner when the budget does not bind (covers the whole
    /// box). The no-degradation corner (all ones) is implied and not
    /// returned.
    pub fn corners(&self) -> Vec<Vec<f64>> {
        let n = self.floor.len();
        let room = |e: usize| (1.0 - self.floor[e]).max(0.0);
        let budget = self.budget.unwrap_or(f64::INFINITY);
        let mut out = Vec::new();
        for e in 0..n {
            let d = room(e).min(budget);
            if d > 0.0 {
                let mut scale = vec![1.0; n];
                scale[e] = 1.0 - d;
                out.push(scale);
            }
        }
        let total_room: f64 = (0..n).map(room).sum();
        if budget >= total_room && total_room > 0.0 && n > 1 {
            out.push(self.floor.iter().map(|&a| a.clamp(0.0, 1.0)).collect());
        }
        out
    }
}

/// A concrete scenario: which links are dead, plus the surviving capacity
/// fraction of every link. An empty `cap_scale` means no link is degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Dead-link mask.
    pub dead: Vec<bool>,
    /// Per-link capacity scale in `[0, 1]`; empty when undegraded.
    pub cap_scale: Vec<f64>,
}

impl Scenario {
    /// A scenario with failures only (no capacity degradation).
    pub fn from_mask(dead: Vec<bool>) -> Self {
        Scenario {
            dead,
            cap_scale: Vec::new(),
        }
    }

    /// True when no link is degraded below full capacity.
    pub fn undegraded(&self) -> bool {
        self.cap_scale.iter().all(|&s| s >= 1.0)
    }
}

/// The set of failure scenarios a design must survive.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureModel {
    /// Conjunctive group budgets — each contributes its own `Σ g ≤ f` row
    /// over its group indicators (Eq. 4 when every link is its own group;
    /// SRLGs, node and regional failures per §3.5) — optionally combined
    /// with a partial-capacity-degradation polytope. This is the set the
    /// separation oracle relaxes and dualizes over.
    Budgeted {
        /// The budgets; a scenario draws up to `f` groups from each.
        budgets: Vec<GroupBudget>,
        /// Optional partial-capacity degradation.
        degradation: Option<Degradation>,
    },
    /// An explicit, enumerated scenario list (each scenario = the set of
    /// links that die together). This is how probabilistically pruned
    /// designs in the style of Teavar/Lancet (discussed in §6) plug in: the
    /// caller enumerates the scenarios whose probability mass matters and
    /// designs for exactly those. The adversary is then *exact* — no
    /// relaxation of `x` — which also makes this the reference point for
    /// measuring the conservatism of the paper's `x ∈ [0,1]` relaxation.
    Explicit {
        /// The scenarios to protect against (the empty scenario is implied).
        scenarios: Vec<Vec<LinkId>>,
    },
}

/// Advances `idx` to the next lexicographic k-combination of `0..n`;
/// returns `false` when `idx` already is the last one.
pub(crate) fn next_combination(idx: &mut [usize], n: usize) -> bool {
    let k = idx.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if idx[i] < n - (k - i) {
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

impl FailureModel {
    /// Up to `f` simultaneous link failures (Eq. 4's `Σ x_e ≤ f`).
    pub fn links(f: usize) -> Self {
        FailureModel::structured(vec![GroupBudget::every_link(f)])
    }

    /// One failure group per node: all links incident to the node die
    /// together (§3.5 node failures).
    pub fn node_failures(topo: &Topology, f: usize) -> Self {
        FailureModel::srlgs(node_groups(topo), f)
    }

    /// SRLG failures: up to `f` of the given shared-risk groups fail.
    pub fn srlgs(groups: Vec<Vec<LinkId>>, f: usize) -> Self {
        FailureModel::structured(vec![GroupBudget::new(groups, f)])
    }

    /// Regional failures: up to `f` of the given node-set regions fail; a
    /// region's failure kills every link touching any node in the set.
    pub fn regional(topo: &Topology, regions: &[Vec<NodeId>], f: usize) -> Self {
        let touched = |nodes: &Vec<NodeId>| {
            let hit = |&l: &LinkId| nodes.iter().any(|&n| topo.link(l).touches(n));
            topo.links().filter(hit).collect()
        };
        FailureModel::srlgs(regions.iter().map(touched).collect(), f)
    }

    /// Node failures composed with an independent link budget: up to
    /// `f_nodes` whole-node failures AND up to `f_links` additional link
    /// failures simultaneously.
    pub fn nodes_and_links(topo: &Topology, f_nodes: usize, f_links: usize) -> Self {
        FailureModel::structured(vec![
            GroupBudget::new(node_groups(topo), f_nodes),
            GroupBudget::every_link(f_links),
        ])
    }

    /// The budgeted model over explicit budgets (no degradation).
    pub fn structured(budgets: Vec<GroupBudget>) -> Self {
        FailureModel::Budgeted {
            budgets,
            degradation: None,
        }
    }

    /// Attaches a partial-capacity-degradation polytope. Panics on
    /// [`FailureModel::Explicit`], which carries concrete scenarios and has
    /// no polytope to extend.
    #[expect(clippy::panic, reason = "documented: Explicit has no polytope")]
    pub fn with_degradation(mut self, topo: &Topology, deg: Degradation) -> Self {
        assert_eq!(deg.floor.len(), topo.link_count());
        let FailureModel::Budgeted { degradation, .. } = &mut self else {
            panic!("explicit scenario lists cannot carry a degradation polytope")
        };
        *degradation = Some(deg);
        self
    }

    /// `Some(f)` when the model is exactly Eq. 4 — one budget of `f`
    /// independent link failures, no degradation — the only uncertainty set
    /// the appendix dualizes.
    pub fn link_budget(&self) -> Option<usize> {
        match self {
            FailureModel::Budgeted {
                budgets,
                degradation: None,
            } => match budgets[..] {
                [GroupBudget { groups: None, f }] => Some(f),
                _ => None,
            },
            _ => None,
        }
    }

    /// Builds the explicit scenario list containing every independent-link
    /// failure combination whose probability is at least `min_prob`, given
    /// a per-link failure probability. Scenarios are explored in decreasing
    /// probability; at most `cap` scenarios are returned (a Lancet-style
    /// pruned design set).
    pub fn pruned_by_probability(
        topo: &Topology,
        link_prob: &[f64],
        min_prob: f64,
        cap: usize,
    ) -> Self {
        assert_eq!(link_prob.len(), topo.link_count());
        assert!(link_prob.iter().all(|&p| (0.0..1.0).contains(&p)));
        // Probability of "exactly this set fails" relative to the all-alive
        // scenario: prod p_e / (1 - p_e); rank sets by that ratio.
        let mut ratio: Vec<(usize, f64)> = link_prob
            .iter()
            .enumerate()
            .map(|(i, &p)| (i, p / (1.0 - p)))
            .filter(|&(_, r)| r > 0.0)
            .collect();
        ratio.sort_by(|a, b| b.1.total_cmp(&a.1));
        let base: f64 = link_prob.iter().map(|&p| 1.0 - p).product();

        /// Total order on finite non-negative f64 for the best-first heap.
        #[derive(PartialEq)]
        struct Prob(f64);
        impl Eq for Prob {}
        impl PartialOrd for Prob {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Prob {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }
        }

        // Best-first search over subsets (by scenario probability).
        let mut heap: std::collections::BinaryHeap<(Prob, Vec<usize>)> =
            std::collections::BinaryHeap::new();
        let mut out: Vec<Vec<LinkId>> = Vec::new();
        for (idx, &(_, r)) in ratio.iter().enumerate() {
            heap.push((Prob(base * r), vec![idx]));
        }
        while let Some((Prob(p), set)) = heap.pop() {
            if p < min_prob || out.len() >= cap {
                break;
            }
            out.push(set.iter().map(|&i| LinkId(ratio[i].0 as u32)).collect());
            // Extend with strictly larger-indexed links to avoid duplicates.
            let Some(&last) = set.last() else {
                continue;
            };
            for (next, &(_, r)) in ratio.iter().enumerate().skip(last + 1) {
                let mut bigger = set.clone();
                bigger.push(next);
                heap.push((Prob(p * r), bigger));
            }
        }
        FailureModel::Explicit { scenarios: out }
    }

    /// Enumerates every concrete worst-cardinality scenario: per budget
    /// every subset of exactly `f` groups (failures only remove capacity, so
    /// sub-budget scenarios are dominated for validation and optimal
    /// baselines), composed across budgets — overlapping groups of several
    /// budgets can yield one mask twice; those are collapsed — and, under a
    /// degradation polytope, each mask also with every
    /// [`Degradation::corners`] point.
    ///
    /// The number of masks is `Π_b C(n_b, f_b)` — call only when that is
    /// small enough, or use [`FailureModel::sample_scenarios`].
    pub fn enumerate_scenarios(&self, topo: &Topology) -> Vec<Scenario> {
        let alive = vec![false; topo.link_count()];
        let (budgets, degradation) = match self {
            FailureModel::Explicit { scenarios } => {
                let dead = |links: &Vec<_>| Scenario::from_mask(killed(alive.clone(), links));
                return scenarios.iter().map(dead).collect();
            }
            FailureModel::Budgeted {
                budgets,
                degradation,
            } => (budgets, degradation),
        };
        let mut masks = vec![alive];
        for b in budgets {
            let groups = b.groups(topo);
            let mut idx: Vec<usize> = (0..b.f.min(groups.len())).collect();
            let mut composed = Vec::new();
            loop {
                for base in &masks {
                    let kill = |mask, &g: &usize| killed(mask, &groups[g]);
                    composed.push(idx.iter().fold(base.clone(), kill));
                }
                if !next_combination(&mut idx, groups.len()) {
                    break;
                }
            }
            masks = composed;
        }
        if budgets.len() > 1 {
            masks.sort();
            masks.dedup();
        }
        let corners = degradation.as_ref().map_or(Vec::new(), |d| d.corners());
        let mut out = Vec::with_capacity(masks.len() * (1 + corners.len()));
        for dead in masks {
            let sagged = |c: &Vec<f64>| Scenario {
                dead: dead.clone(),
                cap_scale: c.clone(),
            };
            out.extend(corners.iter().map(sagged));
            out.push(Scenario::from_mask(dead));
        }
        out
    }

    /// Number of worst-cardinality scenarios without materialising the
    /// masks: the product over budgets of `C(n_b, f_b)`, times the corner
    /// count — an upper bound on [`FailureModel::enumerate_scenarios`],
    /// since overlapping groups across budgets can collapse to one mask.
    pub fn scenario_count(&self, topo: &Topology) -> usize {
        let (budgets, degradation) = match self {
            FailureModel::Explicit { scenarios } => return scenarios.len(),
            FailureModel::Budgeted {
                budgets,
                degradation,
            } => (budgets, degradation),
        };
        let mut total = 1 + degradation.as_ref().map_or(0, |d| d.corners().len());
        for b in budgets {
            let n = b.groups(topo).len();
            // C(n, f), saturating.
            let mut c: usize = 1;
            for i in 0..b.f.min(n) {
                c = c.saturating_mul(n - i) / (i + 1);
            }
            total = total.saturating_mul(c);
        }
        total
    }

    /// A deterministic sample of `count` distinct scenarios (all of them
    /// when there are no more), used when full enumeration is intractable.
    /// Sampling scenarios yields an *optimistic* (upper) bound when used for
    /// worst-case minima; callers must report that.
    pub fn sample_scenarios(&self, topo: &Topology, count: usize, seed: u64) -> Vec<Scenario> {
        let FailureModel::Budgeted {
            budgets,
            degradation,
        } = self
        else {
            let mut listed = self.enumerate_scenarios(topo);
            listed.truncate(count);
            return listed;
        };
        if self.scenario_count(topo) <= count {
            return self.enumerate_scenarios(topo);
        }
        // Simple deterministic LCG to avoid threading RNG deps here.
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let groups: Vec<_> = budgets.iter().map(|b| b.groups(topo)).collect();
        let corners = degradation.as_ref().map_or(Vec::new(), |d| d.corners());
        // Per-budget picks composed into a joint mask, plus a corner draw
        // (one past the last corner = undegraded) when the model degrades.
        let mut out: Vec<Scenario> = Vec::new();
        let mut guard = 0usize;
        while out.len() < count && guard < 100 * count {
            guard += 1;
            let mut dead = vec![false; topo.link_count()];
            for (b, groups) in budgets.iter().zip(&groups) {
                let n = groups.len();
                let mut pick: Vec<usize> = Vec::with_capacity(b.f.min(n));
                while pick.len() < b.f.min(n) {
                    let g = next() % n;
                    if !pick.contains(&g) {
                        pick.push(g);
                        dead = killed(dead, &groups[g]);
                    }
                }
            }
            let cap_scale = match corners.len() {
                0 => Vec::new(),
                c => corners.get(next() % (c + 1)).cloned().unwrap_or_default(),
            };
            let scenario = Scenario { dead, cap_scale };
            if !out.contains(&scenario) {
                out.push(scenario);
            }
        }
        out
    }
}

/// One group per node: its incident links.
fn node_groups(topo: &Topology) -> Vec<Vec<LinkId>> {
    let incident = |n| topo.incident(n).iter().map(|&(_, l)| l).collect();
    topo.nodes().map(incident).collect()
}

/// `mask` with every link of `links` marked dead.
fn killed(mut mask: Vec<bool>, links: &[LinkId]) -> Vec<bool> {
    for l in links {
        mask[l.index()] = true;
    }
    mask
}

/// Activation condition of a logical sequence or logical flow (§3.4 and the
/// appendix's generalised conditions).
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always active.
    Always,
    /// Active exactly when the given link is dead (`h_q = x_e`).
    LinkDead(LinkId),
    /// Active when all links in `alive` are up and all links in `dead` are
    /// down (appendix linearization).
    AliveDead {
        /// Links that must be alive.
        alive: Vec<LinkId>,
        /// Links that must be dead.
        dead: Vec<LinkId>,
    },
}

impl Condition {
    /// Evaluates the condition under a concrete dead-link mask.
    pub fn holds(&self, dead_mask: &[bool]) -> bool {
        match self {
            Condition::Always => true,
            Condition::LinkDead(e) => dead_mask[e.index()],
            Condition::AliveDead { alive, dead } => {
                alive.iter().all(|e| !dead_mask[e.index()])
                    && dead.iter().all(|e| dead_mask[e.index()])
            }
        }
    }

    /// The links the condition's truth value reads, as listed.
    pub(crate) fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        let (first, rest): (&[LinkId], &[LinkId]) = match self {
            Condition::Always => (&[], &[]),
            Condition::LinkDead(e) => (std::slice::from_ref(e), &[]),
            Condition::AliveDead { alive, dead } => (alive, dead),
        };
        first.iter().chain(rest).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn enumerate_single_failures_is_one_per_link() {
        let t = zoo::build("Sprint");
        let fm = FailureModel::links(1);
        let sc = fm.enumerate_scenarios(&t);
        assert_eq!(sc.len(), t.link_count());
        for s in &sc {
            assert_eq!(s.dead.iter().filter(|&&d| d).count(), 1);
            assert!(
                s.cap_scale.is_empty(),
                "link-only scenarios carry no scales"
            );
        }
    }

    #[test]
    fn enumerate_double_failures_counts_pairs() {
        let t = zoo::build("Sprint"); // 17 links
        let fm = FailureModel::links(2);
        let sc = fm.enumerate_scenarios(&t);
        assert_eq!(sc.len(), 17 * 16 / 2);
        assert_eq!(fm.scenario_count(&t), 17 * 16 / 2);
    }

    #[test]
    fn zero_budget_is_the_no_failure_scenario() {
        let t = zoo::build("Sprint");
        let fm = FailureModel::links(0);
        let sc = fm.enumerate_scenarios(&t);
        assert_eq!(sc.len(), 1);
        assert!(sc[0].dead.iter().all(|&d| !d));
    }

    #[test]
    fn node_failure_groups_kill_incident_links() {
        let t = zoo::build("Sprint");
        let fm = FailureModel::node_failures(&t, 1);
        let sc = fm.enumerate_scenarios(&t);
        assert_eq!(sc.len(), t.node_count());
        // Scenario k kills exactly node k's incident links.
        for (k, s) in sc.iter().enumerate() {
            let n = pcf_topology::NodeId(k as u32);
            for l in t.links() {
                let should = t.link(l).touches(n);
                assert_eq!(s.dead[l.index()], should);
            }
        }
    }

    #[test]
    fn sampling_returns_enumeration_when_small() {
        let t = zoo::build("Sprint");
        let fm = FailureModel::links(1);
        let sc = fm.sample_scenarios(&t, 1000, 42);
        assert_eq!(sc.len(), t.link_count());
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let t = zoo::build("GEANT"); // 50 links, C(50,3) huge
        let fm = FailureModel::links(3);
        let a = fm.sample_scenarios(&t, 40, 7);
        let b = fm.sample_scenarios(&t, 40, 7);
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
        let set: std::collections::BTreeSet<_> = a.iter().map(|s| &s.dead).collect();
        assert_eq!(set.len(), 40);
        for s in &a {
            assert_eq!(s.dead.iter().filter(|&&d| d).count(), 3);
        }
    }

    #[test]
    fn conditions_evaluate() {
        let t = zoo::build("Sprint");
        let mut mask = vec![false; t.link_count()];
        mask[3] = true;
        assert!(Condition::Always.holds(&mask));
        assert!(Condition::LinkDead(LinkId(3)).holds(&mask));
        assert!(!Condition::LinkDead(LinkId(4)).holds(&mask));
        let c = Condition::AliveDead {
            alive: vec![LinkId(0)],
            dead: vec![LinkId(3)],
        };
        assert!(c.holds(&mask));
        mask[0] = true;
        assert!(!c.holds(&mask));
    }
}

#[cfg(test)]
mod structured_tests {
    use super::*;
    use pcf_topology::zoo;
    use std::collections::BTreeSet;

    #[test]
    fn regional_groups_are_incident_link_unions() {
        let t = zoo::build("Abilene");
        let region = vec![pcf_topology::NodeId(0), pcf_topology::NodeId(3)];
        let fm = FailureModel::regional(&t, std::slice::from_ref(&region), 1);
        let sc = fm.enumerate_scenarios(&t);
        assert_eq!(sc.len(), 1);
        for l in t.links() {
            let touches = region.iter().any(|&n| t.link(l).touches(n));
            assert_eq!(sc[0].dead[l.index()], touches);
        }
    }

    #[test]
    fn nodes_and_links_enumeration_is_cartesian_up_to_dedup() {
        let t = zoo::build("Abilene");
        let fm = FailureModel::nodes_and_links(&t, 1, 1);
        let scenarios = fm.enumerate_scenarios(&t);
        let got: BTreeSet<Vec<bool>> = scenarios.into_iter().map(|s| s.dead).collect();
        let mut expect = BTreeSet::new();
        for n in t.nodes() {
            for l in t.links() {
                let mut mask = vec![false; t.link_count()];
                for &(_, il) in t.incident(n) {
                    mask[il.index()] = true;
                }
                mask[l.index()] = true;
                expect.insert(mask);
            }
        }
        assert_eq!(got, expect);
        // The closed-form count is the product of per-budget counts.
        assert_eq!(fm.scenario_count(&t), t.node_count() * t.link_count());
    }

    #[test]
    fn degradation_corners_cover_the_box() {
        let deg = Degradation::uniform(5, 0.8);
        let cs = deg.corners();
        // One corner per link plus the all-floors corner.
        assert_eq!(cs.len(), 6);
        assert!(cs
            .iter()
            .any(|c| c.iter().all(|&s| (s - 0.8).abs() < 1e-12)));
        // A binding budget clips single-link drops and removes the
        // all-floors corner.
        let tight = Degradation::uniform(5, 0.8).with_budget(0.1);
        let cs2 = tight.corners();
        assert_eq!(cs2.len(), 5);
        assert!(cs2.iter().flatten().all(|&s| s >= 0.9 - 1e-12));
    }

    #[test]
    fn structured_scenarios_compose_masks_and_corners() {
        let t = zoo::build("Abilene");
        let deg = Degradation::uniform(t.link_count(), 0.5);
        let fm = FailureModel::links(1).with_degradation(&t, deg);
        let sc = fm.enumerate_scenarios(&t);
        // masks × (undegraded + per-link corners + all-floors corner)
        assert_eq!(sc.len(), t.link_count() * (1 + t.link_count() + 1));
        assert_eq!(fm.scenario_count(&t), sc.len());
        assert!(sc.iter().any(|s| s.undegraded()));
        for s in &sc {
            assert_eq!(s.dead.len(), t.link_count());
            assert!(s.cap_scale.iter().all(|&c| (0.0..=1.0).contains(&c)));
        }
        // Sampling draws from the same set: masks composed with corners.
        let sampled = fm.sample_scenarios(&t, 30, 5);
        assert_eq!(sampled.len(), 30);
        assert!(sampled.iter().all(|s| sc.contains(s)));
        assert!(sampled.iter().any(|s| !s.undegraded()));
    }

    #[test]
    fn structured_sampling_is_deterministic() {
        let t = zoo::build("GEANT");
        let fm = FailureModel::nodes_and_links(&t, 1, 2);
        let a = fm.sample_scenarios(&t, 20, 3);
        let b = fm.sample_scenarios(&t, 20, 3);
        assert_eq!(a.len(), 20);
        assert_eq!(a, b);
        let set: BTreeSet<_> = a.iter().map(|s| &s.dead).collect();
        assert_eq!(set.len(), 20);
    }
}

#[cfg(test)]
mod explicit_tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn explicit_enumeration_round_trips() {
        let t = zoo::build("Sprint");
        let fm = FailureModel::Explicit {
            scenarios: vec![vec![LinkId(0)], vec![LinkId(1), LinkId(2)]],
        };
        assert_eq!(fm.scenario_count(&t), 2);
        let masks = fm.enumerate_scenarios(&t);
        assert_eq!(masks.len(), 2);
        assert!(masks[0].dead[0] && !masks[0].dead[1]);
        assert!(masks[1].dead[1] && masks[1].dead[2]);
    }

    #[test]
    fn pruning_orders_by_probability() {
        let t = zoo::build("Sprint");
        // Link 3 fails often; link 5 moderately; the rest rarely.
        let mut probs = vec![0.001; t.link_count()];
        probs[3] = 0.2;
        probs[5] = 0.05;
        let fm = FailureModel::pruned_by_probability(&t, &probs, 1e-4, 10);
        let FailureModel::Explicit { scenarios } = &fm else {
            panic!("pruning returns an explicit list")
        };
        assert!(!scenarios.is_empty());
        // Most probable scenario first: {link 3} alone.
        assert_eq!(scenarios[0], vec![LinkId(3)]);
        // The pair {3,5} should rank above any {rare} singleton.
        let pos_pair = scenarios.iter().position(|s| s.len() == 2).unwrap();
        assert_eq!(scenarios[pos_pair], vec![LinkId(3), LinkId(5)]);
        assert!(scenarios.len() <= 10);
    }

    #[test]
    fn pruning_respects_cap_and_threshold() {
        let t = zoo::build("Sprint");
        let probs = vec![0.01; t.link_count()];
        let fm = FailureModel::pruned_by_probability(&t, &probs, 0.0, 5);
        assert_eq!(fm.scenario_count(&t), 5);
        let fm2 = FailureModel::pruned_by_probability(&t, &probs, 0.999, 100);
        // No scenario has probability 0.999.
        assert_eq!(fm2.scenario_count(&t), 0);
    }
}
