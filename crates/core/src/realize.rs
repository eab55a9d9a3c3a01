//! Realizing PCF's response mechanisms (paper §4).
//!
//! The offline models decide reservations; this module turns a solved
//! allocation plus a *concrete* failure into the actual routing:
//!
//! * [`FailureState`] — which tunnels are alive (cleared through
//!   [`Instance::tunnels_on_link`] for each dead link) and which LSs are
//!   active;
//! * [`reservation_matrix`] — the matrix `M` over the pairs of interest
//!   (Proposition 5: an invertible M-matrix), densified: the reference
//!   tests and probes solve against;
//! * [`Realizer`] — the one realization path ([`realize_routing`] is one
//!   call of a fresh one): solves `M × U = D` (Proposition 6) by
//!   Proposition 7's walk and expands `U` into tunnel flows and arc loads.
//!   Row `p` of `M × U = D` reads `u_p · diagonal_p = served_p + Σ u_o ·
//!   b_q` over the active LSs `q` of owners `o` that use `p` as a segment,
//!   so visiting the pairs greatest first, in the order a strongly
//!   connected component pass gives each LS activation, is substitution;
//!   a component with a cycle is one block of `M`, solved by LU
//!   ([`Routing::bump`] counts its rows). The degradation ladder's rescale
//!   stage walks the same order;
//! * [`topological_order`] — that order over every pair when it has no
//!   cycle: the sortability check of §5.2.

use crate::instance::{Instance, LsId, PairId, TunnelId};
use pcf_lp::{DenseMatrix, SparseLu};
use pcf_topology::LinkId;

/// Which tunnels are alive and which LSs are active under a concrete
/// failure.
#[derive(Debug, Clone)]
pub struct FailureState {
    /// Dead-link mask.
    pub dead: Vec<bool>,
    /// Per-link surviving capacity fraction in `[0, 1]` (`1.0` everywhere
    /// when no link is degraded).
    pub cap_scale: Vec<f64>,
    /// Tunnel liveness (a tunnel dies with any of its links).
    pub tunnel_alive: Vec<bool>,
    /// LS activation (condition evaluation).
    pub ls_active: Vec<bool>,
}

impl FailureState {
    /// Evaluates liveness/activation for a dead-link mask.
    ///
    /// Errors with [`RealizeError::MaskLengthMismatch`] when the mask does
    /// not cover exactly the topology's links.
    pub fn new(inst: &Instance, dead: &[bool]) -> Result<Self, RealizeError> {
        if dead.len() != inst.topo().link_count() {
            return Err(RealizeError::MaskLengthMismatch {
                expected: inst.topo().link_count(),
                got: dead.len(),
            });
        }
        let mut tunnel_alive = vec![true; inst.num_tunnels()];
        for (e, _) in dead.iter().enumerate().filter(|&(_, &d)| d) {
            for &l in inst.tunnels_on_link(LinkId(e as u32)) {
                tunnel_alive[l.0] = false;
            }
        }
        let ls_active = inst
            .ls_ids()
            .map(|q| inst.ls(q).condition.holds(dead))
            .collect();
        Ok(FailureState {
            dead: dead.to_vec(),
            cap_scale: vec![1.0; dead.len()],
            tunnel_alive,
            ls_active,
        })
    }

    /// Like [`FailureState::new`], but with per-link capacity scales for
    /// partial degradation (an empty `cap_scale` means none). Degraded links
    /// stay alive (tunnel liveness and LS conditions read only `dead`); the
    /// scales shrink reservations via [`degraded_reservations`] and the caps
    /// the caller checks against.
    pub fn with_cap_scale(
        inst: &Instance,
        dead: &[bool],
        cap_scale: &[f64],
    ) -> Result<Self, RealizeError> {
        let mut state = FailureState::new(inst, dead)?;
        if cap_scale.is_empty() {
            return Ok(state);
        }
        if cap_scale.len() != inst.topo().link_count() {
            return Err(RealizeError::MaskLengthMismatch {
                expected: inst.topo().link_count(),
                got: cap_scale.len(),
            });
        }
        state.cap_scale = cap_scale.to_vec();
        Ok(state)
    }

    /// True when every link retains full capacity.
    pub fn undegraded(&self) -> bool {
        self.cap_scale.iter().all(|&s| s >= 1.0)
    }

    /// Packs tunnel liveness and LS activation into a compact bit
    /// signature. Two states with equal signatures realize identical
    /// routings for the same allocation: the realization only reads the
    /// dead-link mask through these two vectors.
    pub fn liveness_signature(&self) -> Vec<u64> {
        let bits = self.tunnel_alive.len() + self.ls_active.len();
        let mut sig = vec![0u64; bits.div_ceil(64).max(1)];
        for (i, &alive) in self
            .tunnel_alive
            .iter()
            .chain(self.ls_active.iter())
            .enumerate()
        {
            sig[i >> 6] |= (alive as u64) << (i & 63);
        }
        sig
    }

    /// Live tunnels of a pair.
    pub fn live_tunnels<'a>(
        &'a self,
        inst: &'a Instance,
        p: PairId,
    ) -> impl Iterator<Item = TunnelId> + 'a {
        inst.tunnels_of(p)
            .iter()
            .copied()
            .filter(move |l| self.tunnel_alive[l.0])
    }

    /// Active LSs of `L(p)`.
    pub fn active_lss<'a>(
        &'a self,
        inst: &'a Instance,
        p: PairId,
    ) -> impl Iterator<Item = LsId> + 'a {
        inst.lss_of(p)
            .iter()
            .copied()
            .filter(move |q| self.ls_active[q.0])
    }

    /// Active LSs of `Q(p)` (obligations).
    pub fn active_segments<'a>(
        &'a self,
        inst: &'a Instance,
        p: PairId,
    ) -> impl Iterator<Item = LsId> + 'a {
        inst.segments_of(p)
            .iter()
            .copied()
            .filter(move |q| self.ls_active[q.0])
    }
}

/// Error from routing realization.
#[derive(Debug, Clone, PartialEq)]
pub enum RealizeError {
    /// The dead-link mask does not cover exactly the topology's links.
    MaskLengthMismatch {
        /// Links in the topology.
        expected: usize,
        /// Entries in the supplied mask.
        got: usize,
    },
    /// The reservation matrix was singular (allocation does not satisfy the
    /// paper's feasibility conditions).
    SingularMatrix,
    /// The LSs active with positive reservation in this state serve each
    /// other in a cycle, so Proposition 7's walk has no order to visit the
    /// pairs in. The matrix need not be singular: the linear system still
    /// realizes such a state.
    CyclicActivation,
    /// Some utilization fraction left `[0, 1]` beyond tolerance — the
    /// allocation is not actually guaranteed under this scenario.
    UtilizationOutOfRange {
        /// Offending pair.
        pair: PairId,
        /// Computed fraction.
        u: f64,
    },
    /// A pair must carry traffic but has no live reservation at all,
    /// even though some tunnel or LS of it survived (a plan deficiency).
    NoReservation(PairId),
    /// A pair must carry traffic but every tunnel and LS of it is dead:
    /// the failure physically cut the pair off (beyond any plan).
    Disconnected(PairId),
}

impl std::fmt::Display for RealizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RealizeError::MaskLengthMismatch { expected, got } => {
                write!(
                    f,
                    "dead-link mask has {got} entries, topology has {expected} links"
                )
            }
            RealizeError::SingularMatrix => write!(f, "singular reservation matrix"),
            RealizeError::CyclicActivation => {
                write!(f, "active logical sequences form a cycle: no Prop. 7 order")
            }
            RealizeError::UtilizationOutOfRange { pair, u } => {
                write!(f, "utilization {u} out of [0,1] for pair {pair:?}")
            }
            RealizeError::NoReservation(p) => write!(f, "no live reservation for pair {p:?}"),
            RealizeError::Disconnected(p) => {
                write!(f, "pair {p:?} disconnected: no surviving tunnel or LS")
            }
        }
    }
}

impl std::error::Error for RealizeError {}

/// The pairs of interest `P` under a failure state (appendix definition):
/// pairs with served demand, closed under "is an active segment of an LS of
/// a pair in `P` with positive reservation".
///
/// `eps` filters solver noise: demands and reservations at or below it are
/// treated as zero (they would otherwise drag pairs with no meaningful
/// reservation into the linear system).
pub fn pairs_of_interest(
    inst: &Instance,
    state: &FailureState,
    served: &[f64], // z_p * d_p per pair
    b: &[f64],
    eps: f64,
) -> Vec<PairId> {
    let n = inst.num_pairs();
    let mut interest = vec![false; n];
    let mut queue: Vec<PairId> = Vec::new();
    for p in inst.pair_ids() {
        if served[p.0] > eps {
            interest[p.0] = true;
            queue.push(p);
        }
    }
    while let Some(p) = queue.pop() {
        // Every active LS q of this pair with b_q > eps makes its segments
        // interesting.
        for q in state.active_lss(inst, p) {
            if b[q.0] > eps {
                for &sp in inst.segment_pairs(q) {
                    if !interest[sp.0] {
                        interest[sp.0] = true;
                        queue.push(sp);
                    }
                }
            }
        }
    }
    inst.pair_ids().filter(|p| interest[p.0]).collect()
}

/// Assembles the reservation matrix `M` (Fig. 7 of the paper) over the
/// given pairs of interest, densified — what the paper prints as Fig. 7:
/// diagonal = live reservation of the pair (its live tunnels' `a`, then its
/// active LSs' `b`, added in that order to `0.0`), off-diagonal `(ij, mn)
/// = -Σ b_q` over active LSs of `(m,n)` that use `(i,j)` as a segment. A
/// reference for tests and probes: no realization path builds it.
pub fn reservation_matrix(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    pairs: &[PairId],
) -> DenseMatrix {
    const ABSENT: usize = usize::MAX;
    let mut position = vec![ABSENT; inst.num_pairs()];
    for (i, &p) in pairs.iter().enumerate() {
        position[p.0] = i;
    }
    let mut m = DenseMatrix::zeros(pairs.len());
    for (i, &p) in pairs.iter().enumerate() {
        let mut diag = 0.0;
        for l in state.live_tunnels(inst, p) {
            diag += a[l.0];
        }
        for q in state.active_lss(inst, p) {
            diag += b[q.0];
        }
        m.set(i, i, diag);
        for q in state.active_segments(inst, p) {
            let j = position[inst.ls_pair(q).0];
            if b[q.0] > 0.0 && j != ABSENT && j != i {
                m.set(i, j, m.get(i, j) - b[q.0]);
            }
        }
    }
    m
}

/// A realized routing for one concrete failure scenario.
#[derive(Debug, Clone)]
pub struct Routing {
    /// The pairs of interest, in matrix order.
    pub pairs: Vec<PairId>,
    /// Utilization fraction `U*(i,j) ∈ [0,1]` per pair (matrix order).
    pub u: Vec<f64>,
    /// Traffic carried by each tunnel (instance tunnel order; zero for dead
    /// or uninvolved tunnels).
    pub tunnel_flow: Vec<f64>,
    /// Load per directed arc.
    pub arc_loads: Vec<f64>,
    /// Rows of `M` solved in cyclic blocks, the LU elimination each block
    /// needed (`SparseLu::bump`): `0` when Prop. 7's walk alone produced
    /// `u` — every state whose active LSs sort — and for routings no linear
    /// system produced.
    pub bump: usize,
}

impl Routing {
    /// Maximum arc utilization (load / capacity).
    pub fn max_utilization(&self, inst: &Instance) -> f64 {
        let topo = inst.topo();
        topo.arcs()
            .map(|arc| self.arc_loads[arc.index()] / topo.capacity(arc.link()))
            .fold(0.0, f64::max)
    }
}

/// The absolute feasibility tolerance the realization uses: the caller's
/// relative `tol` scaled by total served demand.
pub fn absolute_tolerance(served: &[f64], tol: f64) -> f64 {
    tol * (1.0 + served.iter().sum::<f64>())
}

/// The live filter on pair of interest `p` and, for a pair it keeps,
/// `M`'s diagonal, from one walk over the pair's tunnels and LSs:
/// `Some(diagonal)` when the linear system is solved over `p`, i.e.
/// when it holds a live reservation, `None` when `p` is dropped.
///
/// A pair whose reservation AND whole load (demand plus worst-case
/// obligations) are both at noise level is dropped; a pair with meaningful
/// load and no reservation is a genuine violation —
/// [`RealizeError::Disconnected`] when every tunnel and LS of the pair is
/// dead (the failure cut it off), [`RealizeError::NoReservation`] when
/// something survived but carries no reservation (a plan deficiency).
///
/// The two keep their own sums: the diagonal adds the live `a`s, then the
/// active `b`s, to `0.0`, as [`reservation_matrix`] does; the filter
/// compares the `a`s' sum plus the `b`s' sum. Where either sum starts
/// (`+0.0` here, `Iterator::sum`'s own zero in the reference filter)
/// changes at most the sign of a zero, which the comparison does not see.
fn live_diagonal(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol_abs: f64,
    p: PairId,
) -> Result<Option<f64>, RealizeError> {
    // A dead tunnel or inactive LS adds `+0.0` instead of being skipped,
    // which changes no bit: a sum that starts at `+0.0` never becomes
    // `-0.0`.
    let mut diag = 0.0;
    for &l in inst.tunnels_of(p) {
        diag += or_zero(a[l.0], state.tunnel_alive[l.0]);
    }
    let (tunnels, mut lss) = (diag, 0.0);
    for &q in inst.lss_of(p) {
        let b = or_zero(b[q.0], state.ls_active[q.0]);
        diag += b;
        lss += b;
    }
    if tunnels + lss > tol_abs {
        return Ok(Some(diag));
    }
    let load_bound: f64 = served[p.0] + state.active_segments(inst, p).map(|q| b[q.0]).sum::<f64>();
    if load_bound > 10.0 * tol_abs {
        return Err(no_reservation_kind(inst, state, p));
    }
    Ok(None)
}

/// `x` when `on`, else `+0.0`, without a branch: which tunnels a failure
/// kills, and which pairs and tunnels carry flow, follow no pattern a
/// branch predictor learns.
fn or_zero(x: f64, on: bool) -> f64 {
    f64::from_bits(x.to_bits() & u64::from(on).wrapping_neg())
}

/// Whether `x` passes the expansion's skip test `x <= 0.0` (a NaN does).
fn not_skipped(x: f64) -> bool {
    x > 0.0 || x.is_nan()
}

/// The live filter as its own walk, apart from the diagonal's: the
/// reference [`live_diagonal`] is held to.
#[cfg(test)]
fn keeps(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol_abs: f64,
    p: PairId,
) -> Result<bool, RealizeError> {
    let live: f64 = state.live_tunnels(inst, p).map(|l| a[l.0]).sum::<f64>()
        + state.active_lss(inst, p).map(|q| b[q.0]).sum::<f64>();
    if live > tol_abs {
        return Ok(true);
    }
    let load_bound: f64 = served[p.0] + state.active_segments(inst, p).map(|q| b[q.0]).sum::<f64>();
    if load_bound > 10.0 * tol_abs {
        return Err(no_reservation_kind(inst, state, p));
    }
    Ok(false)
}

/// The pairs the linear system is solved over, selected the reference
/// way: the [`pairs_of_interest`] that hold a live reservation, the first
/// violation erroring (see [`keeps`]).
#[cfg(test)]
fn live_pairs(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol_abs: f64,
) -> Result<Vec<PairId>, RealizeError> {
    let mut pairs = pairs_of_interest(inst, state, served, b, tol_abs);
    let mut kept = 0;
    for k in 0..pairs.len() {
        let p = pairs[k];
        if keeps(inst, state, a, b, served, tol_abs, p)? {
            pairs[kept] = p;
            kept += 1;
        }
    }
    pairs.truncate(kept);
    Ok(pairs)
}

/// Classifies a zero-reservation pair: physically cut off
/// ([`RealizeError::Disconnected`]) vs. alive-but-unreserved
/// ([`RealizeError::NoReservation`]).
fn no_reservation_kind(inst: &Instance, state: &FailureState, p: PairId) -> RealizeError {
    let has_live_structure =
        state.live_tunnels(inst, p).next().is_some() || state.active_lss(inst, p).next().is_some();
    if has_live_structure {
        RealizeError::NoReservation(p)
    } else {
        RealizeError::Disconnected(p)
    }
}

/// Expands per-pair utilizations over ascending `pairs` into tunnel flows
/// and arc loads (Proposition 6's load accounting); `pairs` and `u` move
/// into the [`Routing`].
///
/// Each live tunnel of a pair carries `u · a` unless `u` or the flow is
/// `<= 0.0` (so a NaN flow is carried); a tunnel that carries nothing is
/// written the `+0.0` it holds. Each arc's load is then one sum,
/// from `0.0`, of the flows of [`Instance::tunnels_on_arc`]: the additions
/// of a pair-by-pair walk that adds every carried flow to every arc of its
/// tunnel, in the same order, plus a `+0.0` for each tunnel that carries
/// nothing, which changes no bit of a sum that started at `+0.0`.
pub(crate) fn expand_by_arc(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    pairs: Vec<PairId>,
    u: Vec<f64>,
) -> Routing {
    let mut tunnel_flow = vec![0.0; inst.num_tunnels()];
    for (&p, &u) in pairs.iter().zip(&u) {
        for &l in inst.tunnels_of(p) {
            let flow = u * a[l.0];
            let carried = state.tunnel_alive[l.0] & not_skipped(u) & not_skipped(flow);
            tunnel_flow[l.0] = or_zero(flow, carried);
        }
    }
    let arc_loads = (inst.topo().arcs())
        .map(|arc| {
            (inst.tunnels_on_arc(arc).iter()).fold(0.0, |load, &l| load + tunnel_flow[l as usize])
        })
        .collect();
    Routing {
        pairs,
        u,
        tunnel_flow,
        arc_loads,
        bump: 0,
    }
}

/// Realizes the routing for a concrete failure by solving the linear system
/// `M × U = D` (paper §4.1, Propositions 5–7).
///
/// Selects the live pairs, walks them greatest first — substitution for a
/// pair alone in its strongly connected component, one LU solve per
/// component with a cycle — range-checks `U` and expands it into loads.
/// The result reads the failure state only through its liveness signature
/// (and `a`, which degradation rescales).
///
/// `served[p]` is the traffic the pair must deliver (`z_p · d_p`). The
/// tolerance `tol` accepts small numerical overshoot of `U` beyond `[0,1]`.
/// One call of a fresh [`Realizer`]; realizing many states of one plan
/// through one `Realizer` returns the same results, bit for bit.
pub fn realize_routing(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
) -> Result<Routing, RealizeError> {
    Realizer::new(inst, b, served, tol).realize(state, a)
}

/// Strongly connected components of a relation on `0..n` whose node `v`
/// has the edges `edge_start[v]..edge_start[v + 1]`, edge `e` leading to
/// `target(e)` (Tarjan's algorithm, iterative): the nodes component after
/// component, and each component's start in them. Greatest first: every
/// component comes before each component an edge from it reaches, so a
/// relation without cycles comes out as a topological order of
/// singletons. Roots are tried in ascending order and edges in their
/// listed order, so the result is a function of the input alone.
fn condensation(
    n: usize,
    edge_start: &[usize],
    target: impl Fn(usize) -> usize,
) -> (Vec<u32>, Vec<usize>) {
    const UNSEEN: u32 = u32::MAX;
    let (mut index, mut low, mut on_stack) = (vec![UNSEEN; n], vec![0u32; n], vec![false; n]);
    // Tarjan's stack, and the depth-first path as (node, next edge).
    let (mut stack, mut path): (Vec<u32>, Vec<(u32, usize)>) = (Vec::new(), Vec::new());
    // Components as Tarjan closes them, least first.
    let (mut order, mut sizes) = (Vec::with_capacity(n), Vec::new());
    let mut seen = 0;
    for root in 0..n {
        let mut next = (index[root] == UNSEEN).then_some(root);
        loop {
            if let Some(v) = next.take() {
                (index[v], low[v], on_stack[v]) = (seen, seen, true);
                seen += 1;
                stack.push(v as u32);
                path.push((v as u32, edge_start[v]));
            }
            let Some((v, e)) = path.last_mut() else { break };
            let v = *v as usize;
            if *e < edge_start[v + 1] {
                let w = target(*e);
                *e += 1;
                if index[w] == UNSEEN {
                    next = Some(w);
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            path.pop();
            if let Some(&(parent, _)) = path.last() {
                low[parent as usize] = low[parent as usize].min(low[v]);
            }
            if low[v] == index[v] {
                let from = order.len();
                while let Some(w) = stack.pop() {
                    on_stack[w as usize] = false;
                    order.push(w);
                    if w as usize == v {
                        break;
                    }
                }
                sizes.push(order.len() - from);
            }
        }
    }
    order.reverse();
    let mut start = vec![0];
    for size in sizes.into_iter().rev() {
        start.push(start[start.len() - 1] + size);
    }
    (order, start)
}

/// The walk under one LS activation: the pairs of interest, the relation
/// among them — an active LS of a pair with positive reservation passes
/// the pair's traffic on to each of its segments, as `M`'s off-diagonal
/// terms do — and its components, greatest first.
#[derive(Debug)]
struct WalkOrder {
    /// The activation the order was built under.
    ls_active: Vec<bool>,
    /// [`pairs_of_interest`], ascending; the walk indexes them.
    pairs: Vec<PairId>,
    /// Pair `i` passes traffic on along
    /// `edges[edge_start[i]..edge_start[i + 1]]`: `(segment's index, b_q)`
    /// for each segment of each active LS of the pair with `b_q > 0`, in
    /// LS then hop order. A segment outside the pairs of interest, or the
    /// pair itself, is left out, as `M` leaves it out.
    edge_start: Vec<usize>,
    edges: Vec<(u32, f64)>,
    /// [`condensation`] of the relation.
    order: Vec<u32>,
    start: Vec<usize>,
}

impl WalkOrder {
    fn new(
        inst: &Instance,
        state: &FailureState,
        served: &[f64],
        b: &[f64],
        tol_abs: f64,
    ) -> WalkOrder {
        const ABSENT: u32 = u32::MAX;
        let pairs = pairs_of_interest(inst, state, served, b, tol_abs);
        let mut position = vec![ABSENT; inst.num_pairs()];
        for (i, &p) in pairs.iter().enumerate() {
            position[p.0] = i as u32;
        }
        let (mut edge_start, mut edges) = (vec![0], Vec::new());
        for (i, &p) in pairs.iter().enumerate() {
            for q in state.active_lss(inst, p).filter(|q| b[q.0] > 0.0) {
                for &sp in inst.segment_pairs(q) {
                    let s = position[sp.0];
                    if s != ABSENT && s as usize != i {
                        edges.push((s, b[q.0]));
                    }
                }
            }
            edge_start.push(edges.len());
        }
        let (order, start) = condensation(pairs.len(), &edge_start, |e| edges[e].0 as usize);
        WalkOrder {
            ls_active: state.ls_active.clone(),
            pairs,
            edge_start,
            edges,
            order,
            start,
        }
    }

    fn edges_of(&self, i: usize) -> &[(u32, f64)] {
        &self.edges[self.edge_start[i]..self.edge_start[i + 1]]
    }

    /// Proposition 7's walk over `demand`, indexed like
    /// [`WalkOrder::pairs`] and holding each pair's served demand, greatest
    /// component first. A pair alone in its component is asked
    /// `single(pair, demand + obligations so far)` for its utilization,
    /// which replaces its demand and passes `u · b_q` on to each segment
    /// (`None`: the pair carries nothing, `u = 0`, and passes nothing on).
    /// A component with a cycle goes to `block(members, demand)`, which
    /// solves it and passes its traffic on.
    fn walk(
        &self,
        demand: &mut [f64],
        mut single: impl FnMut(usize, f64) -> Result<Option<f64>, RealizeError>,
        mut block: impl FnMut(&[u32], &mut [f64]) -> Result<(), RealizeError>,
    ) -> Result<(), RealizeError> {
        for members in self.start.windows(2).map(|w| &self.order[w[0]..w[1]]) {
            let &[i] = members else {
                block(members, demand)?;
                continue;
            };
            let i = i as usize;
            let Some(u) = single(i, demand[i])? else {
                demand[i] = 0.0;
                continue;
            };
            demand[i] = u;
            for &(s, bq) in self.edges_of(i) {
                demand[s as usize] += u * bq;
            }
        }
        Ok(())
    }
}

/// Realizes failure states of one plan (`b`, `served`, `tol`; `a` comes
/// with each state, since degradation rescales it), ordering each LS
/// activation once.
///
/// The pairs of interest and the relation the walk follows depend only on
/// which LSs are active, so the realizer keeps the walk order of the last
/// activation it saw and rebuilds it only when a state's activation
/// differs. Each state then pays one pass over the pairs of interest (the
/// live filter's decision and `M`'s diagonal), the walk — a cyclic
/// component's block of `M`, over the members the filter keeps, factored
/// by `SparseLu::factor_columns` — and the expansion. Every result, error
/// or routing, is bit for bit the one a fresh realizer returns.
#[derive(Debug)]
pub struct Realizer<'a> {
    inst: &'a Instance,
    b: &'a [f64],
    served: &'a [f64],
    tol: f64,
    tol_abs: f64,
    /// The walk order under the last state's activation.
    order: Option<WalkOrder>,
    /// `M`'s diagonal on each pair of interest the live filter keeps
    /// (`None`: dropped), this state.
    diagonal: Vec<Option<f64>>,
    /// Each pair of interest's demand, then its utilization.
    demand: Vec<f64>,
    block: Block,
    orders: usize,
}

/// The workspace of a cyclic component's solve.
#[derive(Debug, Default)]
struct Block {
    /// Each pair of interest's column in the block; `u32::MAX` outside it.
    slot: Vec<u32>,
    col_start: Vec<usize>,
    entries: Vec<(u32, f64)>,
    x: Vec<f64>,
    scratch: Vec<f64>,
}

impl Block {
    /// Solves `M`'s block over the kept `members` of one component for
    /// their demands in place (a dropped member's becomes `0.0`), then
    /// passes each kept member's traffic on to the segments outside the
    /// block. Returns the rows the factorization eliminated.
    fn solve(
        &mut self,
        order: &WalkOrder,
        members: &[u32],
        diagonal: &[Option<f64>],
        demand: &mut [f64],
    ) -> Result<usize, RealizeError> {
        const OUT: u32 = u32::MAX;
        self.slot.resize(order.pairs.len(), OUT);
        let mut n = 0;
        for &j in members {
            if diagonal[j as usize].is_some() {
                self.slot[j as usize] = n;
                n += 1;
            } else {
                demand[j as usize] = 0.0;
            }
        }
        self.col_start.clear();
        self.entries.clear();
        self.x.clear();
        self.col_start.push(0);
        for &j in members {
            let Some(diag) = diagonal[j as usize] else {
                continue;
            };
            let col = self.entries.len();
            self.entries.push((self.slot[j as usize], diag));
            for &(s, bq) in order.edges_of(j as usize) {
                if self.slot[s as usize] != OUT {
                    self.entries.push((self.slot[s as usize], -bq));
                }
            }
            // Rows ascending; a row's repeated terms added in LS order.
            self.entries[col..].sort_by_key(|&(i, _)| i);
            let mut merged = col;
            for k in col..self.entries.len() {
                let (i, v) = self.entries[k];
                if merged > col && self.entries[merged - 1].0 == i {
                    self.entries[merged - 1].1 += v;
                } else {
                    self.entries[merged] = (i, v);
                    merged += 1;
                }
            }
            self.entries.truncate(merged);
            self.col_start.push(merged);
            self.x.push(demand[j as usize]);
        }
        let lu = SparseLu::factor_columns(n as usize, &self.col_start, &self.entries);
        if let Ok(lu) = &lu {
            lu.ftran_in_place(&mut self.x, &mut self.scratch);
            let members = members.iter().map(|&j| j as usize);
            for j in members.filter(|&j| self.slot[j] != OUT) {
                let u = self.x[self.slot[j] as usize];
                demand[j] = u;
                for &(s, bq) in order.edges_of(j) {
                    if self.slot[s as usize] == OUT {
                        demand[s as usize] += u * bq;
                    }
                }
            }
        }
        for &j in members {
            self.slot[j as usize] = OUT;
        }
        lu.map(|lu| lu.bump())
            .map_err(|_| RealizeError::SingularMatrix)
    }
}

impl<'a> Realizer<'a> {
    /// A realizer for the plan `(b, served)` with relative tolerance `tol`
    /// (as [`realize_routing`]); builds nothing until the first state.
    pub fn new(inst: &'a Instance, b: &'a [f64], served: &'a [f64], tol: f64) -> Self {
        Realizer {
            inst,
            b,
            served,
            tol,
            tol_abs: absolute_tolerance(served, tol),
            order: None,
            diagonal: Vec::new(),
            demand: Vec::new(),
            block: Block::default(),
            orders: 0,
        }
    }

    /// Walk orders built so far: one per change of LS activation.
    #[cfg(test)]
    pub(crate) fn orders(&self) -> usize {
        self.orders
    }

    /// [`realize_routing`] of `state` with reservations `a`.
    pub fn realize(&mut self, state: &FailureState, a: &[f64]) -> Result<Routing, RealizeError> {
        let (inst, b, served, tol_abs) = (self.inst, self.b, self.served, self.tol_abs);
        if (self.order.as_ref()).is_some_and(|o| o.ls_active != state.ls_active) {
            self.order = None;
        }
        let orders = &mut self.orders;
        let order = self.order.get_or_insert_with(|| {
            *orders += 1;
            WalkOrder::new(inst, state, served, b, tol_abs)
        });
        self.diagonal.clear();
        self.demand.clear();
        let mut kept = 0;
        for &p in &order.pairs {
            let diagonal = live_diagonal(inst, state, a, b, served, tol_abs, p)?;
            kept += usize::from(diagonal.is_some());
            self.diagonal.push(diagonal);
            self.demand.push(served[p.0]);
        }
        let (diagonal, block) = (&self.diagonal, &mut self.block);
        let mut bump = 0;
        order.walk(
            &mut self.demand,
            |i, demand| Ok(diagonal[i].map(|diag| demand / diag)),
            |members, demand| {
                bump += block.solve(order, members, diagonal, demand)?;
                Ok(())
            },
        )?;
        let (mut pairs, mut u) = (Vec::with_capacity(kept), Vec::with_capacity(kept));
        for ((&p, diag), &ui) in order.pairs.iter().zip(diagonal).zip(&self.demand) {
            if diag.is_some() {
                pairs.push(p);
                u.push(ui);
            }
        }
        let u = check_utilizations(&pairs, u, self.tol)?;
        let mut routing = expand_by_arc(inst, state, a, pairs, u);
        routing.bump = bump;
        Ok(routing)
    }
}

/// Rescales tunnel reservations for partial capacity degradation:
/// `ã_l = a_l · Π_{e∈τ_l} cap_scale_e`.
///
/// Every link's realized tunnel load then shrinks at least as fast as its
/// capacity (the load on `e` scales by `Π ≤ cap_scale_e`), so a plan that is
/// congestion-free at nominal capacities stays congestion-free at the
/// degraded capacities when realized with the rescaled reservations. LS
/// reservations need no scaling: they ride on segment pairs whose own
/// tunnel terms already carry the degradation.
pub fn degraded_reservations(inst: &Instance, state: &FailureState, a: &[f64]) -> Vec<f64> {
    let mut out = a.to_vec();
    if state.undegraded() {
        return out;
    }
    for l in inst.tunnel_ids() {
        let scale: f64 = inst
            .tunnel(l)
            .links
            .iter()
            .map(|e| state.cap_scale[e.index()].clamp(0.0, 1.0))
            .product();
        out[l.0] *= scale;
    }
    out
}

/// Range-checks and clamps the solved utilization fractions (`U ∈ [0,1]`
/// within `tol`).
fn check_utilizations(
    pairs: &[PairId],
    mut u: Vec<f64>,
    tol: f64,
) -> Result<Vec<f64>, RealizeError> {
    for (i, &p) in pairs.iter().enumerate() {
        if u[i] < -tol || u[i] > 1.0 + tol {
            return Err(RealizeError::UtilizationOutOfRange { pair: p, u: u[i] });
        }
        u[i] = u[i].clamp(0.0, 1.0);
    }
    Ok(u)
}

/// A strict partial order check under one LS activation: pairs can be
/// topologically sorted w.r.t. "`(i,j) > (i',j')` iff `(i',j')` is a
/// segment of some LS in `L(i,j)` that is active with positive
/// reservation" (paper §4.2). `active` is the activation it orders under
/// ([`FailureState::ls_active`]): a conditional LS carries traffic only in
/// the states where its condition holds, so only there does it order its
/// pair above its segments. All `true` asks whether the relation sorts
/// whatever the conditions.
///
/// Returns the pair order (greatest first) — the walk's components when
/// every one is a single pair — or `None` when the relation is cyclic,
/// a pair serving itself included.
pub fn topological_order(inst: &Instance, b: &[f64], active: &[bool]) -> Option<Vec<PairId>> {
    let (mut edge_start, mut targets) = (vec![0], Vec::new());
    for p in inst.pair_ids() {
        for &q in inst.lss_of(p) {
            if active[q.0] && b[q.0] > 0.0 {
                for &sp in inst.segment_pairs(q) {
                    if sp == p {
                        return None;
                    }
                    targets.push(sp.0);
                }
            }
        }
        edge_start.push(targets.len());
    }
    let (order, start) = condensation(inst.num_pairs(), &edge_start, |e| targets[e]);
    (order.len() + 1 == start.len()).then(|| order.iter().map(|&i| PairId(i as usize)).collect())
}

/// Proposition 7's walk for the degradation ladder's rescale stage, over
/// the order a [`Realizer`] walks: at each pair of interest asked to carry
/// `demand` (its served demand plus the obligations of the pairs walked
/// before it) beyond noise, over a live reservation of `reserved`,
/// `utilization(pair, demand, reserved)` decides the fraction of the
/// reservation to use — or aborts the walk — and that fraction of every
/// active LS reservation becomes segment obligations.
/// `CyclicActivation` when the LSs `state` activates have no topological
/// order ([`topological_order`]): the stage solves no block.
pub(crate) fn prop7_walk(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol_abs: f64,
    mut utilization: impl FnMut(PairId, f64, f64) -> Result<f64, RealizeError>,
) -> Result<Routing, RealizeError> {
    if topological_order(inst, b, &state.ls_active).is_none() {
        return Err(RealizeError::CyclicActivation);
    }
    let order = WalkOrder::new(inst, state, served, b, tol_abs);
    let mut demand: Vec<f64> = order.pairs.iter().map(|&p| served[p.0]).collect();
    order.walk(
        &mut demand,
        |i, demand| {
            if demand <= tol_abs {
                return Ok(None);
            }
            let p = order.pairs[i];
            let reserved: f64 = state.live_tunnels(inst, p).map(|l| a[l.0]).sum::<f64>()
                + state.active_lss(inst, p).map(|q| b[q.0]).sum::<f64>();
            utilization(p, demand, reserved).map(Some)
        },
        |_, _| Err(RealizeError::CyclicActivation),
    )?;
    Ok(expand_by_arc(inst, state, a, order.pairs, demand))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{Condition, FailureModel};
    use crate::instance::{InstanceBuilder, LogicalSequence};
    use crate::robust::{solve_robust, AdversaryKind, RobustOptions};
    use pcf_rng::{forall, Pcg32};
    use pcf_topology::{NodeId, Topology};
    use std::collections::BTreeSet;

    fn diamond() -> Topology {
        let mut t = Topology::new("diamond");
        let s = t.add_node("s");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let d = t.add_node("t");
        t.add_link(s, a, 1.0);
        t.add_link(a, d, 1.0);
        t.add_link(s, b, 1.0);
        t.add_link(b, d, 1.0);
        t
    }

    /// The reference realization: the live pairs selected by their own
    /// filter, `M` densified ([`reservation_matrix`]) and solved by
    /// `pcf_lp::lu_factor`, the range check, and the hop walk's loads;
    /// `bump` is the live pairs on a cycle of `M`'s off-diagonal pattern.
    fn reference_realize(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        b: &[f64],
        served: &[f64],
        tol: f64,
    ) -> Result<Routing, RealizeError> {
        let pairs = live_pairs(inst, state, a, b, served, absolute_tolerance(served, tol))?;
        let m = reservation_matrix(inst, state, a, b, &pairs);
        let d: Vec<f64> = pairs.iter().map(|&p| served[p.0]).collect();
        let lu = pcf_lp::lu_factor(&m).map_err(|_| RealizeError::SingularMatrix)?;
        let u = check_utilizations(&pairs, lu.solve(&d), tol)?;
        let (tunnel_flow, arc_loads) = hop_walk_loads(inst, state, a, &pairs, &u);
        Ok(Routing {
            pairs,
            u,
            tunnel_flow,
            arc_loads,
            bump: rows_on_cycles(&m),
        })
    }

    /// Rows of `m` that lie on a cycle of its off-diagonal pattern.
    fn rows_on_cycles(m: &DenseMatrix) -> usize {
        let edge = |i: usize, j: usize| i != j && m.get(i, j).abs() > 0.0;
        // Rows with no edge into or out of the rows left are on no cycle.
        let mut left: Vec<usize> = (0..m.n()).collect();
        loop {
            let before = left.clone();
            left.retain(|&i| {
                before.iter().any(|&j| edge(i, j)) && before.iter().any(|&j| edge(j, i))
            });
            if left.len() == before.len() {
                break;
            }
        }
        let on_cycle = |i: usize| {
            let (mut seen, mut stack) = (vec![false; m.n()], vec![i]);
            while let Some(k) = stack.pop() {
                for &j in left.iter().filter(|&&j| edge(k, j)) {
                    if j == i {
                        return true;
                    }
                    if !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            false
        };
        left.iter().filter(|&&i| on_cycle(i)).count()
    }

    /// Whether a realization agrees with the reference: the same pairs and
    /// bump with `u`, tunnel flows and arc loads within 1e-12 relative, or
    /// an error of the same kind about the same pair.
    fn agree(
        got: &Result<Routing, RealizeError>,
        want: &Result<Routing, RealizeError>,
    ) -> Result<(), String> {
        let close = |x: &[f64], y: &[f64]| {
            x.len() == y.len()
                && (x.iter().zip(y)).all(|(x, y)| (x - y).abs() <= 1e-12 * x.abs().max(y.abs()))
        };
        let pair = |e: &RealizeError| match e {
            RealizeError::UtilizationOutOfRange { pair, .. }
            | RealizeError::NoReservation(pair)
            | RealizeError::Disconnected(pair) => Some(*pair),
            _ => None,
        };
        let same = match (got, want) {
            (Ok(x), Ok(y)) => {
                x.pairs == y.pairs
                    && x.bump == y.bump
                    && close(&x.u, &y.u)
                    && close(&x.tunnel_flow, &y.tunnel_flow)
                    && close(&x.arc_loads, &y.arc_loads)
            }
            (Err(x), Err(y)) => {
                std::mem::discriminant(x) == std::mem::discriminant(y) && pair(x) == pair(y)
            }
            _ => false,
        };
        same.then_some(())
            .ok_or_else(|| format!("got {got:?}, reference {want:?}"))
    }

    /// A small plan on a fixed five-node graph and a walk of link events
    /// over it: the differential test's input.
    #[derive(Debug, Clone)]
    struct Walk {
        demands: Vec<(u32, u32)>,
        /// LS hops, and the link whose death activates it (`None`: always).
        lss: Vec<(Vec<u32>, Option<u32>)>,
        /// Seeds the plan's `a`, `b` and `served` once the instance is built.
        values: u64,
        /// `(link, permille)`: `0` fails the link, `1000` restores it, any
        /// other value degrades it to that fraction of its capacity.
        events: Vec<(u32, u32)>,
    }

    /// `s a b t c`: the diamond `s-a-t`, `s-b-t` with a chord `a-b` and a
    /// spur `t-c`.
    const WALK_LINKS: [(u32, u32); 6] = [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (3, 4)];

    impl Walk {
        fn instance(&self) -> Instance {
            let mut topo = Topology::new("walk");
            for name in ["s", "a", "b", "t", "c"] {
                topo.add_node(name);
            }
            for (u, v) in WALK_LINKS {
                topo.add_link(NodeId(u), NodeId(v), 1.0);
            }
            let demands = (self.demands.iter())
                .map(|&(s, t)| (NodeId(s), NodeId(t), 1.0))
                .collect();
            let mut builder = InstanceBuilder::with_demands(&topo, demands).tunnels_per_pair(2);
            for (hops, dead) in &self.lss {
                builder = builder.add_ls(LogicalSequence {
                    hops: hops.iter().map(|&v| NodeId(v)).collect(),
                    condition: dead.map_or(Condition::Always, |e| {
                        Condition::LinkDead(pcf_topology::LinkId(e))
                    }),
                });
            }
            builder.build()
        }

        /// `(a, b, served)`: tunnel reservations that are sometimes zero or
        /// noise, LS reservations that are sometimes zero, and served
        /// demands that are sometimes noise or more than the plan carries.
        fn plan(&self, inst: &Instance) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
            let mut rng = Pcg32::seed_from_u64(self.values);
            let a = (0..inst.num_tunnels())
                .map(|_| match rng.range_usize(0, 10) {
                    0 => 0.0,
                    1 => 1e-12,
                    _ => rng.range_f64(0.1, 1.0),
                })
                .collect();
            let b = (0..inst.num_lss())
                .map(|_| {
                    if rng.chance(0.2) {
                        0.0
                    } else {
                        rng.range_f64(0.05, 0.6)
                    }
                })
                .collect();
            let served = (inst.pair_ids())
                .map(|p| match rng.range_usize(0, 8) {
                    _ if inst.demand(p) <= 0.0 => 0.0,
                    0 => 3e-6,
                    1 => rng.range_f64(1.0, 2.0),
                    _ => rng.range_f64(0.05, 0.8),
                })
                .collect();
            (a, b, served)
        }
    }

    fn gen_walk(rng: &mut Pcg32) -> Walk {
        let node = |rng: &mut Pcg32| rng.range_usize(0, 5) as u32;
        let mut demands = Vec::new();
        for _ in 0..rng.range_usize_inclusive(1, 3) {
            let (s, t) = (node(rng), node(rng));
            if s != t && !demands.contains(&(s, t)) {
                demands.push((s, t));
            }
        }
        if demands.is_empty() {
            demands.push((0, 3));
        }
        let mut lss = Vec::new();
        if rng.chance(0.5) {
            // The cyclic diamond: (s,t) through a, (s,a) through t.
            lss.push((vec![0, 1, 3], None));
            lss.push((vec![0, 3, 1], None));
        }
        for _ in 0..rng.range_usize(0, 5) {
            let mut hops = vec![node(rng)];
            for _ in 0..rng.range_usize_inclusive(2, 3) {
                let next = node(rng);
                if hops.last() != Some(&next) {
                    hops.push(next);
                }
            }
            let dead = rng.chance(0.4).then(|| rng.range_usize(0, 6) as u32);
            if hops.len() >= 3 && hops[0] != hops[hops.len() - 1] {
                lss.push((hops, dead));
            }
        }
        let events = (0..rng.range_usize_inclusive(5, 30))
            .map(|_| {
                let link = rng.range_usize(0, 6) as u32;
                let permille = match rng.range_usize(0, 10) {
                    0..=3 => 0,
                    4..=7 => 1000,
                    _ => *rng.pick(&[500, 800]),
                };
                (link, permille)
            })
            .collect();
        Walk {
            demands,
            lss,
            values: rng.next_u64(),
            events,
        }
    }

    /// Smaller walks: one event, LS or demand fewer.
    fn shrink_walk(w: &Walk) -> Vec<Walk> {
        let mut out = Vec::new();
        for k in 0..w.events.len() {
            let mut fewer = w.clone();
            fewer.events.remove(k);
            out.push(fewer);
        }
        for k in 0..w.lss.len() {
            let mut fewer = w.clone();
            fewer.lss.remove(k);
            out.push(fewer);
        }
        for k in (0..w.demands.len()).filter(|_| w.demands.len() > 1) {
            let mut fewer = w.clone();
            fewer.demands.remove(k);
            out.push(fewer);
        }
        out
    }

    #[test]
    fn a_realizer_walk_matches_the_dense_reference() {
        let seen = std::cell::RefCell::new(BTreeSet::new());
        let counts = std::cell::Cell::new((0usize, 0usize));
        forall(
            "Realizer == dense reference, within rounding",
            &pcf_rng::Config::with_cases(300),
            gen_walk,
            shrink_walk,
            |w| {
                let inst = w.instance();
                let (a, b, served) = w.plan(&inst);
                let links = WALK_LINKS.len();
                let (mut dead, mut scale) = (vec![false; links], vec![1.0; links]);
                let mut realizer = Realizer::new(&inst, &b, &served, 1e-6);
                for (step, &(e, permille)) in [(0, 1000)].iter().chain(&w.events).enumerate() {
                    match permille {
                        0 => dead[e as usize] = true,
                        1000 => (dead[e as usize], scale[e as usize]) = (false, 1.0),
                        p => scale[e as usize] = f64::from(p) / 1000.0,
                    }
                    let state = FailureState::with_cap_scale(&inst, &dead, &scale)
                        .map_err(|e| e.to_string())?;
                    let a = degraded_reservations(&inst, &state, &a);
                    let want = reference_realize(&inst, &state, &a, &b, &served, 1e-6);
                    let got = realizer.realize(&state, &a);
                    agree(&got, &want).map_err(|e| format!("step {step}: {e}"))?;
                    let tol_abs = absolute_tolerance(&served, 1e-6);
                    let interest = pairs_of_interest(&inst, &state, &served, &b, tol_abs);
                    let mut seen = seen.borrow_mut();
                    seen.insert(match &want {
                        Ok(r) if r.bump > 0 => "bump",
                        Ok(_) => "walk",
                        Err(RealizeError::SingularMatrix) => "singular",
                        Err(RealizeError::CyclicActivation) => "cyclic",
                        Err(RealizeError::UtilizationOutOfRange { .. }) => "out of range",
                        Err(RealizeError::NoReservation(_)) => "no reservation",
                        Err(RealizeError::Disconnected(_)) => "disconnected",
                        Err(RealizeError::MaskLengthMismatch { .. }) => "mask",
                    });
                    if want.as_ref().is_ok_and(|r| r.pairs.len() < interest.len()) {
                        seen.insert("pair dropped");
                    }
                    if !state.undegraded() && want.is_ok() {
                        seen.insert("degraded");
                    }
                    if state.ls_active.iter().any(|&on| !on) && want.is_ok() {
                        seen.insert("inactive LS");
                    }
                }
                let (states, orders) = counts.get();
                counts.set((states + w.events.len() + 1, orders + realizer.orders()));
                Ok(())
            },
        );
        let want = [
            "bump",
            "walk",
            "singular",
            "out of range",
            "no reservation",
            "disconnected",
            "pair dropped",
            "degraded",
            "inactive LS",
        ];
        let seen = seen.into_inner();
        for kind in want {
            assert!(seen.contains(kind), "no case was {kind}: {seen:?}");
        }
        // Orders are reused: most states walk one built before.
        let (states, orders) = counts.get();
        assert!(4 * orders < states, "{orders} orders over {states} states");
    }

    #[test]
    fn failure_state_from_the_link_index_equals_the_tunnel_scan() {
        let topo = pcf_topology::zoo::build("Sprint");
        let inst = crate::schemes::pcf_ls_instance(&topo, &pcf_traffic::gravity(&topo, 11), 3);
        let n = topo.link_count();
        let masks = FailureModel::links(2).enumerate_scenarios(&topo);
        assert!(masks.len() > n, "{} masks", masks.len());
        for sc in &masks {
            let got = FailureState::new(&inst, &sc.dead).unwrap();
            let tunnel_alive: Vec<bool> = (inst.tunnel_ids())
                .map(|l| inst.tunnel(l).links.iter().all(|e| !sc.dead[e.index()]))
                .collect();
            let ls_active: Vec<bool> = (inst.ls_ids())
                .map(|q| inst.ls(q).condition.holds(&sc.dead))
                .collect();
            assert_eq!(got.dead, sc.dead);
            assert!(got
                .cap_scale
                .iter()
                .all(|s| s.to_bits() == 1.0f64.to_bits()));
            assert_eq!(got.cap_scale.len(), n);
            assert_eq!(got.tunnel_alive, tunnel_alive);
            assert_eq!(got.ls_active, ls_active);
        }
        for got in [n - 1, n + 1] {
            assert_eq!(
                FailureState::new(&inst, &vec![false; got]).unwrap_err(),
                RealizeError::MaskLengthMismatch { expected: n, got }
            );
        }
    }

    #[test]
    fn tunnel_only_routing_no_failure() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let dead = vec![false; 4];
        let state = FailureState::new(&inst, &dead).unwrap();
        let routing =
            realize_routing(&inst, &state, &sol.a, &sol.b, &sol.served(&inst), 1e-7).unwrap();
        // Demand scale 1, reservations total >= 1; all u in [0,1]; no arc
        // overloaded.
        assert!(routing.max_utilization(&inst) <= 1.0 + 1e-7);
        let delivered: f64 = routing.tunnel_flow.iter().sum();
        assert!((delivered - 1.0).abs() < 1e-6, "delivered {delivered}");
    }

    #[test]
    fn tunnel_only_routing_under_failure_rescales() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let sol = solve_robust(
            &inst,
            &FailureModel::links(1),
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        let mut dead = vec![false; 4];
        dead[0] = true; // kill one path
        let state = FailureState::new(&inst, &dead).unwrap();
        let routing =
            realize_routing(&inst, &state, &sol.a, &sol.b, &sol.served(&inst), 1e-7).unwrap();
        assert!(routing.max_utilization(&inst) <= 1.0 + 1e-7);
        let delivered: f64 = routing.tunnel_flow.iter().sum();
        assert!((delivered - sol.objective).abs() < 1e-6);
        // The dead tunnel carries nothing.
        for l in inst.tunnel_ids() {
            if !state.tunnel_alive[l.0] {
                assert_eq!(routing.tunnel_flow[l.0], 0.0);
            }
        }
    }

    #[test]
    fn ls_routing_cascades_obligations() {
        // Fig. 4-like chain with an LS: the walk realizes every state, and
        // agrees with the dense solve (Proposition 7).
        let inst = crate::figures::fig4_ls_instance(3, 2, 3);
        let fm = FailureModel::links(1);
        let sol = solve_robust(
            &inst,
            &fm,
            AdversaryKind::LinkBased,
            &RobustOptions::default(),
        );
        assert!(sol.objective > 0.5);
        let sv = sol.served(&inst);
        for sc in fm.enumerate_scenarios(inst.topo()) {
            let state = FailureState::new(&inst, &sc.dead).unwrap();
            let got = realize_routing(&inst, &state, &sol.a, &sol.b, &sv, 1e-6);
            let want = reference_realize(&inst, &state, &sol.a, &sol.b, &sv, 1e-6);
            agree(&got, &want).unwrap();
            let got = got.unwrap();
            assert!(got.max_utilization(&inst) <= 1.0 + 1e-6);
            assert_eq!(got.bump, 0);
        }
    }

    #[test]
    fn topological_order_detects_cycles() {
        // Two LSs referencing each other's endpoint pair: LS1 from s to t
        // through a, LS2 from s to a through t.
        let inst = cyclic_diamond();
        // LS1: (s,t) -> (s,a), (a,t). LS2: (s,a) -> (s,t), (t,a). Cycle
        // (s,t) -> (s,a) -> (s,t).
        assert!(topological_order(&inst, &[1.0, 1.0], &[true, true]).is_none());
        // With only the first LS (b2 = 0) the order exists.
        assert!(topological_order(&inst, &[1.0, 0.0], &[true, true]).is_some());
        // So it does when the second LS is inactive (its condition fails).
        assert!(topological_order(&inst, &[1.0, 1.0], &[true, false]).is_some());
    }

    /// Realizes every `f`-failure state of a plan and holds each result to
    /// the dense reference ([`agree`]); a state whose active LSs sort must
    /// be walked without a block. Returns the largest bump seen, how many
    /// states the walk alone realized and how many a block solve joined,
    /// and how many states activate a cycle.
    fn check_plan(
        inst: &Instance,
        f: usize,
        a: &[f64],
        b: &[f64],
        served: &[f64],
    ) -> (usize, usize, usize, usize) {
        let (mut max_bump, mut walked, mut blocked, mut cyclic) = (0, 0, 0, 0);
        for sc in FailureModel::links(f).enumerate_scenarios(inst.topo()) {
            let state = FailureState::new(inst, &sc.dead).unwrap();
            let got = realize_routing(inst, &state, a, b, served, 1e-6);
            let want = reference_realize(inst, &state, a, b, served, 1e-6);
            if let Err(e) = agree(&got, &want) {
                panic!("{:?}: {e}", sc.dead);
            }
            let sorts = topological_order(inst, b, &state.ls_active).is_some();
            cyclic += usize::from(!sorts);
            let Ok(got) = got else { continue };
            if sorts {
                assert_eq!(got.bump, 0, "a sortable state must be walked");
            }
            max_bump = max_bump.max(got.bump);
            if got.bump == 0 {
                walked += 1;
            } else {
                blocked += 1;
            }
        }
        (max_bump, walked, blocked, cyclic)
    }

    /// The diamond's two LSs that serve each other: (s,t) through a and
    /// (s,a) through t.
    fn cyclic_diamond() -> Instance {
        let (s, a, t) = (NodeId(0), NodeId(1), NodeId(3));
        InstanceBuilder::with_demands(&diamond(), vec![(s, t, 1.0)])
            .add_ls(LogicalSequence::always(vec![s, a, t]))
            .add_ls(LogicalSequence::always(vec![s, t, a]))
            .build()
    }

    #[test]
    fn realization_matches_the_dense_reference_on_every_state() {
        for name in ["Abilene", "Sprint", "Quest", "B4", "IBM"] {
            let topo = pcf_topology::zoo::build(name);
            let mut tm = pcf_traffic::gravity(&topo, 11);
            tm.truncate_to_top_k(200);
            let inst = crate::schemes::pcf_ls_instance(&topo, &tm, 3);
            let sol = crate::schemes::solve_pcf_ls(
                &inst,
                &FailureModel::links(1),
                &RobustOptions::default(),
            );
            check_plan(&inst, 1, &sol.a, &sol.b, &sol.served(&inst));
        }
        // PCF-CLS plans: with every LS active the relation is cyclic, yet
        // each single failure activates an acyclic set, so the walk alone
        // realizes every protected state. Some double failures activate a
        // cycle; most of those leave a pair without a live reservation,
        // the rest are solved with an LU block (at an eighth of the demand,
        // within range).
        let mut cyclic = Vec::new();
        for name in ["Abilene", "Sprint", "Quest"] {
            let topo = pcf_topology::zoo::build(name);
            let mut tm = pcf_traffic::gravity(&topo, 11);
            tm.truncate_to_top_k(200);
            let fm = FailureModel::links(1);
            let cls = crate::Scheme::PcfCls
                .plan(&topo, tm, 3, &fm, &RobustOptions::default(), None)
                .unwrap();
            let (inst, sol) = (&cls.inst, &cls.sol);
            let all = vec![true; inst.num_lss()];
            assert!(topological_order(inst, &sol.b, &all).is_none(), "{name}");
            let served = sol.served(inst);
            let checked = check_plan(inst, 1, &sol.a, &sol.b, &served);
            assert_eq!(checked, (0, topo.link_count(), 0, 0), "{name}");
            let (_, _, blocked, states) = check_plan(inst, 2, &sol.a, &sol.b, &served);
            let eighth: Vec<f64> = served.iter().map(|d| d / 8.0).collect();
            let (max_bump, _, at_eighth, _) = check_plan(inst, 2, &sol.a, &sol.b, &eighth);
            cyclic.push((name, states, blocked + at_eighth, max_bump));
        }
        let want = [
            ("Abilene", 22, 0, 0),
            ("Sprint", 7, 1, 2),
            ("Quest", 17, 0, 0),
        ];
        assert_eq!(cyclic, want);
        // The cyclic diamond: (s,t) and (s,a) serve each other, so their
        // 2x2 block is solved by LU.
        let inst = cyclic_diamond();
        let a = vec![1.0; inst.num_tunnels()];
        let b = [0.5, 0.25];
        assert!(topological_order(&inst, &b, &[true, true]).is_none());
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        assert_eq!(
            check_plan(&inst, 1, &a, &b, &served),
            (2, 0, 4, 4),
            "the cycle"
        );
        // Double failures cut (s,t) off: both paths must say so.
        check_plan(&inst, 2, &a, &b, &served);
        // Three LSs of (s,t) through segment (s,a), summed into one cell of
        // `M`; a fourth, (s,t) through t, uses (s,t) itself as a segment,
        // which `M` leaves out and the walk must too.
        let topo = diamond();
        let (s, na, nb, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let inst = InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)])
            .add_ls(LogicalSequence::always(vec![s, na, t]))
            .add_ls(LogicalSequence::always(vec![s, na, nb, t]))
            .add_ls(LogicalSequence::always(vec![s, na, nb, na, t]))
            .add_ls(LogicalSequence::always(vec![s, t, na, t]))
            .build();
        let b = [0.1, 0.2, 0.3, 0.15];
        let a = vec![1.0; inst.num_tunnels()];
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        let state = FailureState::new(&inst, &[false; 4]).unwrap();
        let pairs = pairs_of_interest(&inst, &state, &served, &b, 1e-9);
        let m = reservation_matrix(&inst, &state, &a, &b, &pairs);
        let at = |p: (NodeId, NodeId)| {
            let id = inst.pair_id(p.0, p.1).unwrap();
            pairs.iter().position(|&q| q == id).unwrap()
        };
        assert_eq!(m.get(at((s, na)), at((s, t))), ((-0.1) + (-0.2)) + (-0.3));
        assert!(topological_order(&inst, &b, &[true; 4]).is_none());
        assert_eq!(check_plan(&inst, 1, &a, &b, &served), (0, 4, 0, 4));
    }

    /// Proposition 6's load accounting walked pair by pair and the slow
    /// way — every live tunnel's `Path` hop by hop through `arc_from` —
    /// over pairs and their utilizations: the reference the per-arc
    /// expansion is held to, and the expansion of [`reference_realize`].
    /// Returns `(tunnel_flow, arc_loads)`.
    fn hop_walk_loads(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        pairs: &[PairId],
        u: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let topo = inst.topo();
        let mut tunnel_flow = vec![0.0; inst.num_tunnels()];
        let mut arc_loads = vec![0.0; topo.arc_count()];
        for (&p, &u) in pairs.iter().zip(u) {
            if u <= 0.0 {
                continue;
            }
            for l in state.live_tunnels(inst, p) {
                let flow = u * a[l.0];
                if flow <= 0.0 {
                    continue;
                }
                tunnel_flow[l.0] += flow;
                let path = inst.tunnel(l);
                for (hop, &link) in path.links.iter().enumerate() {
                    arc_loads[topo.arc_from(link, path.nodes[hop]).index()] += flow;
                }
            }
        }
        (tunnel_flow, arc_loads)
    }

    /// Realizes every `f`-link failure state, `f ∈ {1, 2}`, through
    /// [`realize_routing`] and the rescale stage's walk ([`prop7_walk`],
    /// clamping), plus `extra` states, and requires each successful routing's tunnel flows and arc
    /// loads to be the hop walk's bit for bit. Returns how many routings
    /// were checked.
    fn check_expansion(
        inst: &Instance,
        a: &[f64],
        b: &[f64],
        served: &[f64],
        extra: &[FailureState],
    ) -> usize {
        let mut states = extra.to_vec();
        for f in [1, 2] {
            for sc in FailureModel::links(f).enumerate_scenarios(inst.topo()) {
                states.push(FailureState::new(inst, &sc.dead).unwrap());
            }
        }
        let mut checked = 0;
        let tol_abs = absolute_tolerance(served, 1e-6);
        let clamp = |_, demand: f64, reserved: f64| Ok((demand / reserved).min(1.0));
        for state in &states {
            let a = degraded_reservations(inst, state, a);
            for routing in [
                realize_routing(inst, state, &a, b, served, 1e-6),
                prop7_walk(inst, state, &a, b, served, tol_abs, clamp),
            ]
            .into_iter()
            .flatten()
            {
                let (flow, loads) = hop_walk_loads(inst, state, &a, &routing.pairs, &routing.u);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&routing.tunnel_flow), bits(&flow), "tunnel flow");
                assert_eq!(bits(&routing.arc_loads), bits(&loads), "arc loads");
                checked += 1;
            }
        }
        checked
    }

    #[test]
    fn expansion_is_the_hop_walk_bit_for_bit() {
        for name in ["Abilene", "Sprint", "Quest", "B4"] {
            let topo = pcf_topology::zoo::build(name);
            let mut tm = pcf_traffic::gravity(&topo, 11);
            tm.truncate_to_top_k(200);
            let inst = crate::schemes::pcf_ls_instance(&topo, &tm, 3);
            let sol = crate::schemes::solve_pcf_ls(
                &inst,
                &FailureModel::links(1),
                &RobustOptions::default(),
            );
            // One degraded state: link 0 at 60% of its capacity, link 1 dead.
            let mut dead = vec![false; topo.link_count()];
            dead[1] = true;
            let mut scale = vec![1.0; topo.link_count()];
            scale[0] = 0.6;
            let degraded = FailureState::with_cap_scale(&inst, &dead, &scale).unwrap();
            let served = sol.served(&inst);
            let checked = check_expansion(&inst, &sol.a, &sol.b, &served, &[degraded]);
            // Both paths on every single failure, at least.
            assert!(checked >= 2 * topo.link_count(), "{name}: {checked}");
        }
        // The cyclic diamond: only the realizer's block solve routes it.
        let inst = cyclic_diamond();
        let a = vec![1.0; inst.num_tunnels()];
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        assert!(check_expansion(&inst, &a, &[0.5, 0.25], &served, &[]) > 0);
    }

    /// Explicit tunnels listed against pair order, one of them with a zero
    /// reservation, under degraded capacities too: the per-arc sums keep the
    /// pair-order walk's order, which here changes the bits of `m -> t`'s
    /// load.
    #[test]
    fn expansion_keeps_pair_order_over_out_of_order_tunnels() {
        let inst = crate::instance::out_of_order_fan_in();
        // Tunnels 0..6 are (x2: m-t, m-y-t), (x1: ...), (x0: ...); x1's
        // second tunnel reserves nothing.
        let a = [0.7, 0.6, 0.7, 0.0, 0.7, 0.3];
        let served = [0.1, 0.2, 0.3];
        let links = inst.topo().link_count();
        let alive = FailureState::new(&inst, &vec![false; links]).unwrap();
        let routing = realize_routing(&inst, &alive, &a, &[], &served, 1e-6).unwrap();
        let mt = inst.topo().arc_from(LinkId(3), NodeId(3));
        let flow = |l: usize| routing.tunnel_flow[l];
        let pair_order = 0.0 + flow(4) + flow(2) + flow(0);
        let tunnel_order = 0.0 + flow(0) + flow(2) + flow(4);
        assert_ne!(pair_order.to_bits(), tunnel_order.to_bits());
        assert_eq!(
            routing.arc_loads[mt.index()].to_bits(),
            pair_order.to_bits()
        );
        assert_eq!(flow(3).to_bits(), 0.0f64.to_bits());
        let degraded = |scaled: &[(usize, f64)], dead: &[usize]| {
            let (mut mask, mut scale) = (vec![false; links], vec![1.0; links]);
            for &(e, s) in scaled {
                scale[e] = s;
            }
            for &e in dead {
                mask[e] = true;
            }
            FailureState::with_cap_scale(&inst, &mask, &scale).unwrap()
        };
        let extra = [
            alive.clone(),
            degraded(&[(3, 0.5)], &[]),
            degraded(&[(0, 0.8), (5, 0.9)], &[]),
            degraded(&[(3, 0.6)], &[4]),
        ];
        assert!(extra[1..].iter().all(|s| !s.undegraded()));
        assert!(check_expansion(&inst, &a, &[], &served, &extra) >= 2 * extra.len());
    }

    #[test]
    fn conditional_ls_inactive_when_condition_false() {
        let topo = diamond();
        let ls = LogicalSequence {
            hops: vec![NodeId(0), NodeId(2), NodeId(3)],
            condition: Condition::LinkDead(pcf_topology::LinkId(0)),
        };
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .add_ls(ls)
            .build();
        let no_fail = FailureState::new(&inst, &[false; 4]).unwrap();
        assert!(!no_fail.ls_active[0]);
        let mut dead = vec![false; 4];
        dead[0] = true;
        let failed = FailureState::new(&inst, &dead).unwrap();
        assert!(failed.ls_active[0]);
    }

    #[test]
    fn mask_length_mismatch_is_a_structured_error() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        // 3 entries for a 4-link topology.
        let err = FailureState::new(&inst, &[false; 3]).unwrap_err();
        assert_eq!(
            err,
            RealizeError::MaskLengthMismatch {
                expected: 4,
                got: 3
            }
        );
        assert!(err.to_string().contains("3 entries"));
        assert!(FailureState::new(&inst, &[false; 4]).is_ok());
    }

    #[test]
    fn liveness_signature_distinguishes_states() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let alive = FailureState::new(&inst, &[false; 4]).unwrap();
        let mut dead = vec![false; 4];
        dead[0] = true;
        let failed = FailureState::new(&inst, &dead).unwrap();
        assert_ne!(alive.liveness_signature(), failed.liveness_signature());
        // Equal states, equal signatures.
        assert_eq!(
            failed.liveness_signature(),
            FailureState::new(&inst, &dead)
                .unwrap()
                .liveness_signature()
        );
    }

    #[test]
    fn routing_reports_missing_reservation() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        // No reservations at all but positive served demand.
        let state = FailureState::new(&inst, &[false; 4]).unwrap();
        let a = vec![0.0; inst.num_tunnels()];
        let err = realize_routing(&inst, &state, &a, &[], &[1.0], 1e-7).unwrap_err();
        assert!(matches!(err, RealizeError::NoReservation(_)));
    }

    #[test]
    fn routing_reports_disconnection_distinctly() {
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        // Cut both exits of s: every tunnel of (s,t) is dead, so the pair
        // is physically disconnected — a different failure class than a
        // live-but-unreserved pair.
        let mut dead = vec![false; 4];
        dead[0] = true;
        dead[2] = true;
        let state = FailureState::new(&inst, &dead).unwrap();
        let a = vec![1.0; inst.num_tunnels()];
        let err = realize_routing(&inst, &state, &a, &[], &[1.0], 1e-7).unwrap_err();
        let p = inst.pair_id(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(err, RealizeError::Disconnected(p));
        assert!(err.to_string().contains("disconnected"));
    }
}

#[cfg(test)]
mod fig6_tests {
    use super::*;
    use crate::figures::fig6_instance;
    use crate::instance::TunnelId;

    /// The paper's Fig. 7 reservation matrix, reproduced entry by entry,
    /// and Fig. 6(b)'s realized tunnel fractions for destination B.
    #[test]
    fn fig7_matrix_and_fig6b_routing() {
        let (inst, ids) = fig6_instance();
        let no_fail = vec![false; inst.topo().link_count()];
        let state = FailureState::new(&inst, &no_fail).unwrap();
        let a = vec![1.0; inst.num_tunnels()];
        let b = vec![1.0; inst.num_lss()];
        // Pairs of interest: AB (demand) plus the LS segments AC, CD, AD, DB.
        let served: Vec<f64> = inst.pair_ids().map(|p| inst.demand(p)).collect();
        let pairs = pairs_of_interest(&inst, &state, &served, &b, 1e-9);
        assert_eq!(pairs.len(), 5);
        let m = reservation_matrix(&inst, &state, &a, &b, &pairs);
        let idx = |s, t| {
            let p = inst.pair_id(s, t).unwrap();
            pairs.iter().position(|&q| q == p).unwrap()
        };
        let (na, nb, nc, nd) = (ids.a, ids.b, ids.c, ids.d);
        // Fig. 7 diagonal: a_l1 .. a_l3 + b_q1 .. a_l5 + b_q2.
        assert_eq!(m.get(idx(na, nc), idx(na, nc)), 1.0);
        assert_eq!(m.get(idx(nc, nd), idx(nc, nd)), 1.0);
        assert_eq!(m.get(idx(na, nd), idx(na, nd)), 2.0); // a_l3 + b_q1
        assert_eq!(m.get(idx(nd, nb), idx(nd, nb)), 1.0);
        assert_eq!(m.get(idx(na, nb), idx(na, nb)), 2.0); // a_l5 + b_q2
                                                          // Fig. 7 off-diagonals: −b_q1 in rows AC, CD (column AD); −b_q2 in
                                                          // rows AD, DB (column AB).
        assert_eq!(m.get(idx(na, nc), idx(na, nd)), -1.0);
        assert_eq!(m.get(idx(nc, nd), idx(na, nd)), -1.0);
        assert_eq!(m.get(idx(na, nd), idx(na, nb)), -1.0);
        assert_eq!(m.get(idx(nd, nb), idx(na, nb)), -1.0);
        // Everything else zero.
        assert_eq!(m.get(idx(na, nc), idx(na, nb)), 0.0);
        assert_eq!(m.get(idx(na, nb), idx(na, nd)), 0.0);

        // Fig. 6(b): the realized fractions to destination B.
        let routing = realize_routing(&inst, &state, &a, &b, &served, 1e-9).unwrap();
        let flow = |l: usize| routing.tunnel_flow[TunnelId(l).0];
        assert!((flow(4) - 0.5).abs() < 1e-12, "l5 carries 1/2");
        assert!((flow(3) - 0.5).abs() < 1e-12, "l4 carries 1/2");
        assert!((flow(2) - 0.25).abs() < 1e-12, "l3 carries 1/4");
        assert!((flow(0) - 0.25).abs() < 1e-12, "l1 carries 1/4");
        assert!((flow(1) - 0.25).abs() < 1e-12, "l2 carries 1/4");
        // Topologically sorted ((A,B) > (A,D) > segments): the walk alone
        // realizes it, and agrees with the dense solve (Prop. 7).
        assert_eq!((routing.bump, &routing.pairs), (0, &pairs));
        let d: Vec<f64> = pairs.iter().map(|&p| served[p.0]).collect();
        let dense = pcf_lp::lu_factor(&m).unwrap().solve(&d);
        for (x, y) in routing.u.iter().zip(&dense) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// §4.2's ordering claim on the same example: (A,B) > (A,D) because q2
    /// uses segment (A,D) — and the topological order reflects it.
    #[test]
    fn fig6_topological_order() {
        let (inst, ids) = fig6_instance();
        let order = topological_order(&inst, &[1.0, 1.0], &[true, true]).expect("sortable");
        let pos = |s, t| {
            let p = inst.pair_id(s, t).unwrap();
            order.iter().position(|&q| q == p).unwrap()
        };
        assert!(pos(ids.a, ids.b) < pos(ids.a, ids.d), "AB before AD");
        assert!(pos(ids.a, ids.d) < pos(ids.a, ids.c), "AD before AC");
        assert!(pos(ids.a, ids.d) < pos(ids.c, ids.d), "AD before CD");
    }
}
