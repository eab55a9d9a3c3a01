//! Realizing PCF's response mechanisms (paper §4).
//!
//! The offline models decide reservations; this module turns a solved
//! allocation plus a *concrete* failure into the actual routing:
//!
//! * [`FailureState`] — which tunnels are alive (cleared through
//!   [`Instance::tunnels_on_link`] for each dead link) and which LSs are
//!   active;
//! * [`reservation_matrix`] — the matrix `M` over the pairs of interest
//!   (Proposition 5: an invertible M-matrix), densified for tests and
//!   probes; a realization assembles it straight into one flat CSC
//!   (column starts plus `(row, value)` entries, rows ascending, an LS
//!   term landing on an occupied cell added to it in emission order) and
//!   never densifies it;
//! * [`Realizer`] — solves `M × U = D` (one linear system, not an LP) and
//!   expands reservations into per-arc loads (Proposition 6): the one
//!   realization path, whose finished [`Routing`] `pcf-replay` caches per
//!   liveness signature; [`realize_routing`] is one call of a fresh one.
//!   The factorization is triangular first (`SparseLu::factor_columns`):
//!   when the live LSs sort topologically `M` is a permuted triangular
//!   matrix, the factors *are* that permutation and the solve *is*
//!   Proposition 7's walk written as substitution ([`Routing::bump`]
//!   `== 0`); only the pairs inside an LS cycle pay for elimination. A
//!   realizer splits the work in two. A **pattern** — pair selection over
//!   the instance's interned segment pairs, `M`'s flat CSC and the
//!   singleton peel's pivot order ([`pcf_lp::PeelOrder`]) — depends only
//!   on which LSs are active and which pairs the live filter keeps, and is
//!   built once for all the states that agree on both. Each state then
//!   pays a **numeric replay**: its diagonals (a failure changes nothing
//!   else in `M`; one walk per pair yields both the live filter's decision
//!   and the diagonal) and the substitution the factorization would have
//!   run, the same floating-point operations in the same order. A pattern
//!   with a bump (cyclic LS sets) records no order, and its states are
//!   factored by Markowitz elimination each time. The solve runs in place
//!   into the buffer that becomes [`Routing::u`], and the expansion writes
//!   each live tunnel's flow once, then sums each arc's load over the
//!   tunnels [`Instance::tunnels_on_arc`] lists in the pair-order walk's
//!   order (tests hold those sums, bit for bit, to a hop-by-hop walk of
//!   each tunnel's `Path`, and every realizer result to the per-state
//!   chain it replaced);
//! * [`proportional_routing`] — Proposition 7's walk written out, the
//!   distributed alternative for topologically sorted LSs, identical to
//!   FFC's local rescaling (tests hold [`realize_routing`] to it);
//! * [`topological_order`] / [`greedy_topsort`] — the sortability check and
//!   the PCF-CLS-TopSort pruning heuristic (§5.2).

use crate::instance::{Instance, LogicalSequence, LsId, PairId, TunnelId};
use pcf_lp::{DenseMatrix, PeelOrder, SparseLu};
use pcf_topology::LinkId;
use std::collections::{BTreeMap, BTreeSet};

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
/// given pairs of interest: diagonal = live reservation of the pair,
/// off-diagonal `(ij, mn) = -Σ b_q` over active LSs of `(m,n)` that use
/// `(i,j)` as a segment. Calls `add(row, col, term)` row by row in
/// ascending order, once per diagonal and once per LS term, the LSs
/// sharing one cell back to back in LS order.
fn for_each_reservation(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    pairs: &[PairId],
    mut add: impl FnMut(usize, usize, f64),
) {
    const ABSENT: usize = usize::MAX;
    let mut position = vec![ABSENT; inst.num_pairs()];
    for (i, &p) in pairs.iter().enumerate() {
        position[p.0] = i;
    }
    for (i, &p) in pairs.iter().enumerate() {
        add(i, i, diagonal(inst, state, a, b, p));
        for q in state.active_segments(inst, p) {
            let j = position[inst.ls_pair(q).0];
            if b[q.0] > 0.0 && j != ABSENT && j != i {
                add(i, j, -b[q.0]);
            }
        }
    }
}

/// Pair `p`'s live reservation as `M`'s diagonal holds it: its live
/// tunnels' `a`, then its active LSs' `b`, added in that order to `0.0`.
fn diagonal(inst: &Instance, state: &FailureState, a: &[f64], b: &[f64], p: PairId) -> f64 {
    let mut diag = 0.0;
    for l in state.live_tunnels(inst, p) {
        diag += a[l.0];
    }
    for q in state.active_lss(inst, p) {
        diag += b[q.0];
    }
    diag
}

/// `M` as the flat CSC `SparseLu::factor_columns` takes: column `j` is
/// `entries[col_start[j]..col_start[j + 1]]`, `(row, value)` with rows
/// ascending because rows are emitted in ascending order. The emitted
/// terms are bucketed by column (a stable counting sort), then a term
/// whose row repeats its column's previous one is added to that cell —
/// exactly the additions, in exactly the order, that [`reservation_matrix`]
/// performs.
fn reservation_csc(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    pairs: &[PairId],
) -> (Vec<usize>, Vec<(u32, f64)>) {
    let n = pairs.len();
    let mut emitted: Vec<(u32, u32, f64)> = Vec::new();
    for_each_reservation(inst, state, a, b, pairs, |i, j, v| {
        emitted.push((i as u32, j as u32, v))
    });
    // Count into `col_start[j + 1]`, prefix-sum, place (advancing
    // `col_start[j]` to the end of column `j`), shift back into place.
    let mut col_start = vec![0usize; n + 1];
    for &(_, j, _) in &emitted {
        col_start[j as usize + 1] += 1;
    }
    for j in 0..n {
        col_start[j + 1] += col_start[j];
    }
    let mut entries = vec![(0u32, 0.0f64); emitted.len()];
    for &(i, j, v) in &emitted {
        entries[col_start[j as usize]] = (i, v);
        col_start[j as usize] += 1;
    }
    col_start.copy_within(0..n, 1);
    col_start[0] = 0;
    // Merge repeated cells in place.
    let mut kept = 0;
    for j in 0..n {
        let (lo, hi) = (col_start[j], col_start[j + 1]);
        col_start[j] = kept;
        for k in lo..hi {
            let (i, v) = entries[k];
            if kept > col_start[j] && entries[kept - 1].0 == i {
                entries[kept - 1].1 += v;
            } else {
                entries[kept] = (i, v);
                kept += 1;
            }
        }
    }
    col_start[n] = kept;
    entries.truncate(kept);
    (col_start, entries)
}

/// The same assembly densified — what the paper prints as Fig. 7. A
/// reference for tests and probes: no realization path builds it.
pub fn reservation_matrix(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    pairs: &[PairId],
) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(pairs.len());
    for_each_reservation(inst, state, a, b, pairs, |i, j, v| {
        m.set(i, j, m.get(i, j) + v)
    });
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
    /// Rows of `M` the factorization had to eliminate (`SparseLu::bump`):
    /// `0` when substitution alone — Prop. 7's walk — produced `u`, and
    /// for routings no linear system produced.
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
/// active `b`s, to `0.0`, as [`diagonal`] does; the filter compares the
/// `a`s' sum plus the `b`s' sum. Where either sum starts (`+0.0` here,
/// `Iterator::sum`'s own zero in the reference filter) changes at most the
/// sign of a zero, which the comparison does not see.
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

/// The live filter as the realization chain before [`live_diagonal`] ran
/// it: its own walk, apart from the diagonal's.
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

/// The pairs the linear system is solved over, as the realization chain
/// before [`Realizer`] selected them: the [`pairs_of_interest`] that hold
/// a live reservation, the first violation erroring (see [`keeps`]).
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
/// `M × U = D` (paper §4.1, Propositions 5–6).
///
/// Selects the live pairs, assembles `M` as one flat CSC, factors it,
/// substitutes in place (the demand vector becoming `U`), range-checks `U`
/// and expands it into loads. The result reads the failure state only
/// through its liveness signature (and `a`, which degradation rescales).
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

/// Realizes failure states of one plan (`b`, `served`, `tol`; `a` comes
/// with each state, since degradation rescales it), building what states
/// share once.
///
/// `M`'s pattern depends only on which LSs are active and which pairs the
/// live filter keeps: off-diagonal cells are sums of `-b` terms, and a
/// failure changes only the diagonal values. So a **pattern** is built
/// once — the pairs of interest and the LS activation they were selected
/// under, the live pairs, `M`'s flat CSC with each diagonal's entry, and
/// the singleton peel's pivot order ([`PeelOrder`]) — and a state whose
/// `ls_active` equals the pattern's, and whose pairs of interest all get
/// the pattern's keep/drop decision from the live filter, is realized by
/// a **numeric replay**: its diagonals recomputed as the assembly sums
/// them, then the substitution `factor_columns` + `ftran_in_place` would
/// run. Any other state rebuilds the pattern for itself. A pattern that
/// leaves a bump (cyclic LS sets) records no order, and a replay whose
/// recorded pivot falls below the singleton tolerance is refused; either
/// way the state is factored from scratch, Markowitz elimination
/// included. Every result, error or routing, is bit for bit the one the
/// chain built per state (pair selection, assembly, factorization,
/// substitution) returns.
#[derive(Debug)]
pub struct Realizer<'a> {
    inst: &'a Instance,
    b: &'a [f64],
    served: &'a [f64],
    tol: f64,
    tol_abs: f64,
    /// The pairs of interest and the LS activation they were selected
    /// under.
    selection: Option<Selection>,
    /// `M`'s pattern over the selection; `None` when stale.
    pattern: Option<Pattern>,
    /// The live filter's decision on each pair of interest, this state.
    keep: Vec<bool>,
    /// `M`'s diagonal for each pair the filter keeps, this state.
    diagonals: Vec<f64>,
    scratch: Vec<f64>,
    builds: usize,
    factorizations: usize,
}

/// [`pairs_of_interest`] under one LS activation.
#[derive(Debug)]
struct Selection {
    ls_active: Vec<bool>,
    interest: Vec<PairId>,
}

/// `M` over the pairs of interest the live filter keeps.
#[derive(Debug)]
struct Pattern {
    /// The live filter's decision on each pair of interest.
    keep: Vec<bool>,
    pairs: Vec<PairId>,
    col_start: Vec<usize>,
    /// `(row, value)`; the off-diagonal values are the pattern's own, the
    /// diagonal ones are rewritten for every state.
    entries: Vec<(u32, f64)>,
    /// The entry holding each pair's diagonal.
    diagonal: Vec<usize>,
    /// `None`: the peel leaves a bump.
    order: Option<PeelOrder>,
}

impl Pattern {
    fn build(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        b: &[f64],
        keep: &[bool],
        interest: &[PairId],
    ) -> Pattern {
        let pairs: Vec<PairId> = (interest.iter().zip(keep))
            .filter(|&(_, &k)| k)
            .map(|(&p, _)| p)
            .collect();
        let (col_start, entries) = reservation_csc(inst, state, a, b, &pairs);
        // Rows ascend within a column, and every pair has its diagonal.
        let diagonal = (0..pairs.len())
            .map(|j| {
                let col = &entries[col_start[j]..col_start[j + 1]];
                col_start[j] + col.partition_point(|&(i, _)| (i as usize) < j)
            })
            .collect();
        let order = PeelOrder::record(pairs.len(), &col_start, &entries);
        Pattern {
            keep: keep.to_vec(),
            pairs,
            col_start,
            entries,
            diagonal,
            order,
        }
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
            selection: None,
            pattern: None,
            keep: Vec::new(),
            diagonals: Vec::new(),
            scratch: Vec::new(),
            builds: 0,
            factorizations: 0,
        }
    }

    /// Patterns built so far.
    #[cfg(test)]
    pub(crate) fn builds(&self) -> usize {
        self.builds
    }

    /// States factored from scratch so far (no recorded order, or one
    /// refused).
    #[cfg(test)]
    pub(crate) fn factorizations(&self) -> usize {
        self.factorizations
    }

    /// [`realize_routing`] of `state` with reservations `a`.
    pub fn realize(&mut self, state: &FailureState, a: &[f64]) -> Result<Routing, RealizeError> {
        let (inst, b, served, tol_abs) = (self.inst, self.b, self.served, self.tol_abs);
        if self
            .selection
            .as_ref()
            .is_some_and(|s| s.ls_active != state.ls_active)
        {
            self.selection = None;
            self.pattern = None;
        }
        let selection = self.selection.get_or_insert_with(|| Selection {
            ls_active: state.ls_active.clone(),
            interest: pairs_of_interest(inst, state, served, b, tol_abs),
        });
        self.keep.clear();
        self.diagonals.clear();
        for &p in &selection.interest {
            let diagonal = live_diagonal(inst, state, a, b, served, tol_abs, p)?;
            self.keep.push(diagonal.is_some());
            self.diagonals.extend(diagonal);
        }
        if self
            .pattern
            .as_ref()
            .is_some_and(|pat| pat.keep != self.keep)
        {
            self.pattern = None;
        }
        let pattern = match &mut self.pattern {
            Some(pattern) => {
                for (&at, &diagonal) in pattern.diagonal.iter().zip(&self.diagonals) {
                    pattern.entries[at].1 = diagonal;
                }
                pattern
            }
            slot => {
                self.builds += 1;
                slot.insert(Pattern::build(
                    inst,
                    state,
                    a,
                    b,
                    &self.keep,
                    &selection.interest,
                ))
            }
        };
        let mut u: Vec<f64> = pattern.pairs.iter().map(|&p| served[p.0]).collect();
        let replayed = pattern.order.as_ref().is_some_and(|order| {
            order
                .solve(&pattern.entries, &mut u, &mut self.scratch)
                .is_ok()
        });
        let bump = if replayed {
            0
        } else {
            self.factorizations += 1;
            let n = pattern.pairs.len();
            let lu = SparseLu::factor_columns(n, &pattern.col_start, &pattern.entries)
                .map_err(|_| RealizeError::SingularMatrix)?;
            lu.ftran_in_place(&mut u, &mut self.scratch);
            lu.bump()
        };
        let u = check_utilizations(&pattern.pairs, u, self.tol)?;
        let mut routing = expand_by_arc(inst, state, a, pattern.pairs.clone(), u);
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

/// A strict partial order check: pairs can be topologically sorted w.r.t.
/// "`(i,j) > (i',j')` iff `(i',j')` is a segment of some LS in `L(i,j)` with
/// positive reservation" (paper §4.2). Conditions are ignored (every LS is
/// assumed activatable), which is conservative.
///
/// Returns the pair order (greatest first) or `None` when the relation is
/// cyclic.
pub fn topological_order(inst: &Instance, b: &[f64]) -> Option<Vec<PairId>> {
    let n = inst.num_pairs();
    // Edge (p -> segment pair) for each LS of p.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for q in inst.ls_ids() {
        if b[q.0] <= 0.0 {
            continue;
        }
        let owner = inst.ls_pair(q);
        for &sp in inst.segment_pairs(q) {
            if sp != owner {
                adj[owner.0].push(sp.0);
                indeg[sp.0] += 1;
            } else {
                return None; // self-loop: a pair serving itself
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    // Deterministic order.
    queue.sort_unstable();
    while let Some(i) = queue.pop() {
        order.push(PairId(i));
        for &j in &adj[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                queue.push(j);
            }
        }
    }
    if order.len() == n {
        Some(order)
    } else {
        None
    }
}

/// PCF-CLS-TopSort (§5.2): greedily keeps a prefix-respecting subset of LSs
/// that admits a topological order, pruning any LS that would create a
/// cycle. Returns the kept LSs and the number pruned.
pub fn greedy_topsort(lss: &[LogicalSequence]) -> (Vec<LogicalSequence>, usize) {
    type Pair = (u32, u32);
    // reach[x] contains pairs reachable from x in the kept relation.
    let mut adj: BTreeMap<Pair, Vec<Pair>> = BTreeMap::new();
    let reaches = |adj: &BTreeMap<Pair, Vec<Pair>>, from: Pair, to: Pair| -> bool {
        if from == to {
            return true;
        }
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(x) = stack.pop() {
            if x == to {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(next) = adj.get(&x) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut kept = Vec::new();
    let mut pruned = 0usize;
    for ls in lss {
        let owner: Pair = (ls.source().0, ls.dest().0);
        let segs: Vec<Pair> = ls.segments().map(|(u, v)| (u.0, v.0)).collect();
        // Adding edges owner -> seg creates a cycle iff some seg already
        // reaches owner (or equals it).
        let cycle = segs.iter().any(|&sp| reaches(&adj, sp, owner));
        if cycle {
            pruned += 1;
            continue;
        }
        for &sp in &segs {
            adj.entry(owner).or_default().push(sp);
        }
        kept.push(ls.clone());
    }
    (kept, pruned)
}

/// Local proportional routing (paper §4.2, Proposition 7): traffic of each
/// pair is split over its live tunnels and active LSs in proportion to the
/// reservations; LS traffic recursively becomes segment obligations.
///
/// Requires the LSs to be topologically sortable; returns the same
/// [`Routing`] as [`realize_routing`] (Proposition 7 states the two agree).
pub fn proportional_routing(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol: f64,
) -> Result<Routing, RealizeError> {
    let tol_abs = absolute_tolerance(served, tol);
    prop7_walk(inst, state, a, b, served, tol_abs, |p, demand, reserved| {
        if reserved <= tol_abs {
            return Err(no_reservation_kind(inst, state, p));
        }
        let u = demand / reserved;
        if u > 1.0 + tol {
            return Err(RealizeError::UtilizationOutOfRange { pair: p, u });
        }
        Ok(u.min(1.0))
    })
}

/// Proposition 7's walk, shared by [`proportional_routing`] and the
/// degradation ladder's rescale stage. Pairs are visited in topological
/// order; at each pair of interest asked to carry `demand` (its served
/// demand plus the obligations of LSs already walked) over a live
/// reservation of `reserved`, `utilization(pair, demand, reserved)` decides
/// the fraction of the reservation to use — or aborts the walk — and that
/// fraction of every active LS reservation becomes segment obligations.
/// `SingularMatrix` when the LS relation has no topological order.
pub(crate) fn prop7_walk(
    inst: &Instance,
    state: &FailureState,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    tol_abs: f64,
    mut utilization: impl FnMut(PairId, f64, f64) -> Result<f64, RealizeError>,
) -> Result<Routing, RealizeError> {
    let order = topological_order(inst, b).ok_or(RealizeError::SingularMatrix)?;
    let pairs = pairs_of_interest(inst, state, served, b, tol_abs);
    let in_p = {
        let mut v = vec![false; inst.num_pairs()];
        for &p in &pairs {
            v[p.0] = true;
        }
        v
    };
    let mut u_all = vec![0.0f64; inst.num_pairs()];
    // Obligation accumulated on each pair from LSs processed so far.
    let mut obligation = vec![0.0f64; inst.num_pairs()];
    for &p in &order {
        if !in_p[p.0] {
            continue;
        }
        let demand_here = served[p.0] + obligation[p.0];
        if demand_here <= tol_abs {
            continue;
        }
        let reserved: f64 = state.live_tunnels(inst, p).map(|l| a[l.0]).sum::<f64>()
            + state.active_lss(inst, p).map(|q| b[q.0]).sum::<f64>();
        let u = utilization(p, demand_here, reserved)?;
        u_all[p.0] = u;
        // Traffic sent down each active LS becomes segment obligations.
        for q in state.active_lss(inst, p) {
            let flow = u * b[q.0];
            if flow > 0.0 {
                for &sp in inst.segment_pairs(q) {
                    obligation[sp.0] += flow;
                }
            }
        }
    }
    let u: Vec<f64> = pairs.iter().map(|&p| u_all[p.0]).collect();
    Ok(expand_by_arc(inst, state, a, pairs, u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::{Condition, FailureModel};
    use crate::instance::InstanceBuilder;
    use crate::robust::{solve_robust, AdversaryKind, RobustOptions};
    use pcf_rng::{forall, Pcg32};
    use pcf_topology::{NodeId, Topology};

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

    /// The realization chain as it ran before [`Realizer`], frozen: live
    /// pairs, assembly, factorization, substitution and expansion, all
    /// built afresh for every state. The differential tests' reference.
    fn reference_realize(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        b: &[f64],
        served: &[f64],
        tol: f64,
    ) -> Result<Routing, RealizeError> {
        let pairs = live_pairs(inst, state, a, b, served, absolute_tolerance(served, tol))?;
        let (col_start, entries) = reservation_csc(inst, state, a, b, &pairs);
        let lu = SparseLu::factor_columns(pairs.len(), &col_start, &entries)
            .map_err(|_| RealizeError::SingularMatrix)?;
        let mut u: Vec<f64> = pairs.iter().map(|&p| served[p.0]).collect();
        lu.ftran_in_place(&mut u, &mut Vec::new());
        let u = check_utilizations(&pairs, u, tol)?;
        let (tunnel_flow, arc_loads) = hop_walk_loads(inst, state, a, &pairs, &u);
        Ok(Routing {
            pairs,
            u,
            tunnel_flow,
            arc_loads,
            bump: lu.bump(),
        })
    }

    /// Every field of a realization, floats as bits (an error's `u` by its
    /// exact `Debug` text): two results are the same iff these are equal.
    #[expect(clippy::type_complexity, reason = "used once; a name adds nothing")]
    fn outcome_bits(
        r: &Result<Routing, RealizeError>,
    ) -> Result<(Vec<PairId>, [Vec<u64>; 3], usize), String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        match r {
            Ok(r) => Ok((
                r.pairs.clone(),
                [bits(&r.u), bits(&r.tunnel_flow), bits(&r.arc_loads)],
                r.bump,
            )),
            Err(e) => Err(format!("{e:?}")),
        }
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
    fn a_realizer_walk_equals_the_reference_chain_bit_for_bit() {
        let seen = std::cell::RefCell::new(BTreeSet::new());
        let counts = std::cell::Cell::new((0usize, 0usize));
        forall(
            "Realizer == reference chain, bit for bit",
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
                    if outcome_bits(&got) != outcome_bits(&want) {
                        return Err(format!("step {step}: got {got:?}, reference {want:?}"));
                    }
                    let tol_abs = absolute_tolerance(&served, 1e-6);
                    let interest = pairs_of_interest(&inst, &state, &served, &b, tol_abs);
                    let mut seen = seen.borrow_mut();
                    seen.insert(match &want {
                        Ok(r) if r.bump > 0 => "bump",
                        Ok(_) => "walk",
                        Err(RealizeError::SingularMatrix) => "singular",
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
                let (states, builds) = counts.get();
                counts.set((states + w.events.len() + 1, builds + realizer.builds()));
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
        // Patterns are reused: most states replay one built before.
        let (states, builds) = counts.get();
        assert!(4 * builds < states, "{builds} builds over {states} states");
    }

    #[test]
    fn a_refused_replay_factors_from_scratch() {
        // With `tol = 0` a pair whose only live tunnel holds 1e-13 stays in
        // the system, and its diagonal is below the singleton tolerance:
        // the order recorded with both tunnels alive is refused, and the
        // factorization declares `M` singular, as the reference does.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .tunnels_per_pair(2)
            .build();
        let over_link_0 = |l: TunnelId| inst.tunnel(l).links.contains(&LinkId(0));
        let a: Vec<f64> = (inst.tunnel_ids())
            .map(|l| if over_link_0(l) { 1.0 } else { 1e-13 })
            .collect();
        let served = [0.5];
        let mut realizer = Realizer::new(&inst, &[], &served, 0.0);
        let mut dead = [false; 4];
        for link_0_dead in [false, true, false] {
            dead[0] = link_0_dead;
            let state = FailureState::new(&inst, &dead).unwrap();
            let got = realizer.realize(&state, &a);
            let want = reference_realize(&inst, &state, &a, &[], &served, 0.0);
            assert_eq!(outcome_bits(&got), outcome_bits(&want));
            assert_eq!(got.is_err(), link_0_dead, "{got:?}");
        }
        assert_eq!(realizer.builds(), 1);
        assert_eq!(realizer.factorizations(), 1);
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
        // Fig. 4-like chain with an LS; verify both realizations agree.
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
            let lin = realize_routing(&inst, &state, &sol.a, &sol.b, &sv, 1e-6).unwrap();
            let prop = proportional_routing(&inst, &state, &sol.a, &sol.b, &sv, 1e-6).unwrap();
            assert!(lin.max_utilization(&inst) <= 1.0 + 1e-6);
            // Proposition 7: the two mechanisms produce the same split.
            assert_eq!(lin.pairs, prop.pairs);
            for (ul, up) in lin.u.iter().zip(&prop.u) {
                assert!((ul - up).abs() < 1e-8, "lin {ul} vs prop {up}");
            }
        }
    }

    #[test]
    fn topological_order_detects_cycles() {
        let topo = diamond();
        // Two LSs referencing each other's endpoint pair: (s,t) via a and
        // (s,a) via t -> (s,t) > (s,a) and (s,a) > (s,t)? Build LS1 from s
        // to t through a; LS2 from s to a through t.
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(3),
                NodeId(1),
            ]))
            .build();
        // LS1: (s,t) -> (s,a), (a,t). LS2: (s,a) -> (s,t), (t,a). Cycle
        // (s,t) -> (s,a) -> (s,t).
        assert!(topological_order(&inst, &[1.0, 1.0]).is_none());
        // With only the first LS (b2 = 0) the order exists.
        assert!(topological_order(&inst, &[1.0, 0.0]).is_some());
    }

    /// The same system through the dense reference: `M` densified and
    /// solved by `pcf_lp::solve_dense`, checks unchanged.
    fn dense_reference(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        b: &[f64],
        served: &[f64],
        tol: f64,
    ) -> Result<(Vec<PairId>, Vec<f64>), RealizeError> {
        let pairs = live_pairs(inst, state, a, b, served, absolute_tolerance(served, tol))?;
        let m = reservation_matrix(inst, state, a, b, &pairs);
        let d: Vec<f64> = pairs.iter().map(|&p| served[p.0]).collect();
        let u = pcf_lp::solve_dense(&m, &[d])
            .map_err(|_| RealizeError::SingularMatrix)?
            .remove(0);
        let u = check_utilizations(&pairs, u, tol)?;
        Ok((pairs, u))
    }

    /// The flat CSC `realize_routing` factors, densified, is the dense
    /// reference `M` bit for bit: same cells, same merged sums.
    fn assert_csc_is_reservation_matrix(
        inst: &Instance,
        state: &FailureState,
        a: &[f64],
        b: &[f64],
        pairs: &[PairId],
    ) {
        let (col_start, entries) = reservation_csc(inst, state, a, b, pairs);
        let n = pairs.len();
        assert_eq!(col_start.len(), n + 1);
        assert_eq!(col_start[n], entries.len());
        let mut dense = DenseMatrix::zeros(n);
        for (j, w) in col_start.windows(2).enumerate() {
            let rows = &entries[w[0]..w[1]];
            assert!(rows.windows(2).all(|r| r[0].0 < r[1].0), "rows ascending");
            for &(i, v) in rows {
                dense.set(i as usize, j, v);
            }
        }
        let m = reservation_matrix(inst, state, a, b, pairs);
        for i in 0..n {
            for j in 0..n {
                let (x, y) = (dense.get(i, j), m.get(i, j));
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "M[{i}][{j}]: csc {x} vs dense {y}"
                );
            }
        }
    }

    /// On every `f`-failure state of a plan: the assembled flat CSC is the
    /// dense `M` bit for bit; `realize_routing` agrees with the dense
    /// reference (same pairs, `u` within 1e-9, same error variant); when
    /// the plan's LSs sort topologically no state leaves a bump and `u` is
    /// Prop. 7's proportional walk. Returns the largest bump seen.
    fn check_plan(inst: &Instance, f: usize, a: &[f64], b: &[f64], served: &[f64]) -> usize {
        let sortable = topological_order(inst, b).is_some();
        let mut max_bump = 0;
        for sc in FailureModel::links(f).enumerate_scenarios(inst.topo()) {
            let state = FailureState::new(inst, &sc.dead).unwrap();
            let tol_abs = absolute_tolerance(served, 1e-6);
            if let Ok(pairs) = live_pairs(inst, &state, a, b, served, tol_abs) {
                assert_csc_is_reservation_matrix(inst, &state, a, b, &pairs);
            }
            let got = realize_routing(inst, &state, a, b, served, 1e-6);
            let want = dense_reference(inst, &state, a, b, served, 1e-6);
            let got = match (got, want) {
                (Ok(got), Ok((pairs, u))) => {
                    assert_eq!(got.pairs, pairs);
                    for (x, y) in got.u.iter().zip(&u) {
                        assert!((x - y).abs() < 1e-9, "sparse {x} vs dense {y}");
                    }
                    got
                }
                (Err(x), Err(y)) => {
                    assert_eq!(std::mem::discriminant(&x), std::mem::discriminant(&y));
                    continue;
                }
                (x, y) => panic!("sparse {x:?} disagrees with dense {y:?}"),
            };
            max_bump = max_bump.max(got.bump);
            if sortable {
                assert_eq!(got.bump, 0, "a sortable plan must peel completely");
                let walk = proportional_routing(inst, &state, a, b, served, 1e-6).unwrap();
                for (i, p) in got.pairs.iter().enumerate() {
                    let w = walk.pairs.iter().position(|q| q == p).unwrap();
                    assert!(
                        (got.u[i] - walk.u[w]).abs() < 1e-9,
                        "pair {p:?}: linear {} vs walk {}",
                        got.u[i],
                        walk.u[w]
                    );
                }
            }
        }
        max_bump
    }

    #[test]
    fn realization_matches_dense_reference_and_prop7_walk() {
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
        // The two-LS cycle of `topological_order_detects_cycles`: (s,t)
        // and (s,a) serve each other, so their 2x2 block is a bump.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(3),
                NodeId(1),
            ]))
            .build();
        let a = vec![1.0; inst.num_tunnels()];
        let b = [0.5, 0.25];
        assert!(topological_order(&inst, &b).is_none());
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        assert!(
            check_plan(&inst, 1, &a, &b, &served) >= 2,
            "the cycle must bump"
        );
        // Double failures cut (s,t) off: both paths must say so.
        check_plan(&inst, 2, &a, &b, &served);
        // Three LSs of (s,t) through segment (s,a): that cell of `M` sums
        // three terms, and these three sum differently in any other order
        // or association, so a merge that is not the reference's is caught.
        let (s, na, nb, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let inst = InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)])
            .add_ls(LogicalSequence::always(vec![s, na, t]))
            .add_ls(LogicalSequence::always(vec![s, na, nb, t]))
            .add_ls(LogicalSequence::always(vec![s, na, nb, na, t]))
            .build();
        let b = [0.1, 0.2, 0.3];
        assert_ne!(
            ((0.1f64 + 0.2) + 0.3).to_bits(),
            (0.1f64 + (0.2 + 0.3)).to_bits()
        );
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
        assert_eq!(check_plan(&inst, 1, &a, &b, &served), 0);
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
    /// [`realize_routing`] and [`proportional_routing`], plus `extra`
    /// states, and requires each successful routing's tunnel flows and arc
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
        for state in &states {
            let a = degraded_reservations(inst, state, a);
            for routing in [
                realize_routing(inst, state, &a, b, served, 1e-6),
                proportional_routing(inst, state, &a, b, served, 1e-6),
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
        // The cyclic diamond: only the linear system routes it.
        let topo = diamond();
        let inst = InstanceBuilder::with_demands(&topo, vec![(NodeId(0), NodeId(3), 1.0)])
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(1),
                NodeId(3),
            ]))
            .add_ls(LogicalSequence::always(vec![
                NodeId(0),
                NodeId(3),
                NodeId(1),
            ]))
            .build();
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
    fn greedy_topsort_prunes_cycle_makers() {
        let ls1 = LogicalSequence::always(vec![NodeId(0), NodeId(1), NodeId(3)]);
        let ls2 = LogicalSequence::always(vec![NodeId(0), NodeId(3), NodeId(1)]);
        let (kept, pruned) = greedy_topsort(&[ls1.clone(), ls2]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0], ls1);
        assert_eq!(pruned, 1);
    }

    #[test]
    fn greedy_topsort_keeps_acyclic_sets() {
        let ls1 = LogicalSequence::always(vec![NodeId(0), NodeId(1), NodeId(3)]);
        let ls2 = LogicalSequence::always(vec![NodeId(1), NodeId(2), NodeId(3)]);
        let (kept, pruned) = greedy_topsort(&[ls1, ls2]);
        assert_eq!(kept.len(), 2);
        assert_eq!(pruned, 0);
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
        // The proportional path classifies identically.
        let perr = proportional_routing(&inst, &state, &a, &[], &[1.0], 1e-7).unwrap_err();
        assert_eq!(perr, RealizeError::Disconnected(p));
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
        // Topologically sorted ((A,B) > (A,D) > segments): the distributed
        // realization agrees (Prop. 7).
        let prop = proportional_routing(&inst, &state, &a, &b, &served, 1e-9).unwrap();
        for (x, y) in routing.u.iter().zip(&prop.u) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    /// §4.2's ordering claim on the same example: (A,B) > (A,D) because q2
    /// uses segment (A,D) — and the topological order reflects it.
    #[test]
    fn fig6_topological_order() {
        let (inst, ids) = fig6_instance();
        let order = topological_order(&inst, &[1.0, 1.0]).expect("sortable");
        let pos = |s, t| {
            let p = inst.pair_id(s, t).unwrap();
            order.iter().position(|&q| q == p).unwrap()
        };
        assert!(pos(ids.a, ids.b) < pos(ids.a, ids.d), "AB before AD");
        assert!(pos(ids.a, ids.d) < pos(ids.a, ids.c), "AD before AC");
        assert!(pos(ids.a, ids.d) < pos(ids.c, ids.d), "AD before CD");
    }
}
