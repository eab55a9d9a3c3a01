//! The replay engine: incremental failure tracking plus a realization
//! cache.
//!
//! [`ReplayEngine`] holds a solved allocation and a mutable link-liveness
//! state. Each [`LinkEvent`] updates the state
//! *incrementally* — per-tunnel dead-link counters plus the instance's
//! link → tunnels and link → conditional-LS indexes
//! ([`Instance::tunnels_on_link`], [`Instance::lss_on_link`], built once
//! with the instance, not per engine) make an event O(tunnels and LSs
//! touching that link) instead of O(instance) — and
//! [`ReplayEngine::realize`] turns the current state into a routing.
//!
//! Realization reads the failure state only through its liveness signature
//! (which tunnels are alive, which LSs are active) and the reservations,
//! which only degradation rescales. So the engine caches the whole answer:
//! the [`Routing`] (or [`RealizeError`]) realization returned, keyed by
//! [`FailureState::liveness_signature`] plus, while a link is degraded, a
//! degradation fingerprint. A miss realizes through the engine's one
//! [`Realizer`], degraded or not, which reuses the walk order of the
//! previous miss's LS activation whenever the state shares it, and returns
//! what [`pcf_core::realize_routing`] would, bit for bit; a hit hands out the
//! stored routing behind its `Arc`, so cached and cold results are
//! bit-identical and a hit copies nothing.

use crate::trace::{EventKind, LinkEvent};
use pcf_core::{
    degrade_fallback, degraded_reservations, normal_routing, DegradeMode, DegradedRouting,
    FailureState, Instance, LadderStage, RealizeError, Realizer, Routing,
};
use pcf_rng::json::ObjWriter;
use pcf_rng::Fnv1a;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// Hit/miss/eviction counters of the realization cache.
///
/// Error-path realizations are counted in [`CacheStats::errors`] — never
/// as hits or misses — so [`CacheStats::hit_rate`] measures what the
/// cache actually accelerates: successful realizations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Successful realizations served from the cache.
    pub hits: u64,
    /// Successful realizations computed afresh (every one, when the cache
    /// retains nothing).
    pub misses: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Realizations that ended in a [`RealizeError`] (fresh or replayed
    /// from a cached error entry) — kept out of the hit/miss counters.
    pub errors: u64,
}

impl CacheStats {
    /// Fraction of successful realizations served from cache (0 when none
    /// ran). Error-path events do not dilute this.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another engine's counters (batch aggregation).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.errors += other.errors;
    }

    /// Writes the four counters as fields of `w`.
    pub fn write_fields<'a>(&self, w: ObjWriter<'a>) -> ObjWriter<'a> {
        w.uint("hits", self.hits)
            .uint("misses", self.misses)
            .uint("evictions", self.evictions)
            .uint("errors", self.errors)
    }

    /// Counts one lookup that ended on `entry`.
    fn count(&mut self, entry: &CacheEntry, was_cached: bool) {
        match entry {
            Err(_) => self.errors += 1,
            Ok(_) if was_cached => self.hits += 1,
            Ok(_) => self.misses += 1,
        }
    }
}

/// Per-ladder-stage counters of [`ReplayEngine::realize_degraded`]
/// outcomes (the degradation analogue of [`CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradeStats {
    /// Events served by the normal congestion-free realization (stage 1).
    pub normal: u64,
    /// Events served by the proportional rescale (stage 2).
    pub rescaled: u64,
    /// Events served by the max-min fair shedding LP (stage 3).
    pub shed: u64,
    /// Events no ladder stage could serve (mode off, or no fallback
    /// applied) — the only case that still blanks an event.
    pub failed: u64,
}

impl DegradeStats {
    /// Events that fell past stage 1 but were still served.
    pub fn degraded(&self) -> u64 {
        self.rescaled + self.shed
    }

    /// All realizations counted.
    pub fn total(&self) -> u64 {
        self.normal + self.rescaled + self.shed + self.failed
    }

    /// Accumulates another engine's counters (batch aggregation).
    pub fn absorb(&mut self, other: &DegradeStats) {
        self.normal += other.normal;
        self.rescaled += other.rescaled;
        self.shed += other.shed;
        self.failed += other.failed;
    }

    /// Writes the four counters as fields of `w`.
    pub fn write_fields<'a>(&self, w: ObjWriter<'a>) -> ObjWriter<'a> {
        w.uint("normal", self.normal)
            .uint("rescaled", self.rescaled)
            .uint("shed", self.shed)
            .uint("failed", self.failed)
    }
}

/// What a cache entry remembers about one key: the finished routing, or
/// the error realization hit. A pure function of the plan and the key, so
/// any engines holding the same plan may share it; cloning one is a
/// reference-count increment, never a copy of the routing.
pub(crate) type CacheEntry = Result<Arc<Routing>, RealizeError>;

/// Insertion-order (FIFO) bounded map from cache key to realization — the
/// one cache type, owned by an engine or shared behind
/// [`crate::SharedFactorCache`]'s mutex. The map and the FIFO share one
/// allocation per key; capacity `0` retains nothing. Error entries are
/// cached like any other (replaying the same bad state must not recompute
/// it) but count as [`CacheStats::errors`], not hits or misses.
pub(crate) struct RealizationCache {
    capacity: usize,
    entries: BTreeMap<Arc<[u64]>, CacheEntry>,
    order: VecDeque<Arc<[u64]>>,
    stats: CacheStats,
}

impl RealizationCache {
    pub(crate) fn new(capacity: usize) -> Self {
        RealizationCache {
            capacity,
            entries: BTreeMap::new(),
            order: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The entry for `key`, if retained; counts a hit.
    pub(crate) fn get(&mut self, key: &[u64]) -> Option<CacheEntry> {
        let entry = self.entries.get(key)?.clone();
        self.stats.count(&entry, true);
        Some(entry)
    }

    /// Stores `fresh` under `key` and returns it — unless an entry is
    /// already there (a concurrent miss inserted first), which wins and is
    /// returned instead. Either way the caller paid a realization: counts a
    /// miss, and evicts the oldest key when full.
    pub(crate) fn insert(&mut self, key: &[u64], fresh: CacheEntry) -> CacheEntry {
        let entry = match self.entries.get(key) {
            Some(existing) => existing.clone(),
            None if self.capacity == 0 => fresh,
            None => {
                if self.entries.len() >= self.capacity {
                    if let Some(old) = self.order.pop_front() {
                        self.entries.remove(&old);
                        self.stats.evictions += 1;
                    }
                }
                let key: Arc<[u64]> = key.into();
                self.order.push_back(Arc::clone(&key));
                self.entries.insert(key, fresh.clone());
                fresh
            }
        };
        self.stats.count(&entry, false);
        entry
    }
}

/// Where an engine keeps its realizations.
enum CacheBackend<'a> {
    /// An engine-private cache (the default).
    Owned(RealizationCache),
    /// A [`crate::SharedFactorCache`] owned elsewhere and shared with
    /// other engines over the same plan.
    Shared(&'a crate::SharedFactorCache),
}

/// A streaming failure-replay engine over one solved allocation.
///
/// Borrows the instance and the plan (`a`, `b`, `served`); owns the
/// evolving failure state and the realization cache. Create one per
/// trace — replaying a second trace on a warm engine is legal but its
/// state continues from wherever the first trace left the network.
pub struct ReplayEngine<'a> {
    inst: &'a Instance,
    a: &'a [f64],
    b: &'a [f64],
    served: &'a [f64],
    tol: f64,
    // Incrementally maintained failure state (kept materialized so
    // realization never has to rebuild or clone it).
    fs: FailureState,
    // `fs.liveness_signature()`, maintained bit-by-bit as events flip
    // liveness flags, so a cache lookup never rescans every tunnel/LS.
    sig: Vec<u64>,
    dead_links: usize,
    tunnel_dead_links: Vec<u32>,
    cache: CacheBackend<'a>,
    // Realizes every miss, keeping the walk order across the states that
    // share an LS activation.
    realizer: Realizer<'a>,
    // Nominal per-link capacities and the ones currently in effect
    // (wobble and degrade events both scale entries of `caps`).
    nominal_caps: Vec<f64>,
    caps: Vec<f64>,
    // The two capacity-scaling channels, kept separate because only
    // degradation is visible to realization: wobbles move the judging bar,
    // degrades additionally rescale reservations and enter the cache key.
    wobble_p: Vec<u32>,
    degrade_p: Vec<u32>,
    degraded_links: usize,
    // FNV over the (link, permille) degradation pattern; 0 iff undegraded,
    // so undegraded cache keys keep their historical shape.
    degrade_fp: u64,
    degrade: DegradeMode,
    dstats: DegradeStats,
    // Largest `Routing::bump` any successful realization reported.
    max_bump: usize,
    // Test-only fault injection: every realization fails as singular.
    #[cfg(test)]
    force_singular: bool,
}

impl<'a> ReplayEngine<'a> {
    /// Builds an engine over an all-alive network.
    ///
    /// `cache_capacity` bounds the number of retained realizations; `0`
    /// retains none (every realization is computed afresh — the baseline
    /// the cache is measured against).
    pub fn new(
        inst: &'a Instance,
        a: &'a [f64],
        b: &'a [f64],
        served: &'a [f64],
        tol: f64,
        cache_capacity: usize,
    ) -> Self {
        let links = inst.topo().link_count();
        let no_fail = vec![false; links];
        let fs = FailureState {
            tunnel_alive: vec![true; inst.num_tunnels()],
            ls_active: inst
                .ls_ids()
                .map(|q| inst.ls(q).condition.holds(&no_fail))
                .collect(),
            dead: no_fail,
            cap_scale: vec![1.0; links],
        };
        let sig = fs.liveness_signature();
        ReplayEngine {
            inst,
            a,
            b,
            served,
            tol,
            fs,
            sig,
            dead_links: 0,
            tunnel_dead_links: vec![0; inst.num_tunnels()],
            cache: CacheBackend::Owned(RealizationCache::new(cache_capacity)),
            realizer: Realizer::new(inst, b, served, tol),
            nominal_caps: inst
                .topo()
                .links()
                .map(|l| inst.topo().capacity(l))
                .collect(),
            caps: inst
                .topo()
                .links()
                .map(|l| inst.topo().capacity(l))
                .collect(),
            wobble_p: vec![1000; links],
            degrade_p: vec![1000; links],
            degraded_links: 0,
            degrade_fp: 0,
            degrade: DegradeMode::Off,
            dstats: DegradeStats::default(),
            max_bump: 0,
            #[cfg(test)]
            force_singular: false,
        }
    }

    /// Builds an engine whose realizations live in `cache`, a
    /// [`crate::SharedFactorCache`] that other engines over the *same
    /// plan* (same `inst`, `a`, `b`, `served`, `tol`) may share.
    ///
    /// Cache entries are pure functions of the plan and the liveness
    /// signature, so sharing across plans is unsound —
    /// callers keep one shared cache per plan (the serve layer keys one
    /// per plan epoch). Hit/miss counters live in the shared cache and
    /// aggregate over every engine attached to it.
    pub fn with_shared_cache(
        inst: &'a Instance,
        a: &'a [f64],
        b: &'a [f64],
        served: &'a [f64],
        tol: f64,
        cache: &'a crate::SharedFactorCache,
    ) -> Self {
        let mut engine = ReplayEngine::new(inst, a, b, served, tol, 0);
        engine.cache = CacheBackend::Shared(cache);
        engine
    }

    /// Selects how far down the degradation ladder
    /// [`ReplayEngine::realize_degraded`] may fall (default:
    /// [`DegradeMode::Off`]).
    pub fn set_degrade(&mut self, mode: DegradeMode) {
        self.degrade = mode;
    }

    /// Applies one link event. Idempotent events (down while down, up while
    /// up) are no-ops; out-of-range links are rejected.
    pub fn apply(&mut self, event: &LinkEvent) -> Result<(), RealizeError> {
        let e = event.link.index();
        if e >= self.fs.dead.len() {
            return Err(RealizeError::MaskLengthMismatch {
                expected: self.fs.dead.len(),
                got: e + 1,
            });
        }
        let goes_down = match event.kind {
            EventKind::Down => {
                if self.fs.dead[e] {
                    return Ok(());
                }
                true
            }
            EventKind::Up => {
                if !self.fs.dead[e] {
                    return Ok(());
                }
                false
            }
            EventKind::Wobble { permille } => {
                // Wobbles don't touch liveness (or the cache signature —
                // realization is wobble-blind); they only move the bar
                // overload checks measure against.
                self.wobble_p[e] = permille;
                self.caps[e] = self.effective_cap(e);
                return Ok(());
            }
            EventKind::Degrade { permille } => {
                // Degradation is realization-visible: it rescales the
                // reservations riding the link and enters the cache key
                // through the degradation fingerprint. Liveness (and the
                // liveness signature) stay untouched — the link is alive.
                let p = permille.clamp(1, 1000);
                let was = self.degrade_p[e] != 1000;
                let now = p != 1000;
                self.degrade_p[e] = p;
                self.fs.cap_scale[e] = p as f64 / 1000.0;
                self.caps[e] = self.effective_cap(e);
                match (was, now) {
                    (false, true) => self.degraded_links += 1,
                    (true, false) => self.degraded_links -= 1,
                    _ => {}
                }
                self.degrade_fp = self.degrade_fingerprint();
                return Ok(());
            }
        };
        self.fs.dead[e] = goes_down;
        if goes_down {
            self.dead_links += 1;
        } else {
            self.dead_links -= 1;
        }
        let inst = self.inst;
        for &l in inst.tunnels_on_link(event.link) {
            if goes_down {
                self.tunnel_dead_links[l.0] += 1;
            } else {
                self.tunnel_dead_links[l.0] -= 1;
            }
            let alive = self.tunnel_dead_links[l.0] == 0;
            if alive != self.fs.tunnel_alive[l.0] {
                self.sig[l.0 >> 6] ^= 1 << (l.0 & 63);
            }
            self.fs.tunnel_alive[l.0] = alive;
        }
        let tunnel_bits = inst.num_tunnels();
        for &q in inst.lss_on_link(event.link) {
            let active = inst.ls(q).condition.holds(&self.fs.dead);
            if active != self.fs.ls_active[q.0] {
                let bit = tunnel_bits + q.0;
                self.sig[bit >> 6] ^= 1 << (bit & 63);
            }
            self.fs.ls_active[q.0] = active;
        }
        debug_assert_eq!(self.sig, self.fs.liveness_signature());
        Ok(())
    }

    /// The capacity currently in effect on link `e`: nominal scaled by
    /// both the wobble and degrade channels.
    fn effective_cap(&self, e: usize) -> f64 {
        self.nominal_caps[e]
            * (self.wobble_p[e] as f64 / 1000.0)
            * (self.degrade_p[e] as f64 / 1000.0)
    }

    /// FNV-1a over the sorted (link, permille) degradation pattern.
    /// Returns 0 exactly when nothing is degraded; a (vanishingly rare)
    /// hash of 0 is bumped to 1 so a degraded state can never alias an
    /// undegraded cache key.
    fn degrade_fingerprint(&self) -> u64 {
        if self.degraded_links == 0 {
            return 0;
        }
        let mut h = Fnv1a::new();
        for (i, &p) in self.degrade_p.iter().enumerate() {
            if p != 1000 {
                h.write_u64(i as u64);
                h.write_bytes(&p.to_le_bytes());
            }
        }
        h.finish().max(1)
    }

    /// The plan's reservations under the current degradation pattern
    /// (`None` when nothing is degraded and the nominal `a` applies).
    fn effective_a(&self) -> Option<Vec<f64>> {
        if self.degraded_links == 0 {
            None
        } else {
            Some(degraded_reservations(self.inst, &self.fs, self.a))
        }
    }

    /// Number of currently dead links.
    pub fn dead_links(&self) -> usize {
        self.dead_links
    }

    /// Number of links currently running partial-capacity degraded.
    pub fn degraded_links(&self) -> usize {
        self.degraded_links
    }

    /// The current state as a [`FailureState`] (a snapshot — further events
    /// don't affect it). Equal, field for field, to
    /// `FailureState::new(inst, &dead)` for the accumulated mask, except
    /// that `cap_scale` carries any degrade events applied so far.
    pub fn state(&self) -> FailureState {
        self.fs.clone()
    }

    /// Realizes the routing for the current failure state.
    ///
    /// A previously seen key returns its stored result, the routing shared
    /// with the cache; a new one is realized once (through the engine's
    /// [`Realizer`]) and stored.
    /// Results — including errors — are identical to calling
    /// [`pcf_core::realize_routing`] on [`ReplayEngine::state`].
    ///
    /// Under partial-capacity degradation a miss first rescales the
    /// reservations per tunnel ([`degraded_reservations`]) so the realized
    /// loads respect the surviving capacities, and the cache key grows a
    /// degradation fingerprint — a degraded realization is never served to
    /// (or from) an undegraded one.
    pub fn realize(&mut self) -> Result<Arc<Routing>, RealizeError> {
        #[cfg(test)]
        if self.force_singular {
            // Injected failure: reported before the cache is consulted so
            // it can neither store nor serve a poisoned entry.
            return Err(RealizeError::SingularMatrix);
        }
        // The key is the liveness signature plus, only when degraded, the
        // degradation fingerprint (the one case that builds a key).
        let degraded_key;
        let key: &[u64] = if self.degrade_fp == 0 {
            &self.sig
        } else {
            degraded_key = [&self.sig[..], &[self.degrade_fp]].concat();
            &degraded_key
        };
        let hit = match &mut self.cache {
            CacheBackend::Owned(cache) => cache.get(key),
            CacheBackend::Shared(shared) => shared.get(key),
        };
        let entry = match hit {
            Some(entry) => entry,
            None => {
                let a_scaled = self.effective_a();
                let a = a_scaled.as_deref().unwrap_or(self.a);
                let fresh = self.realizer.realize(&self.fs, a).map(Arc::new);
                match &mut self.cache {
                    CacheBackend::Owned(cache) => cache.insert(key, fresh),
                    CacheBackend::Shared(shared) => shared.insert(key, fresh),
                }
            }
        };
        if let Ok(routing) = &entry {
            self.max_bump = self.max_bump.max(routing.bump);
        }
        entry
    }

    /// Realizes the current state through the degradation ladder: the
    /// normal (cached) realization first, then — on error and if
    /// [`ReplayEngine::set_degrade`] allows — the rescale and shed
    /// fallbacks of [`pcf_core::degrade`].
    ///
    /// Degraded results are computed outside the cache and are never
    /// stored in it: the cache holds only stage-1 realizations, so a later
    /// identical state realizing normally can never be served a
    /// best-effort routing by mistake.
    pub fn realize_degraded(&mut self) -> Result<DegradedRouting, RealizeError> {
        match self.realize() {
            Ok(routing) => {
                self.dstats.normal += 1;
                Ok(normal_routing(self.inst, routing, &self.caps))
            }
            Err(err) => {
                let a_scaled = self.effective_a();
                let a: &[f64] = a_scaled.as_deref().unwrap_or(self.a);
                let fallback = degrade_fallback(
                    self.inst,
                    &self.fs,
                    a,
                    self.b,
                    self.served,
                    self.tol,
                    &self.caps,
                    self.degrade,
                    err,
                );
                match &fallback {
                    Ok(d) => match d.ladder_stage {
                        LadderStage::Normal => self.dstats.normal += 1,
                        LadderStage::Rescaled => self.dstats.rescaled += 1,
                        LadderStage::Shed => self.dstats.shed += 1,
                    },
                    Err(_) => self.dstats.failed += 1,
                }
                fallback
            }
        }
    }

    /// Ladder-stage counters of [`ReplayEngine::realize_degraded`] so far.
    pub fn degrade_stats(&self) -> DegradeStats {
        self.dstats
    }

    /// The capacity of `link` currently in effect (nominal unless a
    /// wobble or degrade event rescaled it).
    pub fn capacity(&self, link: pcf_topology::LinkId) -> f64 {
        self.caps[link.index()]
    }

    /// All per-link capacities currently in effect.
    pub fn capacities(&self) -> &[f64] {
        &self.caps
    }

    /// Cache counters so far (with capacity `0`: every successful
    /// realization is a miss; in shared mode: a snapshot of the shared
    /// cache's counters, aggregated over every engine attached to it).
    pub fn cache_stats(&self) -> CacheStats {
        match &self.cache {
            CacheBackend::Owned(c) => c.stats(),
            CacheBackend::Shared(s) => s.stats(),
        }
    }

    /// Largest [`Routing::bump`] over the successful realizations so far:
    /// `0` while every state was served by Prop. 7's walk alone, otherwise
    /// the most rows any state solved in the LU blocks of its LS cycles.
    pub fn max_bump(&self) -> usize {
        self.max_bump
    }

    /// Number of realizations currently retained.
    pub fn cached_entries(&self) -> usize {
        match &self.cache {
            CacheBackend::Owned(c) => c.len(),
            CacheBackend::Shared(s) => s.len(),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::trace::EventTrace;
    use pcf_core::{
        realize_routing, solve_pcf_ls, FailureModel, InstanceBuilder, LogicalSequence, PairId,
        RobustOptions,
    };
    use pcf_topology::{zoo, LinkId, Topology};
    use pcf_traffic::gravity;

    fn sprint_plan() -> (Instance, Vec<f64>, Vec<f64>, Vec<f64>) {
        let topo = zoo::build("Sprint");
        let tm = gravity(&topo, 11);
        let inst = pcf_core::pcf_ls_instance(&topo, &tm, 3);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &RobustOptions::default());
        let served = sol.served(&inst);
        (inst, sol.a, sol.b, served)
    }

    /// Every field of a realization, floats as bits: two results are the
    /// same realization iff these are equal.
    #[expect(clippy::type_complexity, reason = "used once; a name adds nothing")]
    pub(crate) fn routing_bits<R: std::borrow::Borrow<Routing>>(
        r: &Result<R, RealizeError>,
    ) -> Result<(Vec<PairId>, [Vec<u64>; 3], usize), RealizeError> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
        match r {
            Ok(r) => {
                let r = r.borrow();
                Ok((
                    r.pairs.clone(),
                    [bits(&r.u), bits(&r.tunnel_flow), bits(&r.arc_loads)],
                    r.bump,
                ))
            }
            Err(e) => Err(e.clone()),
        }
    }

    /// Realizes before and after each of `events` and holds every result
    /// to [`realize_routing`] on the engine's state, over the
    /// degradation-rescaled reservations, bit for bit.
    fn replay_against_cold<'a>(
        inst: &'a Instance,
        a: &'a [f64],
        b: &'a [f64],
        served: &'a [f64],
        events: &[LinkEvent],
    ) -> ReplayEngine<'a> {
        let mut engine = ReplayEngine::new(inst, a, b, served, 1e-6, 64);
        for i in 0..=events.len() {
            if i > 0 {
                engine.apply(&events[i - 1]).unwrap();
            }
            let state = engine.state();
            let a_eff = degraded_reservations(inst, &state, a);
            let cold = realize_routing(inst, &state, &a_eff, b, served, 1e-6);
            assert_eq!(routing_bits(&engine.realize()), routing_bits(&cold), "{i}");
        }
        engine
    }

    /// The diamond `s-a-t`, `s-b-t` whose two LSs serve each other:
    /// `(s,t)` through `a`, and `(s,a)` through `t`.
    fn cyclic_diamond() -> Instance {
        let mut topo = Topology::new("diamond");
        let [s, a, b, t] = ["s", "a", "b", "t"].map(|n| topo.add_node(n));
        for (u, v) in [(s, a), (a, t), (s, b), (b, t)] {
            topo.add_link(u, v, 1.0);
        }
        InstanceBuilder::with_demands(&topo, vec![(s, t, 1.0)])
            .add_ls(LogicalSequence::always(vec![s, a, t]))
            .add_ls(LogicalSequence::always(vec![s, t, a]))
            .build()
    }

    #[test]
    fn incremental_state_matches_from_scratch() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::flaps(inst.topo(), 200, 3, 9);
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 64);
        let mut mask = vec![false; inst.topo().link_count()];
        for ev in &trace.events {
            engine.apply(ev).unwrap();
            mask[ev.link.index()] = ev.kind == EventKind::Down;
            let expect = FailureState::new(&inst, &mask).unwrap();
            let got = engine.state();
            assert_eq!(got.dead, expect.dead);
            assert_eq!(got.tunnel_alive, expect.tunnel_alive);
            assert_eq!(got.ls_active, expect.ls_active);
        }
    }

    #[test]
    fn cached_realization_is_bit_identical_to_cold() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::flaps(inst.topo(), 100, 1, 3);
        let engine = replay_against_cold(&inst, &a, &b, &served, &trace.events);
        let stats = engine.cache_stats();
        assert!(stats.hits > 0, "repeat states must hit: {stats:?}");
        // Shortest-path LSs sort topologically: every state was a walk.
        assert!(pcf_core::topological_order(&inst, &b, &vec![true; inst.num_lss()]).is_some());
        assert_eq!(engine.max_bump(), 0);

        // A degraded state revisited across degrade → restore → degrade:
        // the hit returns what the miss realized over the rescaled `a`.
        let degrade = |permille| LinkEvent {
            link: LinkId(0),
            kind: EventKind::Degrade { permille },
        };
        let cycle = [degrade(500), degrade(1000), degrade(500)];
        let engine = replay_against_cold(&inst, &a, &b, &served, &cycle);
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 2), "{stats:?}");

        // An unsortable plan: the cached entries carry the cycle's block.
        let inst = cyclic_diamond();
        let a = vec![1.0; inst.num_tunnels()];
        let b = [0.5, 0.25];
        assert!(pcf_core::topological_order(&inst, &b, &[true, true]).is_none());
        let served: Vec<f64> = inst.pair_ids().map(|p| 0.5 * inst.demand(p)).collect();
        let trace = EventTrace::flaps(inst.topo(), 40, 1, 7);
        let engine = replay_against_cold(&inst, &a, &b, &served, &trace.events);
        assert!(engine.max_bump() >= 2, "the cycle must bump");
        assert!(engine.cache_stats().hits > 0);
    }

    #[test]
    fn eviction_respects_capacity() {
        let (inst, a, b, served) = sprint_plan();
        // Rolling maintenance visits every link: more signatures than the
        // tiny cache holds.
        let trace = EventTrace::rolling_maintenance(inst.topo(), 120, 5);
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 4);
        for ev in &trace.events {
            engine.apply(ev).unwrap();
            engine.realize().unwrap();
        }
        assert!(engine.cached_entries() <= 4);
        let stats = engine.cache_stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 120);
    }

    #[test]
    fn out_of_range_event_is_rejected() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 4);
        let bad = LinkEvent {
            link: pcf_topology::LinkId(10_000),
            kind: EventKind::Down,
        };
        assert!(matches!(
            engine.apply(&bad),
            Err(RealizeError::MaskLengthMismatch { .. })
        ));
    }

    #[test]
    fn forced_singular_engages_ladder_without_touching_cache() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 64);
        engine.set_degrade(DegradeMode::Shed);
        // Warm the cache with one normal realization.
        engine.realize_degraded().unwrap();
        let warm_entries = engine.cached_entries();
        let warm_stats = engine.cache_stats();
        assert_eq!(engine.degrade_stats().normal, 1);

        // Force a factorization failure: the ladder must serve stage 2, and the
        // cache must be completely untouched (no poisoned entry, no
        // counter movement) — the cache-exclusion invariant.
        engine.force_singular = true;
        for _ in 0..5 {
            let d = engine.realize_degraded().unwrap();
            assert_eq!(d.ladder_stage, pcf_core::LadderStage::Rescaled);
            // No failure at all: the rescale serves the full demand.
            assert!(d.shed_demand <= 1e-6 * (1.0 + served.iter().sum::<f64>()));
        }
        assert_eq!(engine.cached_entries(), warm_entries);
        assert_eq!(engine.cache_stats(), warm_stats);
        assert_eq!(engine.degrade_stats().rescaled, 5);

        // Off mode surfaces the injected error and counts a failure.
        engine.set_degrade(DegradeMode::Off);
        assert_eq!(
            engine.realize_degraded().unwrap_err(),
            RealizeError::SingularMatrix
        );
        assert_eq!(engine.degrade_stats().failed, 1);

        // Releasing the hook restores normal service (cache hit).
        engine.force_singular = false;
        engine.set_degrade(DegradeMode::Shed);
        let d = engine.realize_degraded().unwrap();
        assert_eq!(d.ladder_stage, pcf_core::LadderStage::Normal);
        assert_eq!(engine.cache_stats().hits, warm_stats.hits + 1);
    }

    #[test]
    fn wobble_rescales_capacity_without_touching_liveness() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 16);
        let link = pcf_topology::LinkId(0);
        let nominal = inst.topo().capacity(link);
        let sig_before = engine.state().liveness_signature();
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Wobble { permille: 250 },
            })
            .unwrap();
        assert!((engine.capacity(link) - 0.25 * nominal).abs() < 1e-12);
        assert_eq!(engine.dead_links(), 0);
        assert_eq!(engine.state().liveness_signature(), sig_before);
        // Restore.
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Wobble { permille: 1000 },
            })
            .unwrap();
        assert!((engine.capacity(link) - nominal).abs() < 1e-12);
        // Out-of-range wobbles are rejected like any other event.
        assert!(engine
            .apply(&LinkEvent {
                link: pcf_topology::LinkId(10_000),
                kind: EventKind::Wobble { permille: 500 },
            })
            .is_err());
    }

    #[test]
    fn error_events_count_as_errors_not_misses() {
        let (inst, a, b, served) = sprint_plan();
        // Served demand but zero reservations: every realization errors.
        let zero_a = vec![0.0; a.len()];
        let zero_b = vec![0.0; b.len()];
        let mut engine = ReplayEngine::new(&inst, &zero_a, &zero_b, &served, 1e-6, 16);
        for _ in 0..3 {
            assert!(engine.realize().is_err());
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.errors, 3, "{stats:?}");
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.hit_rate(), 0.0);
        // Cold mode classifies identically.
        let mut cold = ReplayEngine::new(&inst, &zero_a, &zero_b, &served, 1e-6, 0);
        assert!(cold.realize().is_err());
        assert_eq!(cold.cache_stats().errors, 1);
        assert_eq!(cold.cache_stats().misses, 0);
        // absorb carries the error counter.
        let mut merged = CacheStats::default();
        merged.absorb(&stats);
        merged.absorb(&cold.cache_stats());
        assert_eq!(merged.errors, 4);
    }

    #[test]
    fn degrade_rescales_reservations_and_forks_the_cache_key() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 16);
        let link = pcf_topology::LinkId(0);
        let nominal = inst.topo().capacity(link);

        // Warm the undegraded entry.
        let clean = engine.realize().unwrap();
        assert_eq!(engine.cache_stats().misses, 1);

        // Degrade: capacity halves, liveness is untouched, and the
        // realization matches the from-scratch solve over the rescaled
        // reservations bit for bit.
        let sig_before = engine.state().liveness_signature();
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Degrade { permille: 500 },
            })
            .unwrap();
        assert!((engine.capacity(link) - 0.5 * nominal).abs() < 1e-12);
        assert_eq!(engine.dead_links(), 0);
        assert_eq!(engine.degraded_links(), 1);
        assert_eq!(engine.state().liveness_signature(), sig_before);
        let state = engine.state();
        assert!((state.cap_scale[0] - 0.5).abs() < 1e-12);
        let a_eff = pcf_core::degraded_reservations(&inst, &state, &a);
        let expect = pcf_core::realize_routing(&inst, &state, &a_eff, &b, &served, 1e-6).unwrap();
        let got = engine.realize().unwrap();
        assert_eq!(got.pairs, expect.pairs);
        for (x, y) in got.arc_loads.iter().zip(&expect.arc_loads) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Same liveness signature, different degradation: a fresh entry,
        // never the undegraded one.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 2, "degraded state must not hit: {stats:?}");
        assert_eq!(engine.cached_entries(), 2);

        // Tunnels over the degraded link shrink; the routing differs from
        // the clean one.
        assert!(got
            .arc_loads
            .iter()
            .zip(&clean.arc_loads)
            .any(|(x, y)| (x - y).abs() > 1e-12));

        // Replaying the same degradation hits its own entry; restoring to
        // 1000 returns to the original key and hits too.
        engine.realize().unwrap();
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Degrade { permille: 1000 },
            })
            .unwrap();
        assert_eq!(engine.degraded_links(), 0);
        assert!((engine.capacity(link) - nominal).abs() < 1e-12);
        let restored = engine.realize().unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.hits, 2, "{stats:?}");
        assert_eq!(stats.misses, 2);
        for (x, y) in restored.arc_loads.iter().zip(&clean.arc_loads) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn degrade_composes_with_wobble_and_failures() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 16);
        let link = pcf_topology::LinkId(2);
        let nominal = inst.topo().capacity(link);
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Degrade { permille: 800 },
            })
            .unwrap();
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Wobble { permille: 500 },
            })
            .unwrap();
        // Channels multiply: 0.8 * 0.5 of nominal.
        assert!((engine.capacity(link) - 0.4 * nominal).abs() < 1e-12);
        // But only the degrade channel reaches the failure state.
        assert!((engine.state().cap_scale[2] - 0.8).abs() < 1e-12);
        // A dead degraded link realizes exactly like a dead link: the
        // degradation only matters for surviving tunnels.
        engine
            .apply(&LinkEvent {
                link,
                kind: EventKind::Down,
            })
            .unwrap();
        let got = engine.realize().unwrap();
        let state = engine.state();
        let a_eff = pcf_core::degraded_reservations(&inst, &state, &a);
        let expect = pcf_core::realize_routing(&inst, &state, &a_eff, &b, &served, 1e-6).unwrap();
        for (x, y) in got.arc_loads.iter().zip(&expect.arc_loads) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn idempotent_events_are_noops() {
        let (inst, a, b, served) = sprint_plan();
        let mut engine = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 4);
        let down = LinkEvent {
            link: pcf_topology::LinkId(0),
            kind: EventKind::Down,
        };
        engine.apply(&down).unwrap();
        engine.apply(&down).unwrap();
        assert_eq!(engine.dead_links(), 1);
        let up = LinkEvent {
            link: pcf_topology::LinkId(0),
            kind: EventKind::Up,
        };
        engine.apply(&up).unwrap();
        engine.apply(&up).unwrap();
        assert_eq!(engine.dead_links(), 0);
    }
}
