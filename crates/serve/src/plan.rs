//! Solved-plan epochs and the lock-free cell readers load them through.
//!
//! A [`PlanEpoch`] is one immutable solved plan — instance, reservations,
//! served demand, dual worst-case availabilities, and a
//! [`SharedFactorCache`] scoped to exactly this plan — tagged with a
//! monotonically increasing generation. The background solver builds a
//! new epoch on every `update` command and publishes it through
//! [`PlanCell::swap`]; readers never see a partially built plan because
//! the whole epoch travels as one `Arc`.
//!
//! [`PlanCell`] is the hot-swap primitive. The steady-state read path is
//! a single `Acquire` load of the generation counter ([`PlanCell::generation`]
//! against the reader's cached epoch) — no lock, no reference-count
//! traffic. Only when the generation moved does a reader take the slot
//! mutex to clone the new `Arc` ([`PlanCell::current`]), which is O(1)
//! and uncontended outside swap instants. A reader mid-query keeps its
//! old `Arc` alive, so swaps never invalidate in-flight work: old and
//! new epochs coexist until the last reader of the old one drops it.
//!
//! The alternative designs were measured and rejected: a spin-swap
//! `ArcCell` serializes readers on a single cache line, and a raw
//! `AtomicPtr` with epoch-based reclamation needs `unsafe` the rest of
//! this workspace deliberately avoids. The mutex-slot-plus-generation
//! design keeps the fast path lock-free in safe Rust and is what the
//! TSan job exercises.

use crate::ServeError;
use pcf_core::{scale_to_mlu, CutPool, FailureModel, Instance, Plan, RobustOptions, Scheme};
use pcf_replay::SharedFactorCache;
use pcf_rng::Fnv1a;
use pcf_topology::{LinkId, Topology};
use pcf_traffic::gravity;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Everything the background solver needs to (re)build a plan: the
/// topology, the scheme, the traffic recipe, and the robust-engine
/// options. `update` commands vary the demand scale and gravity seed;
/// the rest is fixed at server start.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// The (already built/pruned) topology to serve.
    pub topo: Topology,
    /// Which scheme solves the plan (R3 has no reservations to realize,
    /// so it is not one).
    pub scheme: Scheme,
    /// Tunnels per pair.
    pub tunnels: usize,
    /// Simultaneous link failures the plan must survive.
    pub f: usize,
    /// Gravity traffic seed (the `update` command may override per epoch).
    pub seed: u64,
    /// Optimal-routing MLU target for traffic normalization; `0` skips it.
    pub mlu: f64,
    /// Keep only the n heaviest demands.
    pub max_pairs: usize,
    /// Relative feasibility tolerance for realization and admission.
    pub tol: f64,
    /// Cutting-plane engine options.
    pub opts: RobustOptions,
    /// Shared-risk link groups the `srlg` protocol verb may fire as
    /// correlated bursts (empty: the verb reports an error).
    pub srlgs: Vec<Vec<LinkId>>,
}

/// One immutable solved plan, shared by every reader at its generation.
///
/// `a`, `b`, `z`, `worst_available` and `objective` are copies of the
/// [`pcf_core::RobustSolution`] fields; they stay separate fields because
/// the `benchmark/` harness reads them.
pub struct PlanEpoch {
    /// Generation tag (monotonically increasing across swaps, starts at 1).
    pub gen: u64,
    /// The solved instance (tunnels, logical sequences, demands).
    pub inst: Instance,
    /// Per-tunnel reservations `a_l`.
    pub a: Vec<f64>,
    /// Per-LS reservations `b_q`.
    pub b: Vec<f64>,
    /// Served fraction per pair.
    pub z: Vec<f64>,
    /// Served demand per pair (`z_p * d_p`), the realization input.
    pub served: Vec<f64>,
    /// Per-pair relaxed worst-case availability (the admission fast path).
    pub worst_available: Vec<f64>,
    /// The solved objective (guaranteed demand scale).
    pub objective: f64,
    /// The failure model the plan defends against (and admission checks).
    pub fm: FailureModel,
    /// Relative feasibility tolerance.
    pub tol: f64,
    /// Demand scale this epoch was solved at.
    pub scale: f64,
    /// Gravity seed this epoch was solved with.
    pub seed: u64,
    /// Realization cache scoped to this plan (readers share it; a swap
    /// abandons it with the epoch, so caches never mix plans).
    pub cache: SharedFactorCache,
    /// FNV-1a digest over the plan's numerical content (reservations,
    /// served demand, objective) — generation-independent, so identical
    /// re-solves produce identical digests.
    pub plan_digest: u64,
    /// Cuts seeded into this epoch's first master from the previous
    /// epoch's [`CutPool`] (0 for a cold solve).
    pub warm_cuts: usize,
    /// Whether this epoch's instance shares the previous epoch's tunnels,
    /// taken from its [`CutPool`], instead of selecting them again (false
    /// for a cold solve, and when the pairs or the topology's structure
    /// moved).
    pub tunnels_reused: bool,
}

impl PlanSpec {
    /// Solves the spec into a fresh epoch at `gen`, with the demand
    /// matrix scaled by `scale` and drawn from `seed`. Cold solve: no cut
    /// pool in, none out (see [`PlanSpec::solve_epoch_seeded`]). The
    /// server calls the seeded form; this one stays because the
    /// `benchmark/` harness calls it.
    pub fn solve_epoch(
        &self,
        gen: u64,
        scale: f64,
        seed: u64,
        cache_capacity: usize,
    ) -> Result<PlanEpoch, ServeError> {
        self.solve_epoch_seeded(gen, scale, seed, cache_capacity, None)
            .map(|(epoch, _)| epoch)
    }

    /// [`PlanSpec::solve_epoch`] with an epoch-to-epoch warm start: `prev`
    /// carries the scenario cuts and the tunnels of the previous epoch's
    /// solve, and the returned pool carries this epoch's for the next one.
    /// Re-solves vary only the demand scale, the gravity seed and (after a
    /// rebase) capacities; over the same pair set the binding scenarios
    /// transfer and the tunnels are the ones selection would return, while
    /// a pool from another pair set ([`CutPool::matches`] fails — a new
    /// seed or a rebase can move the heaviest pairs) is ignored and the
    /// epoch selects tunnels and solves cold. PCF-CLS, whose flow-stage
    /// instance varies, always solves cold and returns `None`. The plan
    /// itself comes from [`Scheme::plan`]; this wraps it in an epoch for
    /// the server and for the `benchmark/` harness, which calls it.
    pub fn solve_epoch_seeded(
        &self,
        gen: u64,
        scale: f64,
        seed: u64,
        cache_capacity: usize,
        prev: Option<&CutPool>,
    ) -> Result<(PlanEpoch, Option<CutPool>), ServeError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(ServeError::BadSpec(format!(
                "demand scale must be positive and finite, got {scale}"
            )));
        }
        if !(self.mlu.is_finite() && self.mlu >= 0.0) {
            return Err(ServeError::BadSpec(format!(
                "mlu must be finite and >= 0, got {}",
                self.mlu
            )));
        }
        let mut tm = gravity(&self.topo, seed);
        tm.truncate_to_top_k(self.max_pairs);
        if self.mlu > 0.0 {
            let (normalized, _) = scale_to_mlu(&self.topo, &tm, self.mlu);
            tm = normalized;
        }
        tm.scale(scale);
        let fm = FailureModel::links(self.f);
        let Plan {
            inst, sol, pool, ..
        } = self
            .scheme
            .plan(&self.topo, tm, self.tunnels, &fm, &self.opts, prev)?;
        let tunnels_reused = prev
            .and_then(CutPool::tunnel_set)
            .is_some_and(|set| Arc::ptr_eq(set, inst.tunnel_set()));
        let served = sol.served(&inst);
        let plan_digest = plan_digest(sol.objective, &sol.a, &sol.b, &sol.z, &served);
        let epoch = PlanEpoch {
            gen,
            inst,
            a: sol.a,
            b: sol.b,
            z: sol.z,
            served,
            worst_available: sol.worst_available,
            objective: sol.objective,
            fm,
            tol: self.tol,
            scale,
            seed,
            cache: SharedFactorCache::new(cache_capacity),
            plan_digest,
            warm_cuts: sol.seeded_cuts,
            tunnels_reused,
        };
        Ok((epoch, pool))
    }
}

/// FNV-1a over the exact bit patterns of the plan's numbers. Identical
/// plans (same topology, traffic, scheme, options) digest identically on
/// every thread and every run; any numerical divergence shows up even
/// when rounded summaries agree.
fn plan_digest(objective: f64, a: &[f64], b: &[f64], z: &[f64], served: &[f64]) -> u64 {
    let mut digest = Fnv1a::new();
    digest.write_u64(objective.to_bits());
    for x in a.iter().chain(b).chain(z).chain(served) {
        digest.write_u64(x.to_bits());
    }
    digest.finish()
}

/// The hot-swap cell: a generation counter readers poll lock-free, and a
/// mutex-guarded slot holding the current epoch `Arc`.
///
/// Invariant: `gen` is only stored *after* the slot holds the epoch with
/// that generation (both under the slot mutex), so a reader that observes
/// a new generation and then takes the mutex always finds an epoch at
/// least that new. Readers that observe the old generation keep serving
/// the old epoch — a consistent, fully solved plan — until their next
/// check. There is deliberately no moment where a reader can see half a
/// plan.
pub struct PlanCell {
    gen: AtomicU64,
    slot: Mutex<Arc<PlanEpoch>>,
}

impl PlanCell {
    /// Creates the cell holding its first epoch.
    pub fn new(epoch: Arc<PlanEpoch>) -> PlanCell {
        PlanCell {
            gen: AtomicU64::new(epoch.gen),
            slot: Mutex::new(epoch),
        }
    }

    /// The published generation — the lock-free fast path. Readers
    /// compare this against their cached epoch's `gen` and only touch the
    /// slot mutex on a mismatch.
    pub fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Clones the current epoch `Arc` (takes the slot mutex briefly).
    pub fn current(&self) -> Arc<PlanEpoch> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|p| p.into_inner()))
    }

    /// Publishes a new epoch. The slot is updated before the generation
    /// becomes visible, so `generation()`/`current()` can never observe a
    /// generation without its epoch.
    pub fn swap(&self, epoch: Arc<PlanEpoch>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        let gen = epoch.gen;
        *slot = epoch;
        self.gen.store(gen, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    fn abilene_spec() -> PlanSpec {
        PlanSpec {
            topo: zoo::build("Abilene"),
            scheme: Scheme::Ffc,
            tunnels: 3,
            f: 1,
            seed: 1,
            mlu: 0.0,
            max_pairs: 40,
            tol: 1e-6,
            opts: RobustOptions::default(),
            srlgs: Vec::new(),
        }
    }

    #[test]
    fn solve_epoch_builds_a_consistent_plan() {
        let spec = abilene_spec();
        let epoch = spec.solve_epoch(1, 1.0, 1, 64).unwrap();
        assert_eq!(epoch.gen, 1);
        assert_eq!(epoch.served.len(), epoch.inst.num_pairs());
        assert_eq!(epoch.worst_available.len(), epoch.inst.num_pairs());
        assert!(epoch.objective > 0.0);
        // Identical inputs → identical digest; scaled inputs → different.
        let again = spec.solve_epoch(7, 1.0, 1, 64).unwrap();
        assert_eq!(epoch.plan_digest, again.plan_digest);
        let scaled = spec.solve_epoch(2, 0.5, 1, 64).unwrap();
        assert_ne!(epoch.plan_digest, scaled.plan_digest);
        assert!(spec.solve_epoch(3, 0.0, 1, 64).is_err());
        assert!(spec.solve_epoch(3, f64::NAN, 1, 64).is_err());
    }

    #[test]
    fn a_non_finite_or_negative_mlu_is_a_bad_spec() {
        for mlu in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -1.0, -0.25] {
            let spec = PlanSpec {
                mlu,
                ..abilene_spec()
            };
            match spec.solve_epoch_seeded(1, 1.0, 1, 16, None) {
                Err(ServeError::BadSpec(msg)) => assert!(msg.contains("mlu"), "{msg}"),
                other => panic!("mlu {mlu}: {:?}", other.map(|(e, _)| e.gen)),
            }
        }
        let spec = PlanSpec {
            mlu: 0.6,
            ..abilene_spec()
        };
        assert!(spec.solve_epoch_seeded(1, 1.0, 1, 16, None).is_ok());
    }

    #[test]
    fn seeded_epoch_matches_cold_solve() {
        let spec = abilene_spec();
        let (first, pool) = spec.solve_epoch_seeded(1, 1.0, 1, 16, None).unwrap();
        assert_eq!(first.warm_cuts, 0);
        assert!(!first.tunnels_reused);
        let pool = pool.expect("robust schemes export a pool");
        assert!(!pool.is_empty());

        // Warm re-solve at a new scale: same plan as the cold solve of the
        // same inputs, and the seeding is visible in warm_cuts and in the
        // tunnels taken from the pool rather than selected again.
        let (warm, next) = spec.solve_epoch_seeded(2, 0.8, 1, 16, Some(&pool)).unwrap();
        assert_eq!(warm.warm_cuts, pool.len());
        assert!(warm.tunnels_reused);
        assert!(Arc::ptr_eq(warm.inst.tunnel_set(), first.inst.tunnel_set()));
        let next = next.expect("robust schemes export a pool");
        assert!(Arc::ptr_eq(
            next.tunnel_set().unwrap(),
            first.inst.tunnel_set()
        ));
        let cold = spec.solve_epoch(2, 0.8, 1, 16).unwrap();
        assert!(!cold.tunnels_reused);
        // The reused instance is the one selection builds.
        assert!(pool.matches(&warm.inst) && pool.matches(&cold.inst));
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn mismatched_pool_falls_back_to_cold() {
        let spec = abilene_spec();
        let (_, pool) = spec.solve_epoch_seeded(1, 1.0, 1, 16, None).unwrap();
        let pool = pool.unwrap();
        // A spec with a different tunnel count yields a different instance
        // shape; the pool must be ignored, not misapplied.
        let other = PlanSpec {
            tunnels: 2,
            ..abilene_spec()
        };
        let (epoch, _) = other
            .solve_epoch_seeded(1, 1.0, 1, 16, Some(&pool))
            .unwrap();
        assert_eq!(epoch.warm_cuts, 0);
        assert!(!epoch.tunnels_reused);
    }

    #[test]
    fn plan_cell_swaps_are_ordered() {
        let spec = abilene_spec();
        let first = Arc::new(spec.solve_epoch(1, 1.0, 1, 16).unwrap());
        let cell = PlanCell::new(Arc::clone(&first));
        assert_eq!(cell.generation(), 1);
        assert_eq!(cell.current().gen, 1);

        let second = Arc::new(spec.solve_epoch(2, 0.8, 1, 16).unwrap());
        cell.swap(second);
        assert_eq!(cell.generation(), 2);
        assert_eq!(cell.current().gen, 2);
        // The old epoch Arc is still alive for holders.
        assert_eq!(first.gen, 1);
    }
}
