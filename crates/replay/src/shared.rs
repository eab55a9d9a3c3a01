//! A thread-safe realization cache shared by many replay engines.
//!
//! A serving deployment runs many reader threads answering realization
//! queries against *one* plan, and a failure state realized by any of them
//! should be a cache hit for all of them. [`SharedFactorCache`] is the
//! engine's own FIFO realization cache behind one `Mutex`: the same exact
//! capacity, eviction order and hit/miss/error accounting as an
//! engine-private cache, its counters aggregated over every attached
//! engine.
//!
//! The lock is held for a lookup or an insert, never while realizing: a
//! miss realizes outside it, so two threads racing on a fresh key may both
//! realize it. The first insert wins and the loser adopts the winner's
//! entry, counting a miss (it paid a realization). Both candidates are
//! bit-identical (same code, same inputs), so which one wins is
//! unobservable.
//!
//! Sharing across *plans* is unsound (the key does not encode the plan);
//! callers keep one cache per plan. The serve layer hangs one off each
//! plan epoch, so a hot swap naturally starts cold.

use crate::engine::{CacheEntry, CacheStats, RealizationCache};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A thread-safe key → realization cache for engines created with
/// [`ReplayEngine::with_shared_cache`](crate::ReplayEngine::with_shared_cache).
pub struct SharedFactorCache(Mutex<RealizationCache>);

impl SharedFactorCache {
    /// Builds a cache retaining at most `capacity` realizations, oldest
    /// evicted first (`0` retains none: every realization is computed and
    /// counted, as in an engine built with capacity `0`).
    pub fn new(capacity: usize) -> Self {
        SharedFactorCache(Mutex::new(RealizationCache::new(capacity)))
    }

    /// Snapshot of the counters, aggregated over every attached engine.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats()
    }

    /// Number of realizations currently retained.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the cache currently retains nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, key: &[u64]) -> Option<CacheEntry> {
        self.lock().get(key)
    }

    pub(crate) fn insert(&self, key: &[u64], fresh: CacheEntry) -> CacheEntry {
        self.lock().insert(key, fresh)
    }

    fn lock(&self) -> MutexGuard<'_, RealizationCache> {
        // No critical section can panic part-way through an update, so a
        // poisoned lock still guards a consistent map.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::routing_bits;
    use crate::engine::ReplayEngine;
    use crate::trace::{EventKind, EventTrace};
    use pcf_core::{solve_pcf_ls, FailureModel, Instance, RobustOptions};
    use pcf_topology::zoo;
    use pcf_traffic::gravity;
    use std::thread;

    fn sprint_plan() -> (Instance, Vec<f64>, Vec<f64>, Vec<f64>) {
        let topo = zoo::build("Sprint");
        let tm = gravity(&topo, 11);
        let inst = pcf_core::pcf_ls_instance(&topo, &tm, 3);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &RobustOptions::default());
        let served = sol.served(&inst);
        (inst, sol.a, sol.b, served)
    }

    #[test]
    fn shared_results_are_bit_identical_to_private() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::flaps(inst.topo(), 80, 1, 3);
        let shared = SharedFactorCache::new(64);
        let mut warm = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        let mut private = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 64);
        for ev in &trace.events {
            warm.apply(ev).unwrap();
            private.apply(ev).unwrap();
            assert_eq!(
                routing_bits(&warm.realize()),
                routing_bits(&private.realize())
            );
        }
        // Identical event streams, identical accounting.
        assert_eq!(warm.cache_stats(), private.cache_stats());
    }

    #[test]
    fn second_engine_hits_what_the_first_factored() {
        let (inst, a, b, served) = sprint_plan();
        let shared = SharedFactorCache::new(64);
        let mut first = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        first.realize().unwrap();
        assert_eq!(shared.stats().misses, 1);

        // A fresh engine over the same plan: its very first realization
        // of the same (all-alive) state is a hit, not a miss.
        let mut second = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        second.realize().unwrap();
        let stats = shared.stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.misses, 1);
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn concurrent_engines_agree_bitwise() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::flaps(inst.topo(), 40, 1, 5);
        let shared = SharedFactorCache::new(64);
        // Reference: a private-cache engine over the same trace.
        let mut reference = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, 64);
        let mut expect = Vec::new();
        for ev in &trace.events {
            reference.apply(ev).unwrap();
            expect.push(reference.realize().map(|r| r.max_utilization(&inst)));
        }
        let results: Vec<Vec<Result<f64, _>>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut engine =
                            ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
                        trace
                            .events
                            .iter()
                            .map(|ev| {
                                engine.apply(ev).unwrap();
                                engine.realize().map(|r| r.max_utilization(&inst))
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &results {
            assert_eq!(got.len(), expect.len());
            for (g, e) in got.iter().zip(&expect) {
                match (g, e) {
                    (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                    (Err(x), Err(y)) => assert_eq!(x, y),
                    (x, y) => panic!("shared {x:?} disagrees with reference {y:?}"),
                }
            }
        }
        // Racing threads may duplicate a realization (extra misses) but
        // the retained entries are bounded and hits dominate.
        let stats = shared.stats();
        assert!(stats.hits > stats.misses, "{stats:?}");
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn shared_eviction_respects_capacity() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::rolling_maintenance(inst.topo(), 120, 5);
        let shared = SharedFactorCache::new(4);
        let mut engine = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        for ev in &trace.events {
            engine.apply(ev).unwrap();
            engine.realize().unwrap();
        }
        assert!(shared.len() <= 4, "{}", shared.len());
        let stats = shared.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 120);
    }

    /// The shared cache is the private one behind a lock: over the same
    /// trace, capacities below, at and above the trace's 18 distinct
    /// states count exactly what a private cache counts, and neither
    /// retains more than its capacity.
    #[test]
    fn shared_capacity_is_the_private_policy_and_a_bound() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::rolling_maintenance(inst.topo(), 120, 5);
        for capacity in [4, 17, 20, 40] {
            let shared = SharedFactorCache::new(capacity);
            let mut warm = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
            let mut private = ReplayEngine::new(&inst, &a, &b, &served, 1e-6, capacity);
            for ev in &trace.events {
                for engine in [&mut warm, &mut private] {
                    engine.apply(ev).unwrap();
                    engine.realize().unwrap();
                    assert!(engine.cached_entries() <= capacity, "capacity {capacity}");
                }
            }
            assert_eq!(
                warm.cache_stats(),
                private.cache_stats(),
                "capacity {capacity}"
            );
        }
    }

    #[test]
    fn zero_capacity_counts_misses_and_retains_nothing() {
        let (inst, a, b, served) = sprint_plan();
        let shared = SharedFactorCache::new(0);
        let mut engine = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        for _ in 0..3 {
            engine.realize().unwrap();
        }
        assert!(shared.is_empty());
        let stats = shared.stats();
        assert_eq!(stats.misses, 3, "{stats:?}");
        assert_eq!(stats.hits, 0);
    }

    #[test]
    fn wobble_events_do_not_perturb_shared_keys() {
        let (inst, a, b, served) = sprint_plan();
        let shared = SharedFactorCache::new(16);
        let mut engine = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        engine.realize().unwrap();
        engine
            .apply(&crate::LinkEvent {
                link: pcf_topology::LinkId(0),
                kind: EventKind::Wobble { permille: 500 },
            })
            .unwrap();
        engine.realize().unwrap();
        let stats = shared.stats();
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(shared.len(), 1);
    }
}
