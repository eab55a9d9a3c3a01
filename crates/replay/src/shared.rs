//! A thread-safe factorization cache shared by many replay engines.
//!
//! [`ReplayEngine`](crate::ReplayEngine)'s private cache is single-owner:
//! each engine pays its own factorizations. A serving deployment inverts
//! that shape — many reader threads answer realization queries against
//! *one* plan, and a failure state factored by any of them should be a
//! cache hit for all of them. [`SharedFactorCache`] provides exactly that:
//! a sharded, `RwLock`-per-shard map from liveness-signature keys to
//! `Arc`-shared solve state, with the same
//! FIFO eviction discipline and the same hit/miss/error accounting as the
//! private cache (counters are atomics aggregated over every attached
//! engine).
//!
//! Entries are pure functions of the plan and the key, so two threads
//! racing on a fresh signature may both factor it — the first insert wins
//! and the loser adopts the winner's entry. Both candidates are
//! bit-identical (same numerical code, same inputs), so which one wins is
//! unobservable; the race costs one redundant factorization, never a
//! wrong answer. Factorization happens *outside* the shard lock so a
//! miss never blocks readers hitting other signatures.
//!
//! Sharing across *plans* is unsound (the key does not encode the plan);
//! callers keep one cache per plan. The serve layer hangs one off each
//! plan epoch, so a hot swap naturally starts cold.

use crate::engine::{CacheEntry, CacheStats};
use pcf_rng::Fnv1a;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent shards. More shards means less write contention
/// when distinct fresh signatures insert concurrently; 16 is plenty for
/// the reader counts the serve layer runs (≤ machine cores).
const SHARDS: usize = 16;

/// One shard: an insertion-order (FIFO) bounded map, mirroring the
/// private `FactorCache` discipline per shard (one key allocation per
/// insert, shared by the map and the FIFO).
struct Shard {
    entries: BTreeMap<Arc<[u64]>, Arc<CacheEntry>>,
    order: VecDeque<Arc<[u64]>>,
}

/// A sharded, thread-safe signature → factorization cache for engines
/// created with
/// [`ReplayEngine::with_shared_cache`](crate::ReplayEngine::with_shared_cache).
pub struct SharedFactorCache {
    shards: Vec<RwLock<Shard>>,
    /// Per-shard entry bound (total retention ≤ `SHARDS * shard_capacity`,
    /// and ≥ the requested capacity).
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    errors: AtomicU64,
}

impl SharedFactorCache {
    /// Builds a cache retaining at least `capacity` factorizations in
    /// total (`0` disables retention: every realization factors from
    /// scratch, and is counted as a miss).
    ///
    /// The bound is enforced per shard at `ceil(capacity / shards)`, so a
    /// pathological key distribution can under-use — but never exceed —
    /// `shards * ceil(capacity / shards)` entries.
    pub fn new(capacity: usize) -> Self {
        let shards = if capacity == 0 {
            0
        } else {
            SHARDS.min(capacity)
        };
        SharedFactorCache {
            shards: (0..shards)
                .map(|_| {
                    RwLock::new(Shard {
                        entries: BTreeMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            shard_capacity: if shards == 0 {
                0
            } else {
                capacity.div_ceil(shards)
            },
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Snapshot of the aggregated counters. Under concurrent use the
    /// fields are each individually accurate but not mutually atomic —
    /// fine for telemetry, which is their only consumer.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // audit:allow(atomics-discipline, monotonic telemetry counters; no data is published through them)
            hits: self.hits.load(Ordering::Relaxed),
            // audit:allow(atomics-discipline, monotonic telemetry counters; no data is published through them)
            misses: self.misses.load(Ordering::Relaxed),
            // audit:allow(atomics-discipline, monotonic telemetry counters; no data is published through them)
            evictions: self.evictions.load(Ordering::Relaxed),
            // audit:allow(atomics-discipline, monotonic telemetry counters; no data is published through them)
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    /// Number of factorizations currently retained across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the cache currently retains nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, key: &[u64]) -> usize {
        // FNV-1a over the key words; any stable mix works — this only
        // spreads load, it never affects results.
        let mut h = Fnv1a::new();
        for &w in key {
            h.write_u64(w);
        }
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn count(&self, entry: &CacheEntry, was_cached: bool) {
        match entry {
            // audit:allow(atomics-discipline, monotonic telemetry counter; no data is published through it)
            Err(_) => self.errors.fetch_add(1, Ordering::Relaxed),
            // audit:allow(atomics-discipline, monotonic telemetry counter; no data is published through it)
            Ok(_) if was_cached => self.hits.fetch_add(1, Ordering::Relaxed),
            // audit:allow(atomics-discipline, monotonic telemetry counter; no data is published through it)
            Ok(_) => self.misses.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Returns the entry for `key`, computing and inserting it on a miss.
    /// Same accounting contract as the private cache: error entries count
    /// as errors (whether fresh or replayed), never as hits or misses.
    pub(crate) fn lookup_or_insert(
        &self,
        key: &[u64],
        compute: impl FnOnce() -> CacheEntry,
    ) -> Arc<CacheEntry> {
        if self.shards.is_empty() {
            // Retention disabled: compute-only, like the engine's cold
            // mode but with shared counters.
            let entry = Arc::new(compute());
            self.count(&entry, false);
            return entry;
        }
        let shard = &self.shards[self.shard_of(key)];
        {
            let guard = shard.read().unwrap_or_else(|p| p.into_inner());
            if let Some(entry) = guard.entries.get(key) {
                let entry = Arc::clone(entry);
                drop(guard);
                self.count(&entry, true);
                return entry;
            }
        }
        // Miss: factor outside the lock so it never blocks readers of
        // other signatures in this shard.
        let fresh = Arc::new(compute());
        let mut guard = shard.write().unwrap_or_else(|p| p.into_inner());
        let entry = if let Some(existing) = guard.entries.get(key) {
            // Lost the race: another thread inserted while we factored.
            // Adopt its (bit-identical) entry; ours is dropped.
            Arc::clone(existing)
        } else {
            if guard.entries.len() >= self.shard_capacity {
                if let Some(old) = guard.order.pop_front() {
                    guard.entries.remove(&old);
                    // audit:allow(atomics-discipline, monotonic telemetry counter; no data is published through it)
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
            let key: Arc<[u64]> = key.into();
            guard.order.push_back(Arc::clone(&key));
            guard.entries.insert(key, Arc::clone(&fresh));
            fresh
        };
        drop(guard);
        // The racing loser still paid a factorization: count a miss, not
        // a hit, so hit_rate reflects factorizations actually avoided.
        self.count(&entry, false);
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            match (warm.realize(), private.realize()) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.pairs, y.pairs);
                    for (c, f) in x.u.iter().zip(&y.u) {
                        assert_eq!(c.to_bits(), f.to_bits());
                    }
                    for (c, f) in x.arc_loads.iter().zip(&y.arc_loads) {
                        assert_eq!(c.to_bits(), f.to_bits());
                    }
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("shared {x:?} disagrees with private {y:?}"),
            }
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
        // Racing threads may duplicate a factorization (extra misses) but
        // the retained entries are bounded and hits dominate.
        let stats = shared.stats();
        assert!(stats.hits > stats.misses, "{stats:?}");
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn shared_eviction_respects_capacity() {
        let (inst, a, b, served) = sprint_plan();
        let trace = EventTrace::rolling_maintenance(inst.topo(), 120, 5);
        // Capacity below the shard count: collapses to one shard of 4.
        let shared = SharedFactorCache::new(4);
        let mut engine = ReplayEngine::with_shared_cache(&inst, &a, &b, &served, 1e-6, &shared);
        for ev in &trace.events {
            engine.apply(ev).unwrap();
            engine.realize().unwrap();
        }
        assert!(shared.len() <= 4 * SHARDS.min(4), "{}", shared.len());
        let stats = shared.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert_eq!(stats.hits + stats.misses, 120);
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
