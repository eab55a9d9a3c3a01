//! Allocation budgets of the plan path and of a realization miss on the
//! benchmark's instance (Quest, PCF-LS, f = 1, the 200 heaviest gravity
//! pairs, 3 tunnels per pair).
//!
//! Allocations are counted by a global allocator that this test binary
//! installs for itself, so the binary holds one test: a second test running
//! beside it would count into the same counter. Counts, unlike times, do
//! not move with the host; a change that puts per-pair setup back on the
//! plan path (a fresh LP, solve workspace or path search per pair, a copy
//! per seeded cut) exceeds a budget by thousands.

use pcf_core::{FailureModel, FailureState, InstanceBuilder, Realizer, RobustOptions, Scheme};
use pcf_topology::zoo;
use pcf_traffic::gravity;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations (and reallocations) since the process started.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator behind an allocation counter.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// counter touches only an atomic, never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live block of `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations `f` makes, and what it returns.
fn counted<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[test]
fn a_seeded_replan_and_tunnel_selection_stay_within_their_allocation_budgets() {
    let topo = zoo::build("Quest");
    let mut tm = gravity(&topo, 1);
    tm.truncate_to_top_k(200);
    let fm = FailureModel::links(1);
    let opts = RobustOptions {
        threads: 1,
        ..RobustOptions::default()
    };
    let base = Scheme::PcfLs
        .plan(&topo, tm.clone(), 3, &fm, &opts, None)
        .expect("base plan");

    // The re-plan `replan-warm` measures at its first scale: the base
    // plan's pool offered, tunnels taken back, one separation round.
    let scaled = tm.scaled(1.1);
    let (replan, plan) =
        counted(|| Scheme::PcfLs.plan(&topo, scaled, 3, &fm, &opts, base.pool.as_ref()));
    let plan = plan.expect("seeded re-plan");
    assert!(plan.sol.seeded_cuts > 0, "the pool was not used");

    // Tunnel selection for the 200 demand pairs, as a cold instance build
    // runs it: `select_tunnels` for one pair after another.
    let (selection, inst) =
        counted(|| InstanceBuilder::new(&topo, &tm).tunnels_per_pair(3).build());
    assert_eq!((inst.num_pairs(), inst.num_tunnels()), (200, 600));

    // One `Realizer` over the base plan's 29 distinct single-link states
    // (two of Quest's 30 links kill the same tunnels), as the replay
    // engine's misses realize them.
    let served = base.sol.served(&base.inst);
    let mut signatures = std::collections::BTreeSet::new();
    let states: Vec<FailureState> = (fm.enumerate_scenarios(&topo).iter())
        .map(|sc| FailureState::new(&base.inst, &sc.dead).expect("mask"))
        .filter(|state| signatures.insert(state.liveness_signature()))
        .collect();
    assert_eq!(states.len(), 29);
    let mut realizer = Realizer::new(&base.inst, &base.sol.b, &served, 1e-6);
    let (misses, realized) = counted(|| {
        (states.iter())
            .filter(|state| realizer.realize(state, &base.sol.a).is_ok())
            .count()
    });
    assert_eq!(realized, 29);

    assert!(replan <= 4_000, "seeded re-plan allocated {replan} times");
    assert!(
        selection <= 10_000,
        "tunnel selection allocated {selection} times"
    );
    // 170: the walk order built once (54), then 4 per state, the routing's
    // own vectors; 199 while a recorded singleton peel was replayed per
    // pattern. Per-state setup (an order, a factorization or a scratch
    // buffer per miss) adds at least 29.
    assert!(misses <= 199, "29 misses allocated {misses} times");
}
