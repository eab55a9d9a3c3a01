//! Counting global allocator: live bytes, their peak, and allocation count.
//!
//! `peak_heap_mb` replaces peak RSS as the end-to-end memory metric: RSS
//! moves with allocator arenas and thread stacks, live heap bytes move only
//! when the program asks for more memory. The harness preallocates its own
//! sample and span buffers, then calls [`rebase`]; everything reported after
//! that is relative to that baseline, so the harness's vectors do not count
//! as program memory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: no other data is published through these counters, so
// `Relaxed` is sufficient on every access.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BASE: AtomicU64 = AtomicU64::new(0);

/// The system allocator with three counters in front of it.
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore inherited; the counter updates touch
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr`/`layout` describe a live block of
        // this allocator and that `new_size` is valid for `layout.align()`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Makes the bytes live right now the baseline: later [`peak_bytes`] readings
/// count only memory allocated on top of it.
pub fn rebase() {
    let live = LIVE.load(Ordering::Relaxed);
    BASE.store(live, Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
}

/// Peak live heap bytes above the [`rebase`] baseline.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
        .saturating_sub(BASE.load(Ordering::Relaxed))
}

/// Allocations (including reallocations) made so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
