//! A scrape allocates per payload, not per counter.
//!
//! A counting `#[global_allocator]` wraps the system allocator (as in the
//! umbrella crate's `tests/zero_alloc.rs`); after a warm-up scrape, one
//! `collect()` + `render()` must allocate the same number of times over
//! 1 000 export entries as over 4 000 — the sample column, its copy in
//! the history and the payload — where a renderer that builds each line
//! from its counter name allocates some 18 times per entry.
//!
//! This is its own integration test binary because a global allocator is
//! process-wide: the count would otherwise see every other test's traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rpx_counters::CounterRegistry;
use rpx_serve::engine::ScrapeEngine;
use rpx_serve::text;

mod common;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// An engine over `instances` per-worker `/app/cell` counters plus two
/// single-instance families, so the payload has more than one header.
fn engine_over(instances: u32) -> Arc<ScrapeEngine> {
    let reg = CounterRegistry::new();
    common::register_cells(&reg, instances);
    reg.register_monotonic("/app/requests", "requests", "1", Arc::new(|| 42));
    reg.register_raw("/app/load", "load", "1", Arc::new(|| 3));
    let specs = [
        "/app{locality#0/worker-thread#*}/cell",
        "/app/requests",
        "/app/load",
    ];
    let specs: Vec<String> = specs.iter().map(|s| s.to_string()).collect();
    ScrapeEngine::new(&reg, &specs, 8, 8).expect("the export specs resolve")
}

/// Heap allocations (reallocations included) of one warm scrape.
fn allocations_per_scrape(instances: u32) -> u64 {
    let engine = engine_over(instances);
    let entries = instances as usize + 2;
    // Warm-up: the first scrape after a topology change computes the
    // export order.
    assert_eq!(text::render(&engine.collect()).lines().count(), entries + 6);
    let before = ALLOCS.load(Ordering::Relaxed);
    let batch = engine.collect();
    let payload = text::render(&batch);
    let allocations = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(batch.len(), entries);
    assert_eq!(payload.lines().count(), entries + 6);
    allocations
}

#[test]
fn a_scrape_allocates_per_payload_not_per_counter() {
    let small = allocations_per_scrape(1_000);
    let large = allocations_per_scrape(4_000);
    assert_eq!(
        small, large,
        "allocations per scrape grew with the export set: {small} at 1 000 entries, \
         {large} at 4 000"
    );
    // The sample column, its copy in the history (until the history is
    // full, when the evicted column's buffer is reused) and the payload.
    assert!(small <= 3, "{small} allocations for one scrape");
}
