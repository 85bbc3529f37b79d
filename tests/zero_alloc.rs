//! Zero-allocation proof for the slab spawn path (DESIGN.md §16).
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up run has grown the deques and primed every per-worker slab,
//! a second identical fork/join run must allocate (almost) nothing:
//! thousands of task spawns, a near-zero heap delta. The same run's
//! `/runtime/slab/fallback-allocs` counter cross-checks the result from
//! inside the runtime — the two measurements must agree that the heap
//! path stayed cold.
//!
//! This is its own integration test binary because a global allocator
//! is process-wide: the counter would otherwise see every other test's
//! traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use rpx::runtime::{LaunchPolicy, Runtime, RuntimeConfig, RuntimeHandle};

fn fib(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn(move || fib(&h2, n - 1));
    let b = fib(h, n - 2);
    a.get() + b
}

/// The same tree with every child launched `Fork`: on a worker that is an
/// inline run, which takes its cell from the slab like a queued spawn.
fn fib_fork(h: &RuntimeHandle, n: u64) -> u64 {
    if n < 2 {
        return n;
    }
    let h2 = h.clone();
    let a = h.spawn_with(LaunchPolicy::Fork, move || fib_fork(&h2, n - 1));
    let b = fib_fork(h, n - 2);
    a.get() + b
}

#[test]
fn steady_state_spawns_do_not_touch_the_heap() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let h = rt.handle();

    // Warm-up: grow the deques, fault in the slabs, register counters.
    fib(&h, 18);
    rt.wait_idle();

    let read = |name: &str| {
        reg.evaluate(name, false)
            .map(|v| v.value)
            .unwrap_or_default()
    };
    let tasks_before = read("/threads{locality#0/total}/count/cumulative");
    let fallback_before = read("/runtime{locality#0/total}/slab/fallback-allocs");

    let heap_before = ALLOCS.load(Ordering::Relaxed);
    fib(&h, 18);
    rt.wait_idle();
    let heap_delta = ALLOCS.load(Ordering::Relaxed) - heap_before;

    let tasks = read("/threads{locality#0/total}/count/cumulative") - tasks_before;
    let fallback = read("/runtime{locality#0/total}/slab/fallback-allocs") - fallback_before;

    assert!(tasks >= 4_000, "fib(18) spawns thousands of tasks: {tasks}");
    // The root spawn comes from this (external) thread and legitimately
    // takes the heap path; worker-side recursion must not. The bound
    // leaves room for a stray park/unpark or a transient slab-exhausted
    // fallback, while still proving the per-spawn Arc + closure
    // allocations (2+ per task, ~9k+ for this run) are gone.
    assert!(
        heap_delta < 100,
        "steady-state run of {tasks} tasks allocated {heap_delta} times"
    );
    assert!(
        fallback <= heap_delta as i64,
        "runtime claims {fallback} heap-fallback spawns but the \
         allocator only saw {heap_delta} allocations"
    );
    assert!(
        fallback * 100 < tasks,
        "heap fallback must be rare: {fallback}/{tasks}"
    );

    // Inline launches: a root task (external, one heap cell) forks the
    // whole tree on its worker. Every fork runs before `spawn_with`
    // returns, in a slab slot — no queue, and no allocation either.
    let tasks_before = read("/threads{locality#0/total}/count/cumulative");
    let heap_before = ALLOCS.load(Ordering::Relaxed);
    let h2 = h.clone();
    assert_eq!(rt.spawn(move || fib_fork(&h2, 16)).get(), 987);
    rt.wait_idle();
    let heap_delta = ALLOCS.load(Ordering::Relaxed) - heap_before;
    let tasks = read("/threads{locality#0/total}/count/cumulative") - tasks_before;
    assert!(
        tasks >= 1_500,
        "fib(16) forks over a thousand tasks: {tasks}"
    );
    assert!(
        heap_delta < 100,
        "{tasks} inline launches on a worker allocated {heap_delta} times"
    );

    rt.shutdown();
}
