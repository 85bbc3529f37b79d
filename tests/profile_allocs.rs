//! A causal profile allocates per rep, not per task.
//!
//! A counting `#[global_allocator]` wraps the system allocator (as in
//! `tests/zero_alloc.rs` and `crates/serve/tests/scrape_allocs.rs`) and
//! counts per thread, so the runtime's workers and the test harness do not
//! add to the count. Two structural bounds:
//!
//! - `CausalProfiler::from_spans` + `analyze` over 65 536 fib-tree spans
//!   allocate at most 10 times: the id table and the four node arrays;
//!   the chains and each node's heaviest child; the site table and its
//!   index; the critical path. Parents are resolved at ingest, so a
//!   parents-first window builds no forest arrays; a forest of one `Vec`
//!   per parent task allocated 32 816 times;
//! - `TaskTracer::spans()` on a wrapped ring allocates at most 3 times: the
//!   ring windows, the sort keys with the radix sort's scratch behind
//!   them, and the result.
//!
//! This is its own integration test binary because a global allocator is
//! process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rpx::causal::CausalProfiler;
use rpx::inncabs::fib::{self, FibInput};
use rpx::inncabs::spawner::RpxSpawner;
use rpx::runtime::trace::{TaskSpan, UNKNOWN_SITE};
use rpx::runtime::{Runtime, RuntimeConfig};

struct CountingAlloc;

thread_local! {
    /// Allocations (reallocations included) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the calling thread makes inside `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The first `n` spans of fib(`k`)'s spawn tree in spawn order (every
/// parent before its children), one unit of net time each.
fn fib_tree_spans(k: u64, n: usize) -> Vec<TaskSpan> {
    let mut spans = Vec::with_capacity(n);
    let mut stack = vec![(k, None::<u64>)];
    while let Some((k, parent)) = stack.pop() {
        if spans.len() == n {
            break;
        }
        let id = spans.len() as u64 + 1;
        spans.push(TaskSpan {
            task_id: id,
            parent,
            site: UNKNOWN_SITE,
            worker: 0,
            start_ns: id,
            end_ns: id + 1,
            wait_ns: 0,
            nested_ns: 0,
        });
        if k >= 2 {
            stack.push((k - 1, Some(id)));
            stack.push((k - 2, Some(id)));
        }
    }
    spans
}

#[test]
fn a_profile_allocates_per_rep_not_per_task() {
    const TASKS: usize = 65_536;
    let spans = fib_tree_spans(23, TASKS);
    assert_eq!(spans.len(), TASKS);
    let (allocs, analysis) = allocations(|| CausalProfiler::from_spans(&spans).analyze());
    assert_eq!(analysis.tasks, TASKS as u64);
    assert_eq!(analysis.work_ns, TASKS as u64);
    assert!(
        allocs <= 10,
        "from_spans + analyze allocated {allocs} times over {TASKS} spans"
    );
}

#[test]
fn copying_a_wrapped_ring_allocates_a_fixed_number_of_times() {
    // fib(23) runs 92 735 tasks on two workers: more than the tracer's
    // 65 536-span window, so the copy merges the rings' tails.
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let tracer = rt.tracer();
    tracer.enable();
    let sp = RpxSpawner::new(rt.handle());
    assert_eq!(fib::run(&sp, FibInput { n: 23 }), 28_657);
    rt.wait_idle();
    assert!(tracer.dropped() > 0, "the window wrapped");
    let (allocs, spans) = allocations(|| tracer.spans());
    assert_eq!(spans.len(), 64 * 1024);
    assert!(allocs <= 3, "spans() allocated {allocs} times");
    rt.shutdown();
}
