//! Multi-threaded stress tests for the lock-free deque and injector: one
//! owner pushing/popping against N concurrent stealers, exact-once
//! delivery over >= 1M operations, buffer growth/wraparound from a tiny
//! capacity, and MPMC stress on the segmented injector.
//!
//! Every test tags items with a unique id and checks an atomic "seen"
//! bitmap at the end: a lost task shows up as an unseen id, a duplicated
//! task trips the `swap(true)` assertion on a second delivery.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::deque::{Injector, Steal, Worker};

// Miri executes these with real threads but ~1000x slower; shrink the
// volume while keeping every code path (growth, wraparound, batch steals).
#[cfg(miri)]
const ITEMS: usize = 3_000;
#[cfg(not(miri))]
const ITEMS: usize = 1_000_000;

#[cfg(miri)]
const STEALERS: usize = 2;
#[cfg(not(miri))]
const STEALERS: usize = 4;

struct SeenBoard {
    seen: Vec<AtomicBool>,
    count: AtomicUsize,
}

impl SeenBoard {
    fn new(n: usize) -> Self {
        SeenBoard {
            seen: (0..n).map(|_| AtomicBool::new(false)).collect(),
            count: AtomicUsize::new(0),
        }
    }

    fn mark(&self, id: usize) {
        assert!(
            !self.seen[id].swap(true, Ordering::Relaxed),
            "item {id} delivered twice"
        );
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn assert_complete(&self) {
        assert_eq!(
            self.count.load(Ordering::Relaxed),
            self.seen.len(),
            "some items were lost"
        );
    }
}

/// One owner pushing all items (popping a share itself) against N stealers
/// using single-task steals: no item lost or duplicated.
#[test]
fn owner_vs_stealers_exact_once_single_steals() {
    let w = Worker::new_lifo();
    let board = Arc::new(SeenBoard::new(ITEMS));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for _ in 0..STEALERS {
            let stealer = w.stealer();
            let board = board.clone();
            let done = done.clone();
            s.spawn(move || loop {
                match stealer.steal() {
                    Steal::Success(id) => board.mark(id),
                    Steal::Retry => std::thread::yield_now(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) && stealer.is_empty() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }

        // Owner: push in bursts, popping some of its own work between
        // bursts (the fork/join shape that races pop against steals).
        for chunk in 0..(ITEMS / 100) {
            for i in 0..100 {
                w.push(chunk * 100 + i);
            }
            for _ in 0..50 {
                if let Some(id) = w.pop() {
                    board.mark(id);
                }
            }
        }
        while let Some(id) = w.pop() {
            board.mark(id);
        }
        done.store(true, Ordering::Release);
    });

    // Post-join: stealers exited on (done && empty); drain any stragglers
    // the owner raced out of (there should be none).
    while let Some(id) = w.pop() {
        board.mark(id);
    }
    board.assert_complete();
}

/// Same exact-once property with stealers using batched steals into their
/// own deque (tasks parked in `dest` count once when popped locally).
#[test]
fn owner_vs_stealers_exact_once_batch_steals() {
    let w = Worker::new_lifo();
    let board = Arc::new(SeenBoard::new(ITEMS));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for _ in 0..STEALERS {
            let stealer = w.stealer();
            let board = board.clone();
            let done = done.clone();
            s.spawn(move || {
                let local = Worker::new_lifo();
                loop {
                    match stealer.steal_batch_and_pop_counted(&local) {
                        Steal::Success((id, _moved)) => {
                            board.mark(id);
                            while let Some(id) = local.pop() {
                                board.mark(id);
                            }
                        }
                        Steal::Retry => std::thread::yield_now(),
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && stealer.is_empty() {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }

        for chunk in 0..(ITEMS / 100) {
            for i in 0..100 {
                w.push(chunk * 100 + i);
            }
            for _ in 0..30 {
                if let Some(id) = w.pop() {
                    board.mark(id);
                }
            }
        }
        while let Some(id) = w.pop() {
            board.mark(id);
        }
        done.store(true, Ordering::Release);
    });

    while let Some(id) = w.pop() {
        board.mark(id);
    }
    board.assert_complete();
}

/// Growth + wraparound under concurrency: the deque starts at capacity 2,
/// so the buffer grows many times and indices lap the physical slots while
/// stealers hold stale buffer pointers.
#[test]
fn growth_and_wraparound_under_concurrent_steals() {
    let n = ITEMS / 10;
    let w = Worker::new_lifo_with_min_capacity(2);
    let board = Arc::new(SeenBoard::new(n));
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for _ in 0..STEALERS {
            let stealer = w.stealer();
            let board = board.clone();
            let done = done.clone();
            s.spawn(move || loop {
                match stealer.steal() {
                    Steal::Success(id) => board.mark(id),
                    Steal::Retry => std::thread::yield_now(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) && stealer.is_empty() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                }
            });
        }

        // Sawtooth sizes: repeatedly fill to a growing watermark and drain
        // most of it, forcing growth early and wraparound throughout.
        let mut id = 0;
        let mut watermark = 3;
        while id < n {
            let burst = watermark.min(n - id);
            for _ in 0..burst {
                w.push(id);
                id += 1;
            }
            for _ in 0..(burst / 2) {
                if let Some(got) = w.pop() {
                    board.mark(got);
                }
            }
            watermark = (watermark * 2).min(4096);
        }
        while let Some(got) = w.pop() {
            board.mark(got);
        }
        done.store(true, Ordering::Release);
    });

    while let Some(got) = w.pop() {
        board.mark(got);
    }
    board.assert_complete();
}

/// MPMC stress on the segmented injector: P producers pushing disjoint id
/// ranges, C consumers mixing single and batched steals; exact-once across
/// block boundaries and block frees.
#[test]
fn injector_mpmc_exact_once() {
    const PRODUCERS: usize = 2;
    let per_producer = ITEMS / 2 / PRODUCERS;
    let total = PRODUCERS * per_producer;
    let inj = Injector::new();
    let board = Arc::new(SeenBoard::new(total));
    let pushed = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let inj = &inj;
            let pushed = pushed.clone();
            s.spawn(move || {
                for i in 0..per_producer {
                    inj.push(p * per_producer + i);
                    pushed.fetch_add(1, Ordering::Release);
                }
            });
        }
        for c in 0..STEALERS {
            let inj = &inj;
            let board = board.clone();
            let pushed = pushed.clone();
            s.spawn(move || {
                let local = Worker::new_lifo();
                loop {
                    // Alternate disciplines across consumers.
                    let got = if c % 2 == 0 {
                        inj.steal()
                    } else {
                        match inj.steal_batch_and_pop_counted(&local) {
                            Steal::Success((id, _)) => {
                                while let Some(extra) = local.pop() {
                                    board.mark(extra);
                                }
                                Steal::Success(id)
                            }
                            other => match other {
                                Steal::Empty => Steal::Empty,
                                Steal::Retry => Steal::Retry,
                                Steal::Success(_) => unreachable!(),
                            },
                        }
                    };
                    match got {
                        Steal::Success(id) => board.mark(id),
                        Steal::Retry => std::thread::yield_now(),
                        Steal::Empty => {
                            if pushed.load(Ordering::Acquire) == total && inj.is_empty() {
                                return;
                            }
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    board.assert_complete();
    assert!(inj.is_empty());
}
