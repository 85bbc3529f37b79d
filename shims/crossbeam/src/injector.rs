//! A lock-free segmented FIFO queue (the global `Injector`).
//!
//! The queue is a singly linked list of fixed-size blocks, in the style of
//! crossbeam's `SegQueue`/`Injector`. Producers claim slots by CAS on a
//! monotonically increasing tail index; consumers claim by CAS on a head
//! index. Within each 32-index *lap*, 31 indices address real slots and
//! the last is reserved: the producer that claims a lap's final slot
//! installs the next block and advances the tail to the next lap, while
//! other producers spin on the reserved offset; the consumer that claims
//! the final slot advances the head likewise.
//!
//! Reclamation needs no epochs: each block counts completed consumes in
//! `done`, and the consumer whose consume makes the count reach the block
//! capacity frees the block. A consumer touches a block only between its
//! index CAS and its `done` increment, and the per-slot WRITTEN flags
//! order every producer access before the matching consume, so the block
//! is quiescent when the last increment lands (see DESIGN.md §"Lock-free
//! scheduler queues").

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::ptr;

use crate::deque::{Steal, Worker, MAX_BATCH};
use crate::primitives::{mutation_armed, spin_loop, AtomicPtr, AtomicU8, AtomicUsize, Ordering};

/// Real slots per block. Model builds shrink the block so a spec crossing
/// a lap boundary (block install, done-counter free) needs only a handful
/// of pushes instead of 32.
#[cfg(not(rpx_model))]
const BLOCK_CAP: usize = 31;
#[cfg(rpx_model)]
const BLOCK_CAP: usize = 3;
/// Indices per lap (block capacity + one reserved index).
#[cfg(not(rpx_model))]
const LAP: usize = 32;
#[cfg(rpx_model)]
const LAP: usize = 4;

/// Number of real slots addressed by indices `< i`.
fn slots_before(i: usize) -> usize {
    (i / LAP) * BLOCK_CAP + (i % LAP).min(BLOCK_CAP)
}

struct Slot<T> {
    value: UnsafeCell<MaybeUninit<T>>,
    /// 0 = empty, 1 = written. The Release store pairs with the consumer's
    /// Acquire spin, ordering the value write (and, for a lap's final
    /// slot, the next-block installation) before the consume.
    state: AtomicU8,
}

struct Block<T> {
    next: AtomicPtr<Block<T>>,
    /// Completed consumes. The consumer that makes this reach `BLOCK_CAP`
    /// frees the block.
    done: AtomicUsize,
    slots: [Slot<T>; BLOCK_CAP],
}

impl<T> Block<T> {
    fn alloc() -> *mut Block<T> {
        Box::into_raw(Box::new(Block {
            next: AtomicPtr::new(ptr::null_mut()),
            done: AtomicUsize::new(0),
            slots: std::array::from_fn(|_| Slot {
                value: UnsafeCell::new(MaybeUninit::uninit()),
                state: AtomicU8::new(0),
            }),
        }))
    }
}

struct Position<T> {
    index: AtomicUsize,
    block: AtomicPtr<Block<T>>,
}

/// A shared lock-free FIFO injector queue (multi-producer, multi-consumer).
pub struct Injector<T> {
    head: Position<T>,
    tail: Position<T>,
}

unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Injector::new()
    }
}

impl<T> Injector<T> {
    /// New empty injector.
    pub fn new() -> Self {
        let block = Block::<T>::alloc();
        Injector {
            head: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(block),
            },
            tail: Position {
                index: AtomicUsize::new(0),
                block: AtomicPtr::new(block),
            },
        }
    }

    /// Enqueue a task (FIFO).
    pub fn push(&self, value: T) {
        let mut tail = self.tail.index.load(Ordering::Acquire);
        loop {
            let offset = tail % LAP;
            if offset == BLOCK_CAP {
                // Another producer claimed the lap's last slot and is
                // installing the next block; wait for the index to move.
                spin_loop();
                tail = self.tail.index.load(Ordering::Acquire);
                continue;
            }
            // Loaded after `tail` and validated by the CAS below: if the
            // index is still `tail` at the CAS, `block` is this lap's
            // block (block pointers advance strictly before the index
            // enters a new lap).
            let block = self.tail.block.load(Ordering::Acquire);
            match self.tail.index.compare_exchange_weak(
                tail,
                tail + 1,
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => unsafe {
                    if offset + 1 == BLOCK_CAP {
                        // We claimed the last slot: install the next block
                        // and release the producers spinning above. All of
                        // this precedes our WRITTEN flag, so the consumer
                        // of this slot (and therefore the block's free)
                        // cannot outrun it.
                        //
                        // Mutant spec `injector-lap-advance-relaxed`: with
                        // relaxed stores the index can enter the new lap
                        // before the new block pointer is visible, so a
                        // producer claims a new-lap index against the old
                        // block and the value is stranded.
                        let lap_ord = if mutation_armed("injector-lap-advance-relaxed") {
                            Ordering::Relaxed
                        } else {
                            Ordering::Release
                        };
                        let next = Block::<T>::alloc();
                        (*block).next.store(next, lap_ord);
                        self.tail.block.store(next, lap_ord);
                        self.tail.index.store((tail / LAP + 1) * LAP, lap_ord);
                    }
                    let slot = &(*block).slots[offset];
                    (*slot.value.get()).write(value);
                    slot.state.store(1, Ordering::Release);
                    return;
                },
                Err(t) => tail = t,
            }
        }
    }

    /// Dequeue the oldest task.
    pub fn steal(&self) -> Steal<T> {
        let head = self.head.index.load(Ordering::Acquire);
        let offset = head % LAP;
        if offset == BLOCK_CAP {
            // A consumer is advancing the head to the next block.
            return Steal::Retry;
        }
        let block = self.head.block.load(Ordering::Acquire);
        let tail = self.tail.index.load(Ordering::SeqCst);
        if head >= tail {
            return Steal::Empty;
        }
        if self
            .head
            .index
            .compare_exchange(head, head + 1, Ordering::SeqCst, Ordering::Acquire)
            .is_err()
        {
            return Steal::Retry;
        }
        // The CAS validated `block` (same argument as in `push`) and gave
        // us exclusive ownership of `slot`; the block cannot be freed
        // before our `done` increment below.
        unsafe {
            if offset + 1 == BLOCK_CAP {
                // We claimed the block's last slot: advance the head to the
                // next block. Its producer installed `next` (or is about
                // to — the spin is bounded by that single store).
                let next = loop {
                    let n = (*block).next.load(Ordering::Acquire);
                    if !n.is_null() {
                        break n;
                    }
                    spin_loop();
                };
                self.head.block.store(next, Ordering::Release);
                self.head
                    .index
                    .store((head / LAP + 1) * LAP, Ordering::Release);
            }
            let slot = &(*block).slots[offset];
            // The producer may still be writing the value; its claim
            // precedes ours (tail CAS before head could pass it), so the
            // wait is bounded by one in-flight write.
            while slot.state.load(Ordering::Acquire) == 0 {
                spin_loop();
            }
            let value = (*slot.value.get()).assume_init_read();
            self.finish_consume(block);
            Steal::Success(value)
        }
    }

    /// Record one completed consume on `block`, freeing it when every slot
    /// has been consumed.
    ///
    /// # Safety
    /// The caller must have consumed exactly one slot of `block` and must
    /// not touch the block afterwards.
    unsafe fn finish_consume(&self, block: *mut Block<T>) {
        if (*block).done.fetch_add(1, Ordering::AcqRel) + 1 == BLOCK_CAP {
            // Model builds leak the block instead of freeing it: an armed
            // mutant can break the claim protocol badly enough that a
            // racing producer still writes through a stale block pointer,
            // and the checker must surface the *logical* failure (stranded
            // or duplicated values), not corrupt the allocator. The
            // decision to free — the done-counter protocol — is still
            // fully explored; only the reclamation is deferred.
            #[cfg(not(rpx_model))]
            drop(Box::from_raw(block));
            #[cfg(rpx_model)]
            let _ = block;
        }
    }

    /// Dequeue a batch into `dest`, returning the oldest task directly
    /// and how many *extra* tasks were moved into `dest` (crossbeam's
    /// `steal_batch_and_pop` plus the count). One call transfers up to
    /// half of the announced queue, capped at `MAX_BATCH`; a competing
    /// consumer ends the batch early.
    pub fn steal_batch_and_pop_counted(&self, dest: &Worker<T>) -> Steal<(T, usize)> {
        let announced = self.len();
        let first = match self.steal() {
            Steal::Success(v) => v,
            Steal::Empty => return Steal::Empty,
            Steal::Retry => return Steal::Retry,
        };
        let budget = (announced / 2).min(MAX_BATCH - 1);
        let mut moved = 0;
        while moved < budget {
            match self.steal() {
                Steal::Success(v) => {
                    dest.push(v);
                    moved += 1;
                }
                _ => break,
            }
        }
        Steal::Success((first, moved))
    }

    /// Whether the injector is currently empty (racy snapshot; participates
    /// in the park-gate fence protocol like `Stealer::is_empty`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of queued items (racy snapshot).
    pub fn len(&self) -> usize {
        let head = self.head.index.load(Ordering::Acquire);
        let tail = self.tail.index.load(Ordering::Acquire);
        slots_before(tail).saturating_sub(slots_before(head))
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        // Exclusive access: drain remaining values through the normal
        // consume path (which also frees fully consumed blocks), then free
        // the final partially consumed block and any installed-but-unused
        // successor.
        loop {
            match self.steal() {
                Steal::Success(v) => drop(v),
                Steal::Empty => break,
                Steal::Retry => unreachable!("no concurrent consumers during drop"),
            }
        }
        unsafe {
            let mut cur = self.head.block.load(Ordering::Relaxed);
            while !cur.is_null() {
                let next = (*cur).next.load(Ordering::Relaxed);
                drop(Box::from_raw(cur));
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_fifo() {
        let inj = Injector::new();
        inj.push(10);
        inj.push(20);
        let dest = Worker::new_lifo();
        assert_eq!(
            inj.steal_batch_and_pop_counted(&dest),
            Steal::Success((10, 1)),
            "batch steal returns the oldest"
        );
        // The batch moved the follow-up task into `dest`.
        assert_eq!(dest.pop(), Some(20));
        assert!(inj.is_empty());
        assert_eq!(inj.steal(), Steal::Empty);
    }

    #[test]
    fn crosses_block_boundaries_in_order() {
        let inj = Injector::new();
        let n = 5 * BLOCK_CAP + 7;
        for i in 0..n {
            inj.push(i);
        }
        assert_eq!(inj.len(), n);
        for i in 0..n {
            assert_eq!(inj.steal(), Steal::Success(i));
        }
        assert_eq!(inj.steal(), Steal::Empty);
        assert_eq!(inj.len(), 0);
    }

    #[test]
    fn batch_steal_reports_moved_count() {
        let inj = Injector::new();
        for i in 0..10 {
            inj.push(i);
        }
        let dest = Worker::new_lifo();
        match inj.steal_batch_and_pop_counted(&dest) {
            Steal::Success((first, moved)) => {
                assert_eq!(first, 0);
                assert_eq!(moved, 5, "half of the announced 10");
            }
            other => panic!("expected success, got {other:?}"),
        }
        assert_eq!(dest.len(), 5);
        assert_eq!(inj.len(), 4);
    }

    #[test]
    fn drop_releases_queued_values() {
        let probe = std::sync::Arc::new(());
        let inj = Injector::new();
        for _ in 0..(2 * BLOCK_CAP + 5) {
            inj.push(probe.clone());
        }
        for _ in 0..BLOCK_CAP {
            assert!(matches!(inj.steal(), Steal::Success(_)));
        }
        drop(inj);
        assert_eq!(std::sync::Arc::strong_count(&probe), 1);
    }

    #[test]
    fn interleaved_push_steal_across_many_laps() {
        let inj = Injector::new();
        let mut next_push = 0u64;
        let mut next_steal = 0u64;
        for _ in 0..500 {
            inj.push(next_push);
            next_push += 1;
            inj.push(next_push);
            next_push += 1;
            assert_eq!(inj.steal(), Steal::Success(next_steal));
            next_steal += 1;
        }
        while next_steal < next_push {
            assert_eq!(inj.steal(), Steal::Success(next_steal));
            next_steal += 1;
        }
        assert!(inj.is_empty());
    }
}
