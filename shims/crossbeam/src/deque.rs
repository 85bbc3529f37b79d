//! A lock-free Chase–Lev work-stealing deque.
//!
//! The implementation follows the C11 formulation of Lê, Pop, Cohen &
//! Zappa Nardelli, "Correct and Efficient Work-Stealing for Weak Memory
//! Models" (PPoPP 2013): a growable circular buffer indexed by two
//! monotonic counters (`bottom`, owner end; `top`, steal end), owner-side
//! LIFO `pop` racing stealer-side FIFO `steal` with a `SeqCst` CAS on
//! `top` deciding ownership of the last element, and `SeqCst` fences
//! ordering the owner's `bottom` decrement against the stealers' `top`
//! read. See DESIGN.md §"Lock-free scheduler queues" for the full
//! memory-ordering argument and the buffer-reclamation strategy.
//!
//! The owner pops the most recently pushed task ([`Worker::new_lifo`], the
//! only flavor the scheduler builds); stealers always take the oldest.

use std::cell::Cell;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr;
// The retired-buffer list stays on a plain `std` mutex even in model
// builds: its critical sections contain no model yield points, so it can
// never block a thread that holds the scheduler token.
use std::sync::{Arc, Mutex};

use crate::primitives::{fence, mutation_armed, AtomicIsize, AtomicPtr, Ordering};

pub use crate::injector::Injector;

/// Outcome of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The source was empty.
    Empty,
    /// A task was stolen.
    Success(T),
    /// Lost a race; try again.
    Retry,
}

/// Capacity of a freshly created deque. Must be a power of two.
const MIN_CAP: usize = 64;

/// Most tasks a single batch steal moves (on top of the task it returns).
/// Matches crossbeam's `MAX_BATCH`; bounds both the time spent inside one
/// steal and the speculative work lost if the victim drains concurrently.
pub(crate) const MAX_BATCH: usize = 32;

/// A heap-allocated circular buffer of `cap` (power-of-two) slots. Slots
/// hold `MaybeUninit<T>`: liveness is tracked externally by the `top` and
/// `bottom` indices, never by the buffer itself.
struct Buffer<T> {
    ptr: *mut MaybeUninit<T>,
    cap: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        let slots: Box<[MaybeUninit<T>]> = (0..cap).map(|_| MaybeUninit::uninit()).collect();
        let ptr = Box::into_raw(slots) as *mut MaybeUninit<T>;
        Box::into_raw(Box::new(Buffer { ptr, cap }))
    }

    /// Free a buffer allocated by [`Buffer::alloc`]. Slots are deallocated
    /// without dropping: ownership of any live values must already have
    /// been moved out (or dropped) by the caller.
    unsafe fn dealloc(buf: *mut Buffer<T>) {
        let b = Box::from_raw(buf);
        drop(Box::from_raw(ptr::slice_from_raw_parts_mut(b.ptr, b.cap)));
    }

    /// Pointer to the slot holding logical index `index`.
    unsafe fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.ptr.add(index as usize & (self.cap - 1))
    }

    /// Write `value` at `index`. Owner-only: never races with another write.
    unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.slot(index), MaybeUninit::new(value));
    }

    /// Read the value at `index`. This read may race with an owner
    /// overwrite of the slot when the caller goes on to *lose* the `top`
    /// CAS; the result must be treated as garbage (never `assume_init`)
    /// unless the CAS wins. The volatile read keeps the compiler from
    /// folding or widening the racy access.
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        ptr::read_volatile(self.slot(index))
    }
}

/// State shared between a [`Worker`] and its [`Stealer`]s.
struct Inner<T> {
    /// Steal end. Monotonically increasing; advanced only by the `SeqCst`
    /// CAS in [`Inner::steal_one`] and the last-element CAS in `pop`.
    top: AtomicIsize,
    /// Owner end. Written only by the owner.
    bottom: AtomicIsize,
    /// Current circular buffer. Replaced (never mutated in place) by
    /// [`Worker::grow`].
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by `grow`, freed when the last handle drops: a
    /// stealer may hold a replaced buffer pointer for an unbounded time, so
    /// reclamation is deferred to quiescence (deque drop). Geometric
    /// growth keeps the retired bytes below the live buffer's size.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Inner<T> {
    fn new(min_cap: usize) -> Self {
        Inner {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buffer: AtomicPtr::new(Buffer::alloc(min_cap)),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Racy size snapshot (never negative).
    fn len(&self) -> usize {
        let b = self.bottom.load(Ordering::Acquire);
        let t = self.top.load(Ordering::Acquire);
        b.wrapping_sub(t).max(0) as usize
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// One canonical Chase–Lev steal from the top end.
    fn steal_one(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        // Order the `top` load before the `bottom` load; pairs with the
        // fence in `pop` so a concurrent owner pop and this steal cannot
        // both miss each other's index update.
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if b.wrapping_sub(t) <= 0 {
            return Steal::Empty;
        }
        let buf = self.buffer.load(Ordering::Acquire);
        // Read *before* claiming: once the CAS succeeds the owner may reuse
        // the slot, so the value must already be copied out. If the CAS
        // fails the copy is garbage and is discarded uninspected.
        let value = unsafe { (*buf).read(t) };
        if self
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            return Steal::Retry;
        }
        Steal::Success(unsafe { value.assume_init() })
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Exclusive access: drop any queued values, then free the live
        // buffer and everything `grow` retired. Length-based rather than
        // `i != b` so a corrupted deque (bottom < top, reachable when a
        // model-checked mutant breaks the claim protocol) drops nothing
        // instead of wrapping through the whole index space.
        let b = *self.bottom.get_mut();
        let t = *self.top.get_mut();
        let buf = *self.buffer.get_mut();
        unsafe {
            let mut i = t;
            for _ in 0..b.wrapping_sub(t).max(0) {
                (*(*buf).slot(i)).assume_init_drop();
                i = i.wrapping_add(1);
            }
            Buffer::dealloc(buf);
            let retired = match self.retired.get_mut() {
                Ok(r) => r,
                Err(p) => p.into_inner(),
            };
            for old in retired.drain(..) {
                Buffer::dealloc(old);
            }
        }
    }
}

/// A worker-owned deque: the owner pushes and pops on one thread; any
/// number of [`Stealer`]s take the oldest task concurrently.
///
/// `Worker` is `Send` but not `Sync`: owner operations assume a single
/// owning thread at a time (the ownership may migrate, e.g. across a
/// worker respawn, but never be shared).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// Suppresses `Sync` (see type-level docs).
    _not_sync: PhantomData<Cell<()>>,
}

impl<T> Worker<T> {
    /// New deque whose owner pops in LIFO order.
    pub fn new_lifo() -> Self {
        Worker::new_lifo_with_min_capacity(MIN_CAP)
    }

    /// Shim extension (not in crossbeam's API): a LIFO deque starting from
    /// a tiny buffer, so tests can force growth and index wraparound.
    pub fn new_lifo_with_min_capacity(min_cap: usize) -> Self {
        assert!(
            min_cap.is_power_of_two() && min_cap >= 2,
            "deque capacity must be a power of two >= 2"
        );
        Worker {
            inner: Arc::new(Inner::new(min_cap)),
            _not_sync: PhantomData,
        }
    }

    /// Push onto the owner's end.
    pub fn push(&self, value: T) {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Acquire);
        let mut buf = self.inner.buffer.load(Ordering::Relaxed);
        if b.wrapping_sub(t) >= unsafe { (*buf).cap } as isize {
            self.grow(t, b);
            buf = self.inner.buffer.load(Ordering::Relaxed);
        }
        unsafe { (*buf).write(b, value) };
        // Release: pairs with the Acquire `bottom` load in `steal_one`, so
        // a stealer that sees the new `bottom` also sees the slot write.
        self.inner
            .bottom
            .store(b.wrapping_add(1), Ordering::Release);
    }

    /// Replace the buffer with one of twice the capacity, copying the live
    /// range `t..b`. The old buffer is retired, not freed: concurrent
    /// stealers may still read it (its live slots stay intact, and `top`
    /// CAS failures discard any value read from a stale buffer).
    #[cold]
    fn grow(&self, t: isize, b: isize) {
        let old = self.inner.buffer.load(Ordering::Relaxed);
        unsafe {
            let new = Buffer::alloc((*old).cap * 2);
            let mut i = t;
            while i != b {
                ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
                i = i.wrapping_add(1);
            }
            // Release: a stealer that Acquire-loads the new pointer sees
            // the copied slots.
            self.inner.buffer.store(new, Ordering::Release);
        }
        let mut retired = match self.inner.retired.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        retired.push(old);
    }

    /// Pop from the owner's end: most recently pushed first.
    pub fn pop(&self) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed).wrapping_sub(1);
        // Publish the provisional claim of slot `b`, then read `top`. The
        // SeqCst fence pairs with the one in `steal_one`: either the
        // stealer sees the decremented `bottom` (and reports Empty), or we
        // see its `top` advance (and take the CAS path below).
        self.inner.bottom.store(b, Ordering::Relaxed);
        if mutation_armed("deque-pop-fence") {
            // Mutant spec `deque-pop-fence`: an acquire fence does not
            // order the `bottom` store against the `top` load, so the
            // owner and a stealer can both claim the last element.
            fence(Ordering::Acquire);
        } else {
            fence(Ordering::SeqCst);
        }
        let t = self.inner.top.load(Ordering::Relaxed);
        let len = b.wrapping_sub(t);
        if len < 0 {
            // Deque was empty: restore `bottom = top`.
            self.inner
                .bottom
                .store(b.wrapping_add(1), Ordering::Relaxed);
            return None;
        }
        let buf = self.inner.buffer.load(Ordering::Relaxed);
        let value = unsafe { (*buf).read(b) };
        if len > 0 {
            // More than one element: slot `b` is unreachable to stealers.
            return Some(unsafe { value.assume_init() });
        }
        // Exactly one element: race the stealers for it. Win or lose,
        // `bottom` is restored to `t + 1` (= the canonical empty state
        // after the element is claimed by either side).
        let won = self
            .inner
            .top
            .compare_exchange(t, t.wrapping_add(1), Ordering::SeqCst, Ordering::Relaxed)
            .is_ok();
        self.inner
            .bottom
            .store(b.wrapping_add(1), Ordering::Relaxed);
        if won {
            Some(unsafe { value.assume_init() })
        } else {
            None
        }
    }

    /// Shim extension (not in crossbeam's API): [`Worker::pop`], but only
    /// when `pred` holds for the item `pop` would return. The peek before
    /// the claim has no fence and no RMW: a miss costs two relaxed index
    /// loads and one slot read, and leaves the deque untouched. The claim
    /// is still `pop`, and with no push between the peek and the `pop`,
    /// `pop` returns the peeked item or `None` (a stealer won it).
    ///
    /// A stale `top` can only make the peek see an item a stealer has
    /// already taken — one whose bits are still in the slot, since only
    /// the owner writes slots — and `pop` then reports `None`. A slot that
    /// `grow` did not copy lies below the `top` this thread read there,
    /// so the peek never reads one.
    ///
    /// # Safety
    ///
    /// `pred` sees the item while a stealer may be claiming, running and
    /// dropping it: it may compare the value's own fields, but must not
    /// follow a pointer or reference out of it.
    pub unsafe fn pop_if(&self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        let b = self.inner.bottom.load(Ordering::Relaxed);
        let t = self.inner.top.load(Ordering::Relaxed);
        if b.wrapping_sub(t) <= 0 {
            return None;
        }
        let b = b.wrapping_sub(1);
        let buf = self.inner.buffer.load(Ordering::Relaxed);
        // Never dropped here: the item is not ours until `pop` says so.
        let top = ManuallyDrop::new(unsafe { (*buf).read(b).assume_init() });
        if !pred(&top) {
            return None;
        }
        if mutation_armed("deque-peek-take") {
            // Mutant spec `deque-peek-take`: take the peeked slot by moving
            // `bottom` alone — no fence, no last-element CAS — so a stealer
            // that read the old `bottom` claims the same item.
            self.inner.bottom.store(b, Ordering::Relaxed);
            return Some(ManuallyDrop::into_inner(top));
        }
        self.pop()
    }

    /// Whether the deque is currently empty (racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of queued items (racy snapshot).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// A handle other threads use to steal from this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: self.inner.clone(),
        }
    }
}

/// Stealing handle onto a [`Worker`]'s deque. Clone freely; all clones
/// contend on the same `top` CAS.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Stealer<T> {
    /// Whether the source deque is currently empty. A racy snapshot — but
    /// one that participates in the runtime's park-gate fence protocol:
    /// the loads are ordered by the caller's `SeqCst` fences (see
    /// DESIGN.md), so a push published before a paired fence is never
    /// missed.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Number of queued items (racy snapshot).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Steal the oldest task.
    pub fn steal(&self) -> Steal<T> {
        self.inner.steal_one()
    }

    /// Steal a batch into `dest`, returning the victim's oldest task
    /// directly. See [`Stealer::steal_batch_and_pop_counted`].
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        match self.steal_batch_and_pop_counted(dest) {
            Steal::Success((v, _)) => Steal::Success(v),
            Steal::Empty => Steal::Empty,
            Steal::Retry => Steal::Retry,
        }
    }

    /// Shim extension: like [`Stealer::steal_batch_and_pop`], but also
    /// reports how many *extra* tasks were moved into `dest` (the returned
    /// task is not counted). One call transfers up to half of the victim's
    /// announced queue, capped at `MAX_BATCH`; each transfer is a
    /// canonical single-task claim, so a concurrent owner pop or competing
    /// stealer simply ends the batch early — tasks are never lost or
    /// duplicated. The runtime uses the count to keep `/threads/count/
    /// stolen` accurate per task moved, not per steal call.
    pub fn steal_batch_and_pop_counted(&self, dest: &Worker<T>) -> Steal<(T, usize)> {
        let announced = self.inner.len();
        let first = match self.inner.steal_one() {
            Steal::Success(v) => v,
            Steal::Empty => return Steal::Empty,
            Steal::Retry => return Steal::Retry,
        };
        let budget = (announced / 2).min(MAX_BATCH - 1);
        let mut moved = 0;
        while moved < budget {
            match self.inner.steal_one() {
                Steal::Success(v) => {
                    dest.push(v);
                    moved += 1;
                }
                // Empty: victim drained. Retry: someone else is making
                // progress on this deque — stop instead of spinning.
                _ => break,
            }
        }
        Steal::Success((first, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_lifo_stealer_is_fifo() {
        let w = Worker::new_lifo();
        w.push(1);
        w.push(2);
        w.push(3);
        let s = w.stealer();
        assert_eq!(s.steal(), Steal::Success(1), "stealers take the oldest");
        assert_eq!(w.pop(), Some(3), "owner takes the newest");
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert_eq!(s.steal(), Steal::Empty);
    }

    #[test]
    fn pop_if_takes_the_top_only_when_it_matches() {
        let w = Worker::new_lifo();
        // SAFETY (all calls): the predicates compare plain integers.
        assert_eq!(unsafe { w.pop_if(|_| true) }, None, "empty deque");
        w.push(1);
        w.push(2);
        assert_eq!(unsafe { w.pop_if(|&v| v == 1) }, None, "1 is buried");
        assert_eq!(w.len(), 2, "a miss leaves the deque untouched");
        assert_eq!(unsafe { w.pop_if(|&v| v == 2) }, Some(2));
        assert_eq!(w.stealer().steal(), Steal::Success(1));
        assert_eq!(unsafe { w.pop_if(|_| true) }, None, "a stealer took it");
        assert!(w.is_empty());
    }

    #[test]
    fn len_tracks_push_pop() {
        let w = Worker::new_lifo();
        assert!(w.is_empty());
        w.push(10);
        w.push(20);
        assert_eq!(w.len(), 2);
        assert_eq!(w.stealer().len(), 2);
        w.pop();
        assert_eq!(w.len(), 1);
        w.pop();
        assert!(w.stealer().is_empty());
    }

    #[test]
    fn growth_preserves_contents_lifo() {
        let w = Worker::new_lifo_with_min_capacity(2);
        for i in 0..1000 {
            w.push(i);
        }
        for i in (0..1000).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn wraparound_interleaved_push_pop() {
        // Keeps the live size at <= 3 over a tiny capacity-4 buffer so the
        // indices lap the physical slots many times.
        let w = Worker::new_lifo_with_min_capacity(4);
        let s = w.stealer();
        let mut seen = std::collections::HashSet::new();
        let mut next = 0u64;
        for round in 0..200 {
            w.push(next);
            next += 1;
            w.push(next);
            next += 1;
            if round % 2 == 0 {
                let Steal::Success(v) = s.steal() else {
                    panic!("deque must not be empty mid-round");
                };
                assert!(seen.insert(v), "stolen {v} twice");
            }
            let v = w.pop().expect("deque must not be empty mid-round");
            assert!(seen.insert(v), "popped {v} twice");
        }
        while let Some(v) = w.pop() {
            assert!(seen.insert(v), "popped {v} twice");
        }
        assert!(w.is_empty());
        assert_eq!(seen.len() as u64, next, "every pushed item seen once");
    }

    #[test]
    fn batch_steal_moves_half_and_reports_count() {
        let w = Worker::new_lifo();
        for i in 0..8 {
            w.push(i);
        }
        let s = w.stealer();
        let dest = Worker::new_lifo();
        match s.steal_batch_and_pop_counted(&dest) {
            Steal::Success((first, moved)) => {
                assert_eq!(first, 0, "batch steal returns the oldest");
                assert_eq!(moved, 4, "half of 8 follow the returned task");
            }
            other => panic!("expected success, got {other:?}"),
        }
        assert_eq!(dest.len(), 4);
        assert_eq!(w.len(), 3);
        // The moved tasks are the next-oldest, in order.
        assert_eq!(dest.stealer().steal(), Steal::Success(1));
    }

    #[test]
    fn batch_steal_caps_at_max_batch() {
        let w = Worker::new_lifo();
        for i in 0..200 {
            w.push(i);
        }
        let dest = Worker::new_lifo();
        match w.stealer().steal_batch_and_pop_counted(&dest) {
            Steal::Success((first, moved)) => {
                assert_eq!(first, 0);
                assert_eq!(moved, MAX_BATCH - 1);
            }
            other => panic!("expected success, got {other:?}"),
        }
        assert_eq!(w.len(), 200 - MAX_BATCH);
    }

    #[test]
    fn batch_steal_on_empty_is_empty() {
        let w: Worker<u32> = Worker::new_lifo();
        let dest = Worker::new_lifo();
        assert_eq!(w.stealer().steal_batch_and_pop(&dest), Steal::Empty);
    }

    #[test]
    fn drop_releases_queued_values() {
        // Arc payloads: dropping the deque must drop queued tasks exactly
        // once (strong count returns to 1).
        let probe = Arc::new(());
        let w = Worker::new_lifo_with_min_capacity(2);
        for _ in 0..100 {
            w.push(probe.clone());
        }
        for _ in 0..40 {
            w.pop();
        }
        assert_eq!(Arc::strong_count(&probe), 61);
        drop(w);
        assert_eq!(Arc::strong_count(&probe), 1);
    }
}
