//! The task cell: the one representation of a spawned task, and the
//! per-worker slabs that make the common placement allocation-free.
//!
//! A cell is a [`Slot`] header followed, in the same allocation, by its
//! payload (first the closure, later the output or panic payload). It
//! lives in one of two places, decided by [`place`]:
//!
//! - **Slab-resident** — a worker of this runtime spawning a task whose
//!   closure and output fit [`PAYLOAD_BYTES`] takes a slot off its own
//!   [`Slab`]'s free list and writes the closure in place: no allocator,
//!   no refcounts. Slots freed by another thread (a thief that ran the
//!   task, or a future dropped off-worker) return through a lock-free
//!   Treiber stack the owner drains on its next allocation.
//! - **External** — every other spawn (non-worker caller, oversized
//!   closure, exhausted slab) takes one heap allocation of header plus a
//!   payload sized for that `(T, F)`, counted in
//!   `/runtime/slab/fallback-allocs` and freed by the second releaser.
//!
//! Placement is storage only. Both kinds follow the protocol below
//! through the same handles: [`Task`] (queue side), [`Claimed`] and
//! [`Ran`] (whoever won the claim), [`Join`] (future side).
//!
//! # Cell lifecycle
//!
//! A cell moves through three phases guarded by two atomics:
//!
//! 1. **Claim** — one owner of the closure. A queued cell has exactly one
//!    claimant, its one [`Task`] handle, so [`Task::claim`] (the worker
//!    that dequeued it) and `Drop for Task` (the queue's teardown) claim
//!    by move, with no RMW. A deferred cell, never queued, is contended
//!    by concurrent `wait`s: the one that wins
//!    `lifecycle.fetch_or(CLAIMED)` runs it, and the future's drop claims
//!    the same way.
//! 2. **Completion** — the claimant publishes an outcome (`outcome`,
//!    then `ready` with `SeqCst`, then the gate notify).
//! 3. **Release** — the runner sets `RUNNER_DONE`, the future side sets
//!    `FUTURE_DONE` (plus `TAKEN` if it consumed the output). A releaser
//!    first loads `lifecycle` (`Acquire`): if the other side's bit is
//!    already there, that side's RMW is done and did not see this one, so
//!    this side cleans up with no RMW of its own. Otherwise it sets its
//!    bit with `fetch_or`, and cleans up if that RMW finds the other
//!    side's bit. Only RMWs set bits, and the first RMW in the total order
//!    on `lifecycle` cannot see the other side's bit, so cleanup runs
//!    exactly once — the two bits are the cell's whole reference count.
//!    In fib's help-wait the child finishes before its parent joins, and
//!    a detached spawn drops its future before the task runs: in both the
//!    second release is the load.
//!
//! # Generation protocol
//!
//! `gen` is bumped with `Release` ordering *before* the slot enters a
//! free list. A stale handle validating `gen` with `Acquire` therefore
//! either sees the old generation (slot not yet reusable — but then the
//! handle is still attached, so this cannot happen for live handles) or
//! the bumped one and rejects. The ordering matters: bump-after-push
//! would let the owner recycle a slot whose generation still matches a
//! dead handle (see the `slab-gen-bump-after-push` model mutant).
//!
//! # Remote return path
//!
//! `remote_head` is a push-only Treiber stack: freers CAS with
//! `Release`, the owner drains the whole chain with one
//! `swap(NIL, Acquire)`. Because pops never race pushes on individual
//! nodes there is no ABA. The release sequence on the head makes every
//! freer's `next_free` store — and its generation bump — visible to the
//! draining owner (see the `slab-remote-push-relaxed` model mutant).
//!
//! # Retirement
//!
//! No handle keeps a slab alive: a [`Join`] holds only its cell. While
//! its runtime lives, the runtime's `Arc` keeps the slab. When the
//! runtime drops (its workers have exited, so the owner-only counters
//! are final) it hands each slab to [`Slab::retire`]. Every slot the
//! owner did not free itself, `allocs − local_frees`, must come back as
//! a remote free; `retire` subtracts that target from the `remote_frees`
//! count with one `fetch_add`. If the count it replaced equals the
//! target, no slot is out and `retire` frees the slab. Otherwise the
//! count now reads minus the slots still out (its top bit set, which a
//! live slab's count never reaches), and the remote free whose
//! `fetch_add` takes it from `u64::MAX` to zero frees the slab. The free
//! decision travels in the RMW's result, so no freer reads the slab after
//! its `fetch_add`: a target stored beside the count would have to be
//! loaded after it, racing the last freer's free. After retirement every
//! free is remote, because no thread has the slab as its own any more.
//! Folding the target in with a load and a store instead of the RMW
//! loses a concurrent free and leaks the slab (the
//! `slab-retire-fold-not-rmw` model mutant).

use crate::prim::{mutation_armed, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use crate::runtime::RuntimeState;
use crate::sync::EventGate;
use std::any::Any;
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::{offset_of, ManuallyDrop, MaybeUninit};
use std::panic::AssertUnwindSafe;
use std::ptr::NonNull;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Free-list terminator.
const NIL: usize = usize::MAX;

/// Slots per worker slab. Slots are 128-byte-aligned cells of a few
/// hundred bytes, so this costs on the order of 1–2 MiB per worker; a
/// spawn that finds them all in flight takes an external cell instead.
pub(crate) const SLAB_SLOTS: usize = 4096;

/// Inline payload capacity of a slab slot; closures or outputs larger
/// than this (or more aligned than [`PAYLOAD_ALIGN`]) take an external
/// cell.
pub(crate) const PAYLOAD_BYTES: usize = 128;
pub(crate) const PAYLOAD_ALIGN: usize = 16;

// Lifecycle bits.
const CLAIMED: u8 = 1;
const RUNNER_DONE: u8 = 2;
const FUTURE_DONE: u8 = 4;
const TAKEN: u8 = 8;

// Outcome codes published by the claimant.
const OUTCOME_PENDING: u8 = 0;
const OUTCOME_VALUE: u8 = 1;
const OUTCOME_PANICKED: u8 = 2;
const OUTCOME_CANCELLED: u8 = 3;

/// `true` when `F -> T` fits a slab slot inline (the panic payload
/// `Box<dyn Any + Send>` is two words and always fits).
pub(crate) const fn task_fits<T, F>() -> bool {
    std::mem::size_of::<F>() <= PAYLOAD_BYTES
        && std::mem::align_of::<F>() <= PAYLOAD_ALIGN
        && std::mem::size_of::<T>() <= PAYLOAD_BYTES
        && std::mem::align_of::<T>() <= PAYLOAD_ALIGN
}

/// Type-erased operations over a cell's payload, monomorphized per
/// `(T, F)` pair — the cell header itself stays non-generic.
struct SlotVTable {
    /// Consume the closure in place, leave the output (or panic
    /// payload) in place, return the outcome code.
    run: unsafe fn(*mut u8) -> u8,
    /// Drop an un-run closure in place.
    drop_closure: unsafe fn(*mut u8),
    /// Drop an un-taken output (`OUTCOME_VALUE`) or panic payload
    /// (`OUTCOME_PANICKED`) in place.
    drop_output: unsafe fn(*mut u8, u8),
    /// Free an external cell's allocation (never called on a slab slot).
    dealloc: unsafe fn(NonNull<Slot>),
}

struct VTableOf<T, F>(PhantomData<fn(F) -> T>);

impl<T: Send + 'static, F: FnOnce() -> T + Send + 'static> VTableOf<T, F> {
    const TABLE: SlotVTable = SlotVTable {
        run: Self::run,
        drop_closure: Self::drop_closure,
        drop_output: Self::drop_output,
        dealloc: Self::dealloc,
    };

    unsafe fn run(p: *mut u8) -> u8 {
        let f = p.cast::<F>().read();
        match std::panic::catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => {
                p.cast::<T>().write(value);
                OUTCOME_VALUE
            }
            Err(payload) => {
                p.cast::<Box<dyn Any + Send>>().write(payload);
                OUTCOME_PANICKED
            }
        }
    }

    unsafe fn drop_closure(p: *mut u8) {
        p.cast::<F>().drop_in_place();
    }

    unsafe fn drop_output(p: *mut u8, outcome: u8) {
        match outcome {
            OUTCOME_VALUE => p.cast::<T>().drop_in_place(),
            OUTCOME_PANICKED => p.cast::<Box<dyn Any + Send>>().drop_in_place(),
            _ => {}
        }
    }

    unsafe fn dealloc(cell: NonNull<Slot>) {
        drop(Box::from_raw(cell.cast::<External<T, F>>().as_ptr()));
    }
}

/// Per-task metadata supplied by the spawner.
pub(crate) struct SpawnMeta {
    pub task_id: u64,
    /// `u64::MAX` = no parent.
    pub parent: u64,
    pub site: u32,
    pub spawned_ns: u64,
    pub token: Option<crate::cancel::CancelToken>,
    /// The spawn passed admission and owes the gate a `note_started`.
    pub holds_gate: bool,
    /// The spawner pushed the task onto a queue and counted it `queued`
    /// in its ledger shard (inline and deferred launches enter the ledger
    /// only when they start).
    pub queued: bool,
}

impl SpawnMeta {
    /// Metadata of a cell no runtime accounts for (`ready_future`, tests).
    pub(crate) fn bare(task_id: u64) -> Self {
        SpawnMeta {
            task_id,
            parent: u64::MAX,
            site: crate::trace::UNKNOWN_SITE,
            spawned_ns: 0,
            token: None,
            holds_gate: false,
            queued: false,
        }
    }
}

/// `SpawnMeta` plus the monomorphized vtable, written by the spawner
/// before the task is published (the queue push is the release edge)
/// and read by the claimant afterwards.
struct SlotMeta {
    vtable: &'static SlotVTable,
    spawn: SpawnMeta,
}

/// Where a cell lives, fixed when its storage is created.
enum Home {
    /// Slot `index` of `slab`, whose runtime accounts for the task.
    Slab { slab: *const Slab, index: u32 },
    /// Its own heap allocation, carrying the runtime reference a slab
    /// would provide (`None`: a cell no runtime accounts for).
    Heap(Option<Arc<RuntimeState>>),
}

/// The cell header. The payload follows it in the same allocation, at
/// `payload_offset` bytes from the header's address.
#[repr(C)]
pub(crate) struct Slot {
    /// Bumped (Release) every time a slab slot is freed, *before* the
    /// free-list push. Handles validate with Acquire loads.
    gen: AtomicU64,
    /// Free-list link; `NIL` when allocated or terminal.
    next_free: AtomicUsize,
    /// CLAIMED | RUNNER_DONE | FUTURE_DONE | TAKEN.
    lifecycle: AtomicU8,
    /// OUTCOME_* code; written by the claimant before `ready`.
    outcome: AtomicU8,
    /// Completion flag: stored SeqCst after the outcome, loaded SeqCst
    /// in `is_ready` (pairs with the gate's waiter registration, see
    /// DESIGN.md §10).
    ready: AtomicBool,
    /// Wakes external waiters; workers help-execute instead.
    gate: EventGate,
    meta: UnsafeCell<Option<SlotMeta>>,
    home: Home,
    payload_offset: u32,
}

// SAFETY: access to `meta` and the payload is handed off through the
// claim/publish protocol documented on the module; every cross-thread
// edge is an acquire/release (or SeqCst) pair on `lifecycle`, `ready`,
// or the free-list heads. `home` is immutable after construction, and a
// slab outlives every cell that is out of it (module doc, "Retirement").
unsafe impl Send for Slot {}
unsafe impl Sync for Slot {}

impl Slot {
    fn new(home: Home, payload_offset: usize) -> Self {
        Slot {
            gen: AtomicU64::new(0),
            next_free: AtomicUsize::new(NIL),
            lifecycle: AtomicU8::new(0),
            outcome: AtomicU8::new(OUTCOME_PENDING),
            ready: AtomicBool::new(false),
            gate: EventGate::new(),
            meta: UnsafeCell::new(None),
            home,
            payload_offset: payload_offset as u32,
        }
    }

    pub(crate) fn generation(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    fn is_ready(&self) -> bool {
        self.ready.load(Ordering::SeqCst)
    }

    /// Publish completion: outcome, then ready (SeqCst), then wake.
    fn publish(&self, outcome: u8) {
        self.outcome.store(outcome, Ordering::Relaxed);
        self.ready.store(true, Ordering::SeqCst);
        self.gate.notify();
    }
}

/// The payload's address.
///
/// # Safety
/// `cell` must point at a live cell and carry provenance over its whole
/// allocation (as every pointer minted by [`Slab::cell`] and
/// [`External::alloc`] does).
unsafe fn payload(cell: NonNull<Slot>) -> *mut u8 {
    let offset = (*cell.as_ptr()).payload_offset as usize;
    cell.as_ptr().cast::<u8>().add(offset)
}

/// Arm freshly obtained storage with a task; returns the cell's current
/// generation for the handle pair.
///
/// # Safety
/// `cell` must be storage for `(T, F)` (an `External<T, F>`, or a slab
/// slot with `task_fits::<T, F>()`) that no handle refers to yet.
unsafe fn arm<T, F>(cell: NonNull<Slot>, spawn: SpawnMeta, f: F) -> u64
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let slot = cell.as_ref();
    slot.lifecycle.store(0, Ordering::Relaxed);
    slot.outcome.store(OUTCOME_PENDING, Ordering::Relaxed);
    slot.ready.store(false, Ordering::Relaxed);
    *slot.meta.get() = Some(SlotMeta {
        vtable: &VTableOf::<T, F>::TABLE,
        spawn,
    });
    payload(cell).cast::<F>().write(f);
    slot.gen.load(Ordering::Relaxed)
}

/// Try to become a deferred cell's claimant (exactly-once among its
/// contenders: concurrent `wait`s and the future's drop).
///
/// # Safety
/// `cell` must be live: the caller holds a handle that has not released.
unsafe fn try_claim(cell: NonNull<Slot>) -> Option<Claimed> {
    let prev = (*cell.as_ptr())
        .lifecycle
        .fetch_or(CLAIMED, Ordering::AcqRel);
    (prev & CLAIMED == 0).then_some(Claimed(cell))
}

/// One side's release. A load first: if the other side's bit is there,
/// its RMW has landed without seeing ours, so this side is second and
/// cleans up with no RMW. Otherwise set `mine`, and clean up if that RMW
/// finds the other side's bit after all. The `Acquire` load pairs with
/// the other side's `AcqRel` RMW, so its outcome and payload writes are
/// visible to the cleanup (see the `cell-release-probe-relaxed` model
/// mutant). Takes the cell by pointer, not `&Slot`: a first releaser's
/// cell may be freed by the other side the moment the RMW lands.
///
/// # Safety
/// The caller's side must be live and must not touch the cell again.
unsafe fn release(cell: NonNull<Slot>, mine: u8, theirs: u8) {
    let lifecycle = &(*cell.as_ptr()).lifecycle;
    let probe = if mutation_armed("cell-release-probe-relaxed") {
        Ordering::Relaxed
    } else {
        Ordering::Acquire
    };
    let mut seen = lifecycle.load(probe);
    if seen & theirs == 0 {
        seen = lifecycle.fetch_or(mine, Ordering::AcqRel);
    }
    if seen & theirs != 0 {
        cleanup(cell, seen | mine);
    }
}

/// Exactly-once teardown after both sides released: drop whatever is
/// left in the payload, drop the metadata, then recycle the slot or
/// free the external allocation.
///
/// # Safety
/// Both RUNNER_DONE and FUTURE_DONE are set in `bits` and the lifecycle
/// RMW total order picked the caller as the second releaser — no other
/// thread touches the cell until it is freed.
unsafe fn cleanup(cell: NonNull<Slot>, bits: u8) {
    let slot = cell.as_ref();
    let meta = (*slot.meta.get()).take().expect("cell torn down once");
    let outcome = slot.outcome.load(Ordering::Relaxed);
    debug_assert_ne!(
        outcome, OUTCOME_PENDING,
        "cleanup read no published outcome"
    );
    if bits & TAKEN == 0 && matches!(outcome, OUTCOME_VALUE | OUTCOME_PANICKED) {
        (meta.vtable.drop_output)(payload(cell), outcome);
    }
    let dealloc = meta.vtable.dealloc;
    drop(meta);
    match slot.home {
        Home::Slab { slab, index } => {
            let by_owner = std::ptr::eq(crate::worker::current_slab_ptr(), slab);
            Slab::free_slot(slab, index, by_owner);
        }
        Home::Heap(_) => dealloc(cell),
    }
}

#[repr(C, align(16))]
struct PayloadArea(MaybeUninit<[u8; PAYLOAD_BYTES]>);

/// A slab-resident cell. 128-byte aligned so two slots never share a
/// cache-line pair (avoids false sharing between the owner writing one
/// slot and a thief completing its neighbor).
#[repr(C, align(128))]
struct Resident {
    slot: Slot,
    payload: UnsafeCell<PayloadArea>,
}

/// Layout carrier: room and alignment for whichever of the three the
/// payload currently holds.
#[repr(C)]
#[allow(dead_code)]
union Payload<T, F> {
    closure: ManuallyDrop<F>,
    output: ManuallyDrop<T>,
    panic: ManuallyDrop<Box<dyn Any + Send>>,
}

/// An external cell: header plus a payload sized for this `(T, F)`.
#[repr(C)]
struct External<T, F> {
    slot: Slot,
    payload: UnsafeCell<MaybeUninit<Payload<T, F>>>,
}

impl<T, F> External<T, F> {
    fn alloc(state: Option<Arc<RuntimeState>>) -> NonNull<Slot> {
        let cell = Box::new(External::<T, F> {
            slot: Slot::new(Home::Heap(state), offset_of!(Self, payload)),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        });
        NonNull::from(Box::leak(cell)).cast()
    }
}

/// A worker's slot arena. The owner allocates; anyone may free.
pub(crate) struct Slab {
    slots: Box<[Resident]>,
    /// Owner-private free list head (plain loads/stores suffice, but it
    /// lives in an atomic so the model checker can see it).
    local_head: AtomicUsize,
    /// Treiber stack of slots freed by other threads.
    remote_head: AtomicUsize,
    /// The runtime whose tasks live here (`None` in slab unit tests);
    /// what a cancelled or deferred cell settles its accounts with.
    state: Option<Arc<RuntimeState>>,
    allocs: AtomicU64,
    local_frees: AtomicU64,
    /// Count of remote frees; once retired, minus the slots still out.
    remote_frees: AtomicU64,
    exhausted: AtomicU64,
}

// SAFETY: the slots synchronize as documented on `Slot`; the free lists
// and counters are atomics.
unsafe impl Send for Slab {}
unsafe impl Sync for Slab {}

impl Slab {
    pub(crate) fn new(capacity: usize, state: Option<Arc<RuntimeState>>) -> Arc<Self> {
        Arc::new_cyclic(|me| {
            let slab = me.as_ptr();
            let slots: Box<[Resident]> = (0..capacity)
                .map(|i| {
                    let home = Home::Slab {
                        slab,
                        index: i as u32,
                    };
                    let slot = Slot::new(home, offset_of!(Resident, payload));
                    let next = if i + 1 < capacity { i + 1 } else { NIL };
                    slot.next_free.store(next, Ordering::Relaxed);
                    Resident {
                        slot,
                        payload: UnsafeCell::new(PayloadArea(MaybeUninit::uninit())),
                    }
                })
                .collect();
            Slab {
                slots,
                local_head: AtomicUsize::new(if capacity == 0 { NIL } else { 0 }),
                remote_head: AtomicUsize::new(NIL),
                state,
                allocs: AtomicU64::new(0),
                local_frees: AtomicU64::new(0),
                remote_frees: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
            }
        })
    }

    /// Slot `idx` as a cell pointer covering header and payload.
    fn cell(&self, idx: u32) -> NonNull<Slot> {
        NonNull::from(&self.slots[idx as usize]).cast()
    }

    pub(crate) fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    pub(crate) fn local_frees(&self) -> u64 {
        self.local_frees.load(Ordering::Relaxed)
    }

    pub(crate) fn remote_frees(&self) -> u64 {
        self.remote_frees.load(Ordering::Relaxed)
    }

    pub(crate) fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Take a free slot. Owner thread only.
    pub(crate) fn alloc(&self) -> Option<u32> {
        let mut head = self.local_head.load(Ordering::Relaxed);
        if head == NIL {
            // Drain everything thieves returned in one swap; the chain
            // becomes the new local list. Acquire pairs with the
            // freers' Release CAS so their `next_free` stores and
            // generation bumps are visible.
            head = self.remote_head.swap(NIL, Ordering::Acquire);
            if head == NIL {
                // Owner-only counter: load+store avoids a locked RMW on
                // the spawn hot path (readers are cross-thread, writers
                // are only this thread).
                self.exhausted.store(
                    self.exhausted.load(Ordering::Relaxed) + 1,
                    Ordering::Relaxed,
                );
                return None;
            }
        }
        let slot = &self.slots[head].slot;
        let next = slot.next_free.load(Ordering::Relaxed);
        self.local_head.store(next, Ordering::Relaxed);
        slot.next_free.store(NIL, Ordering::Relaxed);
        // Owner-only counter, as above.
        self.allocs
            .store(self.allocs.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        Some(head as u32)
    }

    /// Return a slot to a free list. The generation bump must be
    /// sequenced *before* the list push so no other thread can observe
    /// a recycled slot still carrying the old generation. The bump is a
    /// load and a store, not a locked RMW: only the cell's exactly-once
    /// `cleanup` frees a slot, so the freeing thread is the generation's
    /// only writer.
    ///
    /// Takes the slab by pointer: the remote free that returns a retired
    /// slab's last slot frees the slab, so no `&Slab` may be live across
    /// the call, and the call reads nothing of the slab after its
    /// `fetch_add` on the count.
    ///
    /// # Safety
    /// `this` points at a live slab and slot `idx` is out of it, freed
    /// here exactly once; `by_owner` only on the slab's owner thread.
    pub(crate) unsafe fn free_slot(this: *const Slab, idx: u32, by_owner: bool) {
        let slab = &*this;
        let slot = &slab.slots[idx as usize].slot;
        let bump_gen = || {
            slot.gen
                .store(slot.gen.load(Ordering::Relaxed) + 1, Ordering::Release)
        };
        let bump_first = !mutation_armed("slab-gen-bump-after-push");
        if bump_first {
            bump_gen();
        }
        if by_owner {
            let head = slab.local_head.load(Ordering::Relaxed);
            slot.next_free.store(head, Ordering::Relaxed);
            slab.local_head.store(idx as usize, Ordering::Relaxed);
            if !bump_first {
                bump_gen();
            }
            // Owner-only counter (`by_owner` means this is the owner
            // thread): load+store, no locked RMW.
            slab.local_frees.store(
                slab.local_frees.load(Ordering::Relaxed) + 1,
                Ordering::Relaxed,
            );
        } else {
            let push_order = if mutation_armed("slab-remote-push-relaxed") {
                Ordering::Relaxed
            } else {
                Ordering::Release
            };
            let mut head = slab.remote_head.load(Ordering::Relaxed);
            loop {
                slot.next_free.store(head, Ordering::Relaxed);
                match slab.remote_head.compare_exchange_weak(
                    head,
                    idx as usize,
                    push_order,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => head = actual,
                }
            }
            if !bump_first {
                bump_gen();
            }
            // `AcqRel`: the free that takes a retired count to zero
            // frees the slab after every other freer's accesses to it.
            if slab.remote_frees.fetch_add(1, Ordering::AcqRel) == u64::MAX {
                drop(Arc::from_raw(this));
            }
        }
    }

    /// Hand a slab whose runtime is gone to the slots still out of it:
    /// free it now if none is, else leave it to the remote free that
    /// returns the last one (module doc, "Retirement").
    ///
    /// Call only after the owner thread has stopped using the slab, so
    /// `allocs` and `local_frees` are final and every later free is
    /// remote.
    pub(crate) fn retire(slab: Arc<Slab>) {
        let target = slab.allocs() - slab.local_frees();
        // Once the count holds the target, the last remote free may free
        // the slab at any moment: hold it by pointer from here on.
        let this = Arc::into_raw(slab);
        // SAFETY: the slab stays live until the update below publishes
        // the target, and this function reads it no more after that.
        let remote_frees = unsafe { &(*this).remote_frees };
        let counted = if mutation_armed("slab-retire-fold-not-rmw") {
            let counted = remote_frees.load(Ordering::Acquire);
            remote_frees.store(counted.wrapping_sub(target), Ordering::Release);
            counted
        } else {
            remote_frees.fetch_add(target.wrapping_neg(), Ordering::AcqRel)
        };
        if counted == target {
            // SAFETY: no slot is out, so no free takes this reference
            // back; it is the `Arc` this function was given.
            drop(unsafe { Arc::from_raw(this) });
        }
    }
}

/// Decide where a new task's cell lives and arm it: a slot of `own_slab`
/// — the calling thread's own slab, i.e. the caller is a worker of this
/// runtime — when the task fits and a slot is free, an external cell
/// accounted to `state` otherwise. Every launch policy goes through here.
pub(crate) fn place<T, F>(
    own_slab: Option<&Slab>,
    state: Option<&Arc<RuntimeState>>,
    spawn: SpawnMeta,
    f: F,
) -> (Task, Join<T>)
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let slot = match own_slab {
        Some(own) if task_fits::<T, F>() => own.alloc().map(|idx| own.cell(idx)),
        _ => None,
    };
    let cell = slot.unwrap_or_else(|| External::<T, F>::alloc(state.cloned()));
    // SAFETY: fresh storage for this `(T, F)` — a slot just allocated on
    // its owner thread that the task fits, or a new `External<T, F>`.
    let gen = unsafe { arm::<T, F>(cell, spawn, f) };
    (Task { cell, gen }, Join::new(cell, gen))
}

/// The scheduler-side handle: identifies one queued task instance, and
/// is the cell's only claimant — `place` makes exactly one per cell, so
/// claiming is a move, not an RMW. Dropping it without running the task
/// tears the task down — the future completes cancelled and the
/// runtime's ledgers are settled — so queue destruction cannot leak
/// closures or strand joiners.
pub(crate) struct Task {
    cell: NonNull<Slot>,
    gen: u64,
}

// SAFETY: the cell lives until its second release, which a live `Task`
// (the runner side) has not made; a slab outlives every cell out of it.
// The cell itself is `Sync`.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Become the task's claimant: this handle is the only one.
    pub(crate) fn claim(self) -> Claimed {
        let task = ManuallyDrop::new(self);
        debug_assert_eq!(task.slot().generation(), task.gen);
        Claimed(task.cell)
    }

    /// Whether the cell sits in a slab slot (as opposed to an external
    /// allocation, which `/runtime/slab/fallback-allocs` counts).
    pub(crate) fn is_slab_resident(&self) -> bool {
        matches!(self.slot().home, Home::Slab { .. })
    }

    fn slot(&self) -> &Slot {
        // SAFETY: this handle has not released.
        unsafe { self.cell.as_ref() }
    }
}

impl Drop for Task {
    fn drop(&mut self) {
        debug_assert_eq!(self.slot().generation(), self.gen);
        Claimed(self.cell).tear_down();
    }
}

/// Proof of having won the claim: sole owner of the closure and the
/// metadata. Must end in [`Claimed::run`] or [`Claimed::cancel`].
#[must_use]
pub(crate) struct Claimed(NonNull<Slot>);

impl Claimed {
    fn meta(&self) -> &SlotMeta {
        // SAFETY: the claimant owns the metadata until it releases.
        unsafe { (*self.0.as_ref().meta.get()).as_ref() }.expect("claimed cell has metadata")
    }

    pub(crate) fn spawn(&self) -> &SpawnMeta {
        &self.meta().spawn
    }

    /// The runtime that accounts for this task. Cloned out of the cell:
    /// the caller keeps using it after the release that may free the
    /// cell's own reference.
    pub(crate) fn state(&self) -> Option<Arc<RuntimeState>> {
        // SAFETY: the claimant has not released; a slab outlives every
        // cell out of it.
        match unsafe { &self.0.as_ref().home } {
            Home::Slab { slab, .. } => unsafe { (**slab).state.clone() },
            Home::Heap(state) => state.clone(),
        }
    }

    /// Run the closure in place (panics are caught into the outcome).
    pub(crate) fn run(self) -> Ran {
        let run = self.meta().vtable.run;
        // SAFETY: claimant; `self` is consumed, so the closure is read
        // out exactly once.
        let outcome = unsafe { run(payload(self.0)) };
        Ran {
            cell: self.0,
            outcome,
        }
    }

    /// Cancel the un-run task and settle its runtime's accounts: what a
    /// dropped queue or an un-waited deferred future does with its cell.
    fn tear_down(self) {
        match self.state() {
            Some(state) => {
                crate::runtime::cancel_task(&state, crate::worker::shard_in(&state), self)
            }
            None => self.cancel(),
        }
    }

    /// Drop the un-run closure, publish a cancelled outcome and release
    /// the runner side.
    pub(crate) fn cancel(self) {
        let drop_closure = self.meta().vtable.drop_closure;
        // SAFETY: claimant; the closure has not been consumed. The
        // release is this side's last access.
        unsafe {
            drop_closure(payload(self.0));
            self.0.as_ref().publish(OUTCOME_CANCELLED);
            release(self.0, RUNNER_DONE, FUTURE_DONE);
        }
    }
}

/// A claimed cell whose closure has run: the outcome is in the payload
/// but not yet visible to the future.
#[must_use]
pub(crate) struct Ran {
    cell: NonNull<Slot>,
    outcome: u8,
}

impl Ran {
    /// Publish the outcome and release the runner side.
    pub(crate) fn publish(self) {
        // SAFETY: still the claimant; the release is the last access.
        unsafe {
            self.cell.as_ref().publish(self.outcome);
            release(self.cell, RUNNER_DONE, FUTURE_DONE);
        }
    }
}

/// The future-side handle held by `TaskFuture`. Typed: it knows the
/// output is a `T` and reads it straight out of the payload.
pub(crate) struct Join<T> {
    cell: NonNull<Slot>,
    gen: u64,
    consumed: bool,
    /// The cell was never queued: this handle also stands in for its
    /// [`Task`], so the first `wait` runs it and a drop tears it down.
    deferred: bool,
    _result: PhantomData<fn() -> T>,
}

// SAFETY: the payload transfer (runner writes `T`, joiner reads it) is
// ordered by the SeqCst `ready` flag; a deferred closure is `Send`.
unsafe impl<T: Send> Send for Join<T> {}
unsafe impl<T: Send> Sync for Join<T> {}

impl<T> Join<T> {
    fn new(cell: NonNull<Slot>, gen: u64) -> Self {
        Join {
            cell,
            gen,
            consumed: false,
            deferred: false,
            _result: PhantomData,
        }
    }

    /// Keep `task` out of every queue: it runs on this handle's first
    /// untimed wait instead.
    pub(crate) fn deferred(mut self, task: Task) -> Self {
        debug_assert_eq!(task.cell, self.cell);
        std::mem::forget(task);
        self.deferred = true;
        self
    }

    fn slot(&self) -> &Slot {
        // SAFETY: the future side has not released.
        let s = unsafe { self.cell.as_ref() };
        debug_assert_eq!(s.generation(), self.gen, "handle outlived its cell");
        s
    }

    pub(crate) fn is_ready(&self) -> bool {
        self.slot().is_ready()
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        let slot = self.slot();
        slot.is_ready() && slot.outcome.load(Ordering::Relaxed) == OUTCOME_CANCELLED
    }

    /// Claim a deferred cell: the one contended claim.
    fn try_claim(&self) -> Option<Claimed> {
        debug_assert!(self.deferred);
        // SAFETY: the future side has not released.
        unsafe { try_claim(self.cell) }
    }

    /// Whether `task` is this handle's own queue side. Compares the two
    /// handles' fields only, never the cell behind `task`.
    fn is_task(&self, task: &Task) -> bool {
        task.cell == self.cell && task.gen == self.gen
    }

    /// Block until complete. A deferred cell runs here, on the first
    /// caller to win its claim, and a queued one on top of the calling
    /// worker's own deque is popped and run here as an inline child;
    /// otherwise workers help-execute other tasks (the scheduler
    /// equivalent of HPX suspending the waiting lightweight thread) and
    /// external threads wait on the cell's gate.
    pub(crate) fn wait(&self) {
        if self.is_ready() {
            return;
        }
        if self.deferred {
            if let Some(claimed) = self.try_claim() {
                let state = claimed.state().expect("a deferred cell has a runtime");
                return crate::runtime::run_task(&state, crate::worker::shard_in(&state), claimed);
            }
        }
        // SAFETY: `is_task` compares the handles' fields only. A deque only
        // ever holds tasks of its worker's own runtime, so a hit runs on
        // the right shard.
        if unsafe { crate::worker::run_if_on_top(|top| self.is_task(top)) } {
            return;
        }
        if crate::worker::on_worker_thread() {
            crate::worker::help_while(|| !self.is_ready());
        } else {
            let slot = self.slot();
            slot.gate.wait_until(|| slot.is_ready());
        }
    }

    /// Like `wait` but bounded; returns readiness. Never starts a
    /// deferred closure — a timed wait must not take on unbounded work —
    /// so an unstarted deferred cell reports not-ready immediately.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> bool {
        if self.is_ready() {
            return true;
        }
        if self.deferred && self.slot().lifecycle.load(Ordering::Acquire) & CLAIMED == 0 {
            return false;
        }
        let deadline = Instant::now() + timeout;
        if crate::worker::on_worker_thread() {
            crate::worker::help_while(|| !self.is_ready() && Instant::now() < deadline);
        } else {
            let slot = self.slot();
            slot.gate.wait_deadline(deadline, || slot.is_ready());
        }
        self.is_ready()
    }

    /// Consume the completed output, re-raising a panic or cancellation.
    pub(crate) fn take(&mut self) -> T {
        let slot = self.slot();
        assert!(slot.is_ready(), "take called before completion");
        let outcome = slot.outcome.load(Ordering::Relaxed);
        // SAFETY: the future side has not released.
        let payload = unsafe { payload(self.cell) };
        match outcome {
            OUTCOME_VALUE => {
                self.consumed = true;
                // SAFETY: the runner wrote a `T` before the SeqCst
                // `ready` store we synchronized with; marking
                // `consumed` makes our Drop set TAKEN so cleanup will
                // not double-drop it.
                unsafe { payload.cast::<T>().read() }
            }
            OUTCOME_PANICKED => {
                self.consumed = true;
                // SAFETY: as above, the payload holds the panic box.
                let boxed = unsafe { payload.cast::<Box<dyn Any + Send>>().read() };
                std::panic::resume_unwind(boxed)
            }
            OUTCOME_CANCELLED => std::panic::resume_unwind(Box::new(crate::cancel::TaskCancelled)),
            other => unreachable!("ready cell with outcome {other}"),
        }
    }
}

impl<T> Drop for Join<T> {
    fn drop(&mut self) {
        if self.deferred {
            // Never waited on: tear it down as a dropped queue would.
            if let Some(claimed) = self.try_claim() {
                claimed.tear_down();
            }
        }
        let bits = FUTURE_DONE | if self.consumed { TAKEN } else { 0 };
        // SAFETY: the future side's one release, its last access.
        unsafe { release(self.cell, bits, RUNNER_DONE) };
    }
}

/// Test-only views into cells, shared by this crate's unit tests and
/// model specs.
#[cfg(test)]
mod probes {
    use super::*;

    /// A no-op task in an external cell, for tests that only move tasks
    /// through queues. Dropped un-run it tears down like any other cell.
    pub(crate) fn nop_task(id: u64) -> Task {
        place(None, None, SpawnMeta::bare(id), || ()).0
    }

    impl Task {
        /// The id the spawner gave the task.
        pub(crate) fn id(&self) -> u64 {
            // SAFETY: the metadata is stable until the claim, and only
            // this handle can claim.
            unsafe { (*self.slot().meta.get()).as_ref() }
                .expect("queued cell has metadata")
                .spawn
                .task_id
        }
    }

    impl Slab {
        pub(crate) fn slot(&self, idx: u32) -> &Slot {
            &self.slots[idx as usize].slot
        }

        /// Return slot `idx`, which the test allocated and no cell uses.
        /// The caller's `Arc` keeps the slab alive across the call.
        pub(crate) fn free(self: &Arc<Self>, idx: u32, by_owner: bool) {
            // SAFETY: live slab; the slot is out and freed once.
            unsafe { Slab::free_slot(Arc::as_ptr(self), idx, by_owner) }
        }
    }

    impl<T> Join<T> {
        /// Release the future side as a `get` that took the output would.
        #[cfg(rpx_model)]
        pub(crate) fn release_taken(mut self) {
            self.consumed = true;
        }

        /// External waiters registered on the cell's gate.
        pub(crate) fn gate_waiters(&self) -> usize {
            self.slot().gate.waiters()
        }
    }
}
#[cfg(test)]
pub(crate) use probes::nop_task;

#[cfg(all(test, not(rpx_model)))]
mod tests {
    use super::*;
    use crate::admission::AdmissionGate;
    use crate::cancel::TaskCancelled;
    use crate::scheduler::Scheduler;
    use rpx_counters::counter::Clock;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};

    /// Bumps its counter when dropped: closures and outputs holding one
    /// prove exactly-once release.
    struct Probe(&'static StdAtomicUsize);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, StdOrdering::SeqCst);
        }
    }

    /// Both placements of one task: a slot of a one-slot slab, and an
    /// external cell (no slab to take a slot from).
    fn both<T, F>(f: impl Fn() -> F) -> [(Option<Arc<Slab>>, Task, Join<T>); 2]
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let slab = Slab::new(1, None);
        let (t0, j0) = place(Some(&*slab), None, SpawnMeta::bare(1), f());
        let (t1, j1) = place(None, None, SpawnMeta::bare(2), f());
        [(Some(slab), t0, j0), (None, t1, j1)]
    }

    fn assert_recycled(slab: Option<Arc<Slab>>) {
        if let Some(slab) = slab {
            assert_eq!(slab.alloc(), Some(0), "both sides released: slot recycled");
        }
    }

    #[test]
    fn fits_gate_respects_size_and_align() {
        assert!(task_fits::<u64, fn() -> u64>());
        assert!(task_fits::<[u8; 128], fn() -> [u8; 128]>());
        assert!(!task_fits::<[u8; 129], fn() -> [u8; 129]>());
        #[repr(align(64))]
        struct Overaligned(#[allow(dead_code)] u8);
        assert!(!task_fits::<Overaligned, fn() -> Overaligned>());
    }

    #[test]
    fn alloc_free_recycles_lifo_and_bumps_generation() {
        let slab = Slab::new(2, None);
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(slab.alloc().is_none());
        assert_eq!(slab.exhausted(), 1);
        let g = slab.slot(a).generation();
        slab.free(a, true);
        assert_eq!(slab.slot(a).generation(), g + 1);
        assert_eq!(slab.alloc(), Some(a));
        assert_eq!(slab.allocs(), 3);
        assert_eq!(slab.local_frees(), 1);
    }

    #[test]
    fn remote_frees_drain_on_owner_alloc() {
        let slab = Slab::new(2, None);
        let a = slab.alloc().unwrap();
        let b = slab.alloc().unwrap();
        let s2 = Arc::clone(&slab);
        std::thread::spawn(move || {
            s2.free(a, false);
            s2.free(b, false);
        })
        .join()
        .unwrap();
        assert_eq!(slab.remote_frees(), 2);
        // Drain returns the whole chain; both slots come back.
        let first = slab.alloc().unwrap();
        let second = slab.alloc().unwrap();
        let mut got = [first, second];
        got.sort_unstable();
        assert_eq!(got, [a, b]);
        assert!(slab.alloc().is_none());
    }

    #[test]
    fn placement_follows_fit_and_free_slots() {
        let slab = Slab::new(1, None);
        let (t0, j0) = place(Some(&*slab), None, SpawnMeta::bare(0), || 1u8);
        assert_eq!(slab.allocs(), 1, "fits, slot free: slab-resident");
        let (t1, j1) = place(Some(&*slab), None, SpawnMeta::bare(1), || 2u8);
        assert_eq!((slab.allocs(), slab.exhausted()), (1, 1), "slab full");
        let big = [7u8; PAYLOAD_BYTES + 1];
        drop((t0, j0));
        let (t2, mut j2) = place(Some(&*slab), None, SpawnMeta::bare(2), move || big);
        assert_eq!(slab.allocs(), 1, "oversized: external despite a free slot");
        t2.claim().run().publish();
        assert_eq!(j2.take()[PAYLOAD_BYTES], 7);
        drop((t1, j1));
    }

    #[test]
    fn run_publishes_value_and_join_takes_it() {
        for (slab, task, mut join) in both(|| || 41 + 1) {
            assert!(!join.is_ready());
            task.claim().run().publish();
            assert!(join.is_ready());
            assert_eq!(join.take(), 42);
            drop(join);
            assert_recycled(slab);
        }
    }

    #[test]
    fn panic_payload_propagates_through_join() {
        for (_slab, task, mut join) in both(|| || -> () { panic!("cell boom") }) {
            task.claim().run().publish();
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| join.take())).unwrap_err();
            assert_eq!(err.downcast_ref::<&str>(), Some(&"cell boom"));
        }
    }

    #[test]
    fn untaken_output_is_dropped_exactly_once() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        for (i, (slab, task, join)) in both(|| || Probe(&DROPS)).into_iter().enumerate() {
            task.claim().run().publish();
            drop(join); // never taken
            assert_eq!(DROPS.load(StdOrdering::SeqCst), i + 1);
            assert_recycled(slab);
        }
    }

    #[test]
    fn either_release_order_frees_the_cell_once() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        // Future side first: the runner's release is the second one.
        for (i, (slab, task, join)) in both(|| || Probe(&DROPS)).into_iter().enumerate() {
            drop(join);
            task.claim().run().publish();
            assert_eq!(DROPS.load(StdOrdering::SeqCst), i + 1);
            assert_recycled(slab);
        }
    }

    #[test]
    fn dropped_task_cancels_and_drops_closure() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        let held = || {
            let held = Probe(&DROPS);
            move || drop(held)
        };
        for (i, (slab, task, mut join)) in both(held).into_iter().enumerate() {
            drop(task);
            assert_eq!(
                DROPS.load(StdOrdering::SeqCst),
                i + 1,
                "closure dropped un-run"
            );
            assert!(join.is_cancelled());
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| join.take())).unwrap_err();
            assert!(err.downcast_ref::<TaskCancelled>().is_some());
            drop(join);
            assert_recycled(slab);
        }
    }

    /// A queued cell has one claimant, its `Task`; the one cell whose
    /// claim is contended is a deferred one, by concurrent `wait`s. The
    /// waiter that loses the claim waits for the winner's run.
    #[test]
    fn losing_the_claim_is_a_noop() {
        static RUNS: StdAtomicUsize = StdAtomicUsize::new(0);
        let state = Arc::new(RuntimeState::new(1, Arc::new(Clock::new()), None, None));
        let slab = Slab::new(1, Some(state.clone()));
        for own_slab in [Some(&*slab), None] {
            let (task, join) = place(own_slab, Some(&state), SpawnMeta::bare(0), || {
                RUNS.fetch_add(1, StdOrdering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                7u64
            });
            let mut join = join.deferred(task);
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        join.wait();
                        assert!(join.is_ready() && !join.is_cancelled());
                    });
                }
            });
            assert_eq!(join.take(), 7);
        }
        assert_eq!(RUNS.load(StdOrdering::SeqCst), 2, "one run per cell");
        assert!(state.ledger.is_idle());
        assert_eq!(slab.alloc(), Some(0), "slot recycled");
    }

    /// A retired slab is freed exactly when the last slot out of it comes
    /// back, and at once when none is out.
    #[test]
    fn retired_slab_is_freed_by_its_last_remote_free() {
        let slab = Slab::new(3, None);
        let (a, b, c) = (
            slab.alloc().unwrap(),
            slab.alloc().unwrap(),
            slab.alloc().unwrap(),
        );
        slab.free(a, true);
        slab.free(b, false);
        let weak = Arc::downgrade(&slab);
        // One slot out: `allocs − local_frees` = 2, one remote free made.
        let ptr = Arc::as_ptr(&slab);
        Slab::retire(slab);
        assert!(weak.upgrade().is_some(), "slot c is still out");
        // SAFETY: slot c is out; after this call the slab may be gone.
        unsafe { Slab::free_slot(ptr, c, false) };
        assert!(weak.upgrade().is_none(), "the last free frees the slab");

        let idle = Slab::new(2, None);
        let a = idle.alloc().unwrap();
        idle.free(a, true);
        let weak = Arc::downgrade(&idle);
        Slab::retire(idle);
        assert!(weak.upgrade().is_none(), "nothing out: freed by retire");
    }

    /// One teardown for both placements: a queue dropped with un-run
    /// tasks cancels their futures, releases each cell exactly once, and
    /// settles the ledger — on the external shard, the dropping thread
    /// being nobody's worker — and the admission gate.
    #[test]
    fn dropped_queue_tears_down_both_placements_alike() {
        static DROPS: StdAtomicUsize = StdAtomicUsize::new(0);
        let gate = AdmissionGate::new(8);
        let state = Arc::new(RuntimeState::new(
            1,
            Arc::new(Clock::new()),
            None,
            Some(gate.clone()),
        ));
        let slab = Slab::new(1, Some(state.clone()));
        let scheduler = Scheduler::new(1);
        let mut joins = Vec::new();
        for own_slab in [Some(&*slab), None] {
            assert!(gate.try_admit());
            state.ledger.external().note_queued();
            let spawn = SpawnMeta {
                holds_gate: true,
                queued: true,
                ..SpawnMeta::bare(0)
            };
            let held = Probe(&DROPS);
            let (task, join) = place(own_slab, Some(&state), spawn, move || drop(held));
            scheduler.push(task, None);
            joins.push(join);
        }
        assert_eq!((slab.allocs(), gate.pending()), (1, 2));
        assert_eq!(state.ledger.flow().pending(), 2);

        drop(scheduler);

        assert_eq!(
            DROPS.load(StdOrdering::SeqCst),
            2,
            "each closure dropped once"
        );
        assert!(state.ledger.is_idle());
        assert_eq!(state.ledger.flow().underflows(), 0);
        assert_eq!(gate.pending(), 0, "admission slots returned");
        let cancelled = |s: &crate::stats::Shard| s.cancelled.load(Ordering::Relaxed);
        assert_eq!(cancelled(state.ledger.external()), 2);
        assert_eq!(cancelled(state.ledger.worker(0)), 0);
        for mut join in joins {
            assert!(join.is_cancelled());
            let err = std::panic::catch_unwind(AssertUnwindSafe(|| join.take())).unwrap_err();
            assert!(err.downcast_ref::<TaskCancelled>().is_some());
        }
        assert_eq!(DROPS.load(StdOrdering::SeqCst), 2);
        assert_eq!(slab.alloc(), Some(0), "slot recycled");
    }
}
