//! In-tree shim for `crossbeam`: the `deque` (Chase–Lev work stealing) and
//! `sync` (`Parker`/`Unparker`) subsets used by the runtime's scheduler.
//!
//! Unlike the original locked shim, the deque layer is **lock-free**:
//!
//! - [`deque::Worker`]/[`deque::Stealer`] implement the Chase–Lev deque
//!   per the C11 formulation of Lê et al. (PPoPP 2013) — a growable
//!   circular buffer, owner-side `pop` racing stealer-side `steal` with a
//!   `SeqCst` CAS on `top`, and `SeqCst` fences ordering the owner's
//!   `bottom` decrement against stealer reads. The owner pops LIFO (the
//!   only flavor the scheduler builds).
//! - [`deque::Injector`] is a lock-free segmented FIFO: a linked list of
//!   31-slot blocks with CAS-claimed indices, freed by the consumer that
//!   completes a block's last consume (no epoch machinery needed).
//! - Batch steals really batch: one call transfers up to half of the
//!   victim's queue (capped at 32 tasks) into the destination deque; the
//!   `*_counted` variants the scheduler calls additionally report how many
//!   tasks moved, which the runtime's `/threads/count/stolen` counter uses.
//!
//! Steal operations return [`deque::Steal::Retry`] when a CAS race is
//! lost; callers must treat it as "someone else made progress, re-probe"
//! (the runtime's find-work loops bound their retry sweeps and account
//! the spin time as idle). Memory-ordering arguments and the buffer
//! reclamation strategy live in DESIGN.md §"Lock-free scheduler queues".

pub mod deque;
mod injector;
#[cfg(all(test, rpx_model))]
mod model_specs;
mod primitives;
pub mod sync;
