//! `cfg(rpx_model)` indirection for the registry's snapshot-publication
//! primitives (generation counter, snapshot `RwLock`, active-set mutex),
//! for the scrape engine's layout mutex and for what
//! [`TickLoop`](crate::sampler::TickLoop) is built from (mutex, condition
//! variable, a thread it can join).
//!
//! Production builds re-export `std::sync::atomic` and the workspace
//! `parking_lot` shim — pure renaming, zero overhead. Under
//! `RUSTFLAGS="--cfg rpx_model"` the same names resolve to
//! `rpx_model::sync`, whose adaptive types route operations through the
//! model-checker engine when the calling thread is part of an exploration
//! (and behave like `std` otherwise, so ordinary unit tests still pass in
//! a model build).
//!
//! `mutation_armed(name)` guards deliberately-broken code paths used by
//! mutant specs; outside model builds it is a constant `false` and the
//! broken arm is dead-code-eliminated.

#[cfg(not(rpx_model))]
mod imp {
    pub use parking_lot::{Condvar, Mutex, RwLock};
    pub use std::sync::atomic::{AtomicU64, Ordering};
    pub use std::thread;

    #[inline(always)]
    pub fn mutation_armed(_name: &str) -> bool {
        false
    }
}

#[cfg(rpx_model)]
mod imp {
    pub use rpx_model::mutation::armed as mutation_armed;
    pub use rpx_model::sync::{AtomicU64, Condvar, Mutex, Ordering, RwLock};
    pub use rpx_model::thread;
}

pub(crate) use imp::*;
