//! `cfg(rpx_model)` indirection for the synchronization primitives behind
//! the scheduler's sleeper protocol and the [`crate::sync::EventGate`].
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
    pub use parking_lot::{Condvar, Mutex};
    pub use std::hint::spin_loop;
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    #[inline(always)]
    pub fn mutation_armed(_name: &str) -> bool {
        false
    }
}

#[cfg(rpx_model)]
mod imp {
    pub use rpx_model::hint::spin_loop;
    pub use rpx_model::mutation::armed as mutation_armed;
    pub use rpx_model::sync::{
        fence, AtomicBool, AtomicI64, AtomicU64, AtomicU8, AtomicUsize, Condvar, Mutex, Ordering,
    };
}

pub(crate) use imp::*;

/// Gives a word that many threads write a 128-byte line pair of its own
/// (two 64-byte lines: the adjacent-line prefetcher pulls them together),
/// so the read-mostly fields declared beside it stay shared-clean.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub T);

impl<T> std::ops::Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}
