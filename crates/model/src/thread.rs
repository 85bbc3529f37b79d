//! Model-aware thread spawn/join. Inside an execution, spawned closures
//! become model threads scheduled by the engine; outside, this is plain
//! `std::thread`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::engine;

pub struct JoinHandle<T> {
    os: std::thread::JoinHandle<Option<T>>,
    /// Model thread id when spawned inside an execution.
    tid: Option<usize>,
}

pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    if engine::in_model() {
        let (tid, epoch) = engine::thread_spawn();
        let os = std::thread::Builder::new()
            .name(format!("rpx-model-t{tid}"))
            .spawn(move || {
                engine::enter_thread(tid, epoch);
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        engine::thread_end(None);
                        Some(v)
                    }
                    Err(p) => {
                        // Records the panic as the execution's failure; the
                        // engine abandons the interleaving.
                        engine::thread_end(Some(engine::panic_message(&*p)));
                        None
                    }
                }
            })
            .expect("spawn model thread");
        engine::spawn_yield();
        JoinHandle { os, tid: Some(tid) }
    } else {
        JoinHandle {
            os: std::thread::spawn(move || Some(f())),
            tid: None,
        }
    }
}

/// The slice of `std::thread::Builder` the production crates use, so a
/// facade can re-export either. Model threads are scheduled by the engine
/// and carry no name.
#[derive(Default)]
pub struct Builder;

impl Builder {
    pub fn new() -> Self {
        Builder
    }

    pub fn name(self, _name: String) -> Self {
        self
    }

    pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Ok(spawn(f))
    }
}

impl<T> JoinHandle<T> {
    pub fn join(self) -> std::thread::Result<T> {
        if let Some(tid) = self.tid {
            // Blocks in the engine until the model thread finishes (and
            // joins its final clock — asserts after join see its writes).
            engine::join_wait(tid);
        }
        match self.os.join() {
            Ok(Some(v)) => Ok(v),
            Ok(None) => Err(Box::new("model thread panicked")),
            Err(e) => Err(e),
        }
    }
}

pub fn yield_now() {
    if engine::in_model() {
        engine::yield_op();
    } else {
        std::thread::yield_now();
    }
}
