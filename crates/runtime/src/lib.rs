//! # rpx-runtime — a lightweight work-stealing task runtime with intrinsic
//! performance counters
//!
//! This crate is the HPX-analogue substrate of the reproduction: a
//! user-level task scheduler whose per-task costs are in the microsecond
//! range (vs. tens of microseconds and megabytes of stack for one OS thread
//! per task), fully instrumented through the `rpx-counters` framework.
//!
//! - [`Runtime`] / [`RuntimeHandle`] — worker pool + spawn API returning
//!   [`TaskFuture`]s.
//! - [`LaunchPolicy`] — `async` (child stealing, default), `fork`
//!   (continuation-stealing approximation), `deferred`, `sync`.
//! - One queue discipline, HPX's default: per-worker deques with stealing,
//!   external spawns through a shared injector. The `std::async`
//!   single-queue ordering behind the paper's Floorplan explanation is
//!   `rpx-simnode`'s `global_queue`.
//! - Futures wait by *helping*: a worker blocked on `get()` runs the
//!   awaited task inline if it is on top of its own deque, and otherwise
//!   executes other pending tasks, so deeply recursive fork/join codes
//!   keep all cores busy.
//! - Counters: `/threads/time/average`, `/threads/time/average-overhead`,
//!   `/threads/time/cumulative`, `/threads/time/cumulative-overhead`,
//!   `/threads/count/*`, `/threads/idle-rate`, `/scheduler/*`,
//!   `/runtime/uptime`, `/runtime/health/*`, `/runtime/anomaly/*`,
//!   `/runtime/trace/*`. There is no `/papi/*` counter: no hardware event
//!   is read here, and Figures 13–14 come from `rpx-simnode`'s cache
//!   model.
//! - Fault tolerance: [`CancelToken`] cancellation/deadlines, a worker
//!   watchdog + supervisor (stall and restart health counters), and a
//!   deterministic fault-injection harness ([`FaultPlan`]) for chaos tests.
//! - Overload: an optional admission gate (`RuntimeConfig::max_pending`)
//!   closes at the high watermark and reopens at half of it; while it is
//!   closed a spawn runs inline in its caller and `try_spawn` sheds.
//!
//! ## Example
//!
//! ```
//! use rpx_runtime::{Runtime, RuntimeConfig};
//!
//! let rt = Runtime::new(RuntimeConfig::with_workers(2));
//! let h = rt.handle();
//! // Parallel fibonacci — tasks spawn tasks through the handle.
//! fn fib(h: &rpx_runtime::RuntimeHandle, n: u64) -> u64 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let h2 = h.clone();
//!     let a = h.spawn(move || fib(&h2, n - 1));
//!     let b = fib(h, n - 2);
//!     a.get() + b
//! }
//! assert_eq!(fib(&h, 10), 55);
//!
//! // The runtime observed itself while computing:
//! let tasks = rt.registry()
//!     .evaluate("/threads{locality#0/total}/count/cumulative", false)
//!     .unwrap();
//! assert!(tasks.value >= 50);
//! rt.shutdown();
//! ```

pub mod admission;
pub mod cancel;
mod counters;
pub mod faults;
pub mod future;
#[cfg(all(test, rpx_model))]
mod model_specs;
pub mod policy;
mod prim;
mod scheduler;
mod signals;
pub(crate) mod slab;
mod stats;
pub mod sync;
pub mod trace;
mod watchdog;
mod worker;

pub mod runtime;

pub use admission::AdmissionControl;
pub use cancel::{CancelToken, TaskCancelled};
pub use faults::{FaultInjector, FaultPlan, InjectedFault, UnknownFaultVars, KNOWN_FAULT_VARS};
pub use future::{ready_future, TaskFuture};
pub use policy::LaunchPolicy;
pub use runtime::{QuiesceReport, Runtime, RuntimeConfig, RuntimeHandle, SpawnError};
pub use signals::{AnomalyEvent, AnomalyKind, OverloadState};
pub use trace::{site_name, TaskSpan, TaskTracer, UNKNOWN_SITE};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn small_rt() -> Runtime {
        Runtime::new(RuntimeConfig::with_workers(2))
    }

    #[test]
    fn spawn_returns_value() {
        let rt = small_rt();
        assert_eq!(rt.spawn(|| 7 * 6).get(), 42);
        rt.shutdown();
    }

    #[test]
    fn many_tasks_complete() {
        let rt = small_rt();
        let counter = Arc::new(AtomicU64::new(0));
        let futures: Vec<_> = (0..1000)
            .map(|_| {
                let c = counter.clone();
                rt.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        for f in futures {
            f.get();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 1000);
        rt.shutdown();
    }

    #[test]
    fn recursive_fib_with_helping_wait() {
        let rt = small_rt();
        let h = rt.handle();
        fn fib(h: &RuntimeHandle, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let h2 = h.clone();
            let a = h.spawn(move || fib(&h2, n - 1));
            let b = fib(h, n - 2);
            a.get() + b
        }
        assert_eq!(fib(&h, 18), 2584);
        rt.shutdown();
    }

    #[test]
    fn all_policies_produce_the_value() {
        let rt = small_rt();
        for policy in [
            LaunchPolicy::Async,
            LaunchPolicy::Fork,
            LaunchPolicy::Deferred,
            LaunchPolicy::Sync,
        ] {
            let f = rt.spawn_with(policy, move || 11);
            assert_eq!(f.get(), 11, "policy {policy:?}");
        }
        rt.shutdown();
    }

    #[test]
    fn deferred_does_not_run_until_waited() {
        let rt = small_rt();
        let ran = Arc::new(AtomicU64::new(0));
        let r2 = ran.clone();
        let f = rt.spawn_with(LaunchPolicy::Deferred, move || {
            r2.store(1, Ordering::SeqCst);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "deferred must be lazy");
        f.get();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        rt.shutdown();
    }

    #[test]
    fn panics_propagate_through_get() {
        let rt = small_rt();
        let f = rt.spawn(|| -> i32 { panic!("task exploded") });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || f.get()));
        assert!(err.is_err());
        // The runtime survives the panic.
        assert_eq!(rt.spawn(|| 5).get(), 5);
        rt.shutdown();
    }

    #[test]
    fn counters_reflect_executed_tasks() {
        let rt = small_rt();
        let reg = rt.registry();
        reg.add_active("/threads{locality#0/total}/count/cumulative")
            .unwrap();
        reg.add_active("/threads{locality#0/total}/time/average")
            .unwrap();
        reg.reset_active_counters();
        let futures: Vec<_> = (0..100)
            .map(|_| {
                rt.spawn(|| {
                    std::hint::black_box((0..1000).sum::<u64>());
                })
            })
            .collect();
        for f in futures {
            f.get();
        }
        let values = reg.evaluate_active_counters(false);
        let executed = values.samples()[0].value as i64;
        let avg_ns = values.samples()[1].value as i64;
        assert!(executed >= 100, "expected ≥100 tasks, counted {executed}");
        assert!(avg_ns > 0, "average task duration should be positive");
        rt.shutdown();
    }

    #[test]
    fn per_worker_counters_sum_to_total() {
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let reg = rt.registry();
        let futures: Vec<_> = (0..300).map(|_| rt.spawn(|| ())).collect();
        for f in futures {
            f.get();
        }
        rt.wait_idle();
        let per_worker = reg
            .get_counters("/threads{locality#0/worker-thread#*}/count/cumulative")
            .unwrap();
        assert_eq!(per_worker.len(), 3);
        let sum: i64 = per_worker
            .iter()
            .map(|(_, c)| c.get_value_at(false, 0).value)
            .sum();
        let total = reg
            .evaluate("/threads{locality#0/total}/count/cumulative", false)
            .unwrap()
            .value;
        assert_eq!(sum, total);
        assert!(total >= 300);
        rt.shutdown();
    }

    #[test]
    fn overhead_counter_is_positive_and_sane() {
        let rt = small_rt();
        let futures: Vec<_> = (0..500).map(|_| rt.spawn(|| ())).collect();
        for f in futures {
            f.get();
        }
        let reg = rt.registry();
        let ovh = reg
            .evaluate("/threads{locality#0/total}/time/average-overhead", false)
            .unwrap();
        assert!(ovh.value > 0, "scheduling overhead should be measurable");
        assert!(
            ovh.value < 1_000_000,
            "per-task overhead should be far below 1ms, got {}ns",
            ovh.value
        );
        rt.shutdown();
    }

    #[test]
    fn uptime_counter_grows() {
        let rt = small_rt();
        let reg = rt.registry();
        let a = reg.evaluate("/runtime/uptime", false).unwrap().value;
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = reg.evaluate("/runtime/uptime", false).unwrap().value;
        assert!(b > a);
        rt.shutdown();
    }

    #[test]
    fn wait_idle_waits_for_all_spawned_tasks() {
        let rt = small_rt();
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let d = done.clone();
            rt.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(100));
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        rt.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 50);
        rt.shutdown();
    }

    #[test]
    fn external_thread_can_wait() {
        let rt = Arc::new(small_rt());
        let f = rt.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            99
        });
        // Wait from a plain std thread (condvar path, not helping path).
        let t = std::thread::spawn(move || f.get());
        assert_eq!(t.join().unwrap(), 99);
        Arc::try_unwrap(rt).ok().unwrap().shutdown();
    }

    #[test]
    fn spawn_from_task_uses_local_queue() {
        let rt = small_rt();
        let h = rt.handle();
        let f = rt.spawn(move || {
            let inner = h.spawn(|| 5);
            inner.get() + 1
        });
        assert_eq!(f.get(), 6);
        rt.shutdown();
    }

    #[test]
    fn current_worker_is_some_inside_task() {
        let rt = small_rt();
        let f = rt.spawn(Runtime::current_worker);
        assert!(f.get().is_some());
        assert_eq!(Runtime::current_worker(), None);
        rt.shutdown();
    }

    #[test]
    fn no_papi_counter_is_registered() {
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let reg = rt.registry();
        let papi: Vec<_> = reg
            .counter_types()
            .into_iter()
            .filter(|t| t.name.starts_with("/papi/"))
            .map(|t| t.name)
            .collect();
        assert!(papi.is_empty(), "a hardware counter that reads 0: {papi:?}");
        let read = reg.evaluate("/papi{locality#0/total}/INSTRUCTIONS_RETIRED", false);
        assert!(
            matches!(read, Err(rpx_counters::CounterError::UnknownCounterType(_))),
            "{read:?}"
        );
        rt.shutdown();
    }

    #[test]
    fn tracer_captures_task_spans_end_to_end() {
        let rt = small_rt();
        let tracer = rt.tracer();
        // Disabled by default: no spans.
        rt.spawn(|| ()).get();
        assert!(tracer.spans().is_empty());

        tracer.enable();
        let futures: Vec<_> = (0..50)
            .map(|_| rt.spawn(|| std::hint::black_box(2 + 2)))
            .collect();
        for f in futures {
            f.get();
        }
        tracer.disable();
        let spans = tracer.spans();
        assert!(spans.len() >= 50, "captured {} spans", spans.len());
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            assert!((s.worker as usize) < rt.workers());
        }
        // Export parses as JSON.
        let json = tracer.to_chrome_trace();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().len() >= 50);
        rt.shutdown();
    }

    #[test]
    fn idle_rate_reported_in_basis_points() {
        let rt = small_rt();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let v = rt
            .registry()
            .evaluate("/threads{locality#0/total}/idle-rate", false)
            .unwrap();
        assert!(
            v.value >= 0 && v.value <= 10_000,
            "idle-rate out of range: {}",
            v.value
        );
        rt.shutdown();
    }
}
