//! Cost models of the two simulated runtimes and the shared memory model.
//!
//! Default constants are calibrated against the paper's measurements:
//! HPX task overheads of 0.5–1 µs for very fine tasks (§VI), pthread
//! creation in the tens of microseconds, and failure of the `std::async`
//! versions at 80k–97k live threads (§VI).

use serde::Serialize;

/// Scheduling costs of the lightweight-task (HPX-like) runtime.
#[derive(Debug, Clone, Serialize)]
pub struct HpxCostModel {
    /// Cost the spawning core pays to enqueue one child task.
    pub spawn_ns: u64,
    /// Cost to pop a task from the own queue and switch into it.
    pub dispatch_ns: u64,
    /// Extra cost of a successful steal (CAS traffic, cold deque).
    pub steal_ns: u64,
    /// Additional steal cost when the victim is on another socket.
    pub remote_steal_extra_ns: u64,
    /// Serialized portion of every task admission (shared allocator /
    /// queue-registry critical section): a global gate with this service
    /// time caps the whole node's spawn throughput — the contention that
    /// stops very fine grained workloads from scaling past ~10 cores
    /// while leaving coarse ones untouched (§VI).
    pub spawn_serial_ns: u64,
    /// Multiplier on the serialized portion per *additional* socket in
    /// use (cross-socket cache-line ping-pong on the shared structures):
    /// `service = spawn_serial_ns × (1 + factor × (sockets_used − 1))`.
    pub cross_socket_serial_factor: f64,
    /// Disable hierarchical victim selection: thieves visit victims in
    /// flat core order instead of exhausting their own socket first.
    /// The A/B against the default (hierarchical) run isolates how much
    /// of the placement win comes from the victim *order* alone —
    /// remote steals stop being a last resort and their
    /// `remote_steal_extra_ns` surcharge lands on far more steals.
    pub topology_blind_steal: bool,
}

impl Default for HpxCostModel {
    fn default() -> Self {
        // spawn + dispatch ≈ 0.65 µs: the paper's observed 0.5–1 µs
        // per-task overhead for very fine grained benchmarks.
        HpxCostModel {
            spawn_ns: 280,
            dispatch_ns: 380,
            steal_ns: 1_200,
            remote_steal_extra_ns: 900,
            spawn_serial_ns: 50,
            cross_socket_serial_factor: 1.5,
            topology_blind_steal: false,
        }
    }
}

/// Scheduling costs of the thread-per-task (`std::async`) runtime.
#[derive(Debug, Clone, Serialize)]
pub struct StdCostModel {
    /// `pthread_create` + first kernel wakeup, paid by the *spawning* core
    /// per child. This is the dominating cost for fine-grained workloads.
    pub thread_spawn_ns: u64,
    /// Kernel context switch into a runnable thread.
    pub ctx_switch_ns: u64,
    /// Runqueue bookkeeping per dispatch.
    pub dispatch_ns: u64,
    /// Maximum concurrently live threads before the process aborts
    /// (the paper observed 80k–97k just before failure).
    pub max_live_threads: u32,
    /// Cache-pollution stretch per unit of oversubscription: a task's
    /// *memory* time is multiplied by
    /// `1 + thrash_coeff * max(0, runnable - cores) / cores`, capped by
    /// `thrash_cap`. Compute time is unaffected (the kernel scheduler is
    /// work-conserving).
    pub thrash_coeff: f64,
    /// Upper bound on the oversubscription stretch factor.
    pub thrash_cap: f64,
    /// Kernel-serialized portion of `pthread_create` (clone holds
    /// `mmap_sem` while mapping the stack): a global gate with this
    /// service time — the node can never create threads faster than
    /// `1/serial_spawn_ns`, which is what makes millions of microsecond
    /// tasks hopeless under `std::async`.
    pub serial_spawn_ns: u64,
    /// Multiplier on the serialized portion per additional socket in use.
    pub cross_socket_serial_factor: f64,
}

impl Default for StdCostModel {
    fn default() -> Self {
        StdCostModel {
            thread_spawn_ns: 22_000,
            ctx_switch_ns: 1_800,
            dispatch_ns: 300,
            max_live_threads: 90_000,
            thrash_coeff: 0.04,
            thrash_cap: 3.0,
            serial_spawn_ns: 12_000,
            cross_socket_serial_factor: 0.5,
        }
    }
}

/// Which runtime the simulator models.
#[derive(Debug, Clone, Serialize)]
pub enum SimRuntimeKind {
    /// Lightweight tasks, per-core deques (or one global FIFO), stealing.
    Hpx {
        /// Scheduling costs.
        cost: HpxCostModel,
        /// Use a single global FIFO instead of per-core deques (the
        /// ordering experiment behind the paper's Floorplan anomaly).
        global_queue: bool,
    },
    /// One OS thread per task, single kernel runqueue.
    ThreadPerTask {
        /// Scheduling costs + resource limits.
        cost: StdCostModel,
    },
}

impl SimRuntimeKind {
    /// Default HPX-like runtime.
    pub fn hpx() -> Self {
        SimRuntimeKind::Hpx {
            cost: HpxCostModel::default(),
            global_queue: false,
        }
    }

    /// Default thread-per-task runtime.
    pub fn std_async() -> Self {
        SimRuntimeKind::ThreadPerTask {
            cost: StdCostModel::default(),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SimRuntimeKind::Hpx {
                global_queue: false,
                ..
            } => "hpx",
            SimRuntimeKind::Hpx {
                global_queue: true, ..
            } => "hpx-global-queue",
            SimRuntimeKind::ThreadPerTask { .. } => "std-async",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpx_default_overhead_matches_paper_range() {
        let c = HpxCostModel::default();
        let per_task = c.spawn_ns + c.dispatch_ns;
        assert!(
            (500..=1_000).contains(&per_task),
            "default per-task overhead {per_task}ns outside the paper's 0.5–1µs"
        );
    }

    #[test]
    fn std_spawn_dwarfs_hpx_spawn() {
        let h = HpxCostModel::default();
        let s = StdCostModel::default();
        assert!(s.thread_spawn_ns > 20 * h.spawn_ns);
    }

    #[test]
    fn labels() {
        assert_eq!(SimRuntimeKind::hpx().label(), "hpx");
        assert_eq!(SimRuntimeKind::std_async().label(), "std-async");
        let g = SimRuntimeKind::Hpx {
            cost: HpxCostModel::default(),
            global_queue: true,
        };
        assert_eq!(g.label(), "hpx-global-queue");
    }
}
