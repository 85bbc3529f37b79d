//! Simulation outputs: the same quantities the paper reads from its
//! performance counters, produced in virtual time.

use serde::Serialize;

/// Why a simulated run stopped early.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimFailure {
    /// Virtual time of the failure.
    pub at_ns: u64,
    /// Live threads at the failed spawn.
    pub live_threads: u32,
    /// Tasks that had completed before the failure.
    pub completed_tasks: u64,
    /// Human-readable cause (mirrors the paper's Abort/SegV rows).
    pub cause: String,
}

/// Metrics of one simulated run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimResult {
    /// Wall-clock (virtual) makespan, ns.
    pub makespan_ns: u64,
    /// Cores the run was configured with.
    pub cores: u32,
    /// Tasks executed to completion.
    pub tasks_executed: u64,
    /// Σ task execution time (incl. memory stretch) — the
    /// `/threads/time/cumulative` analogue.
    pub total_exec_ns: u64,
    /// Σ scheduling costs (spawn + dispatch + steal paths) — the
    /// `/threads/time/cumulative-overhead` analogue.
    pub total_overhead_ns: u64,
    /// Σ queue wait (enqueue → start).
    pub total_wait_ns: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steals that crossed the socket boundary.
    pub remote_steals: u64,
    /// Σ idle core time inside the span (cores waiting for work).
    pub total_idle_ns: u64,
    /// Off-core memory requests (64-byte lines), summed over tasks.
    pub offcore_requests: u64,
    /// Peak concurrently-live logical OS threads (thread-per-task model).
    pub peak_live_threads: u32,
    /// Early termination, if any.
    pub failed: Option<SimFailure>,
    /// Per-task spans (only when `SimConfig::collect_spans` is set).
    #[serde(skip_serializing_if = "Vec::is_empty")]
    pub spans: Vec<crate::timeline::SimSpan>,
}

impl SimResult {
    /// Whether the run completed all tasks.
    pub fn completed(&self) -> bool {
        self.failed.is_none()
    }

    /// Mean task duration, ns — the `/threads/time/average` analogue
    /// (the paper's Task Duration / grain size).
    pub fn avg_task_ns(&self) -> f64 {
        if self.tasks_executed == 0 {
            0.0
        } else {
            self.total_exec_ns as f64 / self.tasks_executed as f64
        }
    }

    /// Mean per-task scheduling cost, ns — `/threads/time/average-overhead`.
    pub fn avg_overhead_ns(&self) -> f64 {
        if self.tasks_executed == 0 {
            0.0
        } else {
            self.total_overhead_ns as f64 / self.tasks_executed as f64
        }
    }

    /// Task time per core, ns — what Figures 8–12 plot against the ideal.
    pub fn task_time_per_core_ns(&self) -> f64 {
        if self.cores == 0 {
            0.0
        } else {
            self.total_exec_ns as f64 / self.cores as f64
        }
    }

    /// Scheduling overhead per core, ns (Figures 8–12, `sched_overhd`).
    pub fn sched_overhead_per_core_ns(&self) -> f64 {
        if self.cores == 0 {
            0.0
        } else {
            self.total_overhead_ns as f64 / self.cores as f64
        }
    }

    /// The paper's bandwidth estimate: off-core requests × 64 B / makespan,
    /// in GB/s (Figures 13–14).
    pub fn offcore_bandwidth_gbps(&self) -> f64 {
        rpx_papi::bandwidth_gb_per_s(self.offcore_requests, self.makespan_ns)
    }

    /// Bin the recorded spans into a utilization/bandwidth timeline
    /// (requires `SimConfig::collect_spans`).
    pub fn timeline(&self, bins: usize) -> crate::timeline::Timeline {
        crate::timeline::Timeline::from_spans(&self.spans, self.makespan_ns.max(1), bins)
    }

    /// Average core utilization over the span, 0..=1.
    pub fn utilization(&self) -> f64 {
        if self.makespan_ns == 0 || self.cores == 0 {
            return 0.0;
        }
        let busy = self.total_exec_ns + self.total_overhead_ns;
        (busy as f64 / (self.makespan_ns as f64 * self.cores as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimResult {
        SimResult {
            makespan_ns: 1_000,
            cores: 4,
            tasks_executed: 10,
            total_exec_ns: 3_000,
            total_overhead_ns: 400,
            total_wait_ns: 100,
            offcore_requests: 100,
            ..SimResult::default()
        }
    }

    #[test]
    fn averages() {
        let r = sample();
        assert_eq!(r.avg_task_ns(), 300.0);
        assert_eq!(r.avg_overhead_ns(), 40.0);
        assert_eq!(r.task_time_per_core_ns(), 750.0);
        assert_eq!(r.sched_overhead_per_core_ns(), 100.0);
    }

    #[test]
    fn bandwidth_formula() {
        let r = sample();
        // 100 lines × 64 B / 1000 ns = 6.4 GB/s.
        assert!((r.offcore_bandwidth_gbps() - 6.4).abs() < 1e-9);
    }

    #[test]
    fn utilization_capped_at_one() {
        let mut r = sample();
        assert!((r.utilization() - 0.85).abs() < 1e-9);
        r.total_exec_ns = 100_000;
        assert_eq!(r.utilization(), 1.0);
    }

    #[test]
    fn empty_result_is_all_zero() {
        let r = SimResult::default();
        assert_eq!(r.avg_task_ns(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert!(r.completed());
    }

    #[test]
    fn serializes() {
        let r = sample();
        let v = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(v["makespan_ns"], r.makespan_ns);
        assert_eq!(v["failed"], serde_json::Value::Null);
        assert!(v.get("spans").is_none(), "empty spans are skipped");
    }
}
