//! Every metric the benchmark prints, by name, with its unit, direction
//! and (for end-to-end metrics) regression bound. `BENCHMARK.json` at the
//! repository root declares the same lists; a test below keeps the two
//! from drifting apart.

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    /// Per-layer metrics carry no bound (0).
    pub bound: f64,
}

impl MetricSpec {
    /// The direction as `BENCHMARK.json` spells it.
    pub fn better(&self) -> &'static str {
        if self.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    }
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

/// The end-to-end metrics every workload reports (tracing off). One op is
/// one rep, ladder pass, burst or scrape.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("tasks_per_s", "tasks/s", true, 0.25),
    e2e("op_ms_p50", "ms", false, 0.25),
    e2e("op_ms_p90", "ms", false, 0.25),
];

/// End-to-end metrics only some workloads have. They are printed by the
/// run, stored in result files and judged by `compare`, but are not in
/// `BENCHMARK.json`, whose metrics every workload must report.
pub const WORKLOAD_METRICS: [MetricSpec; 11] = [
    // Every workload reports it, but 2 MiB steps of the allocator on a
    // 5 MiB footprint (measured spread up to 22 %) make it no gate.
    e2e("peak_rss_mib", "MiB", false, 0.25),
    e2e("wall_ms_p50", "ms", false, 0.10),
    e2e("profile_ms_p50", "ms", false, 0.10),
    e2e("efficiency_g1us", "ratio", true, 0.10),
    e2e("efficiency_g16us", "ratio", true, 0.10),
    e2e("metg50_ns", "ns", false, 0.15),
    e2e("op_ms_tail", "ms", false, 0.25),
    e2e("app_rounds_per_s", "1/s", true, 0.10),
    e2e("app_rounds_per_s_unscraped", "1/s", true, 0.10),
    // Near zero by nature, so a relative bound means nothing: printed
    // and stored, not judged (`compare` skips a bound of 0). The rates
    // above carry the verdict for the first; the second is a validity gate.
    e2e("app_slowdown_pct", "%", false, 0.0),
    e2e("spin_error_pct", "%", false, 0.0),
];

const fn layer(name: &'static str, unit: &'static str, higher_is_better: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

/// The per-layer budget (traced run). Prefix = module. `cells.rs` measures
/// the fixed micro-cells; the `runtime.*` counter readings (means over the
/// run's runtime instances), `selftime.*`, `bench.*` and `host.*` come from
/// the traced workload itself. The ratios that need two workloads
/// (`runtime.speedup_w2`, `runtime.trace_overhead_pct`,
/// `runtime.unattributed_ns`) are derived by the aggregating `run`.
pub const PER_LAYER: [MetricSpec; 62] = [
    // Moves tasks_per_s on fib_w1.
    layer("crossbeam.deque_push_pop_ns", "ns", false),
    layer("counters.clock_now_ns", "ns", false),
    layer("runtime.spawn_join_local_ns", "ns", false),
    // Moves tasks_per_s on fib_w2 and inncabs_mix_w2; not fib_w1.
    layer("crossbeam.deque_steal_ns", "ns", false),
    layer("crossbeam.deque_steal_batch_ns", "ns", false),
    layer("runtime.steals", "count", false),
    layer("runtime.slab_remote_frees", "count", false),
    layer("runtime.avg_wait_ns", "ns", false),
    layer("runtime.idle_rate_pct", "%", false),
    // Moves op_ms_p50/p90 on burst_external_w1; not fib_*.
    layer("crossbeam.injector_push_steal_ns", "ns", false),
    layer("runtime.spawn_get_external_ns", "ns", false),
    layer("runtime.slab_fallback_allocs", "count", false),
    // Moves efficiency_g1us and metg50_ns; efficiency_g16us stays flat.
    layer("runtime.spawn_detached_ns", "ns", false),
    layer("taskbench.overhead_ns_per_task_g1us", "ns", false),
    layer("taskbench.counter_overhead_ns_g1us", "ns", false),
    layer("taskbench.serial_ns_per_task_g1us", "ns", false),
    // Moves setup_s on the workload that calls them.
    layer("taskbench.build_ms", "ms", false),
    layer("taskbench.calibrate_ms", "ms", false),
    layer("runtime.new_shutdown_ms", "ms", false),
    layer("serve.engine_new_ms", "ms", false),
    layer("counters.query_resolve_10k_ms", "ms", false),
    // Validity gate of efficiency_*.
    layer("taskbench.spin_error_pct", "%", false),
    // Moves tasks_per_s / op_ms_p50 on fib_traced_w2; not fib_w2.
    layer("runtime.tracer_record_ns", "ns", false),
    layer("runtime.tracer_record_contended_ns", "ns", false),
    layer("runtime.trace_records", "count", false),
    layer("runtime.trace_dropped", "count", false),
    // Moves profile_ms_p50.
    layer("runtime.tracer_spans_copy_ms", "ms", false),
    layer("causal.ingest_ms", "ms", false),
    layer("causal.analyze_ms", "ms", false),
    layer("causal.parallelism", "ratio", true),
    // Moves op_ms_p50/p90 on scrape_10k_w1.
    layer("serve.collect_ms", "ms", false),
    layer("serve.render_ms", "ms", false),
    layer("counters.query_evaluate_ns_per_handle", "ns", false),
    layer("serve.bytes_per_scrape", "bytes", false),
    // Moves tasks_per_s on scrape_10k_w1.
    layer("serve.app_rounds_per_s_unscraped", "1/s", true),
    layer("serve.app_rounds_per_s_scraped", "1/s", true),
    layer("serve.app_slowdown_pct", "%", false),
    // Bypass paths that must not regress when text path or tick loops merge.
    layer("serve.encode_binary_ms", "ms", false),
    layer("counters.sampler_flush_us", "us", false),
    // Moves op_ms_p50 on inncabs_mix_w2.
    layer("inncabs.sort_ms", "ms", false),
    layer("inncabs.nqueens_ms", "ms", false),
    layer("inncabs.sparselu_ms", "ms", false),
    layer("inncabs.fft_ms", "ms", false),
    layer("inncabs.serial_ms", "ms", false),
    layer("inncabs.speedup_vs_serial", "ratio", true),
    // The residue only in-program spans can split.
    layer("runtime.avg_overhead_ns", "ns", false),
    layer("runtime.avg_exec_ns", "ns", false),
    layer("runtime.slab_allocs", "count", false),
    // The host while the workload ran.
    layer("host.spin_1t_ms", "ms", false),
    layer("host.spin_2t_ms", "ms", false),
    layer("host.par_speedup_2t", "ratio", true),
    layer("host.drift_pct", "%", false),
    // Bench-side spans of the traced workload.
    layer("selftime.bench_ms", "ms", false),
    layer("selftime.runtime_ms", "ms", false),
    layer("selftime.counters_ms", "ms", false),
    layer("selftime.taskbench_ms", "ms", false),
    layer("selftime.serve_ms", "ms", false),
    layer("selftime.causal_ms", "ms", false),
    layer("selftime.inncabs_ms", "ms", false),
    layer("bench.traced_wall_ms", "ms", false),
    layer("bench.selftime_coverage_pct", "%", true),
    layer("bench.trace_overhead_pct", "%", false),
];

pub fn find<'a>(table: &'a [MetricSpec], name: &str) -> Option<&'a MetricSpec> {
    table.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use serde_json::Value;

    fn declared() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn benchmark_json_declares_exactly_these_workloads() {
        let spec = declared();
        let listed: Vec<(&str, &str)> = spec["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| {
                (
                    w["name"].as_str().expect("name"),
                    w["why"].as_str().expect("why"),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let spec = declared();
        for (key, table, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let listed = spec[key].as_array().expect("metric list");
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (d, m) in listed.iter().zip(table) {
                assert_eq!(d["name"].as_str(), Some(m.name), "{key} name");
                assert_eq!(d["unit"].as_str(), Some(m.unit), "{} unit", m.name);
                assert_eq!(d["better"].as_str(), Some(m.better()), "{} better", m.name);
                if bounded {
                    assert_eq!(d["bound"].as_f64(), Some(m.bound), "{} bound", m.name);
                } else {
                    assert!(d.get("bound").is_none(), "{} has a bound", m.name);
                }
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&WORKLOAD_METRICS)
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        for m in &WORKLOAD_METRICS {
            assert!((0.0..=0.25).contains(&m.bound), "{} bound", m.name);
        }
    }
}
