//! Property-based tests (proptest) on the core invariants: counter-name
//! grammar round-trips, statistics counters vs. naive references, the
//! simulator on arbitrary DAGs, and benchmark kernels vs. oracles on
//! random inputs.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rpx::counters::{CounterInstance, CounterName, CounterRegistry, InstancePart};
use rpx::simnode::{simulate, GraphBuilder, SimConfig, SimTask};

// ---------------------------------------------------------------------
// Counter names
// ---------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9-]{0,12}".prop_map(|s| s)
}

fn instance_part() -> impl Strategy<Value = InstancePart> {
    (ident(), proptest::option::of(0u32..64)).prop_map(|(name, idx)| match idx {
        Some(i) => InstancePart::indexed(name, i),
        None => InstancePart::plain(name),
    })
}

fn counter_name() -> impl Strategy<Value = CounterName> {
    (
        ident(),
        proptest::option::of((
            instance_part(),
            proptest::collection::vec(instance_part(), 0..3),
        )),
        proptest::collection::vec(ident(), 1..4),
        proptest::option::of("[a-z0-9,/@.-]{1,20}"),
    )
        .prop_map(|(object, instance, counter_parts, params)| {
            let mut name = CounterName::new(object, counter_parts.join("/"));
            if let Some((parent, children)) = instance {
                name = name.with_instance(CounterInstance { parent, children });
            }
            if let Some(p) = params {
                name = name.with_parameters(p);
            }
            name
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn counter_names_round_trip(name in counter_name()) {
        let rendered = name.to_string();
        let parsed: CounterName = rendered.parse().expect("rendered names parse");
        prop_assert_eq!(&parsed, &name);
        prop_assert_eq!(parsed.to_string(), rendered);
    }

    #[test]
    fn type_path_is_instance_free(name in counter_name()) {
        let tp = name.type_path();
        let has_instance_or_params = tp.contains(['{', '@']);
        prop_assert!(!has_instance_or_params, "type path `{}` leaks instance/params", tp);
        let reparsed: CounterName = tp.parse().expect("type paths are valid names");
        prop_assert_eq!(reparsed.object, name.object);
        prop_assert_eq!(reparsed.counter, name.counter);
    }
}

// ---------------------------------------------------------------------
// Statistics counters vs. references
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn statistics_counters_match_naive_reference(samples in proptest::collection::vec(0i64..1_000_000, 1..60)) {
        let reg = CounterRegistry::new();
        let src = Arc::new(AtomicI64::new(0));
        let s2 = src.clone();
        reg.register_raw("/src/v", "h", "1", Arc::new(move || s2.load(Ordering::Relaxed)));
        let avg: CounterName = "/statistics/average@/src/v".parse().unwrap();
        let maxc: CounterName = format!("/statistics/max@/src/v,{}", samples.len()).parse().unwrap();
        let avg = reg.get_counter(&avg).unwrap();
        let maxc = reg.get_counter(&maxc).unwrap();
        for &x in &samples {
            src.store(x, Ordering::Relaxed);
            avg.get_value_at(false, 0);
            maxc.get_value_at(false, 0);
        }
        // One extra evaluation appends one extra sample of the last value;
        // account for it in the reference.
        let mut ref_samples = samples.clone();
        ref_samples.push(*samples.last().unwrap());
        let ref_mean = ref_samples.iter().sum::<i64>() as f64 / ref_samples.len() as f64;
        // Fractional means are transported via the scaling fields
        // (milli-units), so the scaled value tracks the reference to
        // sub-unit precision instead of the old ±1 rounding slack.
        let got_mean = avg.get_value_at(false, 0).scaled();
        prop_assert!((got_mean - ref_mean).abs() <= 1e-3,
            "mean {got_mean} vs reference {ref_mean}");
        let ref_max = *ref_samples.iter().max().unwrap();
        // The max window holds the most recent len(samples) entries of
        // ref_samples — the first sample may have been evicted.
        let windowed_max = *ref_samples[ref_samples.len() - samples.len()..].iter().max().unwrap();
        let got_max = maxc.get_value_at(false, 0).value;
        prop_assert!(got_max == ref_max || got_max == windowed_max,
            "max {got_max} vs {ref_max}/{windowed_max}");
    }
}

// ---------------------------------------------------------------------
// Simulator on arbitrary layered DAGs
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LayeredDag {
    layer_sizes: Vec<usize>,
    work: u64,
}

fn layered_dag() -> impl Strategy<Value = LayeredDag> {
    (proptest::collection::vec(1usize..8, 1..5), 100u64..100_000)
        .prop_map(|(layer_sizes, work)| LayeredDag { layer_sizes, work })
}

fn build_dag(d: &LayeredDag) -> rpx::simnode::TaskGraph {
    let mut b = GraphBuilder::new();
    let mut prev: Vec<u32> = Vec::new();
    for &size in &d.layer_sizes {
        let layer: Vec<u32> = (0..size)
            .map(|_| {
                let t = b.new_thread();
                let id = b.add(SimTask::compute(d.work));
                b.begins_thread(id, t);
                b.ends_thread(id, t);
                id
            })
            .collect();
        for &p in &prev {
            for &c in &layer {
                b.edge(p, c);
            }
        }
        prev = layer;
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_completes_any_layered_dag(d in layered_dag(), cores in 1u32..20) {
        let g = build_dag(&d);
        prop_assert!(g.validate().is_ok());
        let r = simulate(&g, &SimConfig::hpx(cores));
        // Work conservation and bounds.
        prop_assert!(r.completed());
        prop_assert_eq!(r.tasks_executed, g.len() as u64);
        prop_assert!(r.total_exec_ns >= g.total_work_ns());
        prop_assert!(r.makespan_ns as u128 >= (g.critical_path_ns() as u128));
        // Makespan can never beat total work spread over the cores.
        let lower = g.total_work_ns() / cores.min(20) as u64;
        prop_assert!(r.makespan_ns >= lower);
    }

    #[test]
    fn simulator_is_deterministic(d in layered_dag(), cores in 1u32..16) {
        let g = build_dag(&d);
        let a = simulate(&g, &SimConfig::hpx(cores));
        let b = simulate(&g, &SimConfig::hpx(cores));
        prop_assert_eq!(a.makespan_ns, b.makespan_ns);
        prop_assert_eq!(a.total_overhead_ns, b.total_overhead_ns);
        prop_assert_eq!(a.steals, b.steals);
    }

    #[test]
    fn more_cores_never_hugely_hurt_compute_dags(d in layered_dag()) {
        // Work-conserving scheduler sanity: 8 cores should not be much
        // slower than 1 core on compute-only DAGs (steal costs only).
        let g = build_dag(&d);
        let one = simulate(&g, &SimConfig::hpx(1));
        let eight = simulate(&g, &SimConfig::hpx(8));
        prop_assert!(eight.makespan_ns <= one.makespan_ns * 13 / 10,
            "8 cores {} ≫ 1 core {}", eight.makespan_ns, one.makespan_ns);
    }
}

// ---------------------------------------------------------------------
// Benchmark kernels on random inputs
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn sort_kernel_sorts_any_seed(seed in 1u64.., len_pow in 6u32..12) {
        let input = rpx::inncabs::sort::SortInput { len: 1 << len_pow, cutoff: 64, seed };
        let out = rpx::inncabs::sort::run(&rpx::inncabs::SerialSpawner, input);
        prop_assert!(out.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(out.len(), input.len);
    }

    #[test]
    fn alignment_scores_are_symmetric(seed in 1u64.., len in 4usize..64) {
        let input = rpx::inncabs::alignment::AlignmentInput { sequences: 2, length: len, seed };
        let seqs = input.generate();
        let ab = rpx::inncabs::alignment::align_pair(&seqs[0], &seqs[1]);
        let ba = rpx::inncabs::alignment::align_pair(&seqs[1], &seqs[0]);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn uts_trees_are_reproducible(seed in 0u64..10_000) {
        let input = rpx::inncabs::uts::UtsInput { seed, root_branch_milli: 2_000, max_depth: 5 };
        prop_assert_eq!(rpx::inncabs::uts::run_serial(input), rpx::inncabs::uts::run_serial(input));
    }

    #[test]
    fn fft_preserves_energy(seed in 1u64.., len_pow in 3u32..9) {
        use rpx::inncabs::fft;
        let input = fft::FftInput { len: 1 << len_pow, cutoff: 8, seed };
        let signal = input.signal();
        let spectrum = fft::fft_serial(signal.clone());
        let te: f64 = signal.iter().map(|c| c.abs() * c.abs()).sum();
        let fe: f64 = spectrum.iter().map(|c| c.abs() * c.abs()).sum::<f64>() / signal.len() as f64;
        prop_assert!((te - fe).abs() < 1e-6 * te.max(1.0), "energy {te} vs {fe}");
    }
}

// ---------------------------------------------------------------------
// Native runtime on random fork-join trees
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct TreeShape {
    /// Children per node, per depth level (empty = leaf everywhere).
    fanouts: Vec<u8>,
}

fn tree_shape() -> impl Strategy<Value = TreeShape> {
    proptest::collection::vec(1u8..4, 0..5).prop_map(|fanouts| TreeShape { fanouts })
}

/// Sum of node values of the fork-join tree, computed recursively with one
/// spawned task per child — the structure of fib/sort/strassen, with a
/// randomized shape exercising the helping scheduler.
fn tree_sum(h: &rpx::runtime::RuntimeHandle, shape: &TreeShape, depth: usize, id: u64) -> u64 {
    let Some(&fanout) = shape.fanouts.get(depth) else {
        return id;
    };
    let futures: Vec<_> = (0..fanout as u64)
        .map(|k| {
            let h2 = h.clone();
            let shape2 = shape.clone();
            let child_id = id.wrapping_mul(31).wrapping_add(k + 1);
            h.spawn(move || tree_sum(&h2, &shape2, depth + 1, child_id))
        })
        .collect();
    id + futures
        .into_iter()
        .map(rpx::runtime::TaskFuture::get)
        .sum::<u64>()
}

fn tree_sum_serial(shape: &TreeShape, depth: usize, id: u64) -> u64 {
    let Some(&fanout) = shape.fanouts.get(depth) else {
        return id;
    };
    id + (0..fanout as u64)
        .map(|k| tree_sum_serial(shape, depth + 1, id.wrapping_mul(31).wrapping_add(k + 1)))
        .sum::<u64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runtime_executes_random_fork_join_trees(shape in tree_shape(), workers in 1usize..4) {
        let rt = rpx::runtime::Runtime::new(rpx::runtime::RuntimeConfig::with_workers(workers));
        let h = rt.handle();
        let got = tree_sum(&h, &shape, 0, 1);
        let expected = tree_sum_serial(&shape, 0, 1);
        rt.wait_idle();
        // The counters must agree with the tree size.
        let tasks: u64 = shape.fanouts.iter().fold((1u64, 1u64), |(total, width), &f| {
            let w = width * f as u64;
            (total + w, w)
        }).0 - 1; // spawned tasks = nodes minus the root (run inline)
        let counted = rt
            .registry()
            .evaluate("/threads{locality#0/total}/count/cumulative", false)
            .unwrap()
            .value as u64;
        rt.shutdown();
        prop_assert_eq!(got, expected);
        prop_assert!(counted >= tasks, "counted {} < spawned {}", counted, tasks);
    }
}
