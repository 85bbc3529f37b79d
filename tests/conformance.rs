//! Counter-semantics conformance: benchmark runs whose counter values are
//! known in *closed form*, so the assertions are exact equalities rather
//! than "looks plausible" bounds.
//!
//! The task-count oracles follow from the spawn structure of the Inncabs
//! kernels:
//!
//! - `fib(n)` spawns both recursive calls, so the call tree has
//!   `C(n) = 2*fib(n+1) - 1` nodes and every node except the root arrives
//!   via `spawn` — exactly `2*fib(n+1) - 2` tasks.
//! - `nqueens(n)` spawns one task per *valid* partial placement, so the
//!   task count equals the size of the pruned search tree minus the root,
//!   enumerable sequentially.
//!
//! The time-balance test checks the accounting identity the paper's
//! idle-rate counter rests on: every nanosecond of a worker's life is
//! attributed to exactly one of {exec, overhead, idle}.

use rpx::inncabs::spawner::RpxSpawner;
use rpx::inncabs::{fib, nqueens};
use rpx::runtime::{Runtime, RuntimeConfig};

const TOTAL_COUNT: &str = "/threads{locality#0/total}/count/cumulative";

fn fib_u64(n: u64) -> u64 {
    (0..n).fold((0u64, 1u64), |(a, b), _| (b, a + b)).0
}

/// Number of tasks a parallel `fib(n)` run spawns: every call with
/// `n >= 2` spawns two children; only the root is not itself a task.
fn fib_task_oracle(n: u64) -> i64 {
    (2 * fib_u64(n + 1) - 2) as i64
}

/// Number of tasks a parallel `nqueens(n)` run spawns: one per valid
/// partial placement (the pruned search tree minus its root).
fn nqueens_task_oracle(n: usize) -> i64 {
    fn safe(placed: &[usize], col: usize) -> bool {
        let row = placed.len();
        placed
            .iter()
            .enumerate()
            .all(|(r, &c)| c != col && c + row != col + r && c + r != col + row)
    }
    fn count(n: usize, placed: &mut Vec<usize>) -> i64 {
        if placed.len() == n {
            return 0;
        }
        let mut total = 0;
        for c in 0..n {
            if safe(placed, c) {
                placed.push(c);
                total += 1 + count(n, placed);
                placed.pop();
            }
        }
        total
    }
    count(n, &mut Vec::new())
}

#[test]
fn fib_task_count_matches_closed_form() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let sp = RpxSpawner::new(rt.handle());

    let input = fib::FibInput { n: 12 };
    let result = fib::run(&sp, input);
    rt.wait_idle();

    assert_eq!(result, fib::run_serial(input));
    // fib(13) = 233, so the run must have executed exactly 464 tasks.
    let expected = fib_task_oracle(12);
    assert_eq!(expected, 464);
    let tasks = reg.evaluate(TOTAL_COUNT, false).unwrap().value;
    assert_eq!(
        tasks, expected,
        "fib(12) must execute exactly 2*fib(13)-2 tasks"
    );
    rt.shutdown();
}

#[test]
fn nqueens_task_count_matches_search_tree_oracle() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let sp = RpxSpawner::new(rt.handle());

    let input = nqueens::NQueensInput { n: 6 };
    let solutions = nqueens::run(&sp, input);
    rt.wait_idle();

    assert_eq!(solutions, 4, "6-queens has exactly 4 solutions");
    let expected = nqueens_task_oracle(6);
    let tasks = reg.evaluate(TOTAL_COUNT, false).unwrap().value;
    assert_eq!(
        tasks, expected,
        "nqueens(6) must spawn one task per valid partial placement"
    );
    rt.shutdown();
}

#[test]
fn exec_overhead_idle_account_for_worker_wall_time() {
    const WORKERS: usize = 2;
    let t0 = std::time::Instant::now();
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let reg = rt.registry();

    // Spin tasks long enough that the window dwarfs startup slack, then
    // wait for idle *before* collecting futures so the main thread never
    // help-executes (work it did would land in the external shard, which
    // `total` includes, and inflate the accounted total past the workers'
    // own wall time).
    let futures: Vec<_> = (0..400)
        .map(|_| {
            rt.spawn(|| {
                let mut acc = 0u64;
                for i in 0..20_000u64 {
                    acc = acc.wrapping_add(i).rotate_left(3);
                }
                std::hint::black_box(acc);
            })
        })
        .collect();
    rt.wait_idle();
    for f in futures {
        f.get();
    }

    let exec = reg
        .evaluate("/threads{locality#0/total}/time/cumulative", false)
        .unwrap()
        .value;
    let overhead = reg
        .evaluate("/threads{locality#0/total}/time/cumulative-overhead", false)
        .unwrap()
        .value;
    // Idle time is exposed as a rate in 0.01% units (HPX convention):
    // rate = idle / (idle + busy) * 10_000. Invert it to recover idle.
    let rate = reg
        .evaluate("/threads{locality#0/total}/idle-rate", false)
        .unwrap()
        .value;
    let wall = t0.elapsed().as_nanos() as i64;
    rt.shutdown();

    assert!(exec > 0, "spin tasks must accrue execution time");
    assert!((0..10_000).contains(&rate), "idle-rate {rate} out of range");
    let busy = exec + overhead;
    let idle = (busy as f64 * rate as f64 / (10_000.0 - rate as f64)) as i64;
    let accounted = busy + idle;

    // Every worker accounts (exec + overhead + idle) against its own wall
    // clock, so the total must come out near workers × elapsed. The bounds
    // are generous: startup slack lowers it, and spawn-path overhead from
    // the (non-worker) main thread lands in the external shard, which
    // `total` includes, and raises it slightly.
    let expected = WORKERS as i64 * wall;
    assert!(
        accounted > expected / 3,
        "accounted {accounted}ns ≪ {WORKERS}×wall {expected}ns: time is leaking \
         (exec={exec} overhead={overhead} idle≈{idle})"
    );
    assert!(
        accounted < expected * 5 / 4,
        "accounted {accounted}ns ≫ {WORKERS}×wall {expected}ns: time is double-counted \
         (exec={exec} overhead={overhead} idle≈{idle})"
    );
}

#[test]
fn cumulative_count_is_monotone_and_resets_exactly() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let sp = RpxSpawner::new(rt.handle());
    reg.add_active(TOTAL_COUNT).unwrap();
    reg.reset_active_counters();

    let per_run = fib_task_oracle(10); // 2*fib(11)-2 = 176
    assert_eq!(per_run, 176);

    let run = || {
        let _ = fib::run(&sp, fib::FibInput { n: 10 });
        rt.wait_idle();
    };

    run();
    let v1 = reg.evaluate(TOTAL_COUNT, false).unwrap().value;
    assert_eq!(v1, per_run);

    // Cumulative: a second identical run adds exactly, never rewinds.
    run();
    let v2 = reg.evaluate(TOTAL_COUNT, false).unwrap().value;
    assert!(v2 >= v1, "cumulative counter went backwards: {v1} -> {v2}");
    assert_eq!(v2, 2 * per_run);

    // Evaluate-with-reset returns the pre-reset value (the paper's
    // per-sample protocol), and the next run counts only its own tasks.
    let v3 = reg.evaluate(TOTAL_COUNT, true).unwrap().value;
    assert_eq!(v3, 2 * per_run);
    run();
    let v4 = reg.evaluate(TOTAL_COUNT, false).unwrap().value;
    assert_eq!(v4, per_run, "reset must rebase the cumulative count");

    rt.shutdown();
}

/// Work done for a runtime by threads that are not its workers — here the
/// spawn cost of a root task and two inline runs on the test thread —
/// accounts to the ledger's external shard: the `total` instance includes
/// it, no `worker-thread#N` instance does (worker 0 used to absorb it).
#[test]
fn external_threads_account_to_total_but_to_no_worker_instance() {
    use rpx::runtime::LaunchPolicy;
    const WORKERS: usize = 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let eval = |instance: &str, counter: &str| {
        let path = format!("/threads{{locality#0/{instance}}}/{counter}");
        rt.registry().evaluate(&path, false).unwrap().value
    };
    let per_worker = |counter: &str| -> i64 {
        (0..WORKERS)
            .map(|w| eval(&format!("worker-thread#{w}"), counter))
            .sum()
    };

    // Two inline runs on this thread, one queued task run by a worker.
    assert_eq!(rt.spawn_with(LaunchPolicy::Sync, || 1).get(), 1);
    assert_eq!(rt.spawn_with(LaunchPolicy::Deferred, || 2).get(), 2);
    assert_eq!(rt.spawn(|| 3).get(), 3);
    rt.wait_idle();

    assert_eq!(eval("total", "count/cumulative"), 3);
    assert_eq!(
        per_worker("count/cumulative"),
        1,
        "only the queued task ran on a worker"
    );
    // The root spawn's cost was paid by this thread, not by a worker; the
    // workers' own overhead is the dispatch of that one task.
    assert!(
        eval("total", "time/cumulative-overhead") > per_worker("time/cumulative-overhead"),
        "the external spawn's overhead must show in total only"
    );
    rt.shutdown();
}

/// The runtime's counters are one declaration table (`rpx-runtime`'s
/// `counters.rs`), registered type by type; this test walks that table as
/// the registry holds it. The catalogue — every discoverable instance's
/// name, kind and unit, and the instance errors — is the one captured from
/// the commit before the table existed, every row evaluates for each
/// instance it declares, and the documented catalogue (DESIGN.md §4, the
/// README's counter listings) names exactly what is declared.
#[test]
fn runtime_counter_catalogue_matches_declarations() {
    use rpx::counters::{CounterError, CounterKind};
    use rpx::runtime::LaunchPolicy;
    const WORKERS: usize = 2;
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
    let reg = rt.registry();
    let rows: Vec<_> = reg
        .counter_types()
        .into_iter()
        .filter(|t| {
            let owned = ["/threads/", "/scheduler/", "/runtime/"];
            owned.iter().any(|object| t.name.starts_with(object))
        })
        .collect();

    let mut discovered: Vec<String> = rows
        .iter()
        .flat_map(|t| reg.discover_instances(&t.name))
        .map(|name| {
            let info = reg.get_counter(&name).expect("discovered").info();
            format!("{} {:?} {}", info.name, info.kind, info.unit)
        })
        .collect();
    discovered.sort();
    let mut golden: Vec<&str> = include_str!("golden/runtime_catalogue.txt")
        .lines()
        .collect();
    golden.sort();
    assert_eq!(discovered, golden, "names, kinds and units are unchanged");

    // Work on both sides of the worker boundary, then quiescence, so the
    // sums below are stable.
    assert_eq!(rt.spawn_with(LaunchPolicy::Sync, || 1).get(), 1);
    let futures: Vec<_> = (0..200u64).map(|i| rt.spawn(move || i)).collect();
    assert_eq!(futures.into_iter().map(|f| f.get()).sum::<u64>(), 19_900);
    rt.wait_idle();

    let unknown = |r: Result<_, CounterError>| matches!(r, Err(CounterError::UnknownInstance(_)));
    for t in &rows {
        let (object, counter) = t.name[1..].split_once('/').expect("type path");
        let eval = |instance: &str| {
            let name = format!("/{object}{{locality#0/{instance}}}/{counter}");
            reg.evaluate(&name, false)
        };
        let worker = |w: usize| eval(&format!("worker-thread#{w}"));
        let per_worker = reg.discover_instances(&t.name).len() == 1 + WORKERS;
        if per_worker {
            let workers: i64 = (0..WORKERS)
                .map(|w| {
                    worker(w)
                        .unwrap_or_else(|e| panic!("{}: {e}", t.name))
                        .value
                })
                .sum();
            let total = eval("total").expect("total evaluates").value;
            if t.kind == CounterKind::MonotonicallyIncreasing {
                // A slab has no external part; a shard sum has one (at
                // least the spawns this thread made), never negative.
                let external = total - workers;
                let slab = t.name.starts_with("/runtime/slab/");
                assert!(external >= 0 && !(slab && external > 0), "{}", t.name);
            }
            assert!(unknown(worker(WORKERS)), "{}: worker out of range", t.name);
            assert!(
                unknown(eval("pool#0")),
                "{}: neither total nor worker",
                t.name
            );
        } else {
            eval("total").unwrap_or_else(|e| panic!("{}: {e}", t.name));
            // The elapsed-time type takes any instance name.
            let total_only = t.kind != CounterKind::ElapsedTime;
            assert_eq!(unknown(worker(0)), total_only, "{}: total only", t.name);
        }
    }

    // DESIGN.md §4 lists the table row for row.
    let documented = |text: &'static str| -> Vec<&'static str> {
        let block = text.split("<!-- runtime-counters -->").nth(1);
        let rows = block.expect("catalogue block").lines();
        let mut rows: Vec<_> = rows.filter(|l| l.starts_with("| `/")).collect();
        rows.sort();
        rows
    };
    let mut declared: Vec<String> = rows
        .iter()
        .map(|t| {
            let kind = match t.kind {
                CounterKind::Raw => "raw",
                CounterKind::MonotonicallyIncreasing => "monotonic",
                CounterKind::Average => "average",
                CounterKind::ElapsedTime => "elapsed-time",
                CounterKind::AggregateStatistics => "statistics",
            };
            let instances = match reg.discover_instances(&t.name).len() {
                1 if t.kind == CounterKind::ElapsedTime => "any",
                1 => "total",
                _ => "total, worker-thread#N",
            };
            format!("| `{}` | {kind} | {} | {instances} |", t.name, t.unit)
        })
        .collect();
    declared.sort();
    assert_eq!(documented(include_str!("../DESIGN.md")), declared);

    // Every counter the README spells out in full is a declared one.
    for line in include_str!("../README.md").lines() {
        let spelled = ["/threads{", "/scheduler{", "/runtime{"];
        if spelled.iter().any(|object| line.starts_with(object)) {
            let name = line.split_whitespace().next().expect("non-empty");
            let (object, rest) = name.split_once('{').expect("instance");
            let counter = rest.split_once('}').expect("closing brace").1;
            let path = format!("{object}{counter}");
            assert!(rows.iter().any(|t| t.name == path), "README: {name}");
        }
    }
    rt.shutdown();
}

/// README.md and DESIGN.md each list the fault-injection knobs once (the
/// paragraph that ends on `RPX_FAULT_MAX`); the list is `KNOWN_FAULT_VARS`.
#[test]
fn documented_fault_knobs_are_the_known_ones() {
    let docs = [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
    ];
    for (file, text) in docs {
        let list = text
            .split("\n\n")
            .find(|paragraph| paragraph.contains("`RPX_FAULT_MAX`"))
            .unwrap_or_else(|| panic!("{file} lists no fault knobs"));
        for knob in rpx::runtime::KNOWN_FAULT_VARS {
            assert!(list.contains(&format!("`{knob}`")), "{file}: {knob}");
        }
    }
}
