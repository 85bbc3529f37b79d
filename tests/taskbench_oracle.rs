//! Oracle conformance: every deterministic workload shape ships closed
//! forms (exact task count, edge count, critical path), and every backend
//! must execute *exactly* that graph — equality assertions against the
//! generator's math on all three execution paths, no "looks plausible"
//! bounds.
//!
//! | shape     | tasks                | edges            | critical path |
//! |-----------|----------------------|------------------|---------------|
//! | trivial   | `n`                  | 0                | 1             |
//! | stencil   | `W·T`                | `(T−1)(3W−2)`    | `T`           |
//! | butterfly | `N·(log₂N+1)`        | `2·N·log₂N`      | `log₂N+1`     |
//! | tree      | `2·I + k^d`, I=Σkⁱ   | `2k·I`           | `2d+1`        |
//!
//! The `random` shape has no closed edge form; it gets conservation
//! instead — Σ spawned == Σ completed == task count, cross-checked against
//! the runtime's own `/runtime/tasks/*` counter plane.

use rpx_taskbench::{
    edge_count, Backend, BaselineBackend, GrainCalibration, RuntimeBackend, Shape, SimBackend,
    WorkloadSpec,
};

const GRAIN_NS: u64 = 2_000;
const SEED: u64 = 0xacce55;

/// The three backends under test, fresh per call (a `Box<dyn>` can't be
/// shared across `#[test]` processes anyway).
fn backends() -> Vec<Box<dyn Backend>> {
    vec![
        Box::new(RuntimeBackend),
        Box::new(BaselineBackend),
        Box::new(SimBackend::hpx()),
    ]
}

/// Run `shape` on every backend and assert the exact closed forms.
fn assert_oracle(shape: Shape) {
    let spec = WorkloadSpec::new(shape, GRAIN_NS, SEED);
    let graph = spec.build();

    // The generator itself must match the closed forms...
    assert_eq!(
        graph.len() as u64,
        shape.task_count(),
        "{}: tasks",
        shape.name()
    );
    if let Some(edges) = shape.edge_count() {
        assert_eq!(edge_count(&graph), edges, "{}: edges", shape.name());
    }
    if shape.critical_path_is_exact() {
        assert_eq!(
            graph.critical_path_ns(),
            shape.critical_path_tasks() * GRAIN_NS,
            "{}: critical path",
            shape.name()
        );
    }

    // ...and every backend must execute exactly that many tasks, with its
    // own counters agreeing with the driver's ledger.
    let cal = GrainCalibration::shared();
    for backend in backends() {
        let ctx = format!("{} on {}", shape.name(), backend.name());
        let stats = backend
            .run(&graph, 2, &cal)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(stats.spawned, shape.task_count(), "{ctx}: spawned");
        assert_eq!(stats.completed, shape.task_count(), "{ctx}: completed");
        assert_eq!(stats.spawned, stats.completed, "{ctx}: conservation");
        if let Some(c) = stats.counter_spawned {
            assert_eq!(c, shape.task_count(), "{ctx}: backend spawn counter");
        }
        if let Some(c) = stats.counter_completed {
            assert_eq!(c, shape.task_count(), "{ctx}: backend completion counter");
        }
        assert_eq!(stats.span_ns, graph.critical_path_ns(), "{ctx}: span");
        assert!(stats.wall_ns > 0, "{ctx}: wall time");
    }
}

#[test]
fn trivial_matches_closed_forms_on_all_backends() {
    // n independent tasks: n tasks, 0 edges, critical path of 1 task.
    let shape = Shape::Trivial { tasks: 96 };
    assert_eq!(shape.task_count(), 96);
    assert_eq!(shape.edge_count(), Some(0));
    assert_eq!(shape.critical_path_tasks(), 1);
    assert_oracle(shape);
}

#[test]
fn stencil_matches_closed_forms_on_all_backends() {
    // W=8, T=6: 48 tasks; rows 1..6 each add 3W−2 = 22 edges → 110;
    // critical path is one task per timestep.
    let shape = Shape::Stencil { width: 8, steps: 6 };
    assert_eq!(shape.task_count(), 48);
    assert_eq!(shape.edge_count(), Some(110));
    assert_eq!(shape.critical_path_tasks(), 6);
    assert_oracle(shape);
}

#[test]
fn butterfly_matches_closed_forms_on_all_backends() {
    // N=16, m=4 stages: N(m+1)=80 tasks, 2Nm=128 edges, path m+1=5.
    let shape = Shape::Butterfly { points_log2: 4 };
    assert_eq!(shape.task_count(), 80);
    assert_eq!(shape.edge_count(), Some(128));
    assert_eq!(shape.critical_path_tasks(), 5);
    assert_oracle(shape);
}

#[test]
fn tree_matches_closed_forms_on_all_backends() {
    // k=2, d=4: interior I=(2⁴−1)/(2−1)=15 fork/join pairs + 2⁴ leaves
    // = 46 tasks, 2kI=60 edges, path 2d+1=9 (fork chain, leaf, join chain).
    let shape = Shape::Tree { arity: 2, depth: 4 };
    assert_eq!(shape.task_count(), 46);
    assert_eq!(shape.edge_count(), Some(60));
    assert_eq!(shape.critical_path_tasks(), 9);
    assert_oracle(shape);

    // Ternary, shallower: I=(3²−1)/2=4, tasks 2·4+9=17, edges 2·3·4=24.
    let ternary = Shape::Tree { arity: 3, depth: 2 };
    assert_eq!(ternary.task_count(), 17);
    assert_eq!(ternary.edge_count(), Some(24));
    assert_oracle(ternary);
}

/// The random shape has no closed edge form — instead, conservation:
/// every spawned task completes, on every backend, and the real runtime's
/// `/runtime/tasks/*` counter plane agrees with the driver's ledger.
#[test]
fn random_shape_conserves_tasks_on_all_backends() {
    let shape = Shape::Random {
        width: 12,
        layers: 6,
        degree: 3,
    };
    assert_eq!(shape.task_count(), 72, "task count is seed-independent");
    assert_oracle(shape);
}

/// The counter cross-check in isolation, straight off the live registry:
/// after a full graph run, `/runtime/tasks/admitted` (spawn side) and
/// `/threads/count/cumulative` (completion side) both equal the closed-form
/// task count, and the pending gauge is drained to zero.
#[test]
fn runtime_counter_plane_agrees_with_oracle() {
    use rpx_runtime::{Runtime, RuntimeConfig};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    let shape = Shape::Stencil { width: 6, steps: 5 };
    let graph = WorkloadSpec::new(shape, 500, SEED).build();
    // No admission gate: `/runtime/tasks/admitted` reads the ledger.
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let h = rt.handle();

    // Minimal dependence-walking driver, local to the test so the counter
    // claim does not depend on rpx-taskbench's own bookkeeping.
    struct Walk {
        graph: rpx_simnode::TaskGraph,
        deps: Vec<AtomicU32>,
    }
    let walk = Arc::new(Walk {
        deps: graph.tasks.iter().map(|t| AtomicU32::new(t.deps)).collect(),
        graph: graph.clone(),
    });
    fn go(h: &rpx_runtime::RuntimeHandle, w: &Arc<Walk>, id: u32) {
        let (h2, w2) = (h.clone(), w.clone());
        drop(h.spawn(move || {
            let enables = w2.graph.tasks[id as usize].enables.clone();
            for c in enables {
                if w2.deps[c as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    go(&h2, &w2, c);
                }
            }
        }));
    }
    for root in graph.roots() {
        go(&h, &walk, root);
    }
    rt.wait_idle();

    let reg = rt.registry();
    let read = |name: &str| reg.evaluate(name, false).expect(name).value;
    let want = shape.task_count() as i64;
    assert_eq!(read("/runtime{locality#0/total}/tasks/admitted"), want);
    assert_eq!(read("/threads{locality#0/total}/count/cumulative"), want);
    assert_eq!(read("/runtime{locality#0/total}/tasks/pending"), 0);
    rt.shutdown();
}

/// Backends must agree with each other, not only with the math: identical
/// graph in, identical completion ledger out.
#[test]
fn backends_agree_pairwise_on_executed_counts() {
    let cal = GrainCalibration::shared();
    for family in ["stencil", "tree", "butterfly"] {
        let shape = match family {
            "stencil" => Shape::Stencil { width: 6, steps: 4 },
            "tree" => Shape::Tree { arity: 2, depth: 3 },
            _ => Shape::Butterfly { points_log2: 3 },
        };
        let graph = WorkloadSpec::new(shape, GRAIN_NS, SEED).build();
        let counts: Vec<u64> = backends()
            .iter()
            .map(|b| b.run(&graph, 2, &cal).unwrap().completed)
            .collect();
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "{family}: backends disagree: {counts:?}"
        );
    }
}
