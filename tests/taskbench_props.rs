//! Property tests for the taskbench generator: for *arbitrary* knob
//! settings across every shape family, generated graphs are acyclic and
//! well-formed, match their closed forms exactly, carry the requested
//! grain on every task, and are a pure function of the seed.
//!
//! Runs under the in-tree proptest shim: failures print an
//! `RPX_TEST_SEED=0x… cargo test <name>` line that replays the exact
//! failing case.

use proptest::prelude::*;
use rpx_taskbench::{edge_count, graph_hash, Shape, WorkloadSpec};

/// Arbitrary shapes over intentionally small knob ranges (graph size stays
/// in the hundreds so a 256-case run is still instant).
fn shape() -> impl Strategy<Value = Shape> {
    (0u32..5, 1u32..12, 1u32..8, 0u32..5).prop_map(|(family, a, b, c)| match family {
        0 => Shape::Trivial {
            tasks: (a * b) as u64,
        },
        1 => Shape::Stencil { width: a, steps: b },
        2 => Shape::Butterfly {
            points_log2: c, // 1..=16 points
        },
        3 => Shape::Tree {
            arity: a % 4,
            depth: c,
        },
        _ => Shape::Random {
            width: a,
            layers: b,
            degree: c,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // Structural soundness: every generated graph passes the simulator's
    // own validation (consistent dep counts, in-bounds edges, and — via
    // Kahn's algorithm — acyclicity), and its roots are exactly the
    // zero-dep tasks.
    #[test]
    fn generated_graphs_are_acyclic_and_well_formed(
        shape in shape(),
        grain in 1u64..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let g = WorkloadSpec::new(shape, grain, seed).build();
        prop_assert_eq!(g.validate(), Ok(()));
        let zero_dep = g.tasks.iter().filter(|t| t.deps == 0).count();
        prop_assert_eq!(g.roots().len(), zero_dep);
        prop_assert!(zero_dep > 0, "a DAG must have at least one root");
        // Dependence conservation: Σ in-degrees == Σ out-edges.
        let in_sum: u64 = g.tasks.iter().map(|t| t.deps as u64).sum();
        prop_assert_eq!(in_sum, edge_count(&g));
    }

    // Knob conformance: the closed forms are exact for every knob
    // setting, not just the defaults the unit tests happen to pick.
    #[test]
    fn knobs_match_closed_forms(
        shape in shape(),
        grain in 1u64..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let g = WorkloadSpec::new(shape, grain, seed).build();
        prop_assert_eq!(g.len() as u64, shape.task_count());
        if let Some(edges) = shape.edge_count() {
            prop_assert_eq!(edge_count(&g), edges);
        }
        let cp = g.critical_path_ns();
        if shape.critical_path_is_exact() {
            prop_assert_eq!(cp, shape.critical_path_tasks() * grain);
        } else {
            prop_assert!(cp <= shape.critical_path_tasks() * grain);
            prop_assert!(cp >= grain, "at least one task on the path");
        }
        // Grain conformance: uniform work on every task.
        prop_assert!(g.tasks.iter().all(|t| t.work_ns == grain));
    }

    // Seed determinism: the graph is a pure function of
    // `(shape, grain, seed)` — bit-identical structure, same hash.
    #[test]
    fn same_seed_same_graph(
        shape in shape(),
        grain in 1u64..100_000,
        seed in 0u64..u64::MAX,
    ) {
        let a = WorkloadSpec::new(shape, grain, seed).build();
        let b = WorkloadSpec::new(shape, grain, seed).build();
        prop_assert_eq!(graph_hash(&a), graph_hash(&b));
        prop_assert_eq!(a.len(), b.len());
        prop_assert_eq!(edge_count(&a), edge_count(&b));
    }

    // Seed independence of the *sizes*: the seed reshuffles the random
    // shape's edges but never its task count, and deterministic shapes
    // ignore it entirely (identical hash under any seed).
    #[test]
    fn seed_only_moves_random_edges(
        shape in shape(),
        grain in 1u64..10_000,
        s1 in 0u64..u64::MAX,
        s2 in 0u64..u64::MAX,
    ) {
        let a = WorkloadSpec::new(shape, grain, s1).build();
        let b = WorkloadSpec::new(shape, grain, s2).build();
        prop_assert_eq!(a.len(), b.len());
        if !matches!(shape, Shape::Random { .. }) {
            prop_assert_eq!(graph_hash(&a), graph_hash(&b));
        }
    }
}
