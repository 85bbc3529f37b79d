//! Workload shapes and their closed-form oracles.
//!
//! Every shape is a family of task DAGs parameterized over the knobs of
//! ROADMAP item 2 — task count, dependence width, and iterations/timesteps
//! — with *exact* closed forms for task count, edge count, and critical-path
//! length (in tasks). The oracle conformance tests check the generated
//! graphs and the measured runs against these formulas, so an METG curve is
//! backed by exact-count evidence rather than an eyeballed plot.

use serde::Serialize;

/// A parameterized task-graph family.
///
/// The `Random` shape has no closed-form edge count (edges are sampled);
/// its oracle is conservation (Σ spawned == Σ completed == `task_count`)
/// plus seed-determinism of the full structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Shape {
    /// `tasks` independent tasks — the embarrassingly-parallel floor every
    /// scheduler should handle at its smallest grain.
    Trivial {
        /// Number of independent tasks.
        tasks: u64,
    },
    /// A 1-D three-point stencil: `width` cells × `steps` timesteps; cell
    /// `(t, i)` depends on `(t-1, i-1..=i+1)` clipped to the row.
    Stencil {
        /// Cells per timestep (the dependence width).
        width: u32,
        /// Timesteps (iterations).
        steps: u32,
    },
    /// An FFT butterfly over `1 << points_log2` points: `points_log2`
    /// exchange stages after the input layer, task `(s, i)` depending on
    /// `(s-1, i)` and `(s-1, i ^ 2^(s-1))`.
    Butterfly {
        /// log2 of the number of points.
        points_log2: u32,
    },
    /// A k-ary fork/join divide-and-conquer tree of the given depth:
    /// interior nodes split into a fork task and a join task (the shape of
    /// the Inncabs fib/sort family).
    Tree {
        /// Children per interior node (2 = binary; 0 builds as 1, the
        /// chain).
        arity: u32,
        /// Levels of interior nodes above the leaves.
        depth: u32,
    },
    /// A seeded layered Erdős–Rényi DAG: `layers` × `width` tasks, each
    /// edge from layer `l-1` to layer `l` present independently with
    /// probability `degree / width` (so `degree` is the expected in-degree).
    Random {
        /// Tasks per layer (the dependence width).
        width: u32,
        /// Layers (iterations).
        layers: u32,
        /// Expected in-degree of each non-root task.
        degree: u32,
    },
}

impl Shape {
    /// Exact number of tasks in the generated graph.
    pub fn task_count(&self) -> u64 {
        match *self {
            Shape::Trivial { tasks } => tasks,
            Shape::Stencil { width, steps } => width as u64 * steps as u64,
            Shape::Butterfly { points_log2 } => (1u64 << points_log2) * (points_log2 as u64 + 1),
            Shape::Tree { arity, depth } => {
                let arity = tree_arity(arity);
                2 * tree_interior(arity, depth) + pow_u64(arity, depth)
            }
            Shape::Random { width, layers, .. } => width as u64 * layers as u64,
        }
    }

    /// Exact number of dependence edges, where the shape has a closed form
    /// (`None` for `Random`, whose edges are sampled).
    pub fn edge_count(&self) -> Option<u64> {
        Some(match *self {
            Shape::Trivial { .. } => 0,
            Shape::Stencil { width, steps } => {
                let per_row = if width == 1 { 1 } else { 3 * width as u64 - 2 };
                (steps as u64).saturating_sub(1) * per_row
            }
            Shape::Butterfly { points_log2 } => 2 * (1u64 << points_log2) * points_log2 as u64,
            Shape::Tree { arity, depth } => {
                let arity = tree_arity(arity);
                2 * arity as u64 * tree_interior(arity, depth)
            }
            Shape::Random { .. } => return None,
        })
    }

    /// Exact critical-path length in *tasks* (multiply by the uniform grain
    /// for the ns closed form). For `Random` this is an upper bound: the
    /// longest possible chain visits one task per layer.
    pub fn critical_path_tasks(&self) -> u64 {
        match *self {
            Shape::Trivial { tasks } => u64::from(tasks > 0),
            Shape::Stencil { width, steps } => u64::from(width > 0) * steps as u64,
            Shape::Butterfly { points_log2 } => points_log2 as u64 + 1,
            Shape::Tree { depth, .. } => 2 * depth as u64 + 1,
            Shape::Random { width, layers, .. } => u64::from(width > 0) * layers as u64,
        }
    }

    /// Whether [`critical_path_tasks`](Self::critical_path_tasks) is exact
    /// (closed form) rather than an upper bound.
    pub fn critical_path_is_exact(&self) -> bool {
        !matches!(self, Shape::Random { .. })
    }

    /// The shape's family name (CSV/JSON key).
    pub fn name(&self) -> &'static str {
        match self {
            Shape::Trivial { .. } => "trivial",
            Shape::Stencil { .. } => "stencil",
            Shape::Butterfly { .. } => "butterfly",
            Shape::Tree { .. } => "tree",
            Shape::Random { .. } => "random",
        }
    }

    /// Default knob values per family: about a thousand tasks each, so a
    /// simulated METG ladder over all five stays under a second on a debug
    /// build.
    pub fn with_defaults(family: &str) -> Option<Shape> {
        Some(match family {
            "trivial" => Shape::Trivial { tasks: 1024 },
            "stencil" => Shape::Stencil {
                width: 64,
                steps: 16,
            },
            "butterfly" | "fft" => Shape::Butterfly { points_log2: 7 },
            "tree" => Shape::Tree { arity: 2, depth: 8 },
            "random" => Shape::Random {
                width: 64,
                layers: 16,
                degree: 3,
            },
            _ => return None,
        })
    }

    /// All shape family names, in the order the METG artefact lists them.
    pub const FAMILIES: [&'static str; 5] = ["trivial", "stencil", "butterfly", "tree", "random"];

    /// Render the knobs compactly (`stencil[width=64,steps=16]`).
    pub fn describe(&self) -> String {
        match *self {
            Shape::Trivial { tasks } => format!("trivial[tasks={tasks}]"),
            Shape::Stencil { width, steps } => format!("stencil[width={width},steps={steps}]"),
            Shape::Butterfly { points_log2 } => {
                format!("butterfly[points=2^{points_log2}]")
            }
            Shape::Tree { arity, depth } => format!("tree[arity={arity},depth={depth}]"),
            Shape::Random {
                width,
                layers,
                degree,
            } => format!("random[width={width},layers={layers},degree={degree}]"),
        }
    }
}

/// The arity a `Tree` is built with: 0 children would leave the fork and
/// join of every interior node unconnected, so it builds as the chain.
pub(crate) fn tree_arity(arity: u32) -> u32 {
    arity.max(1)
}

/// Interior-node count of a depth-`d` `k`-ary tree: `(k^d - 1)/(k - 1)`,
/// or `d` when `k == 1` (the degenerate chain).
fn tree_interior(arity: u32, depth: u32) -> u64 {
    if arity <= 1 {
        depth as u64
    } else {
        (pow_u64(arity, depth) - 1) / (arity as u64 - 1)
    }
}

fn pow_u64(base: u32, exp: u32) -> u64 {
    (base as u64).pow(exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_closed_forms() {
        let s = Shape::Trivial { tasks: 10 };
        assert_eq!(s.task_count(), 10);
        assert_eq!(s.edge_count(), Some(0));
        assert_eq!(s.critical_path_tasks(), 1);
    }

    #[test]
    fn stencil_closed_forms() {
        let s = Shape::Stencil { width: 5, steps: 4 };
        assert_eq!(s.task_count(), 20);
        // Each of the 3 non-root rows: interior cells have 3 deps, the two
        // boundary cells 2 → 3·5−2 = 13 edges per row.
        assert_eq!(s.edge_count(), Some(3 * 13));
        assert_eq!(s.critical_path_tasks(), 4);
        // Width-1 stencil degenerates to a chain.
        let chain = Shape::Stencil { width: 1, steps: 7 };
        assert_eq!(chain.edge_count(), Some(6));
        assert_eq!(chain.critical_path_tasks(), 7);
    }

    #[test]
    fn butterfly_closed_forms() {
        let s = Shape::Butterfly { points_log2: 3 };
        // 8 points × (3 stages + input layer) = 32 tasks, 2 in-edges each
        // beyond the input layer = 48 edges.
        assert_eq!(s.task_count(), 32);
        assert_eq!(s.edge_count(), Some(48));
        assert_eq!(s.critical_path_tasks(), 4);
        let one = Shape::Butterfly { points_log2: 0 };
        assert_eq!(one.task_count(), 1);
        assert_eq!(one.edge_count(), Some(0));
    }

    #[test]
    fn tree_closed_forms_match_simnode_binary_tree() {
        // simnode's binary_tree(3) has 22 tasks and a 7-task critical path.
        let s = Shape::Tree { arity: 2, depth: 3 };
        assert_eq!(s.task_count(), 22);
        assert_eq!(s.edge_count(), Some(2 * 2 * 7));
        assert_eq!(s.critical_path_tasks(), 7);
        // Unary tree = chain of 2d+1 tasks.
        let chain = Shape::Tree { arity: 1, depth: 4 };
        assert_eq!(chain.task_count(), 9);
        assert_eq!(chain.edge_count(), Some(8));
        assert_eq!(chain.critical_path_tasks(), 9);
        // Arity 0 builds as arity 1.
        let zero = Shape::Tree { arity: 0, depth: 3 };
        assert_eq!(zero.task_count(), 7);
        assert_eq!(zero.edge_count(), Some(6));
        assert_eq!(zero.critical_path_tasks(), 7);
    }

    #[test]
    fn random_counts_are_exact_edges_are_not() {
        let s = Shape::Random {
            width: 8,
            layers: 5,
            degree: 2,
        };
        assert_eq!(s.task_count(), 40);
        assert_eq!(s.edge_count(), None);
        assert!(!s.critical_path_is_exact());
        assert_eq!(s.critical_path_tasks(), 5);
    }

    #[test]
    fn family_defaults_round_trip() {
        for f in Shape::FAMILIES {
            let s = Shape::with_defaults(f).unwrap();
            assert_eq!(s.name(), if f == "fft" { "butterfly" } else { f });
            assert!(s.task_count() > 0);
        }
        assert!(Shape::with_defaults("nope").is_none());
    }
}
