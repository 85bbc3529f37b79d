//! Deterministic, seed-driven graph generation.
//!
//! [`WorkloadSpec::build`] lowers a [`Shape`] + grain + seed into an
//! [`rpx_simnode::TaskGraph`] — the one graph representation all three
//! backends consume (the simulator directly, the real runtime and the
//! thread-per-task baseline through the dependence-walking driver in
//! [`crate::backend`]). Generation is pure: the same `(shape, grain, seed)`
//! always produces the same graph, byte for byte, which
//! [`graph_hash`] turns into a checkable fingerprint.

use rpx_simnode::{GraphBuilder, SimTask, TaskGraph, TaskId};
use serde::Serialize;

use crate::shape::{tree_arity, Shape};

/// A fully-specified workload: shape knobs, uniform per-task grain, and
/// the seed for sampled shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct WorkloadSpec {
    /// The task-graph family and its size knobs.
    pub shape: Shape,
    /// Pure CPU time of every task body, nanoseconds (spin-calibrated on
    /// the real backends, virtual on the simulator).
    pub grain_ns: u64,
    /// Seed for the `Random` shape's edge sampling (ignored by the
    /// deterministic shapes, but part of the spec so a sweep row is fully
    /// reproducible from its CSV line).
    pub seed: u64,
}

impl WorkloadSpec {
    /// A spec with the family's default knobs.
    pub fn new(shape: Shape, grain_ns: u64, seed: u64) -> Self {
        WorkloadSpec {
            shape,
            grain_ns,
            seed,
        }
    }

    /// Generate the task graph. Deterministic in `(shape, grain_ns, seed)`.
    pub fn build(&self) -> TaskGraph {
        let g = match self.shape {
            Shape::Trivial { tasks } => trivial(tasks, self.grain_ns),
            Shape::Stencil { width, steps } => stencil(width, steps, self.grain_ns),
            Shape::Butterfly { points_log2 } => butterfly(points_log2, self.grain_ns),
            Shape::Tree { arity, depth } => tree(arity, depth, self.grain_ns),
            Shape::Random {
                width,
                layers,
                degree,
            } => random_layered(width, layers, degree, self.grain_ns, self.seed),
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }
}

/// Count the dependence edges actually present in a graph.
pub fn edge_count(graph: &TaskGraph) -> u64 {
    graph.tasks.iter().map(|t| t.enables.len() as u64).sum()
}

/// FNV-1a fingerprint of a graph's full structure (work, deps, edges,
/// thread markers) — two graphs hash equal iff the generator emitted the
/// same structure, which the seed-determinism property tests rely on.
pub fn graph_hash(graph: &TaskGraph) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(graph.tasks.len() as u64);
    h.write_u64(graph.logical_threads as u64);
    for t in &graph.tasks {
        h.write_u64(t.work_ns);
        h.write_u64(t.deps as u64);
        h.write_u64(t.enables.len() as u64);
        for &e in &t.enables {
            h.write_u64(e as u64);
        }
        h.write_u64(t.begins_thread.map_or(u64::MAX, u64::from));
        h.write_u64(t.ends_thread.map_or(u64::MAX, u64::from));
    }
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Add a task that is its own logical OS thread (thread-per-task model:
/// every spawn is a `pthread_create`).
fn add_threaded(b: &mut GraphBuilder, grain_ns: u64) -> TaskId {
    let t = b.new_thread();
    let id = b.add(SimTask::compute(grain_ns));
    b.begins_thread(id, t);
    b.ends_thread(id, t);
    id
}

fn trivial(tasks: u64, grain_ns: u64) -> TaskGraph {
    let mut b = GraphBuilder::new();
    for _ in 0..tasks {
        add_threaded(&mut b, grain_ns);
    }
    b.build()
}

fn stencil(width: u32, steps: u32, grain_ns: u64) -> TaskGraph {
    let mut b = GraphBuilder::new();
    let mut prev_row: Vec<TaskId> = Vec::with_capacity(width as usize);
    for step in 0..steps {
        let row: Vec<TaskId> = (0..width).map(|_| add_threaded(&mut b, grain_ns)).collect();
        if step > 0 {
            for (i, &cur) in row.iter().enumerate() {
                let lo = i.saturating_sub(1);
                let hi = (i + 1).min(width as usize - 1);
                for &p in &prev_row[lo..=hi] {
                    b.edge(p, cur);
                }
            }
        }
        prev_row = row;
    }
    b.build()
}

fn butterfly(points_log2: u32, grain_ns: u64) -> TaskGraph {
    let n = 1usize << points_log2;
    let mut b = GraphBuilder::new();
    let mut prev: Vec<TaskId> = (0..n).map(|_| add_threaded(&mut b, grain_ns)).collect();
    for stage in 0..points_log2 {
        let stride = 1usize << stage;
        let cur: Vec<TaskId> = (0..n).map(|_| add_threaded(&mut b, grain_ns)).collect();
        for (i, &c) in cur.iter().enumerate() {
            b.edge(prev[i], c);
            b.edge(prev[i ^ stride], c);
        }
        prev = cur;
    }
    b.build()
}

fn tree(arity: u32, depth: u32, grain_ns: u64) -> TaskGraph {
    let mut b = GraphBuilder::new();
    build_tree(&mut b, tree_arity(arity), depth, grain_ns);
    b.build()
}

/// Returns (entry, exit) of the subtree: a leaf is its own entry and exit;
/// an interior node is a fork task enabling the child entries and a join
/// task enabled by the child exits (the series-parallel form simnode's
/// fork/join generators use).
fn build_tree(b: &mut GraphBuilder, arity: u32, depth: u32, grain_ns: u64) -> (TaskId, TaskId) {
    if depth == 0 {
        let id = add_threaded(b, grain_ns);
        return (id, id);
    }
    let children: Vec<(TaskId, TaskId)> = (0..arity)
        .map(|_| build_tree(b, arity, depth - 1, grain_ns))
        .collect();
    let t = b.new_thread();
    let fork = b.add(SimTask::compute(grain_ns));
    let join = b.add(SimTask::compute(grain_ns));
    b.begins_thread(fork, t);
    b.ends_thread(join, t);
    for (entry, exit) in children {
        b.edge(fork, entry);
        b.edge(exit, join);
    }
    (fork, join)
}

fn random_layered(width: u32, layers: u32, degree: u32, grain_ns: u64, seed: u64) -> TaskGraph {
    let mut rng = SplitMix64::new(seed);
    let mut b = GraphBuilder::new();
    // Edge probability = expected in-degree / width, as a 2^-64 fraction.
    let p = if width == 0 {
        0.0
    } else {
        (degree as f64 / width as f64).min(1.0)
    };
    let threshold = (p * (u64::MAX as f64)) as u64;
    let mut prev_row: Vec<TaskId> = Vec::with_capacity(width as usize);
    for layer in 0..layers {
        let row: Vec<TaskId> = (0..width).map(|_| add_threaded(&mut b, grain_ns)).collect();
        if layer > 0 {
            for &cur in &row {
                for &prev in &prev_row {
                    if rng.next() <= threshold {
                        b.edge(prev, cur);
                    }
                }
            }
        }
        prev_row = row;
    }
    b.build()
}

/// SplitMix64 (Steele et al.): small, portable, and stable across
/// platforms — the generator's only entropy source, so graph identity is a
/// pure function of the seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(shape: Shape) -> WorkloadSpec {
        WorkloadSpec::new(shape, 1_000, 42)
    }

    #[test]
    fn every_family_matches_its_closed_forms() {
        for family in Shape::FAMILIES {
            let shape = Shape::with_defaults(family).unwrap();
            let g = spec(shape).build();
            assert_eq!(g.validate(), Ok(()), "{family}");
            assert_eq!(g.len() as u64, shape.task_count(), "{family} task count");
            if let Some(edges) = shape.edge_count() {
                assert_eq!(edge_count(&g), edges, "{family} edge count");
            }
            if shape.critical_path_is_exact() {
                assert_eq!(
                    g.critical_path_ns(),
                    shape.critical_path_tasks() * 1_000,
                    "{family} critical path"
                );
            } else {
                assert!(g.critical_path_ns() <= shape.critical_path_tasks() * 1_000);
            }
        }
    }

    #[test]
    fn stencil_neighborhood_is_exact() {
        let g = spec(Shape::Stencil { width: 4, steps: 3 }).build();
        // Row 1+: boundary cells get 2 deps, interior 3.
        assert_eq!(g.tasks[4].deps, 2);
        assert_eq!(g.tasks[5].deps, 3);
        assert_eq!(edge_count(&g), 2 * (3 * 4 - 2));
    }

    #[test]
    fn butterfly_partner_edges_are_distinct() {
        let g = spec(Shape::Butterfly { points_log2: 2 }).build();
        for t in g.tasks.iter().skip(4) {
            assert_eq!(t.deps, 2, "every non-input butterfly task has 2 deps");
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let shape = Shape::Random {
            width: 16,
            layers: 8,
            degree: 3,
        };
        let a = WorkloadSpec::new(shape, 500, 7).build();
        let b = WorkloadSpec::new(shape, 500, 7).build();
        let c = WorkloadSpec::new(shape, 500, 8).build();
        assert_eq!(graph_hash(&a), graph_hash(&b), "same seed, same graph");
        assert_ne!(graph_hash(&a), graph_hash(&c), "different seed");
        assert_eq!(a.len(), c.len(), "task count is seed-independent");
    }

    #[test]
    fn graph_hash_sees_structure() {
        let base = spec(Shape::Stencil { width: 4, steps: 3 }).build();
        let mut reweighted = base.clone();
        reweighted.tasks[0].work_ns += 1;
        assert_ne!(graph_hash(&base), graph_hash(&reweighted));
        let mut rewired = base.clone();
        rewired.tasks[0].enables.reverse();
        assert_ne!(graph_hash(&base), graph_hash(&rewired));
    }
}
