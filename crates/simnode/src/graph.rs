//! Task graphs: the workload representation the simulator executes.
//!
//! A benchmark run is a DAG of [`SimTask`]s. Fork/join programs are
//! represented in series-parallel form: a logical task that spawns children
//! and joins them becomes a *fork node* (the work before the spawns) whose
//! completion enables the children, and a *join node* (the work after the
//! join) that depends on all children. The generator marks which node
//! begins and which ends each *logical OS thread*, so the thread-per-task
//! resource model can track live threads.

use serde::Serialize;

/// Index of a task within its [`TaskGraph`].
pub type TaskId = u32;

/// One node of the workload DAG.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimTask {
    /// Pure CPU time of the task body, nanoseconds.
    pub work_ns: u64,
    /// Bytes read from memory by the task body.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Reuse working-set size (drives the cache-miss model).
    pub working_set: u64,
    /// Tasks that become one dependency closer to ready when this finishes.
    pub enables: Vec<TaskId>,
    /// Number of tasks that must finish before this one is ready.
    pub deps: u32,
    /// Logical OS thread that comes alive when this task is *enqueued*
    /// (thread-per-task model: `pthread_create` happens at spawn).
    pub begins_thread: Option<u32>,
    /// Logical OS thread that terminates when this task completes.
    pub ends_thread: Option<u32>,
}

impl SimTask {
    /// A compute-only task of `work_ns`.
    pub fn compute(work_ns: u64) -> Self {
        SimTask {
            work_ns,
            ..SimTask::default()
        }
    }

    /// Attach a memory footprint.
    pub fn with_memory(mut self, read: u64, written: u64, working_set: u64) -> Self {
        self.bytes_read = read;
        self.bytes_written = written;
        self.working_set = working_set;
        self
    }

    /// Total bytes of potential memory traffic.
    pub fn traffic_bytes(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }
}

/// A complete workload DAG.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TaskGraph {
    /// All tasks; `deps` and `enables` index into this vector.
    pub tasks: Vec<SimTask>,
    /// Number of logical OS threads the graph represents (for the
    /// thread-per-task model). Maintained by [`GraphBuilder`].
    pub logical_threads: u32,
}

impl TaskGraph {
    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Ids of tasks with no dependencies (the initially-ready set).
    pub fn roots(&self) -> Vec<TaskId> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.deps == 0)
            .map(|(i, _)| i as TaskId)
            .collect()
    }

    /// Total CPU work over all tasks, ns (the T₁ of the ideal-scaling lines
    /// in Figures 8–12).
    pub fn total_work_ns(&self) -> u64 {
        self.tasks.iter().map(|t| t.work_ns).sum()
    }

    /// Total potential memory traffic, bytes.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.tasks.iter().map(|t| t.traffic_bytes()).sum()
    }

    /// Length of the critical path (sum of `work_ns` along the longest
    /// dependency chain): the T∞ lower bound on makespan.
    pub fn critical_path_ns(&self) -> u64 {
        // Longest path over the DAG in topological order (Kahn).
        let n = self.tasks.len();
        let mut indeg: Vec<u32> = self.tasks.iter().map(|t| t.deps).collect();
        let mut dist: Vec<u64> = self.tasks.iter().map(|t| t.work_ns).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut best = 0;
        while let Some(i) = queue.pop() {
            best = best.max(dist[i]);
            for &c in &self.tasks[i].enables {
                let c = c as usize;
                dist[c] = dist[c].max(dist[i] + self.tasks[c].work_ns);
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        best
    }

    /// Validate structural invariants: edge targets in range, dependency
    /// counts consistent with incoming edges, and acyclicity (every task
    /// reachable by Kahn's algorithm).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.tasks.len();
        let mut incoming = vec![0u32; n];
        for (i, t) in self.tasks.iter().enumerate() {
            for &c in &t.enables {
                let c = c as usize;
                if c >= n {
                    return Err(format!("task {i} enables out-of-range task {c}"));
                }
                incoming[c] += 1;
            }
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.deps != incoming[i] {
                return Err(format!(
                    "task {i}: deps={} but {} incoming edges",
                    t.deps, incoming[i]
                ));
            }
        }
        // Kahn: all tasks must drain, otherwise there is a cycle.
        let mut indeg = incoming;
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &c in &self.tasks[i].enables {
                let c = c as usize;
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push(c);
                }
            }
        }
        if seen != n {
            return Err(format!("graph has a cycle: only {seen} of {n} tasks drain"));
        }
        Ok(())
    }
}

/// Incremental builder used by the benchmark generators.
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: TaskGraph,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Add a task, returning its id.
    pub fn add(&mut self, task: SimTask) -> TaskId {
        let id = self.graph.tasks.len() as TaskId;
        self.graph.tasks.push(task);
        id
    }

    /// Add a dependency edge `from → to` (maintains both sides).
    pub fn edge(&mut self, from: TaskId, to: TaskId) {
        self.graph.tasks[from as usize].enables.push(to);
        self.graph.tasks[to as usize].deps += 1;
    }

    /// Allocate a fresh logical-thread id.
    pub fn new_thread(&mut self) -> u32 {
        let t = self.graph.logical_threads;
        self.graph.logical_threads += 1;
        t
    }

    /// Mark `task` as the node whose enqueue creates logical thread `t`.
    pub fn begins_thread(&mut self, task: TaskId, t: u32) {
        self.graph.tasks[task as usize].begins_thread = Some(t);
    }

    /// Mark `task` as the node whose completion ends logical thread `t`.
    pub fn ends_thread(&mut self, task: TaskId, t: u32) {
        self.graph.tasks[task as usize].ends_thread = Some(t);
    }

    /// A fork/join convenience: one logical task of `fork` work that spawns
    /// `children` (already added), then joins them into a node of `join`
    /// work. Returns (fork id, join id); the logical thread spans both.
    pub fn fork_join(
        &mut self,
        fork: SimTask,
        children: &[TaskId],
        join: SimTask,
    ) -> (TaskId, TaskId) {
        let t = self.new_thread();
        let f = self.add(fork);
        let j = self.add(join);
        self.begins_thread(f, t);
        self.ends_thread(j, t);
        for &c in children {
            self.edge(f, c);
            self.edge(c, j);
        }
        (f, j)
    }

    /// Mutable access to a task (for generators refining costs).
    pub fn task_mut(&mut self, id: TaskId) -> &mut SimTask {
        &mut self.graph.tasks[id as usize]
    }

    /// Finish, validating the graph.
    pub fn build(self) -> TaskGraph {
        debug_assert_eq!(self.graph.validate(), Ok(()));
        self.graph
    }
}

/// Generic generators used by tests and micro-benchmarks.
pub mod generators {
    use super::*;

    /// `n` independent tasks of equal `work_ns` (a parallel loop).
    pub fn uniform(n: usize, work_ns: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        for _ in 0..n {
            let t = b.new_thread();
            let id = b.add(SimTask::compute(work_ns));
            b.begins_thread(id, t);
            b.ends_thread(id, t);
        }
        b.build()
    }

    /// A balanced binary fork/join tree of the given `depth`; leaves carry
    /// `leaf_ns`, interior fork/join nodes `node_ns` each.
    pub fn binary_tree(depth: u32, leaf_ns: u64, node_ns: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        build_tree(&mut b, depth, leaf_ns, node_ns);
        b.build()
    }

    fn build_tree(
        b: &mut GraphBuilder,
        depth: u32,
        leaf_ns: u64,
        node_ns: u64,
    ) -> (TaskId, TaskId) {
        if depth == 0 {
            let t = b.new_thread();
            let id = b.add(SimTask::compute(leaf_ns));
            b.begins_thread(id, t);
            b.ends_thread(id, t);
            return (id, id);
        }
        let (lf, lj) = build_tree(b, depth - 1, leaf_ns, node_ns);
        let (rf, rj) = build_tree(b, depth - 1, leaf_ns, node_ns);
        let t = b.new_thread();
        let f = b.add(SimTask::compute(node_ns));
        let j = b.add(SimTask::compute(node_ns));
        b.begins_thread(f, t);
        b.ends_thread(j, t);
        b.edge(f, lf);
        b.edge(f, rf);
        b.edge(lj, j);
        b.edge(rj, j);
        (f, j)
    }

    /// A strictly sequential chain of `n` tasks (zero parallelism).
    pub fn chain(n: usize, work_ns: u64) -> TaskGraph {
        let mut b = GraphBuilder::new();
        let mut prev: Option<TaskId> = None;
        for _ in 0..n {
            let t = b.new_thread();
            let id = b.add(SimTask::compute(work_ns));
            b.begins_thread(id, t);
            b.ends_thread(id, t);
            if let Some(p) = prev {
                b.edge(p, id);
            }
            prev = Some(id);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::generators::*;
    use super::*;

    #[test]
    fn uniform_graph_shape() {
        let g = uniform(10, 100);
        assert_eq!(g.len(), 10);
        assert_eq!(g.roots().len(), 10);
        assert_eq!(g.total_work_ns(), 1000);
        assert_eq!(g.critical_path_ns(), 100);
        assert!(g.validate().is_ok());
        assert_eq!(g.logical_threads, 10);
    }

    #[test]
    fn chain_critical_path_is_total() {
        let g = chain(5, 10);
        assert_eq!(g.total_work_ns(), 50);
        assert_eq!(g.critical_path_ns(), 50);
        assert_eq!(g.roots(), vec![0]);
    }

    #[test]
    fn binary_tree_counts() {
        let g = binary_tree(3, 100, 10);
        // 8 leaves + 7 interior pairs = 8 + 14 = 22 tasks.
        assert_eq!(g.len(), 22);
        assert_eq!(g.total_work_ns(), 8 * 100 + 14 * 10);
        assert!(g.validate().is_ok());
        // Logical threads: 8 leaves + 7 interior = 15.
        assert_eq!(g.logical_threads, 15);
        // Critical path: fork chain (3) + leaf + join chain (3) = 100 + 60.
        assert_eq!(g.critical_path_ns(), 160);
        // Exactly one root (the top fork node).
        assert_eq!(g.roots().len(), 1);
    }

    #[test]
    fn validate_rejects_bad_deps() {
        let mut g = uniform(2, 1);
        g.tasks[0].deps = 5;
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_out_of_range_edge() {
        let mut g = uniform(2, 1);
        g.tasks[0].enables.push(99);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut b = GraphBuilder::new();
        let a = b.add(SimTask::compute(1));
        let c = b.add(SimTask::compute(1));
        b.edge(a, c);
        let mut g = b.graph;
        // Close the cycle by hand.
        g.tasks[c as usize].enables.push(a);
        g.tasks[a as usize].deps += 1;
        assert!(g.validate().is_err());
    }

    #[test]
    fn fork_join_builder_marks_threads() {
        let mut b = GraphBuilder::new();
        let c1 = b.add(SimTask::compute(50));
        let c2 = b.add(SimTask::compute(50));
        let (f, j) = b.fork_join(SimTask::compute(10), &[c1, c2], SimTask::compute(5));
        let g = b.build();
        assert!(g.validate().is_ok());
        assert_eq!(g.tasks[f as usize].begins_thread, Some(0));
        assert_eq!(g.tasks[j as usize].ends_thread, Some(0));
        assert_eq!(g.roots(), vec![f]);
        assert_eq!(g.critical_path_ns(), 10 + 50 + 5);
    }

    #[test]
    fn memory_footprint_carried() {
        let t = SimTask::compute(10).with_memory(100, 50, 200);
        assert_eq!(t.traffic_bytes(), 150);
        assert_eq!(t.working_set, 200);
    }
}
