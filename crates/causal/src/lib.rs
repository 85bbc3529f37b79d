//! # rpx-causal — on-line work/span causal profiling over the task-span
//! stream
//!
//! TASKPROF-style analysis (Yoga & Nagarakatte; see PAPERS.md): the
//! runtime's [`TaskTracer`](rpx_runtime::TaskTracer) emits one [`TaskSpan`] per finished task
//! carrying its parent task id, spawn-site id, and *net* duration (gross
//! minus nested help-execution). From that stream this crate maintains the
//! logical task DAG and answers the paper's diagnostic questions:
//!
//! - **work** `W` — Σ net durations: total computation, independent of
//!   how tasks were scheduled or stolen;
//! - **span** `S` — the longest chain of net durations through the spawn
//!   forest: the run's inherent serial bottleneck;
//! - **logical parallelism** `W/S` — how many cores the *program* can use,
//!   regardless of how many the machine has;
//! - **per-spawn-site aggregation** — which source line's tasks carry the
//!   work, and which sit on the critical path;
//! - **what-if projection** — "speed up site `S` by `k`× →" a projected
//!   span and makespan via Brent's bound `max(W'/P, S')`, turning profile
//!   data into an optimization decision *before* anyone edits code.
//!
//! The DAG here is the **spawn forest**: an edge parent → child for every
//! task spawned inside another task's body. For fork/join programs where
//! parents wait on the futures of their children (every Inncabs benchmark,
//! and fib/nqueens in particular) the longest root-to-leaf chain of net
//! durations equals the classical work/span model's span; the closed-form
//! oracles in the workspace conformance tests hold the profiler to that.
//!
//! Ingestion is on-line and cheap — one insert into a task-id index keyed
//! by a one-multiply hash — so a profile can be built incrementally from a
//! live tracer ([`CausalProfiler::ingest`]) or at once from a drained ring
//! ([`CausalProfiler::from_spans`], which sizes the index once). Analysis
//! ([`CausalProfiler::analyze`]) is O(tasks) with a handful of allocations,
//! none per task: the spawn forest is one compressed-sparse-row adjacency,
//! and the chains are swept over a breadth-first order instead of
//! recursing (deep spawn chains — fib's left spine is thousands of tasks —
//! must not overflow the stack).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rpx_runtime::trace::{site_name, TaskSpan};

/// Hashes a task id with one multiply by the 64-bit golden ratio: ids are
/// runtime-issued integers, so the SipHash default's flooding resistance
/// buys nothing and costs most of an insert.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Task id → node index.
type IdIndex = HashMap<u64, usize, BuildHasherDefault<IdHasher>>;

/// One task's record in the profiler's DAG.
#[derive(Debug, Clone, Copy)]
struct Node {
    task_id: u64,
    parent: Option<u64>,
    site: u32,
    net_ns: u64,
}

/// Work/span accounting for one spawn site (one source location that
/// spawned tasks).
#[derive(Debug, Clone, PartialEq)]
pub struct SiteProfile {
    /// Spawn-site id (see [`rpx_runtime::trace::site_name`]).
    pub site: u32,
    /// `file:line:col` of the spawn call, when known.
    pub name: Option<String>,
    /// Tasks spawned from this site.
    pub tasks: u64,
    /// Σ net duration of this site's tasks (this site's share of `W`).
    pub work_ns: u64,
    /// Σ net duration of this site's tasks *on the critical path* (its
    /// share of `S`) — the quantity a what-if query scales down.
    pub span_ns: u64,
}

/// The result of analyzing the ingested span stream.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Tasks analyzed.
    pub tasks: u64,
    /// Total work `W`: Σ net durations, ns.
    pub work_ns: u64,
    /// Span `S`: longest root-to-leaf chain of net durations, ns.
    pub span_ns: u64,
    /// Task ids along the critical path, root first.
    pub critical_path: Vec<u64>,
    /// Per-site aggregation, descending by `work_ns`.
    pub sites: Vec<SiteProfile>,
}

impl Analysis {
    /// Logical parallelism `W/S` — the number of cores the program could
    /// profitably use. 0 for an empty profile.
    pub fn parallelism(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.work_ns as f64 / self.span_ns as f64
        }
    }

    /// The site profile for `site`, if any task was spawned from it.
    pub fn site(&self, site: u32) -> Option<&SiteProfile> {
        self.sites.iter().find(|s| s.site == site)
    }
}

/// Projected effect of speeding up one spawn site by a constant factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WhatIf {
    /// The site hypothetically optimized.
    pub site: u32,
    /// The speedup factor applied to that site's task bodies.
    pub factor: f64,
    /// Projected total work `W'`, ns.
    pub work_ns: f64,
    /// Projected span `S'`, ns (recomputed — the critical path may move
    /// to a different chain once this site's tasks shrink).
    pub span_ns: f64,
    /// Projected makespan on `workers` cores by Brent's bound
    /// `max(W'/P, S')`, ns.
    pub makespan_ns: f64,
    /// Baseline makespan under the same bound, for the speedup ratio.
    pub baseline_makespan_ns: f64,
}

impl WhatIf {
    /// Projected whole-program speedup: baseline makespan / new makespan.
    pub fn speedup(&self) -> f64 {
        if self.makespan_ns <= 0.0 {
            1.0
        } else {
            self.baseline_makespan_ns / self.makespan_ns
        }
    }
}

/// On-line work/span profiler over [`TaskSpan`]s.
///
/// ```
/// use rpx_causal::CausalProfiler;
/// use rpx_runtime::trace::TaskSpan;
///
/// let mut p = CausalProfiler::new();
/// for (id, parent, net) in [(1, None, 10), (2, Some(1), 30), (3, Some(1), 20)] {
///     p.ingest(&TaskSpan {
///         task_id: id, parent, site: 7, worker: 0,
///         start_ns: 0, end_ns: net, wait_ns: 0, nested_ns: 0,
///     });
/// }
/// let a = p.analyze();
/// assert_eq!(a.work_ns, 60);
/// assert_eq!(a.span_ns, 40); // root 10 + heavier child 30
/// ```
#[derive(Debug, Default)]
pub struct CausalProfiler {
    /// task id → index into `nodes` (spans can arrive in any order and,
    /// after a ring wrap, more than once — last record wins).
    index: IdIndex,
    nodes: Vec<Node>,
}

/// The spawn forest of the ingested nodes, built once per query: child
/// adjacency in compressed-sparse-row form plus a parents-first order.
struct Forest {
    /// The children of node `i` are `children[offsets[i]..offsets[i + 1]]`,
    /// in ingest order.
    offsets: Vec<usize>,
    children: Vec<usize>,
    /// Every node reachable from a root, each after its parent: the roots
    /// (in ingest order), then breadth-first.
    order: Vec<usize>,
    /// How many of `order`'s first entries are roots.
    roots: usize,
}

impl Forest {
    fn children(&self, i: usize) -> &[usize] {
        &self.children[self.offsets[i]..self.offsets[i + 1]]
    }

    fn roots(&self) -> &[usize] {
        &self.order[..self.roots]
    }
}

impl CausalProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        CausalProfiler::default()
    }

    /// Fold one finished task into the DAG.
    pub fn ingest(&mut self, span: &TaskSpan) {
        let node = Node {
            task_id: span.task_id,
            parent: span.parent,
            site: span.site,
            net_ns: span.net_ns(),
        };
        match self.index.entry(span.task_id) {
            std::collections::hash_map::Entry::Occupied(e) => self.nodes[*e.get()] = node,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.nodes.len());
                self.nodes.push(node);
            }
        }
    }

    /// Fold a batch of spans (e.g. a drained tracer ring).
    pub fn ingest_all<'a>(&mut self, spans: impl IntoIterator<Item = &'a TaskSpan>) {
        for s in spans {
            self.ingest(s);
        }
    }

    /// Profiler pre-loaded from a batch of spans (the index and node list
    /// are sized once, from the batch's length).
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a TaskSpan>) -> Self {
        let spans = spans.into_iter();
        let n = spans.size_hint().0;
        let mut p = CausalProfiler {
            index: IdIndex::with_capacity_and_hasher(n, Default::default()),
            nodes: Vec::with_capacity(n),
        };
        p.ingest_all(spans);
        p
    }

    /// Tasks ingested so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The spawn forest. A task whose parent never produced a span
    /// (spawned from outside the runtime, or evicted by a ring wrap) is a
    /// root of its own tree — the analysis degrades gracefully instead of
    /// dropping the subtree.
    fn forest(&self) -> Forest {
        let n = self.nodes.len();
        // Each node's parent index; `n` marks a root.
        let parent: Vec<usize> = self
            .nodes
            .iter()
            .map(|node| match node.parent.and_then(|p| self.index.get(&p)) {
                Some(&p) => p,
                None => n,
            })
            .collect();
        // Count children into `offsets[p]`, sum to each list's end, then
        // fill every list back to front, which leaves `offsets[p]` at its
        // start and the children in ingest order.
        let mut offsets = vec![0; n + 1];
        for &p in &parent {
            if p < n {
                offsets[p] += 1;
            }
        }
        let mut end = 0;
        for o in offsets.iter_mut() {
            end += *o;
            *o = end;
        }
        let mut children = vec![0; end];
        for (i, &p) in parent.iter().enumerate().rev() {
            if p < n {
                offsets[p] -= 1;
                children[offsets[p]] = i;
            }
        }
        let mut order = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| parent[i] == n));
        let roots = order.len();
        let mut head = 0;
        while let Some(&i) = order.get(head) {
            order.extend_from_slice(&children[offsets[i]..offsets[i + 1]]);
            head += 1;
        }
        Forest {
            offsets,
            children,
            order,
            roots,
        }
    }

    /// `down[i]` = cost(i) + max over children of `down` — the heaviest
    /// chain from each node to any leaf of its subtree — swept over the
    /// forest's order backwards, so every child is done before its parent.
    fn down_chains<T>(&self, forest: &Forest, cost: impl Fn(&Node) -> T) -> Vec<T>
    where
        T: Copy + Default + PartialOrd + std::ops::Add<Output = T>,
    {
        let mut down = vec![T::default(); self.nodes.len()];
        for &i in forest.order.iter().rev() {
            let heaviest = forest
                .children(i)
                .iter()
                .map(|&c| down[c])
                .fold(T::default(), |a, b| if b > a { b } else { a });
            down[i] = cost(&self.nodes[i]) + heaviest;
        }
        down
    }

    /// Analyze everything ingested so far: work, span, the critical path,
    /// and per-site profiles.
    pub fn analyze(&self) -> Analysis {
        self.analyze_in(&self.forest())
    }

    fn analyze_in(&self, forest: &Forest) -> Analysis {
        let down = self.down_chains(forest, |n| n.net_ns);
        let work_ns: u64 = self.nodes.iter().map(|n| n.net_ns).sum();

        let mut sites: HashMap<u32, SiteProfile> = HashMap::new();
        for n in &self.nodes {
            let e = sites.entry(n.site).or_insert_with(|| SiteProfile {
                site: n.site,
                name: site_name(n.site),
                tasks: 0,
                work_ns: 0,
                span_ns: 0,
            });
            e.tasks += 1;
            e.work_ns += n.net_ns;
        }

        // Walk the argmax chain down from the heaviest root, crediting each
        // node's net duration to its site's span share.
        let mut critical_path = Vec::new();
        let mut at = forest.roots().iter().copied().max_by_key(|&r| down[r]);
        let span_ns = at.map_or(0, |root| down[root]);
        while let Some(i) = at {
            let n = &self.nodes[i];
            critical_path.push(n.task_id);
            if let Some(e) = sites.get_mut(&n.site) {
                e.span_ns += n.net_ns;
            }
            at = forest
                .children(i)
                .iter()
                .copied()
                .max_by_key(|&c| down[c])
                .filter(|&c| down[c] > 0);
        }
        let mut sites: Vec<SiteProfile> = sites.into_values().collect();
        sites.sort_by(|a, b| b.work_ns.cmp(&a.work_ns).then(a.site.cmp(&b.site)));

        Analysis {
            tasks: self.nodes.len() as u64,
            work_ns,
            span_ns,
            critical_path,
            sites,
        }
    }

    /// Project the effect of making every task spawned from `site` run
    /// `factor`× faster, on `workers` cores: recompute work and span with
    /// that site's net durations divided by `factor` (the critical path is
    /// re-extracted — it may migrate to a chain the optimization does not
    /// touch) and bound the makespan by Brent's `max(W'/P, S')`.
    pub fn what_if(&self, site: u32, factor: f64, workers: usize) -> WhatIf {
        let forest = self.forest();
        let baseline = self.analyze_in(&forest);
        self.project(&forest, &baseline, site, factor, workers)
    }

    /// [`what_if`](Self::what_if) over a forest and baseline analysis the
    /// caller computed once.
    fn project(
        &self,
        forest: &Forest,
        baseline: &Analysis,
        site: u32,
        factor: f64,
        workers: usize,
    ) -> WhatIf {
        let factor = if factor > 0.0 { factor } else { 1.0 };
        let p = workers.max(1) as f64;
        let scaled = |n: &Node| {
            if n.site == site {
                n.net_ns as f64 / factor
            } else {
                n.net_ns as f64
            }
        };
        let down = self.down_chains(forest, scaled);
        let work_ns: f64 = self.nodes.iter().map(scaled).sum();
        let span_ns = forest.roots().iter().map(|&r| down[r]).fold(0.0, f64::max);
        WhatIf {
            site,
            factor,
            work_ns,
            span_ns,
            makespan_ns: (work_ns / p).max(span_ns),
            baseline_makespan_ns: (baseline.work_ns as f64 / p).max(baseline.span_ns as f64),
        }
    }

    /// What-if projections for every site, descending by projected
    /// speedup — "optimize this spawn site first".
    pub fn rank_what_if(&self, factor: f64, workers: usize) -> Vec<WhatIf> {
        let forest = self.forest();
        let baseline = self.analyze_in(&forest);
        self.rank(&forest, &baseline, factor, workers)
    }

    fn rank(
        &self,
        forest: &Forest,
        baseline: &Analysis,
        factor: f64,
        workers: usize,
    ) -> Vec<WhatIf> {
        let mut out: Vec<WhatIf> = baseline
            .sites
            .iter()
            .map(|s| self.project(forest, baseline, s.site, factor, workers))
            .collect();
        out.sort_by(|a, b| {
            b.speedup()
                .partial_cmp(&a.speedup())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.site.cmp(&b.site))
        });
        out
    }

    /// Human-readable profile: work/span/parallelism plus a ranked site
    /// and what-if table (factor 10×, like TASKPROF's "what if this region
    /// were 10× faster" default).
    pub fn report(&self, workers: usize) -> String {
        let forest = self.forest();
        let a = self.analyze_in(&forest);
        let mut out = format!(
            "causal profile: {} tasks, work {:.3} ms, span {:.3} ms, parallelism {:.1}\n",
            a.tasks,
            a.work_ns as f64 / 1e6,
            a.span_ns as f64 / 1e6,
            a.parallelism()
        );
        out.push_str("    site  tasks     work[ms]     span[ms]  10x-speedup  spawn site\n");
        for w in self.rank(&forest, &a, 10.0, workers) {
            let s = a.site(w.site).expect("ranked site exists in analysis");
            out.push_str(&format!(
                "{:>8} {:>6} {:>12.3} {:>12.3} {:>12.2} {}\n",
                s.site,
                s.tasks,
                s.work_ns as f64 / 1e6,
                s.span_ns as f64 / 1e6,
                w.speedup(),
                s.name.as_deref().unwrap_or("<unknown>"),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task_id: u64, parent: Option<u64>, site: u32, net: u64) -> TaskSpan {
        TaskSpan {
            task_id,
            parent,
            site,
            worker: 0,
            start_ns: 0,
            end_ns: net,
            wait_ns: 0,
            nested_ns: 0,
        }
    }

    /// Synthetic fib spawn tree: fib(n) spawns fib(n-1) and fib(n-2),
    /// every task with unit net duration. Returns (spans, task count).
    fn fib_tree(n: u64) -> Vec<TaskSpan> {
        let mut spans = Vec::new();
        let mut next_id = 1u64;
        let mut stack = vec![(n, None::<u64>)];
        while let Some((k, parent)) = stack.pop() {
            let id = next_id;
            next_id += 1;
            spans.push(span(id, parent, 1, 1));
            if k >= 2 {
                stack.push((k - 1, Some(id)));
                stack.push((k - 2, Some(id)));
            }
        }
        spans
    }

    /// Number of tasks in the fib spawn tree: T(n) = T(n-1) + T(n-2) + 1,
    /// closed form 2·fib(n+1) − 1 (counting the root).
    fn fib_tasks(n: u64) -> u64 {
        fn f(n: u64) -> u64 {
            (0..n).fold((0, 1), |(a, b), _| (b, a + b)).0
        }
        2 * f(n + 1) - 1
    }

    #[test]
    fn fib_tree_matches_closed_forms() {
        let n = 12;
        let p = CausalProfiler::from_spans(&fib_tree(n));
        let a = p.analyze();
        // Work = one unit per task; tasks = 2·fib(n+1) − 1.
        assert_eq!(a.tasks, fib_tasks(n));
        assert_eq!(a.work_ns, fib_tasks(n));
        // Span = the deepest spawn chain fib(n) → fib(n−1) → … → fib(1):
        // the arguments n, n−1, …, 1 — n nodes of unit cost each.
        assert_eq!(a.span_ns, n);
        assert_eq!(a.critical_path.len() as u64, n);
        assert!((a.parallelism() - a.work_ns as f64 / n as f64).abs() < 1e-9);
    }

    #[test]
    fn chain_is_fully_serial() {
        let spans: Vec<TaskSpan> = (0..100)
            .map(|i| span(i + 1, (i > 0).then_some(i), 3, 5))
            .collect();
        let a = CausalProfiler::from_spans(&spans).analyze();
        assert_eq!(a.work_ns, 500);
        assert_eq!(a.span_ns, 500, "a chain's span equals its work");
        assert!((a.parallelism() - 1.0).abs() < 1e-9);
        assert_eq!(a.critical_path.len(), 100);
    }

    #[test]
    fn critical_path_takes_the_heavier_branch() {
        let spans = vec![
            span(1, None, 1, 10),
            span(2, Some(1), 2, 100), // heavy branch
            span(3, Some(1), 3, 20),
            span(4, Some(3), 3, 30), // light chain sums to 50 < 100
        ];
        let a = CausalProfiler::from_spans(&spans).analyze();
        assert_eq!(a.span_ns, 110);
        assert_eq!(a.critical_path, vec![1, 2]);
        let heavy = a.site(2).unwrap();
        assert_eq!(heavy.span_ns, 100);
        assert_eq!(
            a.site(3).unwrap().span_ns,
            0,
            "off-path site has no span share"
        );
    }

    #[test]
    fn what_if_scales_span_exactly_on_uniform_site() {
        // Every task from one site: speeding the site k× must scale both
        // work and span by exactly 1/k.
        let p = CausalProfiler::from_spans(&fib_tree(10));
        let a = p.analyze();
        let w = p.what_if(1, 4.0, 8);
        assert!((w.work_ns - a.work_ns as f64 / 4.0).abs() < 1e-6);
        assert!((w.span_ns - a.span_ns as f64 / 4.0).abs() < 1e-6);
        assert!(w.speedup() > 1.0);
    }

    #[test]
    fn what_if_critical_path_migrates() {
        // Two parallel chains under one root: optimizing the heavy chain's
        // site leaves the other chain as the new span floor.
        let spans = vec![
            span(1, None, 1, 0),
            span(2, Some(1), 2, 1000), // heavy chain, site 2
            span(3, Some(2), 2, 1000),
            span(4, Some(1), 3, 600), // light chain, site 3
            span(5, Some(4), 3, 600),
        ];
        let p = CausalProfiler::from_spans(&spans);
        assert_eq!(p.analyze().span_ns, 2000);
        let w = p.what_if(2, 100.0, 64);
        // Site 2 shrinks to 20ns; the span re-roots on site 3's chain.
        assert!((w.span_ns - 1200.0).abs() < 1e-6, "span {}", w.span_ns);
    }

    #[test]
    fn orphan_spans_become_roots() {
        // Parent 99 never produced a span (ring wrap): children still
        // analyzed, as roots.
        let spans = vec![span(1, Some(99), 1, 40), span(2, Some(1), 1, 10)];
        let a = CausalProfiler::from_spans(&spans).analyze();
        assert_eq!(a.tasks, 2);
        assert_eq!(a.work_ns, 50);
        assert_eq!(a.span_ns, 50);
    }

    #[test]
    fn duplicate_task_ids_last_record_wins() {
        let mut p = CausalProfiler::new();
        p.ingest(&span(1, None, 1, 10));
        p.ingest(&span(1, None, 2, 30));
        let a = p.analyze();
        assert_eq!(a.tasks, 1);
        assert_eq!(a.work_ns, 30);
        assert_eq!(a.site(2).unwrap().tasks, 1);
        assert!(a.site(1).is_none());
    }

    #[test]
    fn empty_profile_is_sane() {
        let a = CausalProfiler::new().analyze();
        assert_eq!(a.tasks, 0);
        assert_eq!(a.span_ns, 0);
        assert_eq!(a.parallelism(), 0.0);
        assert!(a.critical_path.is_empty());
    }

    #[test]
    fn rank_orders_by_projected_speedup() {
        // Site 2 dominates both work and span; optimizing it must rank
        // first.
        let spans = vec![
            span(1, None, 1, 10),
            span(2, Some(1), 2, 10_000),
            span(3, Some(1), 3, 50),
        ];
        let p = CausalProfiler::from_spans(&spans);
        let ranked = p.rank_what_if(10.0, 4);
        assert_eq!(ranked[0].site, 2);
        assert!(ranked[0].speedup() > ranked[1].speedup());
    }

    #[test]
    fn report_mentions_key_figures() {
        let p = CausalProfiler::from_spans(&fib_tree(8));
        let text = p.report(4);
        assert!(text.contains("tasks"));
        assert!(text.contains("parallelism"));
        assert!(text.lines().count() >= 3);
    }

    #[test]
    fn deep_chain_does_not_overflow_the_stack() {
        // 200k-deep spawn chain: the iterative walks must survive where
        // recursion would abort.
        let spans: Vec<TaskSpan> = (0..200_000)
            .map(|i| span(i + 1, (i > 0).then_some(i), 1, 1))
            .collect();
        let p = CausalProfiler::from_spans(&spans);
        assert_eq!(p.analyze().span_ns, 200_000);
        let w = p.what_if(1, 2.0, 4);
        assert!((w.span_ns - 100_000.0).abs() < 1e-3);
    }
}
