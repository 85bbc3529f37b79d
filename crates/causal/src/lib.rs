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
//! Ingestion is on-line and cheap — two probes of a flat open-addressed
//! task-id table (the task's parent, then the task) and one push onto each
//! of four node arrays, the parent stored as a resolved `u32` node index —
//! so a profile can be built incrementally from a live tracer
//! ([`CausalProfiler::ingest`]) or at once from a drained ring
//! ([`CausalProfiler::from_spans`], which sizes the table and the arrays
//! once). Analysis ([`CausalProfiler::analyze`]) is O(tasks) with a handful
//! of allocations, none per task. When every parent arrived before its
//! children, as in a start-sorted ring copy, the spawn forest is those
//! parent indices in ingest order and costs nothing to build; parents that
//! arrived late are looked up once more and order the forest
//! breadth-first. One backward sweep of that order pushes each chain into
//! its parent instead of recursing (deep spawn chains — fib's left spine
//! is thousands of tasks — must not overflow the stack); the per-site
//! table is filled a run of equal sites at a time, since neighbouring
//! tasks mostly share a site.

use std::borrow::Cow;

use rpx_runtime::trace::{site_name, TaskSpan};

#[cfg(test)]
mod reference;

/// A map from `u64` keys to indices into an array that holds the keys
/// (node ids, profile sites): one `u32` per slot, the index + 1, 0 marking
/// a vacant slot; linear probing from a one-multiply hash (keys are
/// runtime-issued integers, so flooding resistance buys nothing), at most
/// half full. A probe compares a key through `key_of(index)`, so the table
/// is 4 bytes a slot — a 65 536-task profile's stays in L2. It grows by
/// doubling; a table built for a known count is sized once.
#[derive(Debug, Default)]
struct FlatIndex {
    slots: Vec<u32>,
    len: usize,
}

impl FlatIndex {
    /// A table that takes `n` keys without growing.
    fn with_capacity(n: usize) -> Self {
        FlatIndex {
            slots: vec![0; (2 * n).next_power_of_two().max(8)],
            len: 0,
        }
    }

    /// `key`'s index (`Ok`), or the vacant slot it would take (`Err`).
    fn find(&self, key: u64, key_of: impl Fn(usize) -> u64) -> Result<usize, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let bits = self.slots.len().trailing_zeros();
        let mut at = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (u64::BITS - bits)) as usize;
        loop {
            match self.slots[at] {
                0 => return Err(at),
                v if key_of(v as usize - 1) == key => return Ok(v as usize - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Store `index` in the vacant `slot` that [`find`](Self::find) gave,
    /// after [`reserve_one`](Self::reserve_one).
    fn insert(&mut self, slot: usize, index: usize) {
        self.slots[slot] = u32::try_from(index + 1).expect("fewer than 2^32 − 1 keys");
        self.len += 1;
    }

    /// Make room for one more key, rehashing into twice the slots when the
    /// table would pass half full.
    fn reserve_one(&mut self, key_of: impl Fn(usize) -> u64) {
        if 2 * (self.len + 1) <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(self, FlatIndex::with_capacity(self.len + 1));
        for v in old.slots.into_iter().filter(|&v| v != 0) {
            let i = v as usize - 1;
            if let Err(slot) = self.find(key_of(i), &key_of) {
                self.insert(slot, i);
            }
        }
    }
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
    /// task id → node index (spans can arrive in any order and, after a
    /// ring wrap, more than once — last record wins, at the first record's
    /// index).
    index: FlatIndex,
    /// The nodes, one array per field, indexed by first arrival.
    ids: Vec<u64>,
    /// Each node's parent as a node index, resolved when its span arrived:
    /// [`ROOT`] when the span named none, [`LATE`] when the parent had not
    /// arrived yet (`late` keeps its id).
    parents: Vec<u32>,
    sites: Vec<u32>,
    nets: Vec<u64>,
    /// `(node, parent id)` of every span whose parent had not arrived, in
    /// ingest order: [`forest`](Self::forest) looks them up again.
    late: Vec<(u32, u64)>,
    /// Whether a repeated span gave its node a parent that arrived after
    /// it, so ingest order is not parents first.
    reparented: bool,
}

/// A node's parent index when it has none.
const ROOT: u32 = u32::MAX;

/// A node's parent index while its parent's span has not arrived: a root
/// unless [`CausalProfiler::forest`] finds the parent.
const LATE: u32 = u32::MAX - 1;

/// The spawn forest of the ingested nodes, built once per query: each
/// node's parent and a parents-first order.
struct Forest<'a> {
    /// Each node's parent index; any index past the last node marks a
    /// root. The profiler's own array unless a late parent arrived.
    parent: Cow<'a, [u32]>,
    /// Every node reachable from a root, each after its parent, and
    /// siblings in ingest order: `None` for ingest order itself, which
    /// holds when every parent arrived before its children (a start-sorted
    /// ring copy does: a task starts after its parent), else the roots,
    /// then breadth-first.
    order: Option<Vec<u32>>,
}

impl Forest<'_> {
    /// The roots, in ingest order.
    fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.parent.len() as u32;
        (0..self.parent.len()).filter(move |&i| self.parent[i] >= n)
    }
}

/// The nodes reachable from a root, parents first: the roots in ingest
/// order, then breadth-first, each node's children in ingest order (found
/// through one compressed-sparse-row adjacency).
fn breadth_first(parent: &[u32]) -> Vec<u32> {
    let n = parent.len() as u32;
    // Count children into `offsets[p]`, sum to each list's end, then fill
    // every list back to front, which leaves `offsets[p]` at its start and
    // the children in ingest order.
    let mut offsets = vec![0u32; n as usize + 1];
    for &p in parent {
        if p < n {
            offsets[p as usize] += 1;
        }
    }
    let mut end = 0;
    for o in offsets.iter_mut() {
        end += *o;
        *o = end;
    }
    let mut children = vec![0u32; end as usize];
    for (i, &p) in parent.iter().enumerate().rev() {
        if p < n {
            offsets[p as usize] -= 1;
            children[offsets[p as usize] as usize] = i as u32;
        }
    }
    let mut order = Vec::with_capacity(n as usize);
    order.extend((0..n).filter(|&i| parent[i as usize] >= n));
    let mut head = 0;
    while let Some(&i) = order.get(head) {
        let i = i as usize;
        order.extend_from_slice(&children[offsets[i] as usize..offsets[i + 1] as usize]);
        head += 1;
    }
    order
}

/// The sweep of [`CausalProfiler::down_chains`] over `order`: each node
/// adds its own cost to the heaviest chain of its children and offers the
/// sum to its parent's.
fn sweep<T>(
    order: impl Iterator<Item = usize>,
    parent: &[u32],
    cost: impl Fn(usize) -> T,
    (down, next): (&mut [T], &mut [u32]),
) where
    T: Copy + PartialOrd + std::ops::Add<Output = T>,
{
    let n = down.len();
    for i in order {
        let chain = cost(i) + down[i];
        down[i] = chain;
        let p = parent[i] as usize;
        if p < n && chain > down[p] {
            down[p] = chain;
            next[p] = i as u32;
        }
    }
}

/// The per-site profiles of one analysis in first-seen order, found
/// through a [`FlatIndex`] keyed by site id.
#[derive(Default)]
struct SiteTable {
    profiles: Vec<SiteProfile>,
    index: FlatIndex,
}

impl SiteTable {
    fn get(&mut self, site: u32) -> &mut SiteProfile {
        let profiles = &mut self.profiles;
        self.index.reserve_one(|i| profiles[i].site as u64);
        let at = match self.index.find(site as u64, |i| profiles[i].site as u64) {
            Ok(at) => at,
            Err(slot) => {
                self.index.insert(slot, profiles.len());
                profiles.push(SiteProfile {
                    site,
                    name: site_name(site),
                    tasks: 0,
                    work_ns: 0,
                    span_ns: 0,
                });
                profiles.len() - 1
            }
        };
        &mut self.profiles[at]
    }
}

impl CausalProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        CausalProfiler::default()
    }

    /// Fold one finished task into the DAG: its parent is looked up now,
    /// before the task itself is added.
    pub fn ingest(&mut self, span: &TaskSpan) {
        let ids = &self.ids;
        self.index.reserve_one(|i| ids[i]);
        let parent = span.parent.map_or(ROOT, |p| {
            self.index.find(p, |i| ids[i]).map_or(LATE, |i| i as u32)
        });
        let node = match self.index.find(span.task_id, |i| ids[i]) {
            Ok(i) => {
                self.reparented |= parent < LATE && parent as usize >= i;
                self.parents[i] = parent;
                self.sites[i] = span.site;
                self.nets[i] = span.net_ns();
                i
            }
            Err(slot) => {
                self.index.insert(slot, self.ids.len());
                self.ids.push(span.task_id);
                self.parents.push(parent);
                self.sites.push(span.site);
                self.nets.push(span.net_ns());
                self.ids.len() - 1
            }
        };
        if let (LATE, Some(p)) = (parent, span.parent) {
            self.late.push((node as u32, p));
        }
    }

    /// Fold a batch of spans (e.g. a drained tracer ring).
    pub fn ingest_all<'a>(&mut self, spans: impl IntoIterator<Item = &'a TaskSpan>) {
        for s in spans {
            self.ingest(s);
        }
    }

    /// Profiler pre-loaded from a batch of spans (the id table and the
    /// node arrays are sized once, from the batch's length).
    pub fn from_spans<'a>(spans: impl IntoIterator<Item = &'a TaskSpan>) -> Self {
        let spans = spans.into_iter();
        let n = spans.size_hint().0;
        let mut p = CausalProfiler {
            index: FlatIndex::with_capacity(n),
            ids: Vec::with_capacity(n),
            parents: Vec::with_capacity(n),
            sites: Vec::with_capacity(n),
            nets: Vec::with_capacity(n),
            late: Vec::new(),
            reparented: false,
        };
        p.ingest_all(spans);
        p
    }

    /// Tasks ingested so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The spawn forest. A task whose parent never produced a span
    /// (spawned from outside the runtime, or evicted by a ring wrap) is a
    /// root of its own tree — the analysis degrades gracefully instead of
    /// dropping the subtree. Parents were resolved at ingest; only those
    /// that arrived after their children are looked up here, and only they
    /// (or a repeated span) cost the breadth-first order.
    fn forest(&self) -> Forest<'_> {
        let mut parent = Cow::Borrowed(&self.parents[..]);
        // A node's last record wins: its entries are in ingest order.
        for &(i, p) in &self.late {
            let i = i as usize;
            if self.parents[i] == LATE {
                let found = self
                    .index
                    .find(p, |j| self.ids[j])
                    .map_or(LATE, |j| j as u32);
                if parent[i] != found {
                    parent.to_mut()[i] = found;
                }
            }
        }
        let order = match parent {
            Cow::Borrowed(_) if !self.reparented => None,
            _ => Some(breadth_first(&parent)),
        };
        Forest { parent, order }
    }

    /// `down[i]` = cost(i) + max over children of `down` — the heaviest
    /// chain from node `i` to any leaf of its subtree — swept over the
    /// forest's order backwards, so every child is done before its parent:
    /// `down[p]` holds the heaviest chain of `p`'s children until `p` adds
    /// its own cost. `next[p]` is that child (the node count if every
    /// child's chain is 0): of equal chains the last in ingest order, the
    /// one `max_by_key` picks, since siblings are swept last first.
    fn down_chains<T>(&self, forest: &Forest, cost: impl Fn(usize) -> T) -> (Vec<T>, Vec<u32>)
    where
        T: Copy + Default + PartialOrd + std::ops::Add<Output = T>,
    {
        let n = self.len();
        let mut down = vec![T::default(); n];
        let mut next = vec![n as u32; n];
        let chains = (&mut down[..], &mut next[..]);
        match &forest.order {
            None => sweep((0..n).rev(), &forest.parent, cost, chains),
            Some(order) => sweep(
                order.iter().rev().map(|&i| i as usize),
                &forest.parent,
                cost,
                chains,
            ),
        }
        (down, next)
    }

    /// Analyze everything ingested so far: work, span, the critical path,
    /// and per-site profiles.
    pub fn analyze(&self) -> Analysis {
        self.analyze_in(&self.forest())
    }

    fn analyze_in(&self, forest: &Forest) -> Analysis {
        let n = self.len();
        let (down, next) = self.down_chains(forest, |i| self.nets[i]);
        // Neighbouring tasks mostly share a site: each run of one site is
        // summed, then added to its profile.
        let mut sites = SiteTable::default();
        let mut at = 0;
        for run in self.sites.chunk_by(|a, b| a == b) {
            let e = sites.get(run[0]);
            e.tasks += run.len() as u64;
            e.work_ns += self.nets[at..at + run.len()].iter().sum::<u64>();
            at += run.len();
        }
        let work_ns = sites.profiles.iter().map(|s| s.work_ns).sum();

        // Walk the heaviest children down from the heaviest root (the last
        // of equal ones), crediting each node's net duration to its site's
        // span share: counted first, so the path is allocated once.
        let root = forest.roots().max_by_key(|&r| down[r]);
        let span_ns = root.map_or(0, |r| down[r]);
        let path = || std::iter::successors(root, |&i| Some(next[i] as usize).filter(|&c| c < n));
        let mut critical_path = Vec::with_capacity(path().count());
        for i in path() {
            critical_path.push(self.ids[i]);
            sites.get(self.sites[i]).span_ns += self.nets[i];
        }
        let mut sites = sites.profiles;
        sites.sort_by(|a, b| b.work_ns.cmp(&a.work_ns).then(a.site.cmp(&b.site)));

        Analysis {
            tasks: n as u64,
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
        let scaled = |i: usize| {
            if self.sites[i] == site {
                self.nets[i] as f64 / factor
            } else {
                self.nets[i] as f64
            }
        };
        let (down, _) = self.down_chains(forest, scaled);
        let work_ns: f64 = (0..self.len()).map(scaled).sum();
        let span_ns = forest.roots().map(|r| down[r]).fold(0.0, f64::max);
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
