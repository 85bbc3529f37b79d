//! The profiler as it stood before its flat id table, node arrays and
//! memoized site table: a `HashMap` from task id to a `Vec<Node>` index and
//! a `HashMap` of sites. Test-only — the differential test below holds the
//! production profiler to it, result for result, on random spawn forests.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use rpx_runtime::trace::{site_name, TaskSpan};

use crate::{Analysis, CausalProfiler, SiteProfile, WhatIf};

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

/// The profiler with a `HashMap` task-id index and one `Node` per task.
#[derive(Debug, Default)]
pub struct HashIndexProfiler {
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

impl HashIndexProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        HashIndexProfiler::default()
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
        let mut p = HashIndexProfiler {
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

/// splitmix64: the generator behind one random forest.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len() as u64) as usize]
    }
}

/// A random span stream: ids sequential, scattered or near `u64::MAX`,
/// some repeated (a ring wrap's duplicates); parents that are roots,
/// orphans, earlier or later tasks, or the task itself; few distinct net
/// durations, so chains tie; sites up to `u32::MAX`.
fn random_forest(rng: &mut Rng) -> Vec<TaskSpan> {
    let n = rng.below(300) as usize;
    let far = rng.below(3) == 0;
    let mut ids: Vec<u64> = (0..n as u64)
        .map(|i| if far { u64::MAX - 3 * i } else { i + 1 })
        .collect();
    if rng.below(2) == 0 {
        for id in ids.iter_mut() {
            *id = rng.next() >> rng.below(64);
        }
    }
    let sites = [0, 1, 2, 7, u32::MAX - 1, u32::MAX, rng.next() as u32];
    let nets = [0, 1, 1, 2, 3, 5, 1_000];
    let roots = 1 + rng.below(6);
    // A third of the streams list every parent before its children, as a
    // start-sorted ring copy does.
    let parents_first = rng.below(3) == 0;
    (0..n)
        .map(|i| {
            let task_id = if i > 0 && rng.below(8) == 0 {
                ids[rng.below(i as u64) as usize]
            } else {
                ids[i]
            };
            let parent = match rng.below(10 + roots) {
                0 => Some(rng.next()),
                1 if !parents_first => Some(task_id),
                2 | 3 if !parents_first => Some(ids[rng.below(n as u64) as usize]),
                r if r >= 10 => None,
                _ if i > 0 => Some(ids[rng.below(i as u64) as usize]),
                _ => None,
            };
            let net = rng.pick(&nets);
            let nested = rng.below(2);
            TaskSpan {
                task_id,
                parent,
                site: rng.pick(&sites),
                worker: 0,
                start_ns: 10,
                end_ns: 10 + net + nested,
                wait_ns: 0,
                nested_ns: nested,
            }
        })
        .collect()
}

fn assert_same_analysis(got: &Analysis, want: &Analysis, seed: u64) {
    assert_eq!(got.tasks, want.tasks, "tasks, seed {seed:#x}");
    assert_eq!(got.work_ns, want.work_ns, "work, seed {seed:#x}");
    assert_eq!(got.span_ns, want.span_ns, "span, seed {seed:#x}");
    assert_eq!(
        got.critical_path, want.critical_path,
        "path, seed {seed:#x}"
    );
    assert_eq!(got.sites, want.sites, "sites, seed {seed:#x}");
}

/// Interns seven spawn sites, so ids 1 to 7 are named from now on: a site
/// interned later, by a spawn in another test of this binary, gets a
/// larger id and renames none that [`random_forest`] draws, so both
/// profilers of a case name its sites alike.
fn name_the_small_site_ids() {
    use std::panic::Location;
    let sites = [
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
        Location::caller(),
    ];
    for site in sites {
        rpx_runtime::trace::site_id(site);
    }
    assert!(site_name(7).is_some());
}

#[test]
fn profile_matches_the_hash_index_reference() {
    name_the_small_site_ids();
    for case in 0..400u64 {
        let seed = case.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x00C0_FFEE;
        let mut rng = Rng(seed);
        let spans = random_forest(&mut rng);
        // Half the cases arrive in one batch, half span by span, split.
        let (got, want) = if rng.below(2) == 0 {
            (
                CausalProfiler::from_spans(&spans),
                HashIndexProfiler::from_spans(&spans),
            )
        } else {
            let (mut got, mut want) = (CausalProfiler::new(), HashIndexProfiler::new());
            let cut = rng.below(spans.len() as u64 + 1) as usize;
            got.ingest_all(&spans[..cut]);
            want.ingest_all(&spans[..cut]);
            for s in &spans[cut..] {
                got.ingest(s);
                want.ingest(s);
            }
            (got, want)
        };
        assert_eq!(got.len(), want.len(), "len, seed {seed:#x}");
        assert_eq!(got.is_empty(), want.is_empty());
        let analysis = want.analyze();
        assert_same_analysis(&got.analyze(), &analysis, seed);
        let workers = 1 + rng.below(16) as usize;
        let factor = rng.pick(&[0.0, 0.5, 1.0, 2.0, 3.7, 10.0]);
        let absent = analysis.sites.iter().map(|s| s.site).max().unwrap_or(0) ^ 0x55;
        for site in analysis.sites.iter().map(|s| s.site).chain([absent]) {
            assert_eq!(
                got.what_if(site, factor, workers),
                want.what_if(site, factor, workers),
                "what_if({site}), seed {seed:#x}"
            );
        }
        assert_eq!(
            got.rank_what_if(factor, workers),
            want.rank_what_if(factor, workers),
            "rank, seed {seed:#x}"
        );
        assert_eq!(got.report(workers), want.report(workers), "seed {seed:#x}");
    }
}

/// A real window: a traced `fib(23)` on two workers spawns 92 735 tasks,
/// more than the tracer's 65 536-span window, so its ring wraps and the
/// window holds orphans. The profile of `spans()` must equal the
/// reference's, and so must the profile of the same spans reversed: every
/// parent then arrives after its children, so each is looked up late and
/// the forest is ordered breadth-first.
///
/// Its spawns intern their call sites in the process-wide site registry
/// while `profile_matches_the_hash_index_reference` may be running; that
/// test names the site ids it draws before its first case, so it runs in
/// this process beside this one.
#[test]
fn a_wrapped_runtime_window_matches_the_reference_in_either_order() {
    use rpx_runtime::{Runtime, RuntimeConfig, RuntimeHandle};

    fn fib(h: &RuntimeHandle, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        let (h1, h2) = (h.clone(), h.clone());
        let a = h.spawn(move || fib(&h1, n - 1));
        let b = h.spawn(move || fib(&h2, n - 2));
        a.get() + b.get()
    }

    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let tracer = rt.tracer();
    tracer.enable();
    let h = rt.handle();
    assert_eq!(rt.spawn(move || fib(&h, 23)).get(), 28_657);
    rt.wait_idle();
    assert!(tracer.dropped() > 0, "the window wrapped");
    let mut spans = tracer.spans();
    assert_eq!(spans.len(), 64 * 1024);
    for reversed in [0, 1] {
        let (got, want) = (
            CausalProfiler::from_spans(&spans),
            HashIndexProfiler::from_spans(&spans),
        );
        if reversed == 1 {
            assert!(!got.late.is_empty(), "parents arrive after their children");
        }
        let analysis = want.analyze();
        assert_same_analysis(&got.analyze(), &analysis, reversed);
        for site in analysis.sites.iter().map(|s| s.site) {
            assert_eq!(got.what_if(site, 10.0, 2), want.what_if(site, 10.0, 2));
        }
        spans.reverse();
    }
    rt.shutdown();
}
