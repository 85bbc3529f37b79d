//! Integration: the simulated experiments reproduce the paper's
//! qualitative results (shape, not absolute numbers — DESIGN.md §3).

use rpx::inncabs::{Benchmark, InputScale};
use rpx::simnode::{simulate, HpxCostModel, MachineConfig, SimConfig, SimRuntimeKind};
use rpx_bench::{figure, measure_scaling, scaling_limit, table1, table5};

#[test]
fn fine_grained_hpx_dominates_std_across_the_suite() {
    // §VI: for every very-fine benchmark that the baseline completes at
    // all, the lightweight runtime is much faster at 8 cores.
    for b in [
        Benchmark::Fib,
        Benchmark::Fft,
        Benchmark::Uts,
        Benchmark::Health,
    ] {
        let g = b.sim_graph(InputScale::Test);
        let hpx = simulate(&g, &SimConfig::hpx(8));
        assert!(hpx.completed());
        // The virtual-time simulator is deterministic: every comparison in
        // this file rests on one sample per side because of it.
        assert_eq!(
            simulate(&g, &SimConfig::hpx(8)).makespan_ns,
            hpx.makespan_ns,
            "{}: same graph and config must give the same makespan",
            b.entry().name,
        );
        let std = simulate(&g, &SimConfig::std_async(8));
        if !std.completed() {
            continue; // the paper's Abort/SegV rows: baseline never finishes
        }
        let ratio = std.makespan_ns as f64 / hpx.makespan_ns as f64;
        assert!(
            ratio > 3.0,
            "{}: std/hpx ratio {ratio:.2} should be ≫ 1",
            b.entry().name,
        );
    }
}

#[test]
fn coarse_grained_benchmarks_tie_between_runtimes() {
    // Figs. 1-family: Alignment/SparseLU/Round behave similarly on both.
    for b in [Benchmark::Alignment, Benchmark::Round] {
        let g = b.sim_graph(InputScale::Test);
        let ratio = simulate(&g, &SimConfig::std_async(8)).makespan_ns as f64
            / simulate(&g, &SimConfig::hpx(8)).makespan_ns as f64;
        assert!(
            ratio < 1.5,
            "{}: coarse tasks should tie (std/hpx = {ratio:.2})",
            b.entry().name
        );
    }
}

#[test]
fn task_overhead_is_sub_microsecond_like_the_paper() {
    // §VI: "task overheads … from 0.5µs to 1µs for these benchmarks".
    // Asserted as a ratio against the cost model's own per-task floor
    // (spawn + dispatch on a single core, where nothing can steal), not an
    // absolute nanosecond window: retuning the model moves both sides.
    let g = Benchmark::Fib.sim_graph(InputScale::Test);
    let floor = {
        let m = HpxCostModel::default();
        (m.spawn_ns + m.dispatch_ns) as f64
    };
    let ratio = simulate(&g, &SimConfig::hpx(1)).avg_overhead_ns() / floor;
    assert!(
        (0.8..2.0).contains(&ratio),
        "per-task overhead should sit near the model's spawn+dispatch floor \
         (measured/floor = {ratio:.2})"
    );
}

#[test]
fn very_fine_scaling_is_socket_limited() {
    // Figs. 5/6/11/12: very fine benchmarks stop scaling around the
    // socket boundary; coarse ones keep going. The boundary comes from the
    // machine model, not a magic constant.
    let fine = measure_scaling(Benchmark::Uts, InputScale::Paper, SimRuntimeKind::hpx());
    let coarse = measure_scaling(
        Benchmark::Alignment,
        InputScale::Paper,
        SimRuntimeKind::hpx(),
    );
    let fine_limit = scaling_limit(&fine).unwrap();
    let coarse_limit = scaling_limit(&coarse).unwrap();
    assert!(
        coarse_limit >= fine_limit,
        "coarse ({coarse_limit}) should scale at least as far as very fine ({fine_limit})"
    );
    let socket = MachineConfig::ivy_bridge_2s10c().cores_per_socket;
    assert!(
        coarse_limit > socket,
        "alignment should keep scaling past the {socket}-core socket, got {coarse_limit}"
    );
}

#[test]
fn alignment_speedup_matches_paper_factor() {
    // §VI: Alignment reaches speedup ≈17 on 20 cores — i.e. it stays well
    // above the 50% parallel-efficiency floor (the METG convention in
    // EXPERIMENTS.md) where the very-fine benchmarks have long fallen
    // through it. Efficiency ratios, not an absolute speedup window.
    let coarse = measure_scaling(
        Benchmark::Alignment,
        InputScale::Paper,
        SimRuntimeKind::hpx(),
    );
    let fine = measure_scaling(Benchmark::Uts, InputScale::Paper, SimRuntimeKind::hpx());
    let eff = |sweep: &rpx_bench::SweepOutcome| sweep.speedup_at(20).unwrap() / 20.0;
    let (coarse_eff, fine_eff) = (eff(&coarse), eff(&fine));
    assert!(
        (0.5..=1.05).contains(&coarse_eff),
        "alignment efficiency at 20 cores: {coarse_eff:.2} (paper: 17/20 = 0.85)"
    );
    assert!(
        coarse_eff > fine_eff,
        "coarse efficiency {coarse_eff:.2} must beat very-fine {fine_eff:.2}"
    );
}

#[test]
fn overheads_track_execution_gap() {
    // Figs. 8–12: for coarse grain the exec time is almost all task time;
    // for very fine grain scheduling overhead is a significant share.
    let coarse = simulate(
        &Benchmark::Alignment.sim_graph(InputScale::Test),
        &SimConfig::hpx(4),
    );
    let fine = simulate(
        &Benchmark::Fib.sim_graph(InputScale::Test),
        &SimConfig::hpx(4),
    );
    let coarse_share = coarse.total_overhead_ns as f64 / coarse.total_exec_ns.max(1) as f64;
    let fine_share = fine.total_overhead_ns as f64 / fine.total_exec_ns.max(1) as f64;
    assert!(
        coarse_share < 0.01,
        "coarse overhead share {coarse_share:.4}"
    );
    assert!(fine_share > 0.2, "fine overhead share {fine_share:.4}");
}

#[test]
fn bandwidth_figures_saturate_at_the_socket_then_grow_across() {
    // Figs. 13–14: aggregate bandwidth grows with cores, limited by the
    // per-socket controllers.
    let fig = figure(13, InputScale::Paper).unwrap();
    let bw = &fig.series[0];
    let at = |c: u32| {
        bw.points
            .iter()
            .find(|p| p.0 == c)
            .and_then(|p| p.1)
            .unwrap()
    };
    assert!(at(10) > at(1), "bandwidth must grow to the socket boundary");
    let cap = rpx::simnode::MachineConfig::ivy_bridge_2s10c().mem_bw_per_socket_gbps;
    assert!(
        at(10) <= cap * 1.2,
        "one socket cannot exceed its controllers"
    );
    assert!(
        at(20) >= at(10) * 0.8,
        "second socket must not collapse bandwidth"
    );
}

#[test]
fn floorplan_ordering_anomaly_global_vs_local_queues() {
    // §V-D: the std single queue explores the search in a different order
    // than per-worker queues. With a *fixed* task budget the graphs are
    // identical, and the simulated runtimes then differ only in scheduling
    // cost — the fairness device the paper applied.
    let g = Benchmark::Floorplan.sim_graph(InputScale::Test);
    let local = simulate(&g, &SimConfig::hpx(4));
    let mut cfg = SimConfig::hpx(4);
    if let SimRuntimeKind::Hpx { global_queue, .. } = &mut cfg.runtime {
        *global_queue = true;
    }
    let global = simulate(&g, &cfg);
    assert!(local.completed() && global.completed());
    assert_eq!(
        local.tasks_executed, global.tasks_executed,
        "budget fixes the task count"
    );
    // Local queues avoid the contention of one shared queue.
    assert!(local.makespan_ns <= global.makespan_ns * 11 / 10);
}

#[test]
fn table1_and_table5_regenerate_without_panicking() {
    let t1 = table1(InputScale::Test);
    let t5 = table5(InputScale::Test);
    assert_eq!(t1.len(), 14);
    assert_eq!(t5.len(), 14);
    // Spot-check the classification agreement with the paper at test scale
    // for the grain-calibrated rows.
    let row = |n: &str| t5.iter().find(|r| r.name == n).unwrap();
    assert_eq!(row("alignment").granularity, "coarse");
    assert_eq!(row("uts").granularity, "very fine");
    assert_eq!(row("qap").granularity, "very fine");
}

#[test]
fn all_fourteen_figures_build_at_test_scale() {
    for id in 1..=14 {
        let fig = figure(id, InputScale::Test).unwrap();
        assert!(!fig.series.is_empty(), "figure {id} empty");
        // Every figure has at least one finite point.
        assert!(
            fig.series
                .iter()
                .any(|s| s.points.iter().any(|p| p.1.is_some())),
            "figure {id} has no data"
        );
    }
}

#[test]
fn hierarchical_stealing_wins_placement_on_two_sockets() {
    // DESIGN.md §16: with 12 cores spanning both sockets of the Ivy
    // Bridge node (fill-first: 10 + 2), exhausting the local socket
    // before probing remote victims must (a) keep cross-socket steals a
    // minority of all steals and (b) beat the topology-blind victim
    // order, which pays `remote_steal_extra_ns` on steals a local
    // victim could have served. Health at paper scale steals often
    // enough for the placement effect to dominate ordering noise.
    let g = Benchmark::Health.sim_graph(InputScale::Paper);
    let hier = simulate(&g, &SimConfig::hpx(12));

    let mut blind_cfg = SimConfig::hpx(12);
    if let SimRuntimeKind::Hpx { cost, .. } = &mut blind_cfg.runtime {
        cost.topology_blind_steal = true;
    }
    let blind = simulate(&g, &blind_cfg);

    assert!(hier.completed() && blind.completed());
    assert!(hier.steals > 0, "12-core health must steal");
    assert!(
        hier.remote_steals * 2 < hier.steals,
        "hierarchical: remote steals {}/{} should be the minority",
        hier.remote_steals,
        hier.steals
    );
    // Blind order pays the cross-socket surcharge far more often...
    let hier_share = hier.remote_steals as f64 / hier.steals as f64;
    let blind_share = blind.remote_steals as f64 / blind.steals.max(1) as f64;
    assert!(
        hier_share < blind_share,
        "hierarchical remote share {hier_share:.3} vs blind {blind_share:.3}"
    );
    // ...and the simulator is deterministic, so the placement win shows
    // up as a strictly shorter makespan.
    assert!(
        hier.makespan_ns < blind.makespan_ns,
        "hierarchical {} should beat blind {}",
        hier.makespan_ns,
        blind.makespan_ns
    );

    // DESIGN.md §7 ablation 4 (`tableiv` section 5, here at test scale
    // where steals are the larger share): the base steal cost moves the
    // virtual makespan the same way. Endpoints only — a dearer steal also
    // changes who steals what, so no monotonicity in between.
    let g = Benchmark::Uts.sim_graph(InputScale::Test);
    let makespan_at = |steal_ns: u64| {
        let mut cfg = SimConfig::hpx(8);
        if let SimRuntimeKind::Hpx { cost, .. } = &mut cfg.runtime {
            cost.steal_ns = steal_ns;
        }
        simulate(&g, &cfg).makespan_ns
    };
    assert!(makespan_at(6_000) >= makespan_at(300));
}
