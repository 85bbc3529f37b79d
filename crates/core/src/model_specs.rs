//! Model-checked specs for the resolved set's publication protocol
//! (stamp-before-expand vs. concurrent generation bump), entered through
//! the registry's active set and through `ResolvedQuery::refresh`, for
//! `TickLoop`'s flush rendezvous, and for the cumulative counter's
//! read-under-lock reset — each with a paired deliberately-broken mutant
//! proving the checker catches the bug.
//!
//! Compiled only under `RUSTFLAGS="--cfg rpx_model"`; run with
//! `RUSTFLAGS="--cfg rpx_model" cargo test -p rpx-counters model_`.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex as StdMutex, MutexGuard, OnceLock};

use rpx_model::{check, check_expect_failure, mutation, thread, Config};

use crate::counter::{Clock, Counter, Cumulative, CumulativeCounter, RawCounter};
use crate::name::{CounterInstance, CounterName};
use crate::prim::AtomicU64;
use crate::query::ResolvedQuery;
use crate::registry::CounterRegistry;
use crate::sampler::TickLoop;
use crate::value::{CounterInfo, CounterKind};

/// Serializes the specs in this file: mutants arm a process-global
/// registry, so an armed mutation must never overlap another spec's
/// exploration.
fn serial() -> MutexGuard<'static, ()> {
    static M: OnceLock<StdMutex<()>> = OnceLock::new();
    M.get_or_init(|| StdMutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn cfg() -> Config {
    Config {
        max_executions: 1500,
        random_walks: 400,
        ..Config::default()
    }
}

/// `/threads/count` with a discoverer enumerating `workers` instances
/// (the same growable-topology harness the registry unit tests use).
fn register_growable(reg: &Arc<CounterRegistry>, count: Arc<AtomicI64>) {
    let info = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
    let clock = reg.clock();
    reg.register_type(
        info,
        Arc::new(move |name, _| {
            let mut i = CounterInfo::new("/threads/count", CounterKind::Raw, "h", "1");
            i.name = name.canonical();
            Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1))) as Arc<dyn Counter>)
        }),
        Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
            for w in 0..count.load(Ordering::Relaxed) {
                f(CounterName::new("threads", "count")
                    .with_instance(CounterInstance::worker(0, w as u32)));
            }
        })),
    );
}

/// Protocol 5 — snapshot publish vs. topology-generation bump: a rebuild
/// racing a concurrent instance change + `bump_generation` may publish a
/// snapshot that misses the change, but only stamped with the *pre-bump*
/// generation — so the next reader re-expands and the change is never
/// lost. After joining the bumping thread, the active set must contain
/// the new instance.
fn registry_snapshot_vs_bump() {
    let reg = CounterRegistry::new();
    let workers = Arc::new(AtomicI64::new(1));
    register_growable(&reg, workers.clone());
    reg.add_active("/threads{locality#0/worker-thread#*}/count")
        .unwrap();
    // Force the racing `active_names` below into a rebuild.
    reg.bump_generation();
    let (r2, w2) = (reg.clone(), workers.clone());
    let bumper = thread::spawn(move || {
        w2.store(2, Ordering::Relaxed);
        r2.bump_generation();
    });
    // Racing rebuild: may expand before or after the topology change.
    let _ = reg.active_names();
    bumper.join().unwrap();
    let names = reg.active_names();
    assert!(
        names.iter().any(|n| n.contains("worker-thread#1")),
        "topology change lost after bump: {names:?}"
    );
}

/// The same race entered the way the sampler, the scrape engine and the
/// policy engine do: a `refresh` racing the bump may miss the change, but
/// the refresh after the join must see it.
fn query_refresh_vs_bump() {
    let reg = CounterRegistry::new();
    let workers = Arc::new(AtomicI64::new(1));
    register_growable(&reg, workers.clone());
    let query = ResolvedQuery::resolve(
        &reg,
        &["/threads{locality#0/worker-thread#*}/count".to_string()],
    )
    .unwrap();
    // Force the racing `refresh` below into a re-expansion.
    reg.bump_generation();
    let (r2, w2) = (reg.clone(), workers.clone());
    let bumper = thread::spawn(move || {
        w2.store(2, Ordering::Relaxed);
        r2.bump_generation();
    });
    query.refresh();
    bumper.join().unwrap();
    query.refresh();
    let names = query.names();
    assert!(
        names.iter().any(|n| n.contains("worker-thread#1")),
        "topology change lost after bump: {names:?}"
    );
}

#[test]
fn model_query_refresh_vs_generation_bump() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_query_refresh_vs_generation_bump",
        cfg(),
        query_refresh_vs_bump,
    );
}

#[test]
fn model_registry_snapshot_vs_generation_bump() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_registry_snapshot_vs_generation_bump",
        cfg(),
        registry_snapshot_vs_bump,
    );
}

#[test]
fn model_registry_stamp_after_expand_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("registry-stamp-after-expand");
    let failure = check_expect_failure(
        "model_registry_stamp_after_expand_mutant_is_caught",
        cfg(),
        registry_snapshot_vs_bump,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("topology change lost"),
        "expected a lost topology change, got: {}",
        failure.message
    );
}

/// `TickLoop`'s flush rendezvous: a ticker with its start-up tick due at
/// once, a flusher, and this thread as the stopper. A `flush_now` that
/// returns `true` has seen a whole tick that began after it asked (ticks
/// number themselves as they begin and publish the number as they end, and
/// the flusher reads both through nothing but the loop's own mutex), and
/// whichever way the stop falls, every thread comes home.
fn tickloop_flush_vs_stop() {
    const MINUTE: std::time::Duration = std::time::Duration::from_secs(60);
    let began = Arc::new(AtomicU64::new(0));
    let ended = Arc::new(AtomicU64::new(0));
    let (b, e) = (began.clone(), ended.clone());
    let ticks = TickLoop::spawn(
        "spec-ticks",
        Arc::new(Clock::new()),
        std::time::Duration::ZERO,
        move |_| {
            let number = b.fetch_add(1, Ordering::Relaxed) + 1;
            e.store(number, Ordering::Relaxed);
            MINUTE
        },
    )
    .unwrap();
    let ticks = Arc::new(ticks);
    let t = ticks.clone();
    let flusher = thread::spawn(move || {
        let before = began.load(Ordering::Relaxed);
        if t.flush_now() {
            let whole = ended.load(Ordering::Relaxed);
            assert!(
                whole > before,
                "flush_now returned before a later tick ended: tick {whole} \
                 ended, {before} had begun at the request"
            );
        }
    });
    ticks.stop();
    flusher.join().unwrap();
}

#[test]
fn model_tickloop_flush_sees_a_whole_later_tick() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_tickloop_flush_sees_a_whole_later_tick",
        cfg(),
        tickloop_flush_vs_stop,
    );
}

#[test]
fn model_tickloop_complete_before_tick_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("tickloop-complete-before-tick");
    let failure = check_expect_failure(
        "model_tickloop_complete_before_tick_mutant_is_caught",
        cfg(),
        tickloop_flush_vs_stop,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("before a later tick ended"),
        "expected an early flush return, got: {}",
        failure.message
    );
}

/// The cumulative counter's reset protocol: two readers reset-read one
/// monotonic counter while a writer adds 2 to its source. Every reading is
/// ≥ 0, and the readings plus the remainder are the writes.
fn cumulative_reset_reads_vs_writer() {
    static CLOCK: OnceLock<Arc<Clock>> = OnceLock::new();
    let clock = CLOCK.get_or_init(|| Arc::new(Clock::new())).clone();
    let source = Arc::new(AtomicU64::new(0));
    let s = source.clone();
    let counter = Arc::new(CumulativeCounter::new(
        CounterInfo::new("/t/grow", CounterKind::MonotonicallyIncreasing, "h", "1"),
        clock,
        Cumulative::Monotonic(Arc::new(move || s.load(Ordering::Relaxed) as i64)),
    ));
    let writer = thread::spawn(move || {
        for _ in 0..2 {
            source.fetch_add(1, Ordering::Relaxed);
        }
    });
    let readers = [counter.clone(), counter.clone()]
        .map(|c| thread::spawn(move || c.get_value_at(true, 0).value));
    writer.join().unwrap();
    let readings = readers.map(|r| r.join().unwrap());
    let remainder = counter.get_value_at(false, 0).value;
    assert!(
        readings.iter().all(|v| *v >= 0),
        "negative interval: {readings:?}"
    );
    assert_eq!(
        readings.iter().sum::<i64>() + remainder,
        2,
        "reset-reads {readings:?} and remainder {remainder} do not partition the growth"
    );
}

#[test]
fn model_cumulative_reset_reads_partition_the_growth() {
    let _g = serial();
    mutation::disarm_all();
    check(
        "model_cumulative_reset_reads_partition_the_growth",
        cfg(),
        cumulative_reset_reads_vs_writer,
    );
}

#[test]
fn model_cumulative_read_before_lock_mutant_is_caught() {
    let _g = serial();
    mutation::disarm_all();
    mutation::arm("cumulative-read-before-lock");
    let failure = check_expect_failure(
        "model_cumulative_read_before_lock_mutant_is_caught",
        cfg(),
        cumulative_reset_reads_vs_writer,
    );
    mutation::disarm_all();
    assert!(
        failure.message.contains("do not partition the growth"),
        "expected a broken partition, got: {}",
        failure.message
    );
}
