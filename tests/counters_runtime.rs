//! Integration: the counter framework observed through real runtime
//! executions — the paper's measurement protocol end to end.

use std::sync::Arc;

use rpx::counters::sampler::{MemorySink, Sampler, SamplerConfig};
use rpx::counters::stats::median_of;
use rpx::counters::CounterName;
use rpx::runtime::{Runtime, RuntimeConfig};

fn spawn_burst(rt: &Runtime, tasks: usize, spin: u64) {
    let futures: Vec<_> = (0..tasks)
        .map(|_| {
            rt.spawn(move || {
                let mut acc = 0u64;
                for i in 0..spin {
                    acc = acc.wrapping_add(i).rotate_left(3);
                }
                std::hint::black_box(acc);
            })
        })
        .collect();
    for f in futures {
        f.get();
    }
}

#[test]
fn per_sample_protocol_measures_each_sample_independently() {
    // The paper: evaluate+reset around every sample; 20 samples, medians.
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    reg.add_active("/threads{locality#0/total}/count/cumulative")
        .unwrap();

    let mut counts = Vec::new();
    for sample in 0..5 {
        reg.reset_active_counters();
        spawn_burst(&rt, 50 + sample * 10, 100);
        let values = reg.evaluate_active_counters(true);
        counts.push(values.samples()[0].value as i64);
    }
    // Each sample sees exactly its own tasks.
    assert_eq!(counts, vec![50, 60, 70, 80, 90]);
    rt.shutdown();
}

#[test]
fn cumulative_time_equals_sum_over_workers() {
    let rt = Runtime::new(RuntimeConfig::with_workers(3));
    let reg = rt.registry();
    spawn_burst(&rt, 200, 2_000);
    rt.wait_idle();
    let total = reg
        .evaluate("/threads{locality#0/total}/time/cumulative", false)
        .unwrap()
        .value;
    let per_worker: i64 = reg
        .get_counters("/threads{locality#0/worker-thread#*}/time/cumulative")
        .unwrap()
        .iter()
        .map(|(_, c)| c.get_value_at(false, 0).value)
        .sum();
    assert_eq!(total, per_worker);
    assert!(total > 0);
    rt.shutdown();
}

#[test]
fn statistics_counter_tracks_task_duration_samples() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let name = "/statistics/max@/threads{locality#0/total}/time/average,32";
    let parsed: CounterName = name.parse().unwrap();
    let stat = reg.get_counter(&parsed).unwrap();

    for _ in 0..4 {
        spawn_burst(&rt, 50, 1_000);
        let v = stat.get_value_at(false, 0);
        assert!(v.status.is_ok());
    }
    let max = stat.get_value_at(false, 0).value;
    assert!(max > 0, "max of sampled averages must be positive");
    rt.shutdown();
}

#[test]
fn sampler_watches_a_live_runtime() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let sink = MemorySink::new();
    let batches = sink.batches();
    let sampler = Sampler::start(
        &rt.registry(),
        SamplerConfig::new(
            vec!["/threads{locality#0/total}/count/cumulative".into()],
            std::time::Duration::from_millis(5),
        ),
        Box::new(sink),
    )
    .unwrap();

    spawn_burst(&rt, 500, 10_000);
    rt.wait_idle();
    // Wait until a sample *after* completion has landed.
    while batches
        .lock()
        .last()
        .map(|b| b.samples()[0].value)
        .unwrap_or(0.0)
        < 500.0
    {
        std::thread::yield_now();
    }
    sampler.stop();

    let collected = batches.lock();
    let last = collected.last().unwrap().samples()[0].value;
    assert!(
        last >= 500.0,
        "sampler should have seen all 500 tasks, saw {last}"
    );
    // Monotone non-decreasing across batches.
    for w in collected.windows(2) {
        assert!(w[1].samples()[0].value >= w[0].samples()[0].value);
    }
    rt.shutdown();
}

#[test]
fn counter_overhead_is_small_for_moderate_tasks() {
    // The paper: collecting counters costs ≲10% even down to fine grain.
    // Measure a workload with and without an active counter set + sampler.
    let run = |with_counters: bool| -> std::time::Duration {
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let reg = rt.registry();
        let _sampler = with_counters.then(|| {
            for n in [
                "/threads{locality#0/total}/time/average",
                "/threads{locality#0/total}/time/average-overhead",
                "/threads{locality#0/total}/count/cumulative",
            ] {
                reg.add_active(n).unwrap();
            }
            Sampler::start(
                &reg,
                SamplerConfig::new(
                    vec!["/threads{locality#0/total}/time/average".into()],
                    std::time::Duration::from_millis(5),
                ),
                Box::new(MemorySink::new()),
            )
            .unwrap()
        });
        let t0 = std::time::Instant::now();
        spawn_burst(&rt, 2_000, 5_000);
        rt.wait_idle();
        let dt = t0.elapsed();
        rt.shutdown();
        dt
    };

    // Warm up, then take medians of 3.
    let _ = run(false);
    let median_s =
        |with_counters: bool| median_of(&[0; 3].map(|_| run(with_counters).as_secs_f64()));
    let (b, i) = (median_s(false), median_s(true));
    let overhead = (i - b) / b * 100.0;
    // Generous CI bound (the paper's bound is 10% at *very* fine grain;
    // noise on a 1-vCPU host can dominate).
    assert!(
        overhead < 60.0,
        "counter collection overhead {overhead:.1}% is out of hand (base {b:.4}s vs {i:.4}s)"
    );
}

#[test]
fn overhead_counters_expose_sampler_cost() {
    // The paper's intrinsic-overhead claim as a queryable counter: the
    // time spent evaluating counter batches is itself measured and
    // reported under /counters{locality#0/total}/overhead/*.
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let reg = rt.registry();
    let sink = MemorySink::new();
    let batches = sink.batches();
    let sampler = Sampler::start(
        &reg,
        SamplerConfig::new(
            vec![
                "/threads{locality#0/total}/count/cumulative".into(),
                "/threads{locality#0/worker-thread#*}/time/cumulative".into(),
            ],
            std::time::Duration::from_millis(2),
        ),
        Box::new(sink),
    )
    .unwrap();

    spawn_burst(&rt, 200, 2_000);
    rt.wait_idle();
    while batches.lock().len() < 10 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    sampler.stop();
    let ticks = batches.lock().len() as i64;

    let count = reg
        .evaluate("/counters{locality#0/total}/overhead/count", false)
        .unwrap();
    assert!(
        count.value >= ticks,
        "every sampler tick is an accounted batch ({} < {ticks})",
        count.value
    );
    let time = reg
        .evaluate("/counters{locality#0/total}/overhead/time", false)
        .unwrap();
    assert!(
        time.value > 0,
        "evaluation wall time must be nonzero after {ticks} ticks"
    );
    // Self-measurement stays intrinsic: far below a millisecond per batch
    // on average for this tiny counter set.
    let per_batch_ns = time.value / count.value.max(1);
    assert!(
        per_batch_ns < 5_000_000,
        "overhead/time reports {per_batch_ns}ns per batch — implausible"
    );
    rt.shutdown();
}

#[test]
fn multiple_runtimes_have_independent_registries() {
    let a = Runtime::new(RuntimeConfig::with_workers(1));
    let b = Runtime::new(RuntimeConfig::with_workers(1));
    spawn_burst(&a, 10, 10);
    a.wait_idle();
    let ca = a
        .registry()
        .evaluate("/threads{locality#0/total}/count/cumulative", false)
        .unwrap();
    let cb = b
        .registry()
        .evaluate("/threads{locality#0/total}/count/cumulative", false)
        .unwrap();
    assert!(ca.value >= 10);
    assert_eq!(cb.value, 0, "runtime B executed nothing");
    a.shutdown();
    b.shutdown();
}

#[test]
fn value_cells_let_the_application_publish_metrics() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));
    let reg = rt.registry();
    let cell = reg.register_value("/app/iteration", "current solver iteration", "1");
    let c2 = Arc::clone(&cell);
    let f = rt.spawn(move || {
        for i in 0..50 {
            c2.set(i);
        }
    });
    f.get();
    assert_eq!(reg.evaluate("/app/iteration", false).unwrap().value, 49);
    rt.shutdown();
}

/// A writer whose bytes the test reads back while the sampler owns it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

/// A counter reading a fixed quarter-step value, so the golden pins how a
/// scaled reading is printed.
struct Quarters(rpx::counters::CounterInfo);

impl rpx::counters::Counter for Quarters {
    fn info(&self) -> rpx::counters::CounterInfo {
        self.0.clone()
    }
    fn get_value_at(&self, _reset: bool, _now_ns: u64) -> rpx::counters::CounterValue {
        rpx::counters::CounterValue::scaled_by(10, 4, 0)
    }
}

/// The sampler's CSV output over a scripted registry, byte for byte with
/// the timestamp column masked: a header name holding a comma and a
/// quote, a counter that panics, is backed off and recovers, a bump that
/// changes nothing (no new header) and a wildcard that gains an instance
/// (a new header). Every row after the start-up row is one `flush_now`.
#[test]
fn sampler_csv_matches_the_golden_file() {
    use rpx::counters::{CounterInfo, CounterInstance, CounterKind};
    use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

    let reg = rpx::counters::CounterRegistry::new();
    let odd = Arc::new(AtomicI64::new(0));
    let o = odd.clone();
    reg.register_raw(
        "/app/odd\"name\",x",
        "h",
        "1",
        Arc::new(move || o.load(Ordering::Relaxed)),
    );
    let broken = Arc::new(AtomicBool::new(true));
    let b = broken.clone();
    reg.register_raw(
        "/app/flaky",
        "h",
        "1",
        Arc::new(move || {
            if b.load(Ordering::Relaxed) {
                // Unwinds without running the panic hook: no test noise.
                std::panic::resume_unwind(Box::new("injected counter failure"));
            }
            7
        }),
    );
    let info = CounterInfo::new("/app/quarters", CounterKind::Raw, "h", "1");
    let i = info.clone();
    reg.register_type(
        info,
        Arc::new(move |_, _| Ok(Arc::new(Quarters(i.clone())) as Arc<dyn rpx::counters::Counter>)),
        None,
    );
    let workers = Arc::new(AtomicI64::new(2));
    let w = workers.clone();
    let clock = reg.clock();
    reg.register_type(
        CounterInfo::new("/pool/size", CounterKind::Raw, "h", "1"),
        Arc::new(move |name: &CounterName, _| {
            let mut info = CounterInfo::new("/pool/size", CounterKind::Raw, "h", "1");
            info.name = name.canonical();
            let digit = info.name.bytes().rfind(u8::is_ascii_digit);
            let size = 10 + digit.map_or(0, |d| i64::from(d - b'0'));
            Ok(Arc::new(rpx::counters::counter::RawCounter::new(
                info,
                clock.clone(),
                Arc::new(move || size),
            )) as Arc<dyn rpx::counters::Counter>)
        }),
        Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
            for n in 0..w.load(Ordering::Relaxed) {
                f(CounterName::new("pool", "size")
                    .with_instance(CounterInstance::worker(0, n as u32)));
            }
        })),
    );

    let out = SharedBuf::default();
    let specs = [
        "/app/odd\"name\",x",
        "/app/flaky",
        "/app/quarters",
        "/pool{locality#0/worker-thread#*}/size",
    ];
    let sampler = Sampler::start(
        &reg,
        SamplerConfig::new(
            specs.iter().map(|s| s.to_string()).collect(),
            std::time::Duration::from_secs(3600),
        ),
        Box::new(rpx::counters::sampler::CsvSink::new(out.clone())),
    )
    .unwrap();
    // The start-up row, then one row per flush.
    while out.text().lines().count() < 2 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    for tick in 1..12 {
        odd.store(tick * 3, Ordering::Relaxed);
        match tick {
            3 | 9 => broken.store(false, Ordering::Relaxed),
            5 => reg.bump_generation(),
            6 => {
                workers.store(3, Ordering::Relaxed);
                reg.bump_generation();
            }
            8 => broken.store(true, Ordering::Relaxed),
            _ => {}
        }
        assert!(sampler.flush_now(), "tick {tick} flushed");
    }
    let health = sampler.health();
    sampler.stop();
    assert_eq!((health.read_errors(), health.backoffs()), (3, 1));

    let masked: String = out
        .text()
        .lines()
        .map(|line| match line.strip_prefix("sequence,") {
            Some(_) => format!("{line}\n"),
            None => {
                let mut fields = line.splitn(3, ',');
                let (seq, _, rest) = (fields.next(), fields.next(), fields.next());
                format!("{},<ts>,{}\n", seq.unwrap(), rest.unwrap_or(""))
            }
        })
        .collect();
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sampler_csv.txt");
    let expected = std::fs::read_to_string(golden).unwrap_or_default();
    if masked != expected {
        let fresh = concat!(env!("CARGO_TARGET_TMPDIR"), "/sampler_csv.txt");
        std::fs::write(fresh, &masked).unwrap();
        panic!("the sampler's CSV moved; to accept it: cp {fresh} {golden}\n{masked}");
    }
}
