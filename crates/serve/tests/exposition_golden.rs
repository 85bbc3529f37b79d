//! The text exposition of a fixed registry, compared byte for byte with
//! `golden/exposition.txt`. The file was rendered by the per-line
//! `format!` renderer this crate had before export entries carried their
//! resolved line heads, so the test pins the payload across that rewrite:
//! family order, header text, label escaping, value formatting, and which
//! samples appear at all.

use std::sync::Arc;

use rpx_counters::{
    Counter, CounterInfo, CounterInstance, CounterKind, CounterName, CounterRegistry, CounterValue,
    InstanceIndex,
};
use rpx_serve::engine::ScrapeEngine;
use rpx_serve::text;

const GOLDEN: &str = include_str!("golden/exposition.txt");

/// A counter whose value is a pure function of its name.
struct Probe {
    info: CounterInfo,
    name: CounterName,
}

impl Counter for Probe {
    fn info(&self) -> CounterInfo {
        self.info.clone()
    }

    fn get_value_at(&self, _reset: bool, _now_ns: u64) -> CounterValue {
        value_of(&self.name)
    }
}

/// The index of the last instance part (`worker-thread#3` → 3).
fn index(name: &CounterName) -> i64 {
    let part = name.instance.as_ref().and_then(|i| i.children.last());
    match part.and_then(|p| p.index) {
        Some(InstanceIndex::At(i)) => i64::from(i),
        _ => 0,
    }
}

fn value_of(name: &CounterName) -> CounterValue {
    match name.type_path().as_str() {
        "/app/requests" => CounterValue::new(42, 0),
        // Negative below worker 2, positive above.
        "/queue/depth" => CounterValue::new(index(name) * 7 - 10, 0),
        "/pool/size" => CounterValue::new(index(name) * 1_000 + 1, 0),
        // 12 345 ns scaled to µs: the one fractional value.
        "/time/average" => CounterValue::scaled_by(12_345, 1_000, 0),
        "/time/inverse" => CounterValue {
            scale_inverse: true,
            ..CounterValue::scaled_by(3, 1_000, 0)
        },
        // The largest value still rendered through `i64`, the first one
        // that is not, and the largest an `i64` counter can carry.
        "/big/below" => CounterValue::new(999_999_999_999_999, 0),
        "/big/at" => CounterValue::new(1_000_000_000_000_000, 0),
        "/big/max" => CounterValue::new(i64::MAX, 0),
        "/big/min" => CounterValue::new(i64::MIN, 0),
        "/cache/hits" => CounterValue::new(7, 0),
        "/statistics/max" => CounterValue::new(-8, 0),
        // Worker 1 panics on every read (`resume_unwind` skips the panic
        // hook, keeping the test output clean); its siblings read fine.
        "/flaky/read" if index(name) == 1 => std::panic::resume_unwind(Box::new("flaky")),
        "/flaky/read" => CounterValue::new(index(name), 0),
        "/broken/always" => CounterValue::unavailable(0),
        other => panic!("no value for {other}"),
    }
}

/// Register `type_path` with `workers` discoverable per-worker instances
/// (none: only explicitly named instances resolve).
fn register(
    reg: &Arc<CounterRegistry>,
    type_path: &'static str,
    kind: CounterKind,
    help: &'static str,
    workers: u32,
) {
    let info = CounterInfo::new(type_path, kind, help, "1");
    let instance_info = info.clone();
    let base: CounterName = type_path.parse().expect("a type path parses");
    reg.register_type(
        info,
        Arc::new(move |name: &CounterName, _| {
            let mut info = instance_info.clone();
            info.name = name.canonical();
            Ok(Arc::new(Probe {
                info,
                name: name.clone(),
            }) as Arc<dyn Counter>)
        }),
        Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
            for w in 0..workers {
                f(base.clone().with_instance(CounterInstance::worker(0, w)));
            }
        })),
    );
}

fn fixture() -> (Arc<CounterRegistry>, Vec<String>) {
    use CounterKind::{ElapsedTime, MonotonicallyIncreasing as Monotonic, Raw};
    let reg = CounterRegistry::new();
    register(&reg, "/app/requests", Monotonic, "requests served", 0);
    // Two families of six whose instances interleave in the export order.
    register(&reg, "/queue/depth", Raw, "queue depth (signed)", 6);
    register(&reg, "/pool/size", Raw, "pool size", 6);
    register(&reg, "/time/average", ElapsedTime, "scaled to µs", 0);
    register(&reg, "/time/inverse", Raw, "scaled by a multiplier", 0);
    register(
        &reg,
        "/big/below",
        Monotonic,
        "largest integral rendering",
        0,
    );
    register(&reg, "/big/at", Monotonic, "first float rendering", 0);
    register(&reg, "/big/max", Monotonic, "i64::MAX", 0);
    register(&reg, "/big/min", Raw, "i64::MIN", 0);
    register(
        &reg,
        "/cache/hits",
        Monotonic,
        "hits with a \"quote\", a back\\slash\nand a second line",
        0,
    );
    register(
        &reg,
        "/statistics/max",
        Raw,
        "rolling maximum of its parameter",
        0,
    );
    register(&reg, "/flaky/read", Raw, "one instance panics", 3);
    register(&reg, "/broken/always", Raw, "never has a value", 0);
    let specs = [
        "/queue{locality#0/worker-thread#*}/depth",
        "/app/requests",
        "/pool{locality#0/worker-thread#*}/size",
        "/broken/always",
        // `\`, `"`, `,`, space and newline inside instance part names.
        "/cache{no\"de\\x#3/li\nne, two}/hits",
        "/cache{plain#0}/hits",
        // Parameters carrying a whole counter name, and ones that need
        // escaping themselves.
        "/statistics/max@/queue{locality#0/total}/depth,8",
        "/statistics{locality#0/total}/max@a\\b \"c\"\nd#e",
        "/flaky{locality#0/worker-thread#*}/read",
        "/time/average",
        "/time{locality#0/total}/inverse",
        "/big/below",
        "/big/at",
        "/big{locality#1/total}/max",
        "/big/min",
    ];
    (reg, specs.iter().map(|s| s.to_string()).collect())
}

#[test]
fn exposition_matches_the_golden_file_byte_for_byte() {
    let (reg, specs) = fixture();
    let engine = ScrapeEngine::new(&reg, &specs, 4, 2).expect("the fixture resolves");
    let rendered = text::render(&engine.collect());
    // A second scrape renders the same bytes: nothing in the payload
    // depends on the scrape sequence or on the history.
    assert_eq!(text::render(&engine.collect()), rendered);
    assert_eq!(
        rendered, GOLDEN,
        "the exposition moved; the golden file is the contract"
    );
}
