//! Shared by the integration tests that need a wide export set.

use std::sync::Arc;

use rpx_counters::counter::RawCounter;
use rpx_counters::{
    Counter, CounterInfo, CounterInstance, CounterKind, CounterName, CounterRegistry,
};

/// Register `/app/cell` with `instances` discoverable per-worker
/// instances (`/app{locality#0/worker-thread#N}/cell`), each reading 1 —
/// the shape of a large per-object instrumentation.
pub fn register_cells(reg: &Arc<CounterRegistry>, instances: u32) {
    let info = || CounterInfo::new("/app/cell", CounterKind::Raw, "per-object probe", "1");
    let clock = reg.clock();
    reg.register_type(
        info(),
        Arc::new(move |name: &CounterName, _| {
            let mut i = info();
            i.name = name.canonical();
            Ok(Arc::new(RawCounter::new(i, clock.clone(), Arc::new(|| 1))) as Arc<dyn Counter>)
        }),
        Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
            for w in 0..instances {
                f(CounterName::new("app", "cell").with_instance(CounterInstance::worker(0, w)));
            }
        })),
    );
}
