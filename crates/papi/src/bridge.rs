//! Bridge exposing PMU events as `/papi/...` performance counters.
//!
//! Registered names mirror HPX's PAPI component:
//!
//! - `/papi{locality#0/total}/<EVENT>` — event summed over all domains
//! - `/papi{locality#0/worker-thread#N}/<EVENT>` — one domain
//! - wildcard `/papi{locality#0/worker-thread#*}/<EVENT>` expands as usual

use std::sync::Arc;

use rpx_counters::counter::{Cumulative, CumulativeCounter};
use rpx_counters::name::{CounterInstance, CounterName, InstanceIndex};
use rpx_counters::registry::CounterRegistry;
use rpx_counters::value::CounterKind;
use rpx_counters::CounterError;

use crate::events::HwEvent;
use crate::pmu::Pmu;

/// Register every [`HwEvent`] of `pmu` as counters on `registry`.
///
/// Counter kind is monotonic, so the registry's reset/evaluate protocol
/// measures per-interval event deltas without disturbing the PMU itself.
pub fn register_papi_counters(registry: &Arc<CounterRegistry>, pmu: &Arc<Pmu>, locality: u32) {
    for event in HwEvent::ALL {
        let type_path = format!("/papi/{}", event.papi_name());
        let info = rpx_counters::CounterInfo::new(
            &type_path,
            CounterKind::MonotonicallyIncreasing,
            event.description(),
            "1",
        );
        let pmu_for_factory = pmu.clone();
        let clock = registry.clock();
        let domains = pmu.domain_count() as u32;
        registry.register_type(
            info,
            Arc::new(move |name: &CounterName, _reg| {
                let pmu = pmu_for_factory.clone();
                let read: rpx_counters::counter::ValueFn =
                    match domain_of(name, pmu.domain_count())? {
                        DomainSel::Total => Arc::new(move || pmu.read_total(event) as i64),
                        DomainSel::One(d) => Arc::new(move || pmu.read(d, event) as i64),
                    };
                let info = rpx_counters::CounterInfo::new(
                    name.canonical(),
                    CounterKind::MonotonicallyIncreasing,
                    event.description(),
                    "1",
                );
                let counter =
                    CumulativeCounter::new(info, clock.clone(), Cumulative::Monotonic(read));
                Ok(Arc::new(counter) as Arc<dyn rpx_counters::Counter>)
            }),
            Some(Arc::new(move |f: &mut dyn FnMut(CounterName)| {
                let base = CounterName::new("papi", event.papi_name());
                f(base.reinstantiate(CounterInstance::total(locality)));
                for d in 0..domains {
                    f(base.reinstantiate(CounterInstance::worker(locality, d)));
                }
            })),
        );
    }
}

enum DomainSel {
    Total,
    One(usize),
}

fn domain_of(name: &CounterName, domains: usize) -> Result<DomainSel, CounterError> {
    match &name.instance {
        // Bare `/papi/<EVENT>` means the total, like HPX's default.
        None => Ok(DomainSel::Total),
        Some(inst) if inst.is_total() => Ok(DomainSel::Total),
        Some(inst) => {
            let worker = inst
                .children
                .iter()
                .find(|c| c.name == "worker-thread")
                .and_then(|c| match c.index {
                    Some(InstanceIndex::At(i)) => Some(i as usize),
                    _ => None,
                })
                .ok_or_else(|| {
                    CounterError::UnknownInstance(format!(
                        "`{name}`: expected total or worker-thread#N instance"
                    ))
                })?;
            if worker >= domains {
                return Err(CounterError::UnknownInstance(format!(
                    "`{name}`: PMU has only {domains} domains"
                )));
            }
            Ok(DomainSel::One(worker))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<CounterRegistry>, Arc<Pmu>) {
        let registry = CounterRegistry::new();
        let pmu = Pmu::new(4);
        register_papi_counters(&registry, &pmu, 0);
        (registry, pmu)
    }

    #[test]
    fn total_counter_sums_domains() {
        let (reg, pmu) = setup();
        pmu.record(0, HwEvent::OffcoreAllDataRd, 10);
        pmu.record(3, HwEvent::OffcoreAllDataRd, 5);
        let v = reg
            .evaluate(
                "/papi{locality#0/total}/OFFCORE_REQUESTS::ALL_DATA_RD",
                false,
            )
            .unwrap();
        assert_eq!(v.value, 15);
    }

    #[test]
    fn bare_name_is_total() {
        let (reg, pmu) = setup();
        pmu.record(1, HwEvent::Cycles, 42);
        let v = reg.evaluate("/papi/CPU_CLK_UNHALTED", false).unwrap();
        assert_eq!(v.value, 42);
    }

    #[test]
    fn per_worker_counter_reads_one_domain() {
        let (reg, pmu) = setup();
        pmu.record(2, HwEvent::Instructions, 7);
        let v = reg
            .evaluate(
                "/papi{locality#0/worker-thread#2}/INSTRUCTIONS_RETIRED",
                false,
            )
            .unwrap();
        assert_eq!(v.value, 7);
        let v = reg
            .evaluate(
                "/papi{locality#0/worker-thread#0}/INSTRUCTIONS_RETIRED",
                false,
            )
            .unwrap();
        assert_eq!(v.value, 0);
    }

    #[test]
    fn wildcard_expands_to_all_domains() {
        let (reg, pmu) = setup();
        for d in 0..4 {
            pmu.record(d, HwEvent::LlcMisses, (d as u64 + 1) * 10);
        }
        let counters = reg
            .get_counters("/papi{locality#0/worker-thread#*}/LLC_MISSES")
            .unwrap();
        assert_eq!(counters.len(), 4);
        let sum: i64 = counters
            .iter()
            .map(|(_, c)| c.get_value_at(false, 0).value)
            .sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn out_of_range_worker_rejected() {
        let (reg, _pmu) = setup();
        assert!(reg
            .evaluate("/papi{locality#0/worker-thread#9}/LLC_MISSES", false)
            .is_err());
    }

    #[test]
    fn reset_protocol_measures_deltas() {
        let (reg, pmu) = setup();
        reg.add_active("/papi{locality#0/total}/OFFCORE_REQUESTS::DEMAND_RFO")
            .unwrap();
        pmu.record(0, HwEvent::OffcoreDemandRfo, 100);
        let v = reg.evaluate_active_counters(true);
        assert_eq!(v.samples()[0].value, 100.0);
        pmu.record(0, HwEvent::OffcoreDemandRfo, 30);
        let v = reg.evaluate_active_counters(true);
        assert_eq!(v.samples()[0].value, 30.0);
    }

    #[test]
    fn paper_bandwidth_estimate_through_counters() {
        // Sum the three off-core counters through /arithmetics/add, exactly
        // how the paper composes its bandwidth metric.
        let (reg, pmu) = setup();
        pmu.record(0, HwEvent::OffcoreAllDataRd, 700);
        pmu.record(0, HwEvent::OffcoreDemandCodeRd, 200);
        pmu.record(0, HwEvent::OffcoreDemandRfo, 100);
        let v = reg
            .evaluate(
                "/arithmetics/add@/papi{locality#0/total}/OFFCORE_REQUESTS::ALL_DATA_RD,\
                 /papi{locality#0/total}/OFFCORE_REQUESTS::DEMAND_CODE_RD,\
                 /papi{locality#0/total}/OFFCORE_REQUESTS::DEMAND_RFO",
                false,
            )
            .unwrap();
        assert_eq!(v.value, 1000);
    }

    #[test]
    fn discovery_lists_total_and_workers() {
        let (reg, _pmu) = setup();
        let names = reg.discover_instances("/papi/LLC_MISSES");
        assert_eq!(names.len(), 5); // total + 4 workers
        assert!(names.iter().any(|n| n.to_string().contains("total")));
    }
}
