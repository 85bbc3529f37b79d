//! Multi-locality counter access.
//!
//! In HPX every locality (process/node) hosts counters, and *any* counter
//! is addressable from anywhere because the locality is part of the name:
//! `/threads{locality#3/total}/time/average` resolves on locality 3 no
//! matter where the query originates (§IV: "any Performance Counter can be
//! accessed remotely … or locally"). This module reproduces that
//! name-routed access for multiple in-process localities (one registry
//! each — the distributed transport is out of scope for a single-node
//! reproduction, but the routing, wildcard fan-out, and aggregation
//! semantics are the ones a transport would carry).

use std::sync::Arc;

use crate::error::CounterError;
use crate::name::{CounterName, InstanceIndex};
use crate::query::read_counter;
use crate::registry::{CounterRegistry, ResolvedCounters};
use crate::value::CounterValue;

/// A set of localities, each with its own counter registry; queries route
/// by the `locality#N` component of the counter name.
pub struct DistributedRegistry {
    localities: Vec<Arc<CounterRegistry>>,
}

impl DistributedRegistry {
    /// Wrap existing per-locality registries; index = locality id.
    pub fn new(localities: Vec<Arc<CounterRegistry>>) -> Self {
        assert!(!localities.is_empty(), "need at least one locality");
        DistributedRegistry { localities }
    }

    /// Number of localities.
    pub fn localities(&self) -> usize {
        self.localities.len()
    }

    /// The registry of one locality.
    pub fn locality(&self, id: u32) -> Option<&Arc<CounterRegistry>> {
        self.localities.get(id as usize)
    }

    /// Which localities a name addresses: the concrete one, every one for
    /// `locality#*`, or locality 0 for names without an instance.
    fn route(&self, name: &CounterName) -> Result<Vec<u32>, CounterError> {
        match &name.instance {
            None => Ok(vec![0]),
            Some(inst) => {
                if inst.parent.name != "locality" {
                    return Err(CounterError::UnknownInstance(format!(
                        "`{name}`: parent instance must be locality#N"
                    )));
                }
                match inst.parent.index {
                    Some(InstanceIndex::At(l)) => {
                        if (l as usize) < self.localities.len() {
                            Ok(vec![l])
                        } else {
                            Err(CounterError::UnknownInstance(format!(
                                "`{name}`: no locality #{l} (have {})",
                                self.localities.len()
                            )))
                        }
                    }
                    Some(InstanceIndex::All) => Ok((0..self.localities.len() as u32).collect()),
                    None => Err(CounterError::UnknownInstance(format!(
                        "`{name}`: locality needs an index"
                    ))),
                }
            }
        }
    }

    /// Resolve a (possibly locality- and worker-wildcard) name to every
    /// matching counter across the addressed localities.
    pub fn get_counters(&self, name: &str) -> Result<ResolvedCounters, CounterError> {
        Ok(self.hops(name)?.into_iter().flat_map(|(_, c)| c).collect())
    }

    /// The addressed localities' registries, each with the counters it
    /// resolves the name to (the locality index pinned for that hop).
    fn hops(
        &self,
        name: &str,
    ) -> Result<Vec<(&Arc<CounterRegistry>, ResolvedCounters)>, CounterError> {
        let parsed: CounterName = name.parse()?;
        let mut out = Vec::new();
        for l in self.route(&parsed)? {
            let mut pinned = parsed.clone();
            if let Some(inst) = &mut pinned.instance {
                inst.parent.index = Some(InstanceIndex::At(l));
            }
            let reg = &self.localities[l as usize];
            out.push((reg, reg.get_counters(&pinned.to_string())?));
        }
        Ok(out)
    }

    /// Evaluate one (possibly fanned-out) name; returns per-counter values.
    /// Each locality's counters take the guarded read at one stamp of that
    /// locality's clock, so a counter that panics reads as not ok.
    pub fn evaluate(
        &self,
        name: &str,
        reset: bool,
    ) -> Result<Vec<(CounterName, CounterValue)>, CounterError> {
        let mut out = Vec::new();
        for (reg, counters) in self.hops(name)? {
            let t0 = reg.clock().now_ns();
            for (n, c) in counters {
                out.push((n, read_counter(&*c, reset, t0)));
            }
        }
        Ok(out)
    }

    /// Evaluate and sum the scaled values across every matching counter —
    /// the cross-locality aggregation HPX exposes via aggregating counters.
    pub fn evaluate_sum(&self, name: &str, reset: bool) -> Result<f64, CounterError> {
        Ok(self
            .evaluate(name, reset)?
            .iter()
            .map(|(_, v)| v.scaled())
            .sum())
    }

    /// Every discoverable counter name across all localities, with the
    /// locality pinned into each name.
    pub fn discover_all(&self) -> Vec<CounterName> {
        let mut out = Vec::new();
        for (l, reg) in self.localities.iter().enumerate() {
            for mut n in reg.discover_all() {
                if let Some(inst) = &mut n.instance {
                    if inst.parent.name == "locality" {
                        inst.parent.index = Some(InstanceIndex::At(l as u32));
                    }
                }
                out.push(n);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicI64, Ordering};

    fn make(n: usize) -> (DistributedRegistry, Vec<Arc<AtomicI64>>) {
        let mut regs = Vec::new();
        let mut cells = Vec::new();
        for l in 0..n {
            let reg = CounterRegistry::new();
            let v = Arc::new(AtomicI64::new((l as i64 + 1) * 10));
            let v2 = v.clone();
            // Register with a locality-aware discoverer-free simple type.
            reg.register_raw(
                "/net/bytes",
                "bytes sent",
                "1",
                Arc::new(move || v2.load(Ordering::Relaxed)),
            );
            regs.push(reg);
            cells.push(v);
        }
        (DistributedRegistry::new(regs), cells)
    }

    #[test]
    fn routes_to_named_locality() {
        let (d, _) = make(3);
        let v = d.evaluate("/net{locality#1/total}/bytes", false).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1.value, 20);
        let v = d.evaluate("/net{locality#2/total}/bytes", false).unwrap();
        assert_eq!(v[0].1.value, 30);
    }

    #[test]
    fn bare_names_go_to_locality_zero() {
        let (d, _) = make(2);
        let v = d.evaluate("/net/bytes", false).unwrap();
        assert_eq!(v[0].1.value, 10);
    }

    #[test]
    fn locality_wildcard_fans_out() {
        let (d, _) = make(4);
        let v = d.evaluate("/net{locality#*/total}/bytes", false).unwrap();
        assert_eq!(v.len(), 4);
        let sum = d
            .evaluate_sum("/net{locality#*/total}/bytes", false)
            .unwrap();
        assert_eq!(sum, (10 + 20 + 30 + 40) as f64);
    }

    #[test]
    fn unknown_locality_is_an_error() {
        let (d, _) = make(2);
        assert!(d.evaluate("/net{locality#7/total}/bytes", false).is_err());
    }

    #[test]
    fn remote_reset_protocol_works_per_locality() {
        let regs: Vec<_> = (0..2).map(|_| CounterRegistry::new()).collect();
        let cells: Vec<Arc<AtomicI64>> = (0..2).map(|_| Arc::new(AtomicI64::new(0))).collect();
        for (reg, cell) in regs.iter().zip(&cells) {
            let c = cell.clone();
            reg.register_monotonic(
                "/net/bytes",
                "h",
                "1",
                Arc::new(move || c.load(Ordering::Relaxed)),
            );
        }
        let d = DistributedRegistry::new(regs);
        cells[0].store(100, Ordering::Relaxed);
        cells[1].store(7, Ordering::Relaxed);
        // Remote evaluate-with-reset on locality 1 only.
        let v = d.evaluate("/net{locality#1/total}/bytes", true).unwrap();
        assert_eq!(v[0].1.value, 7);
        cells[1].store(12, Ordering::Relaxed);
        let v = d.evaluate("/net{locality#1/total}/bytes", false).unwrap();
        assert_eq!(v[0].1.value, 5, "locality 1 rebaselined");
        // Locality 0 untouched.
        let v = d.evaluate("/net{locality#0/total}/bytes", false).unwrap();
        assert_eq!(v[0].1.value, 100);
    }

    #[test]
    fn discover_all_pins_localities() {
        let (d, _) = make(2);
        let names = d.discover_all();
        // The simple registration advertises only the bare type path, so
        // discovery returns it once per locality (builtin self-measurement
        // counters are advertised too and are filtered out here).
        let net: Vec<_> = names.iter().filter(|n| n.object == "net").collect();
        assert_eq!(net.len(), 2);
        // The self-measurement counters (overhead/time, overhead/count,
        // health/average-underflows, clock/recalibrations, clock/drift-ppm)
        // advertise a pinned locality#0/total instance which discovery
        // re-pins per locality.
        let overhead: Vec<_> = names.iter().filter(|n| n.object == "counters").collect();
        assert_eq!(overhead.len(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one locality")]
    fn empty_distributed_registry_panics() {
        let _ = DistributedRegistry::new(Vec::new());
    }
}
