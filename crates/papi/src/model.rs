//! Analytic cache/memory model used to *derive* off-core traffic from
//! workload descriptions — the substitution for reading real uncore
//! counters (see DESIGN.md §3).
//!
//! The model is deliberately simple: a task touching a working set `w`
//! through a cache of capacity `c` misses on the fraction of lines that do
//! not fit, with a floor for cold (first-touch) misses. It is calibrated to
//! reproduce the *shape* of the paper's bandwidth figures (per-core traffic
//! roughly constant, aggregate bandwidth growing with cores until the
//! per-socket controllers saturate), not absolute Ivy Bridge numbers.

/// Cache-line size used throughout (bytes). The paper's bandwidth estimate
/// multiplies off-core request counts by this.
pub const CACHE_LINE: u64 = 64;

/// A three-level cache hierarchy description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheModel {
    /// Per-core L1 data capacity in bytes.
    pub l1_bytes: u64,
    /// Per-core L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Shared last-level capacity in bytes (per socket).
    pub llc_bytes: u64,
    /// Fraction of lines that miss even when the working set fits
    /// (cold/conflict misses), 0..=1.
    pub cold_miss_fraction: f64,
}

impl CacheModel {
    /// The Ivy Bridge node of the paper: 32 KiB L1d, 256 KiB L2 per core,
    /// 25 MiB shared L3 per socket.
    pub fn ivy_bridge() -> Self {
        CacheModel {
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            llc_bytes: 25 * 1024 * 1024,
            cold_miss_fraction: 0.02,
        }
    }

    /// Fraction of accessed lines that miss a cache of `capacity` bytes for
    /// a working set of `working_set` bytes: the classic
    /// `max(0, 1 - c/w)` occupancy estimate with a cold-miss floor.
    pub fn miss_fraction(&self, working_set: u64, capacity: u64) -> f64 {
        if working_set == 0 {
            return 0.0;
        }
        let fit = (capacity as f64 / working_set as f64).min(1.0);
        (1.0 - fit).max(self.cold_miss_fraction)
    }

    /// Off-core (past-LLC) miss fraction for a working set, assuming an
    /// effective LLC share of `llc_share` bytes (the LLC is shared, so a
    /// core competing with others sees a slice of it).
    pub fn offcore_miss_fraction(&self, working_set: u64, llc_share: u64) -> f64 {
        self.miss_fraction(working_set, llc_share.max(1))
    }
}

/// A task's memory behaviour, as declared by the workload descriptors in
/// `rpx-inncabs` or derived by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemoryFootprint {
    /// Bytes read by the task.
    pub bytes_read: u64,
    /// Bytes written by the task.
    pub bytes_written: u64,
    /// Instruction bytes fetched (usually tiny after warm-up).
    pub code_bytes: u64,
    /// Size of the task's reuse working set (bytes); determines cacheability.
    pub working_set: u64,
}

impl MemoryFootprint {
    /// A compute-only footprint (no memory traffic).
    pub fn compute_only() -> Self {
        MemoryFootprint::default()
    }

    /// A streaming footprint: reads `r` and writes `w` bytes with no reuse
    /// (working set = everything touched).
    pub fn streaming(r: u64, w: u64) -> Self {
        MemoryFootprint {
            bytes_read: r,
            bytes_written: w,
            code_bytes: 0,
            working_set: r + w,
        }
    }
}

/// Estimated off-core request counts for one task execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OffcoreRequests {
    /// `OFFCORE_REQUESTS:ALL_DATA_RD` increments.
    pub data_rd: u64,
    /// `OFFCORE_REQUESTS:DEMAND_CODE_RD` increments.
    pub code_rd: u64,
    /// `OFFCORE_REQUESTS:DEMAND_RFO` increments.
    pub rfo: u64,
}

impl OffcoreRequests {
    /// Total requests (the quantity × 64 B the paper calls bandwidth).
    pub fn total(&self) -> u64 {
        self.data_rd + self.code_rd + self.rfo
    }

    /// Bytes of memory traffic these requests represent.
    pub fn bytes(&self) -> u64 {
        self.total() * CACHE_LINE
    }
}

/// Estimate the off-core requests a task generates, given its footprint,
/// the cache model, and the effective LLC share available to its core.
pub fn estimate_offcore(
    footprint: &MemoryFootprint,
    cache: &CacheModel,
    llc_share_bytes: u64,
) -> OffcoreRequests {
    let ws = footprint
        .working_set
        .max(footprint.bytes_read + footprint.bytes_written);
    let miss = cache.offcore_miss_fraction(ws, llc_share_bytes);
    let lines = |bytes: u64| -> u64 {
        if bytes == 0 {
            0
        } else {
            ((bytes.div_ceil(CACHE_LINE)) as f64 * miss).ceil() as u64
        }
    };
    OffcoreRequests {
        data_rd: lines(footprint.bytes_read),
        code_rd: lines(footprint.code_bytes),
        rfo: lines(footprint.bytes_written),
    }
}

/// The paper's bandwidth estimate: off-core requests × cache line size /
/// elapsed time, in GB/s.
pub fn bandwidth_gb_per_s(offcore_requests: u64, elapsed_ns: u64) -> f64 {
    if elapsed_ns == 0 {
        return 0.0;
    }
    (offcore_requests as f64 * CACHE_LINE as f64) / elapsed_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fraction_bounds() {
        let m = CacheModel::ivy_bridge();
        // Tiny working set: only the cold-miss floor.
        assert_eq!(m.miss_fraction(1024, m.llc_bytes), m.cold_miss_fraction);
        // Huge working set: almost everything misses.
        let f = m.miss_fraction(100 * m.llc_bytes, m.llc_bytes);
        assert!(f > 0.98 && f <= 1.0);
        // Empty working set: nothing to miss.
        assert_eq!(m.miss_fraction(0, m.llc_bytes), 0.0);
    }

    #[test]
    fn streaming_footprint_misses_everything() {
        let cache = CacheModel::ivy_bridge();
        // Streaming 100 MiB through a 25 MiB LLC: ~75 % of lines go off-core.
        let fp = MemoryFootprint::streaming(100 * 1024 * 1024, 0);
        let req = estimate_offcore(&fp, &cache, cache.llc_bytes);
        let lines = fp.bytes_read / CACHE_LINE;
        assert!(
            req.data_rd > lines / 2,
            "expected mostly misses, got {req:?}"
        );
        assert_eq!(req.rfo, 0);
    }

    #[test]
    fn cached_footprint_produces_cold_misses_only() {
        let cache = CacheModel::ivy_bridge();
        let fp = MemoryFootprint {
            bytes_read: 1024 * 1024,
            bytes_written: 0,
            code_bytes: 0,
            working_set: 64 * 1024, // fits in L3 easily
        };
        let req = estimate_offcore(&fp, &cache, cache.llc_bytes);
        let lines = fp.bytes_read / CACHE_LINE;
        let expected = (lines as f64 * cache.cold_miss_fraction).ceil() as u64;
        assert_eq!(req.data_rd, expected);
    }

    #[test]
    fn writes_become_rfos() {
        let cache = CacheModel::ivy_bridge();
        let fp = MemoryFootprint::streaming(0, 200 * 1024 * 1024);
        let req = estimate_offcore(&fp, &cache, cache.llc_bytes);
        assert_eq!(req.data_rd, 0);
        assert!(req.rfo > 0);
    }

    #[test]
    fn smaller_llc_share_means_more_traffic() {
        let cache = CacheModel::ivy_bridge();
        let fp = MemoryFootprint {
            bytes_read: 50 * 1024 * 1024,
            bytes_written: 0,
            code_bytes: 0,
            working_set: 20 * 1024 * 1024,
        };
        let alone = estimate_offcore(&fp, &cache, cache.llc_bytes);
        let sharing = estimate_offcore(&fp, &cache, cache.llc_bytes / 10);
        assert!(
            sharing.data_rd > alone.data_rd,
            "sharing the LLC must increase off-core traffic ({} !> {})",
            sharing.data_rd,
            alone.data_rd
        );
    }

    #[test]
    fn bandwidth_formula_matches_paper() {
        // 1e9 requests/s × 64 B = 64 GB/s.
        let gb = bandwidth_gb_per_s(1_000_000_000, 1_000_000_000);
        assert!((gb - 64.0).abs() < 1e-9);
        assert_eq!(bandwidth_gb_per_s(100, 0), 0.0);
    }

    #[test]
    fn requests_bytes_total() {
        let r = OffcoreRequests {
            data_rd: 1,
            code_rd: 1,
            rfo: 1,
        };
        assert_eq!(r.total(), 3);
        assert_eq!(r.bytes(), 192);
    }
}
