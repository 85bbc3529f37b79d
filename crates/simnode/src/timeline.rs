//! Time-binned views of a simulated run — the simulator's counterpart of
//! the paper's interval counter sampling (`--hpx:print-counter-interval`):
//! core utilization and off-core bandwidth over virtual time.

use serde::Serialize;

/// One executed task occurrence, recorded when
/// [`SimConfig::collect_spans`](crate::engine::SimConfig) is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SimSpan {
    /// Start of execution (virtual ns).
    pub start_ns: u64,
    /// Duration (virtual ns).
    pub duration_ns: u64,
    /// Hardware thread that ran the task.
    pub core: u32,
    /// Off-core requests the task generated.
    pub offcore_requests: u64,
}

/// One bin of a [`Timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct TimelineBin {
    /// Bin start (virtual ns).
    pub t_ns: u64,
    /// Mean busy cores over the bin.
    pub busy_cores: f64,
    /// Off-core bandwidth over the bin, GB/s.
    pub bandwidth_gbps: f64,
    /// Tasks that *started* in the bin.
    pub tasks_started: u64,
}

/// A binned timeline computed from spans.
#[derive(Debug, Clone, Serialize)]
pub struct Timeline {
    /// Bin width (virtual ns).
    pub bin_ns: u64,
    /// The bins, covering `[0, makespan)`.
    pub bins: Vec<TimelineBin>,
}

impl Timeline {
    /// Bin `spans` over `[0, makespan_ns)` into `bins` equal intervals.
    ///
    /// Busy time and traffic are apportioned to bins proportionally to the
    /// overlap of each span with each bin, so totals are conserved.
    pub fn from_spans(spans: &[SimSpan], makespan_ns: u64, bins: usize) -> Timeline {
        let bins = bins.max(1);
        let bin_ns = makespan_ns.div_ceil(bins as u64).max(1);
        let mut busy = vec![0.0f64; bins];
        let mut traffic = vec![0.0f64; bins];
        let mut started = vec![0u64; bins];

        for s in spans {
            let start_bin = ((s.start_ns / bin_ns) as usize).min(bins - 1);
            started[start_bin] += 1;
            if s.duration_ns == 0 {
                continue;
            }
            let end_ns = s.start_ns + s.duration_ns;
            let bytes_per_ns = (s.offcore_requests * 64) as f64 / s.duration_ns as f64;
            let mut b = start_bin;
            loop {
                let bin_start = b as u64 * bin_ns;
                let bin_end = bin_start + bin_ns;
                let last = b + 1 >= bins;
                // The final bin absorbs everything past its end — spans can
                // outlive `makespan_ns` (callers pass estimates, and
                // `bins * bin_ns` rounds up anyway), and clipping there
                // would silently break the conservation contract above.
                let hi = if last { end_ns } else { end_ns.min(bin_end) };
                let overlap = hi.saturating_sub(s.start_ns.max(bin_start)) as f64;
                if overlap > 0.0 {
                    busy[b] += overlap;
                    traffic[b] += overlap * bytes_per_ns;
                }
                if last || bin_end >= end_ns {
                    break;
                }
                b += 1;
            }
        }

        Timeline {
            bin_ns,
            bins: (0..bins)
                .map(|b| TimelineBin {
                    t_ns: b as u64 * bin_ns,
                    busy_cores: busy[b] / bin_ns as f64,
                    bandwidth_gbps: traffic[b] / bin_ns as f64,
                    tasks_started: started[b],
                })
                .collect(),
        }
    }

    /// Peak mean-busy-cores over any bin.
    pub fn peak_busy_cores(&self) -> f64 {
        self.bins.iter().map(|b| b.busy_cores).fold(0.0, f64::max)
    }

    /// Total tasks started.
    pub fn total_tasks(&self) -> u64 {
        self.bins.iter().map(|b| b.tasks_started).sum()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::from("      t[ms]   busy cores     BW[GB/s]  tasks started\n");
        for b in &self.bins {
            out.push_str(&format!(
                "{:>11.3} {:>12.2} {:>12.3} {:>14}\n",
                b.t_ns as f64 / 1e6,
                b.busy_cores,
                b.bandwidth_gbps,
                b.tasks_started
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, dur: u64, core: u32, req: u64) -> SimSpan {
        SimSpan {
            start_ns: start,
            duration_ns: dur,
            core,
            offcore_requests: req,
        }
    }

    #[test]
    fn busy_time_is_conserved() {
        let spans = vec![
            span(0, 100, 0, 0),
            span(50, 200, 1, 0),
            span(900, 100, 0, 0),
        ];
        let tl = Timeline::from_spans(&spans, 1_000, 10);
        let total_busy: f64 = tl
            .bins
            .iter()
            .map(|b| b.busy_cores * tl.bin_ns as f64)
            .sum();
        assert!((total_busy - 400.0).abs() < 1e-6, "busy time {total_busy}");
        assert_eq!(tl.total_tasks(), 3);
    }

    #[test]
    fn traffic_is_conserved() {
        // One span of 64 requests = 4096 bytes, split across bins.
        let spans = vec![span(150, 300, 0, 64)];
        let tl = Timeline::from_spans(&spans, 600, 6);
        let total_bytes: f64 = tl
            .bins
            .iter()
            .map(|b| b.bandwidth_gbps * tl.bin_ns as f64)
            .sum();
        assert!((total_bytes - 4096.0).abs() < 1.0, "traffic {total_bytes}");
    }

    #[test]
    fn concurrent_spans_raise_busy_cores() {
        let spans = vec![
            span(0, 1_000, 0, 0),
            span(0, 1_000, 1, 0),
            span(0, 1_000, 2, 0),
        ];
        let tl = Timeline::from_spans(&spans, 1_000, 4);
        for b in &tl.bins {
            assert!((b.busy_cores - 3.0).abs() < 1e-9);
        }
        assert_eq!(tl.peak_busy_cores(), 3.0);
    }

    #[test]
    fn spans_past_the_last_bin_clamp() {
        let spans = vec![span(990, 100, 0, 64)];
        let tl = Timeline::from_spans(&spans, 1_000, 10);
        // Starts in the last bin; the 90ns running past the makespan fold
        // into the final bin rather than vanishing.
        assert_eq!(tl.bins[9].tasks_started, 1);
        let last_busy = tl.bins[9].busy_cores * tl.bin_ns as f64;
        assert!((last_busy - 100.0).abs() < 1e-6, "busy {last_busy}");
        let total_bytes: f64 = tl
            .bins
            .iter()
            .map(|b| b.bandwidth_gbps * tl.bin_ns as f64)
            .sum();
        assert!((total_bytes - 4096.0).abs() < 1e-6, "traffic {total_bytes}");
    }

    #[test]
    fn span_starting_after_the_makespan_is_fully_counted() {
        // Callers pass estimated makespans; a span lying wholly past the
        // last bin still lands (entirely) in the final bin.
        let spans = vec![span(2_000, 50, 0, 0)];
        let tl = Timeline::from_spans(&spans, 1_000, 10);
        assert_eq!(tl.bins[9].tasks_started, 1);
        let last_busy = tl.bins[9].busy_cores * tl.bin_ns as f64;
        assert!((last_busy - 50.0).abs() < 1e-6, "busy {last_busy}");
    }

    #[test]
    fn empty_spans_yield_flat_timeline() {
        let tl = Timeline::from_spans(&[], 1_000, 5);
        assert_eq!(tl.bins.len(), 5);
        assert_eq!(tl.total_tasks(), 0);
        assert_eq!(tl.peak_busy_cores(), 0.0);
    }

    #[test]
    fn render_has_a_row_per_bin() {
        let tl = Timeline::from_spans(&[span(0, 10, 0, 0)], 100, 4);
        assert_eq!(tl.render().lines().count(), 5);
    }

    mod conservation {
        use super::*;
        use proptest::prelude::*;

        fn arb_span() -> impl Strategy<Value = SimSpan> {
            // Starts and durations deliberately straddle the makespan used
            // below (1_000) so overhang and fully-out-of-range spans are
            // generated, not just in-range ones.
            (0u64..2_000, 0u64..1_500, 0u32..4, 0u64..256)
                .prop_map(|(start, dur, core, req)| span(start, dur, core, req))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // The doc-comment's conservation contract, for arbitrary
            // spans, makespans, and bin counts: per-bin totals sum to the
            // span totals exactly (to float tolerance) — busy time,
            // off-core bytes, and task starts.
            #[test]
            fn per_bin_totals_sum_to_span_totals(
                spans in proptest::collection::vec(arb_span(), 0..40),
                makespan in 1u64..3_000,
                bins in 1usize..20,
            ) {
                let tl = Timeline::from_spans(&spans, makespan, bins);

                let want_busy: f64 = spans.iter().map(|s| s.duration_ns as f64).sum();
                let got_busy: f64 = tl.bins.iter()
                    .map(|b| b.busy_cores * tl.bin_ns as f64)
                    .sum();
                prop_assert!(
                    (got_busy - want_busy).abs() < 1e-6 * want_busy.max(1.0),
                    "busy: got {got_busy}, want {want_busy}"
                );

                let want_bytes: f64 = spans.iter()
                    .filter(|s| s.duration_ns > 0)
                    .map(|s| (s.offcore_requests * 64) as f64)
                    .sum();
                let got_bytes: f64 = tl.bins.iter()
                    .map(|b| b.bandwidth_gbps * tl.bin_ns as f64)
                    .sum();
                prop_assert!(
                    (got_bytes - want_bytes).abs() < 1e-6 * want_bytes.max(1.0),
                    "bytes: got {got_bytes}, want {want_bytes}"
                );

                prop_assert_eq!(tl.total_tasks(), spans.len() as u64);
            }
        }
    }
}
