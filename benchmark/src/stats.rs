//! The statistics every number in the benchmark goes through: order
//! statistics over samples, the log-interpolated METG crossing, and the
//! bound comparator behind `compare`.

/// A duration in milliseconds, the unit every op time is kept in.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Arithmetic mean; 0 when there are no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `p`-quantile (0..=1) of `sorted` by linear interpolation between the
/// closest ranks. `sorted` must be ascending and non-empty.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of `values` (NaN-free by construction: every sample is
/// a measured duration or count).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `values`; 0 when there are none (an empty metric is
/// reported as a failed op by its caller, never silently).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(values), 0.5)
}

/// Median with quartiles and the sample count. The quartiles are those
/// of Python's `statistics.quantiles(values, n=4)` (the exclusive method),
/// so a spread computed here is the spread the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                q1: 0.0,
                median: 0.0,
                q3: 0.0,
            };
        }
        let s = sorted(values);
        let n = s.len();
        if n == 1 {
            return Summary {
                n,
                q1: s[0],
                median: s[0],
                q3: s[0],
            };
        }
        let cut = |i: usize| {
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
            (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
        };
        Summary {
            n,
            q1: cut(1),
            median: cut(2),
            q3: cut(3),
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The highest percentile, out of the ladder 50/75/90/95/99/99.9, that
/// still has at least ten samples beyond it — the tail a sample of size
/// `n` can support. `None` below 20 samples (not even the median has ten
/// beyond it).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    LADDER
        .into_iter()
        .find(|p| (n as f64) * (100.0 - p) / 100.0 >= 10.0)
}

/// Where a descending grain ladder's efficiency envelope crosses `floor`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Crossing {
    /// Log-interpolated grain (ns) at which the envelope hits the floor.
    At(f64),
    /// The envelope never drops below the floor on this ladder (or never
    /// reaches it): there is no crossing to report, which the stencil
    /// workload counts as a failed op rather than inventing a number.
    Never,
}

/// METG from `(grain_ns, efficiency)` points in any order: sort coarsest
/// first, take the running minimum (efficiency may only fall toward finer
/// grain) and log-interpolate the first step that ends below `floor`.
pub fn metg_crossing(points: &[(f64, f64)], floor: f64) -> Crossing {
    let mut pts = points.to_vec();
    pts.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut env = f64::INFINITY;
    let mut prev: Option<(f64, f64)> = None;
    for (grain, eff) in pts {
        env = env.min(eff);
        if env < floor {
            let Some((g_hi, e_hi)) = prev else {
                // Below the floor already at the coarsest grain.
                return Crossing::Never;
            };
            let f = if e_hi - env <= f64::EPSILON {
                0.0
            } else {
                (e_hi - floor) / (e_hi - env)
            };
            return Crossing::At((g_hi.ln() + f * (grain.ln() - g_hi.ln())).exp());
        }
        prev = Some((grain, env));
    }
    Crossing::Never
}

/// Outcome of comparing one (workload, metric) pair between two result
/// sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The same-code spread or the host drift is wider than the bound, so
    /// the medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of A's median B is worse (positive) or better
/// (negative), given the metric's direction.
pub fn worsening(a_median: f64, b_median: f64, higher_is_better: bool) -> f64 {
    if a_median == 0.0 {
        return 0.0;
    }
    let rel = (b_median - a_median) / a_median.abs();
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

/// The bound comparator: `unresolved` when either side's own spread or
/// the recorded host drift exceeds `bound`, otherwise better / same /
/// worse by whether the medians differ by more than `bound`.
pub fn verdict(
    a: Summary,
    b: Summary,
    higher_is_better: bool,
    bound: f64,
    host_drift: f64,
) -> Verdict {
    if a.spread() > bound || b.spread() > bound || host_drift > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(a.median, b.median, higher_is_better);
    if w > bound {
        Verdict::Worse
    } else if w < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!((s.n, s.q1, s.median, s.q3), (5, 1.5, 3.0, 4.5));
        assert_eq!(s.spread(), 1.0);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let two = Summary::of(&[20.0, 10.0]);
        assert_eq!((two.q1, two.median, two.q3), (7.5, 15.0, 22.5));
        assert_eq!(Summary::of(&[7.0]).spread(), 0.0);
    }

    #[test]
    fn quantile_ends_are_min_and_max() {
        let s = sorted(&[9.0, 1.0, 5.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 9.0);
        assert_eq!(quantile_sorted(&s, 0.9), 5.0 + 0.8 * 4.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(600), Some(95.0));
        assert_eq!(highest_supported_percentile(16_384), Some(99.9));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
    }

    #[test]
    fn metg_log_interpolates_the_first_step_below_the_floor() {
        // 0.8 at 1000 ns, 0.4 at 250 ns: the 0.5 crossing sits 3/4 of the
        // way down in log space: 1000 * (250/1000)^(0.75).
        let pts = [(250.0, 0.4), (1000.0, 0.8), (4000.0, 0.95)];
        let Crossing::At(ns) = metg_crossing(&pts, 0.5) else {
            panic!("expected a crossing");
        };
        assert!((ns - 1000.0 * 0.25f64.powf(0.75)).abs() < 1e-9, "{ns}");
    }

    #[test]
    fn metg_reads_the_running_minimum_not_the_raw_curve() {
        // A noisy dip at 2000 ns (0.45) must set the crossing there even
        // though 1000 ns measured above the floor again.
        let pts = [(4000.0, 0.9), (2000.0, 0.45), (1000.0, 0.6), (500.0, 0.3)];
        let Crossing::At(ns) = metg_crossing(&pts, 0.5) else {
            panic!("expected a crossing");
        };
        assert!(ns > 2000.0 && ns < 4000.0, "{ns}");
    }

    #[test]
    fn metg_never_crosses_is_not_a_number() {
        assert_eq!(
            metg_crossing(&[(250.0, 0.7), (1000.0, 0.9)], 0.5),
            Crossing::Never
        );
        assert_eq!(
            metg_crossing(&[(250.0, 0.1), (1000.0, 0.2)], 0.5),
            Crossing::Never
        );
        assert_eq!(metg_crossing(&[], 0.5), Crossing::Never);
    }

    fn flat(v: f64) -> Summary {
        Summary {
            n: 10,
            q1: v,
            median: v,
            q3: v,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Lower is better: +12 % is worse, -12 % better, +5 % same.
        assert_eq!(
            verdict(flat(100.0), flat(112.0), false, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(flat(100.0), flat(88.0), false, 0.1, 0.0),
            Verdict::Better
        );
        assert_eq!(
            verdict(flat(100.0), flat(105.0), false, 0.1, 0.0),
            Verdict::Same
        );
        // Higher is better flips the sign.
        assert_eq!(
            verdict(flat(100.0), flat(88.0), true, 0.1, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            verdict(flat(100.0), flat(112.0), true, 0.1, 0.0),
            Verdict::Better
        );
    }

    #[test]
    fn verdict_is_unresolved_when_spread_or_drift_exceeds_the_bound() {
        let wide = Summary {
            n: 10,
            q1: 90.0,
            median: 100.0,
            q3: 105.0,
        };
        assert_eq!(
            verdict(wide, flat(130.0), false, 0.1, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(flat(100.0), flat(130.0), false, 0.1, 0.2),
            Verdict::Unresolved
        );
        // The same spread under a wider bound resolves.
        assert_eq!(verdict(wide, flat(130.0), false, 0.25, 0.0), Verdict::Worse);
    }
}
