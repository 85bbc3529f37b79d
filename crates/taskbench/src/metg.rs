//! METG: minimum effective task granularity on the simulated node.
//!
//! Task Bench's standard overhead metric. Efficiency of a run at grain *g*
//! is `T_ideal / T_meas` with `T_ideal = max(W/P, T∞)` (Brent's bound);
//! METG is the smallest grain at which efficiency still reaches the floor
//! (50 % by convention). Because a finite ladder can only bracket the
//! crossing, the result is a [`MetgBound`]: an interpolated crossing, or a
//! one-sided bound when the whole ladder sits on one side of the floor.
//!
//! Only the simulator is swept here: its runs are deterministic, so one
//! pass over the ladder is the curve. Native METG is timed by
//! `rpx-benchmark`'s `stencil_ladder_w1` workload (`metg50_ns`).

use crate::backend::{Backend, BackendError, RunStats, SimBackend};
use crate::gen::WorkloadSpec;
use crate::grain::GrainCalibration;
use crate::shape::Shape;

/// Efficiency floor that defines METG.
const FLOOR: f64 = 0.5;

/// The METG verdict for one (shape × backend × workers) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetgBound {
    /// The 50%-efficiency crossing fell inside the ladder; `ns` is the
    /// log-interpolated grain.
    Crossing {
        /// Interpolated METG, ns.
        ns: f64,
    },
    /// Efficiency stayed at or above the floor down to the finest grain
    /// tested — METG is at most `ns`.
    AtMost {
        /// Finest grain tested, ns.
        ns: u64,
    },
    /// Efficiency was below the floor even at the coarsest grain tested —
    /// METG is above `ns` (or the cell is span-bound).
    Above {
        /// Coarsest grain tested, ns.
        ns: u64,
    },
}

impl std::fmt::Display for MetgBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetgBound::Crossing { ns } => write!(f, "{ns:.0} ns"),
            MetgBound::AtMost { ns } => write!(f, "<= {ns} ns"),
            MetgBound::Above { ns } => write!(f, "> {ns} ns"),
        }
    }
}

/// One grain of a cell's efficiency curve.
#[derive(Debug, Clone)]
pub struct Rung {
    /// Requested per-task grain, ns.
    pub grain_ns: u64,
    /// The simulated run, or why it failed.
    pub run: Result<RunStats, BackendError>,
    /// Running minimum of the efficiencies from the coarsest grain down to
    /// this one (a failed run counts as 0) — what METG is read from.
    pub efficiency_env: f64,
}

/// Log-spaced grain ladder from `max_ns` down to `min_ns` (inclusive).
pub fn grain_ladder(min_ns: u64, max_ns: u64, points: usize) -> Vec<u64> {
    let (min_ns, max_ns) = (min_ns.max(1), max_ns.max(min_ns.max(1)));
    if points <= 1 || min_ns == max_ns {
        return vec![max_ns];
    }
    let (lo, hi) = ((min_ns as f64).ln(), (max_ns as f64).ln());
    let mut out: Vec<u64> = (0..points)
        .map(|i| {
            let f = i as f64 / (points - 1) as f64;
            (hi - f * (hi - lo)).exp().round() as u64
        })
        .collect();
    out.dedup();
    out
}

/// Simulate `shape` at every grain of `grains_ns` (coarsest first, as
/// [`grain_ladder`] returns them) on `workers` simulated cores, and read
/// the METG off the efficiency envelope. A failed run is kept as its rung's
/// error rather than ending the sweep.
pub fn simulated_metg(
    backend: &SimBackend,
    shape: Shape,
    seed: u64,
    workers: usize,
    grains_ns: &[u64],
) -> (Vec<Rung>, MetgBound) {
    // The simulator charges task work virtually; the spin rate is unused.
    let cal = GrainCalibration::fixed(100.0);
    let mut env = f64::INFINITY;
    let rungs: Vec<Rung> = grains_ns
        .iter()
        .map(|&grain_ns| {
            let graph = WorkloadSpec::new(shape, grain_ns, seed).build();
            let run = backend.run(&graph, workers, &cal);
            env = env.min(run.as_ref().map_or(0.0, RunStats::efficiency));
            Rung {
                grain_ns,
                run,
                efficiency_env: env,
            }
        })
        .collect();
    let envelope: Vec<(u64, f64)> = rungs
        .iter()
        .map(|r| (r.grain_ns, r.efficiency_env))
        .collect();
    let metg = read_metg(&envelope, FLOOR);
    (rungs, metg)
}

/// Read the METG crossing off a monotone `(grain_ns, envelope)` curve,
/// coarsest grain first.
fn read_metg(envelope: &[(u64, f64)], floor: f64) -> MetgBound {
    let Some(&(first_ns, first_env)) = envelope.first() else {
        return MetgBound::Above { ns: 0 };
    };
    if first_env < floor {
        return MetgBound::Above { ns: first_ns };
    }
    for w in envelope.windows(2) {
        let ((ga, ea), (gb, eb)) = (w[0], w[1]);
        if eb < floor {
            // Log-interpolate the grain where the envelope hits the floor.
            let (ga, gb) = ((ga as f64).ln(), (gb as f64).ln());
            let f = if (ea - eb).abs() < f64::EPSILON {
                0.0
            } else {
                (ea - floor) / (ea - eb)
            };
            return MetgBound::Crossing {
                ns: (ga + f * (gb - ga)).exp(),
            };
        }
    }
    MetgBound::AtMost {
        ns: envelope.last().map_or(first_ns, |&(g, _)| g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_log_spaced_descending() {
        let l = grain_ladder(1_000, 1_000_000, 4);
        assert_eq!(l.first(), Some(&1_000_000));
        assert_eq!(l.last(), Some(&1_000));
        assert!(l.windows(2).all(|w| w[0] > w[1]));
        // Log-spacing: successive ratios are equal (10× here).
        assert_eq!(l, vec![1_000_000, 100_000, 10_000, 1_000]);
        assert_eq!(grain_ladder(5, 5, 3), vec![5]);
    }

    #[test]
    fn metg_bounds_cover_all_three_cases() {
        assert_eq!(
            read_metg(&[(1_000, 0.3)], 0.5),
            MetgBound::Above { ns: 1_000 }
        );
        assert_eq!(
            read_metg(&[(1_000, 0.9), (100, 0.6)], 0.5),
            MetgBound::AtMost { ns: 100 }
        );
        match read_metg(&[(1_000, 0.9), (100, 0.25)], 0.5) {
            MetgBound::Crossing { ns } => {
                assert!(ns > 100.0 && ns < 1_000.0, "interpolated inside: {ns}");
            }
            other => panic!("expected crossing, got {other:?}"),
        }
    }

    #[test]
    fn metg_interpolation_is_exact_at_midpoint() {
        // Envelope falls linearly in log-grain: floor halfway between the
        // efficiencies lands halfway between the log-grains.
        match read_metg(&[(10_000, 0.8), (100, 0.2)], 0.5) {
            MetgBound::Crossing { ns } => assert!((ns - 1_000.0).abs() < 1.0, "{ns}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sweep_on_simulator_yields_monotone_envelope() {
        let shape = Shape::Stencil {
            width: 16,
            steps: 8,
        };
        let ladder = grain_ladder(500, 50_000, 4);
        let sweep = || simulated_metg(&SimBackend::hpx(), shape, 1, 4, &ladder);
        let (rungs, metg) = sweep();
        assert_eq!(rungs.len(), 4);
        assert_eq!(rungs[0].grain_ns, 50_000);
        assert!(rungs.iter().all(|r| r.run.is_ok()));
        assert!(rungs
            .windows(2)
            .all(|w| w[0].efficiency_env >= w[1].efficiency_env));
        // The simulator is deterministic: two sweeps render identically.
        let render = |(rungs, metg): (Vec<Rung>, MetgBound)| format!("{rungs:?} {metg}");
        assert_eq!(render(sweep()), render((rungs, metg)));
    }
}
