//! What the host was doing while a workload ran: a fixed spin kernel on
//! one and on two threads, the process's peak resident set, and the
//! provenance written into every result file.

use std::time::Instant;

use rpx_taskbench::spin_iters;
use serde_json::Value;

use crate::json::{int, obj, text};
use crate::stats::ms;

/// Iterations of the LCG kernel per probe thread (≈50 ms on the sandbox).
const PROBE_ITERS: u64 = 60_000_000;

/// One reading of the host probe.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// The kernel alone on the calling thread, ms.
    pub spin_1t_ms: f64,
    /// The same kernel on two threads at once, wall ms (equal to
    /// `spin_1t_ms` on two independent cores).
    pub spin_2t_ms: f64,
}

impl HostProbe {
    pub fn measure(scale: f64) -> HostProbe {
        let iters = ((PROBE_ITERS as f64 * scale) as u64).max(1_000_000);
        let t0 = Instant::now();
        spin_iters(iters);
        let spin_1t_ms = ms(t0.elapsed());
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| spin_iters(iters));
            spin_iters(iters);
        });
        let spin_2t_ms = ms(t0.elapsed());
        HostProbe {
            spin_1t_ms,
            spin_2t_ms,
        }
    }

    /// Work done per wall second by two threads relative to one: 2 on two
    /// independent cores, 1 when they share one.
    pub fn par_speedup_2t(&self) -> f64 {
        2.0 * self.spin_1t_ms / self.spin_2t_ms
    }

    /// Largest relative change of either reading from `self` to `after`.
    pub fn drift_to(&self, after: &HostProbe) -> f64 {
        let d1 = (after.spin_1t_ms / self.spin_1t_ms - 1.0).abs();
        let d2 = (after.spin_2t_ms / self.spin_2t_ms - 1.0).abs();
        d1.max(d2)
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` does not provide it).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the scheduler will give this process.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where a result came from. `git` and `rustc` are asked only by the
/// aggregating `run`, never by a single-workload run the driver times.
pub fn provenance(seed: u64) -> Value {
    let ask = |program: &str, args: &[&str]| {
        text(command_line(program, args).unwrap_or_else(|| "unknown".into()))
    };
    obj([
        ("git_commit", ask("git", &["rev-parse", "HEAD"])),
        // Non-empty when the measured tree differs from that commit.
        ("git_status", ask("git", &["status", "--porcelain"])),
        ("rustc", ask("rustc", &["-V"])),
        ("nproc", ask("nproc", &[])),
        ("available_parallelism", int(available_parallelism() as u64)),
        ("cpu_model", text(cpu_model())),
        ("seed", int(seed)),
    ])
}
