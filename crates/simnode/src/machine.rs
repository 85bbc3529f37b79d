//! The simulated machine: sockets, cores, clocks, caches, and memory
//! controllers — the stand-in for the paper's dual-socket Ivy Bridge node
//! (Table III).

use serde::Serialize;

/// Static description of the simulated node.
#[derive(Debug, Clone, Serialize)]
pub struct MachineConfig {
    /// Number of sockets.
    pub sockets: u32,
    /// Cores per socket.
    pub cores_per_socket: u32,
    /// Core clock in GHz (scales `work_ns` given at nominal 1 GHz? No —
    /// task work is specified directly in nanoseconds at this clock).
    pub clock_ghz: f64,
    /// Shared last-level cache per socket, bytes.
    pub llc_bytes: u64,
    /// Peak memory bandwidth per socket (GB/s); the saturation point of
    /// Figures 13–14.
    pub mem_bw_per_socket_gbps: f64,
    /// Sustainable bandwidth of a single core's stream (GB/s); sets the
    /// memory-time component of a task before contention.
    pub per_core_stream_gbps: f64,
    /// Multiplier applied to a task's memory time when it runs on a
    /// different socket than the one it was enqueued on (remote cache
    /// line transfer / QPI hop).
    pub cross_socket_penalty: f64,
    /// Hardware threads per core (1 = hyper-threading disabled, the
    /// paper's main configuration; 2 = HT enabled for the Table IV
    /// comparison).
    pub smt: u32,
    /// Per-thread compute throughput when both SMT siblings are busy,
    /// relative to having the core alone (two busy siblings deliver
    /// `2 × smt_efficiency` of one thread's throughput).
    pub smt_efficiency: f64,
}

impl MachineConfig {
    /// The paper's platform: 2 × Intel Xeon E5-2670 v2 (Ivy Bridge),
    /// 10 cores/socket @ 2.5 GHz, 25 MiB L3 per socket, 4-channel DDR3-1866
    /// (≈ 59.7 GB/s peak per socket).
    pub fn ivy_bridge_2s10c() -> Self {
        MachineConfig {
            sockets: 2,
            cores_per_socket: 10,
            clock_ghz: 2.5,
            llc_bytes: 25 * 1024 * 1024,
            mem_bw_per_socket_gbps: 59.7,
            per_core_stream_gbps: 9.5,
            cross_socket_penalty: 0.6,
            smt: 1,
            smt_efficiency: 0.62,
        }
    }

    /// The same node with hyper-threading enabled (2 threads/core).
    pub fn ivy_bridge_2s10c_ht() -> Self {
        MachineConfig {
            smt: 2,
            ..MachineConfig::ivy_bridge_2s10c()
        }
    }

    /// A small two-socket machine for fast tests.
    pub fn small_2s2c() -> Self {
        MachineConfig {
            sockets: 2,
            cores_per_socket: 2,
            ..MachineConfig::ivy_bridge_2s10c()
        }
    }

    /// Total physical core count.
    pub fn total_cores(&self) -> u32 {
        self.sockets * self.cores_per_socket
    }

    /// Total schedulable hardware threads (cores × SMT).
    pub fn hw_threads(&self) -> u32 {
        self.total_cores() * self.smt.max(1)
    }

    /// Physical core of a hardware thread (compact SMT enumeration: hw
    /// threads 2k and 2k+1 are siblings on core k when `smt == 2`).
    pub fn core_of_hw(&self, hw_thread: u32) -> u32 {
        hw_thread / self.smt.max(1)
    }

    /// Socket of a hardware thread.
    pub fn socket_of_hw(&self, hw_thread: u32) -> u32 {
        self.socket_of(self.core_of_hw(hw_thread))
    }

    /// Socket owning a core, under fill-first pinning: cores `0..c` are on
    /// socket 0, `c..2c` on socket 1, … (the paper pins threads so sockets
    /// fill first; the socket boundary at core 10 is visible in Figs 6/11/12).
    pub fn socket_of(&self, core: u32) -> u32 {
        core / self.cores_per_socket
    }

    /// Number of sockets spanned when `cores` cores are used fill-first.
    pub fn sockets_used(&self, cores: u32) -> u32 {
        cores.div_ceil(self.cores_per_socket).clamp(1, self.sockets)
    }

    /// Aggregate memory bandwidth available to `cores` cores (fill-first).
    pub fn available_bw_gbps(&self, cores: u32) -> f64 {
        self.sockets_used(cores) as f64 * self.mem_bw_per_socket_gbps
    }

    /// Table III-style description block.
    pub fn describe(&self) -> String {
        format!(
            "simulated node: {} sockets x {} cores @ {:.1} GHz, {} MiB LLC/socket, \
             {:.1} GB/s mem BW/socket, fill-first pinning",
            self.sockets,
            self.cores_per_socket,
            self.clock_ghz,
            self.llc_bytes / (1024 * 1024),
            self.mem_bw_per_socket_gbps
        )
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::ivy_bridge_2s10c()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ivy_bridge_shape() {
        let m = MachineConfig::ivy_bridge_2s10c();
        assert_eq!(m.total_cores(), 20);
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(9), 0);
        assert_eq!(m.socket_of(10), 1);
        assert_eq!(m.socket_of(19), 1);
    }

    #[test]
    fn sockets_used_fill_first() {
        let m = MachineConfig::ivy_bridge_2s10c();
        assert_eq!(m.sockets_used(1), 1);
        assert_eq!(m.sockets_used(10), 1);
        assert_eq!(m.sockets_used(11), 2);
        assert_eq!(m.sockets_used(20), 2);
        // Clamped above the physical socket count.
        assert_eq!(m.sockets_used(99), 2);
    }

    #[test]
    fn bandwidth_doubles_across_socket_boundary() {
        let m = MachineConfig::ivy_bridge_2s10c();
        let one = m.available_bw_gbps(10);
        let two = m.available_bw_gbps(11);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn describe_mentions_topology() {
        let d = MachineConfig::ivy_bridge_2s10c().describe();
        assert!(d.contains("2 sockets"));
        assert!(d.contains("10 cores"));
    }

    #[test]
    fn smt_enumeration_is_compact() {
        let m = MachineConfig::ivy_bridge_2s10c_ht();
        assert_eq!(m.hw_threads(), 40);
        assert_eq!(m.core_of_hw(0), 0);
        assert_eq!(m.core_of_hw(1), 0);
        assert_eq!(m.core_of_hw(2), 1);
        assert_eq!(m.socket_of_hw(19), 0);
        assert_eq!(m.socket_of_hw(20), 1);
        // Without SMT, hw threads are cores.
        let m1 = MachineConfig::ivy_bridge_2s10c();
        assert_eq!(m1.hw_threads(), 20);
        assert_eq!(m1.core_of_hw(7), 7);
    }

    #[test]
    fn serializes() {
        let m = MachineConfig::default();
        let v = serde_json::from_str(&serde_json::to_string(&m).unwrap()).unwrap();
        assert_eq!(v["sockets"], m.sockets);
        assert_eq!(v["cores_per_socket"], m.cores_per_socket);
        assert_eq!(v["smt_efficiency"], m.smt_efficiency);
    }
}
