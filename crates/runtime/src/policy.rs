//! Launch policies, mirroring HPX's `hpx::launch` (Table IV of the paper).

/// How a spawned task is introduced to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaunchPolicy {
    /// Schedule the task for asynchronous execution (child stealing: the
    /// child is made stealable, the parent keeps running). The paper found
    /// this the best-performing policy and reports all results with it.
    #[default]
    Async,
    /// Continuation stealing for strict fork/join: the child runs
    /// immediately on the spawning worker. In HPX the *continuation* of
    /// the parent becomes stealable; without stackful coroutines we
    /// approximate by inverting execution order (child first), which
    /// preserves the policy's locality and queue-pressure characteristics.
    Fork,
    /// Do not schedule; the task runs inline on the first thread that
    /// waits on its future (C++ `std::launch::deferred`).
    Deferred,
    /// Execute synchronously in the spawn call itself.
    Sync,
}

impl LaunchPolicy {
    /// All policies, for exhaustive experiments.
    pub const ALL: [LaunchPolicy; 4] = [
        LaunchPolicy::Async,
        LaunchPolicy::Fork,
        LaunchPolicy::Deferred,
        LaunchPolicy::Sync,
    ];

    /// The command-line name of the policy (`--policy=async`, …).
    pub fn name(self) -> &'static str {
        match self {
            LaunchPolicy::Async => "async",
            LaunchPolicy::Fork => "fork",
            LaunchPolicy::Deferred => "deferred",
            LaunchPolicy::Sync => "sync",
        }
    }

    /// Parse a policy name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// What the runtime does when a spawn arrives while the admission gate is
/// closed (pending tasks ≥ `RuntimeConfig::max_pending`).
///
/// The gate uses hysteresis: it closes at the high watermark
/// (`max_pending`) and reopens only once pending work drains to the low
/// watermark (`resume_pending`), so a saturated runtime does not thrash
/// admission decisions at the boundary.
///
/// The policy governs the infallible spawns. The fallible `try_spawn`
/// never blocks or degrades: under either policy a closed gate makes it
/// return [`SpawnError::Overloaded`](crate::SpawnError) with the closure
/// handed back, counted in `/runtime/health/shed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OverloadPolicy {
    /// Park the spawning thread until the gate reopens (caller
    /// backpressure). Waiters are served in FIFO ticket order, so no
    /// spawner is starved by late arrivals. Spawns issued *from worker
    /// threads* degrade to inline execution instead of blocking — a worker
    /// waiting on admission would deadlock the very drain that reopens the
    /// gate.
    #[default]
    Block,
    /// Run the task inline in the spawning thread, bounding queue growth
    /// by converting producers into consumers.
    Degrade,
}

impl OverloadPolicy {
    /// All policies, for exhaustive experiments.
    pub const ALL: [OverloadPolicy; 2] = [OverloadPolicy::Block, OverloadPolicy::Degrade];

    /// The command-line name of the policy (`--overload=degrade`, …).
    pub fn name(self) -> &'static str {
        match self {
            OverloadPolicy::Block => "block",
            OverloadPolicy::Degrade => "degrade",
        }
    }

    /// Parse a policy name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for p in LaunchPolicy::ALL {
            assert_eq!(LaunchPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(LaunchPolicy::from_name("bogus"), None);
    }

    #[test]
    fn default_is_async() {
        assert_eq!(LaunchPolicy::default(), LaunchPolicy::Async);
    }

    #[test]
    fn overload_names_round_trip() {
        for p in OverloadPolicy::ALL {
            assert_eq!(OverloadPolicy::from_name(p.name()), Some(p));
        }
        assert_eq!(OverloadPolicy::from_name("panic"), None);
    }

    #[test]
    fn overload_default_is_block() {
        assert_eq!(OverloadPolicy::default(), OverloadPolicy::Block);
    }
}
