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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_async() {
        assert_eq!(LaunchPolicy::default(), LaunchPolicy::Async);
    }
}
