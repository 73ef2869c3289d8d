//! The fleet's deterministic clock.
//!
//! The event loop is discrete-time: every trace event carries a tick, the
//! clock only moves when an event is handled, and nothing in the service
//! reads wall-clock time. Two runs of the same trace therefore see the
//! same clock at every decision point — the precondition for the
//! pool-size, shard-count and recovery invariance guarantees.

/// Monotonic discrete simulation time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// A clock at tick 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances to `tick`. Time never moves backwards: an out-of-order
    /// event is handled at the current tick instead (traces are expected
    /// to be sorted; this keeps a malformed trace deterministic rather
    /// than panicking mid-fleet).
    pub fn advance_to(&mut self, tick: u64) {
        self.now = self.now.max(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let mut c = SimClock::new();
        c.advance_to(5);
        c.advance_to(3);
        assert_eq!(c.now(), 5, "time never rewinds");
        c.advance_to(9);
        assert_eq!(c.now(), 9);
    }
}
