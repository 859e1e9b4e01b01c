//! Adaptive idle backoff: spin → yield → park.
//!
//! The worker lcores draining their RX rings poll with this three-stage
//! policy: a short busy-spin keeps latency minimal while traffic is
//! flowing, a yield phase stays polite under brief lulls, and a bounded
//! park stops burning a host core when the queue goes quiet — without
//! needing a wakeup signal, because the park always times out. Stages
//! downstream of the lcores have a single bus feed each and block on it
//! instead of polling.
//!
//! Built on the [`crate::sync`] shim, so a loom model can exhaustively
//! check the classic backoff hazard: a producer publishing right as the
//! consumer decides to park (see `tests/loom_nic.rs`).

use crate::sync::{hint, thread};
use std::time::Duration;

/// Three-stage spin → yield → park idle policy.
#[derive(Debug, Clone)]
pub struct Backoff {
    spin_limit: u32,
    yield_limit: u32,
    park_timeout: Duration,
    idles: u32,
}

impl Backoff {
    /// A policy that spins for the first `spin_limit` idle rounds, yields
    /// until `yield_limit`, then parks for `park_timeout` per round.
    pub fn new(spin_limit: u32, yield_limit: u32, park_timeout: Duration) -> Backoff {
        // panic-ok: construction-time config validation with literal limits
        assert!(spin_limit <= yield_limit);
        Backoff {
            spin_limit,
            yield_limit,
            park_timeout,
            idles: 0,
        }
    }

    /// The policy worker lcores use between empty polls.
    pub fn lcore() -> Backoff {
        Backoff::new(64, 256, Duration::from_micros(50))
    }

    /// Record one idle round and wait according to the current stage.
    pub fn idle(&mut self) {
        self.idles = self.idles.saturating_add(1);
        if self.idles <= self.spin_limit {
            hint::spin_loop();
        } else if self.idles <= self.yield_limit {
            thread::yield_now();
        } else {
            thread::park_timeout(self.park_timeout);
        }
    }

    /// Work arrived: restart from the spin stage.
    pub fn reset(&mut self) {
        self.idles = 0;
    }

    /// True once `idle` has escalated past spinning and yielding (useful
    /// for tests and for metrics on how often pollers go quiescent).
    pub fn is_parking(&self) -> bool {
        self.idles > self.yield_limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escalates_through_stages() {
        let mut b = Backoff::new(2, 4, Duration::from_micros(1));
        assert!(!b.is_parking());
        for _ in 0..4 {
            b.idle();
        }
        assert!(!b.is_parking());
        b.idle(); // 5th: past yield_limit
        assert!(b.is_parking());
    }

    #[test]
    fn reset_restarts_from_spin() {
        let mut b = Backoff::new(1, 2, Duration::from_micros(1));
        for _ in 0..5 {
            b.idle();
        }
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }

    #[test]
    #[should_panic]
    fn rejects_inverted_limits() {
        let _ = Backoff::new(10, 5, Duration::from_micros(1));
    }
}
