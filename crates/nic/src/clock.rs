//! Sub-microsecond timestamps.
//!
//! Ruru records three sub-microsecond timestamps per flow (SYN, SYN-ACK,
//! ACK). In production those come from the DPDK RX path reading the TSC.
//! Here a [`Clock`] is a shared virtual counter that the code feeding the
//! port advances (simulated time, so a 24-hour experiment runs in
//! milliseconds and latencies are exactly reproducible).

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::Arc;

/// A monotonic timestamp in nanoseconds since the clock's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Zero (the clock origin).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Timestamp {
        Timestamp(ns)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Timestamp {
        Timestamp(us * 1_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Timestamp {
        Timestamp(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub fn from_secs(s: u64) -> Timestamp {
        Timestamp(s * 1_000_000_000)
    }

    /// Nanoseconds since origin.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

    /// Microseconds since origin (truncating).
    pub fn as_micros(&self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since origin (truncating).
    pub fn as_millis(&self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since origin as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier` in nanoseconds.
    pub fn saturating_nanos_since(&self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// `self + delta_ns`.
    pub fn advanced(&self, delta_ns: u64) -> Timestamp {
        Timestamp(self.0 + delta_ns)
    }
}

impl core::ops::Sub for Timestamp {
    type Output = u64;
    /// Difference in nanoseconds; panics in debug builds if `rhs` is later.
    fn sub(self, rhs: Timestamp) -> u64 {
        debug_assert!(self.0 >= rhs.0, "timestamp subtraction underflow");
        self.0 - rhs.0
    }
}

impl core::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A timestamp source: a shared counter that the code feeding the port
/// advances explicitly. Clones share the same counter, so they can be
/// handed to other threads.
#[derive(Clone)]
pub struct Clock {
    counter: Arc<AtomicU64>,
}

impl Clock {
    /// A virtual clock starting at zero. Clones share the same counter.
    pub fn virtual_clock() -> Clock {
        Clock {
            counter: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The current timestamp.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.counter.load(Ordering::Acquire))
    }

    /// Advance the clock by `delta_ns`.
    pub fn advance(&self, delta_ns: u64) {
        self.counter.fetch_add(delta_ns, Ordering::AcqRel);
    }

    /// Set the clock to an absolute time, which must not move backwards.
    pub fn set(&self, ts: Timestamp) {
        let prev = self.counter.swap(ts.0, Ordering::AcqRel);
        assert!(prev <= ts.0, "virtual clock moved backwards");
    }
}

impl core::fmt::Debug for Clock {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Clock::Virtual({})", self.counter.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_advances() {
        let c = Clock::virtual_clock();
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance(1500);
        assert_eq!(c.now().as_nanos(), 1500);
        c.advance(500);
        assert_eq!(c.now().as_micros(), 2);
    }

    #[test]
    fn virtual_clock_clones_share_time() {
        let a = Clock::virtual_clock();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now().as_nanos(), 42);
        b.set(Timestamp::from_micros(1));
        assert_eq!(a.now().as_nanos(), 1000);
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn virtual_clock_rejects_backwards_set() {
        let c = Clock::virtual_clock();
        c.advance(100);
        c.set(Timestamp(50));
    }

    #[test]
    fn timestamp_conversions() {
        let t = Timestamp::from_secs(2);
        assert_eq!(t.as_nanos(), 2_000_000_000);
        assert_eq!(t.as_millis(), 2_000);
        assert_eq!(Timestamp::from_millis(3).as_micros(), 3_000);
        assert!((Timestamp::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn timestamp_arithmetic() {
        let a = Timestamp::from_micros(10);
        let b = Timestamp::from_micros(4);
        assert_eq!(a - b, 6_000);
        assert_eq!(b.saturating_nanos_since(a), 0);
        assert_eq!(a.advanced(500).as_nanos(), 10_500);
    }

    #[test]
    fn timestamp_display() {
        assert_eq!(Timestamp::from_millis(1234).to_string(), "1.234000s");
    }
}
