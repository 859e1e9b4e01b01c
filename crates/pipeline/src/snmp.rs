//! The conventional-monitoring baseline.
//!
//! What a WAN operator's SNMP polling actually sees: per-interval interface
//! counters (packets, bytes) averaged over the poll period — five minutes
//! in the paper's comparison. No flow state, no latency: a 4000 ms anomaly
//! lasting 30 s inside a 5-minute window leaves the counters flat, while
//! Ruru's per-flow stream flags every affected connection.

use ruru_nic::Timestamp;

/// One closed polling interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnmpSample {
    /// Interval start.
    pub start: Timestamp,
    /// Packets counted in the interval.
    pub packets: u64,
    /// Bytes counted in the interval.
    pub bytes: u64,
    /// Average utilization over the interval against the link rate, 0..=1.
    pub utilization: f64,
}

/// A fixed-interval counter poller.
pub struct SnmpPoller {
    interval_ns: u64,
    link_bps: u64,
    /// False until the first event anchors `window_start`.
    anchored: bool,
    window_start: Timestamp,
    packets: u64,
    bytes: u64,
    samples: Vec<SnmpSample>,
}

impl SnmpPoller {
    /// A poller with the given poll interval and link rate (for
    /// utilization). The paper's tools poll five-minute averages.
    pub fn new(interval_ns: u64, link_bps: u64) -> SnmpPoller {
        assert!(interval_ns > 0, "interval must be positive");
        assert!(link_bps > 0, "link rate must be positive");
        SnmpPoller {
            interval_ns,
            link_bps,
            anchored: false,
            window_start: Timestamp::ZERO,
            packets: 0,
            bytes: 0,
            samples: Vec::new(),
        }
    }

    /// Close every interval that ends at or before `at`. The first event
    /// anchors the poll grid at the interval that contains it instead: a
    /// capture stamped in epoch time must not emit ~5.7 M empty five-minute
    /// intervals since 1970. Gaps after that still close as empty
    /// intervals, as a real poller reports them.
    fn roll(&mut self, at: Timestamp) {
        if !self.anchored {
            self.anchored = true;
            let ns = at.as_nanos();
            self.window_start = Timestamp::from_nanos(ns - ns % self.interval_ns);
            return;
        }
        while at.saturating_nanos_since(self.window_start) >= self.interval_ns {
            self.close(self.interval_ns);
            self.window_start = self.window_start.advanced(self.interval_ns);
        }
    }

    /// Record the open interval as a sample averaged over its first
    /// `elapsed_ns` (at least 1 ns), and reset the counters.
    fn close(&mut self, elapsed_ns: u64) {
        let secs = elapsed_ns.max(1) as f64 / 1e9;
        self.samples.push(SnmpSample {
            start: self.window_start,
            packets: self.packets,
            bytes: self.bytes,
            utilization: (self.bytes as f64 * 8.0 / secs) / self.link_bps as f64,
        });
        self.packets = 0;
        self.bytes = 0;
    }

    /// Count one packet of `bytes` at `at`.
    pub(crate) fn observe_packet(&mut self, at: Timestamp, bytes: usize) {
        self.roll(at);
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    /// Close intervals up to `at`, flush any non-empty partial interval,
    /// and return all samples. The partial interval's utilization is
    /// averaged over the part of it that elapsed, `at` less its start: a
    /// run that ends a second into a five-minute poll reports that
    /// second's rate, not a fifth of a percent of it.
    pub fn finish(mut self, at: Timestamp) -> Vec<SnmpSample> {
        self.roll(at);
        if self.packets > 0 {
            self.close(at.saturating_nanos_since(self.window_start));
        }
        self.samples
    }

    /// Samples of already-closed intervals.
    pub fn samples(&self) -> &[SnmpSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn counters_aggregate_per_interval() {
        let mut p = SnmpPoller::new(10 * SEC, 1_000_000);
        for i in 0..20u64 {
            p.observe_packet(Timestamp::from_secs(i), 1250); // 1 kbit each
        }
        let samples = p.finish(Timestamp::from_secs(20));
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].packets, 10);
        assert_eq!(samples[0].bytes, 12_500);
        // 12500 B in 10 s on a 1 Mbit/s link = 1% utilization.
        assert!((samples[0].utilization - 0.01).abs() < 1e-9);
    }

    #[test]
    fn gaps_close_as_empty_intervals() {
        let mut p = SnmpPoller::new(SEC, 1_000);
        p.observe_packet(Timestamp::from_secs(0), 100);
        let samples = p.finish(Timestamp::from_secs(3));
        assert_eq!(samples.len(), 3);
        assert!(samples.iter().skip(1).all(|s| s.packets == 0));
    }

    #[test]
    fn first_event_anchors_the_poll_grid() {
        // An epoch-stamped capture: one sample, starting at the five-minute
        // boundary before the first packet.
        let first = 1_700_000_123u64;
        let mut p = SnmpPoller::new(300 * SEC, 10_000_000_000);
        p.observe_packet(Timestamp::from_secs(first), 1500);
        p.observe_packet(Timestamp::from_secs(first + 10), 1500);
        let samples = p.finish(Timestamp::from_secs(first + 10));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].start, Timestamp::from_secs(1_700_000_100));
        assert_eq!(samples[0].packets, 2);
    }

    #[test]
    fn finish_closes_partial_interval() {
        let mut p = SnmpPoller::new(10 * SEC, 1_000);
        p.observe_packet(Timestamp::from_secs(1), 1);
        let samples = p.finish(Timestamp::from_secs(1));
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].packets, 1);
    }

    /// A steady rate reads the same in the trailing partial poll as in
    /// the full ones: its bytes are averaged over the part that elapsed.
    #[test]
    fn the_partial_interval_is_averaged_over_its_elapsed_part() {
        let mut p = SnmpPoller::new(10 * SEC, 1_000_000);
        // 1250 B (10 kbit) every second from 0 s to 22 s: two full polls,
        // then 20 s..22 s.
        for i in 0..=22u64 {
            p.observe_packet(Timestamp::from_secs(i), 1250);
        }
        let samples = p.finish(Timestamp::from_secs(22));
        assert_eq!(samples.len(), 3);
        assert!((samples[0].utilization - 0.01).abs() < 1e-9);
        assert_eq!(samples[2].packets, 3);
        // 3 × 10 kbit over the 2 s elapsed, on a 1 Mbit/s link.
        assert!((samples[2].utilization - 0.015).abs() < 1e-9, "{}", samples[2].utilization);
    }
}
