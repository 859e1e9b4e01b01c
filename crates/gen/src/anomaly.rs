//! Injectable anomalies — the ground truth for the detection experiments.
//!
//! §3 of the paper describes two real incidents Ruru surfaced: a periodic
//! firewall update adding **4000 ms** to every connection started inside a
//! short nightly window, and SYN floods. Both are reproduced here as
//! deterministic injections so detector precision/recall can be computed.

use ruru_nic::Timestamp;

/// An anomaly active during `[start, end)` of simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Anomaly {
    /// Connections *started* inside the window take `extra_ns` longer to
    /// complete setup on the external side (the firewall holds the SYN).
    SetupLatencySpike {
        /// Window start.
        start: Timestamp,
        /// Window end (exclusive).
        end: Timestamp,
        /// Added external latency in nanoseconds (the paper's case: 4 s).
        extra_ns: u64,
    },
    /// A congestion event on the external path: request/response exchanges
    /// whose server leg happens inside the window take `extra_ns` longer,
    /// regardless of when the flow's handshake completed. Invisible to
    /// handshake-only measurement — flows set up before the window keep
    /// their clean setup RTT — but the continuous in-flow RTT path sees
    /// every affected exchange.
    MidFlowLatencyShift {
        /// Window start.
        start: Timestamp,
        /// Window end (exclusive).
        end: Timestamp,
        /// Added external one-way response delay in nanoseconds.
        extra_ns: u64,
    },
    /// A flood of spoofed SYNs (never completed) toward one server.
    SynFlood {
        /// Window start.
        start: Timestamp,
        /// Window end (exclusive).
        end: Timestamp,
        /// Flood rate in SYNs per second.
        syns_per_sec: u64,
        /// City index hosting the victim (victim address is sampled there).
        target_city: usize,
    },
}

impl Anomaly {
    /// The paper's firewall incident: 4000 ms added to all connections
    /// started within the window.
    pub fn firewall_4s(start: Timestamp, end: Timestamp) -> Anomaly {
        Anomaly::SetupLatencySpike {
            start,
            end,
            extra_ns: 4_000_000_000,
        }
    }

    /// The anomaly's active window.
    pub fn window(&self) -> (Timestamp, Timestamp) {
        match self {
            Anomaly::SetupLatencySpike { start, end, .. } => (*start, *end),
            Anomaly::MidFlowLatencyShift { start, end, .. } => (*start, *end),
            Anomaly::SynFlood { start, end, .. } => (*start, *end),
        }
    }

    /// True if `t` falls inside the window.
    fn active_at(&self, t: Timestamp) -> bool {
        let (s, e) = self.window();
        t >= s && t < e
    }

    /// The extra setup latency this anomaly imposes on a flow starting at
    /// `t` (zero for non-latency anomalies).
    pub(crate) fn extra_setup_ns(&self, t: Timestamp) -> u64 {
        match self {
            Anomaly::SetupLatencySpike { extra_ns, .. } if self.active_at(t) => *extra_ns,
            _ => 0,
        }
    }

    /// The extra delay this anomaly imposes on a data exchange whose
    /// request passes the tap at `t` (zero for setup-only anomalies:
    /// the firewall holds SYNs, not established traffic).
    pub(crate) fn extra_data_ns(&self, t: Timestamp) -> u64 {
        match self {
            Anomaly::MidFlowLatencyShift { extra_ns, .. } if self.active_at(t) => *extra_ns,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn firewall_window_boundaries() {
        let a = Anomaly::firewall_4s(Timestamp::from_secs(10), Timestamp::from_secs(40));
        assert!(!a.active_at(Timestamp::from_secs(9)));
        assert!(a.active_at(Timestamp::from_secs(10)));
        assert!(a.active_at(Timestamp::from_secs(39)));
        assert!(!a.active_at(Timestamp::from_secs(40)));
        assert_eq!(a.extra_setup_ns(Timestamp::from_secs(20)), 4_000_000_000);
        assert_eq!(a.extra_setup_ns(Timestamp::from_secs(50)), 0);
    }

    #[test]
    fn congestion_shift_affects_data_not_setup() {
        let a = Anomaly::MidFlowLatencyShift {
            start: Timestamp::from_secs(4),
            end: Timestamp::from_secs(8),
            extra_ns: 60_000_000,
        };
        // Setup path untouched: a flow starting mid-window still gets a
        // clean handshake.
        assert_eq!(a.extra_setup_ns(Timestamp::from_secs(5)), 0);
        // Data exchanges inside the window are stretched; outside, clean.
        assert_eq!(a.extra_data_ns(Timestamp::from_secs(3)), 0);
        assert_eq!(a.extra_data_ns(Timestamp::from_secs(4)), 60_000_000);
        assert_eq!(a.extra_data_ns(Timestamp::from_secs(7)), 60_000_000);
        assert_eq!(a.extra_data_ns(Timestamp::from_secs(8)), 0);
        // The firewall anomaly is the mirror image.
        let fw = Anomaly::firewall_4s(Timestamp::from_secs(4), Timestamp::from_secs(8));
        assert_eq!(fw.extra_data_ns(Timestamp::from_secs(5)), 0);
        assert_eq!(fw.extra_setup_ns(Timestamp::from_secs(5)), 4_000_000_000);
    }

    #[test]
    fn synflood_has_no_latency_effect() {
        let a = Anomaly::SynFlood {
            start: Timestamp::ZERO,
            end: Timestamp::from_secs(1),
            syns_per_sec: 1000,
            target_city: 0,
        };
        assert!(a.active_at(Timestamp::from_millis(500)));
        assert_eq!(a.extra_setup_ns(Timestamp::from_millis(500)), 0);
    }
}
