//! Alert records and sinks.

use ruru_nic::Timestamp;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Alert severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look.
    Warning,
    /// Operator attention required.
    Critical,
}

impl core::fmt::Display for Severity {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Severity::Warning => "WARNING",
            Severity::Critical => "CRITICAL",
        })
    }
}

/// One alert raised by a detector.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Severity level.
    pub severity: Severity,
    /// Detector kind, e.g. `"latency_spike"`.
    pub kind: String,
    /// The key the alert concerns (location pair, "global", …).
    pub key: String,
    /// Human-readable description.
    pub message: String,
    /// Simulated time of the alert.
    pub at: Timestamp,
    /// The offending value (unit depends on kind).
    pub value: f64,
}

impl core::fmt::Display for Alert {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "[{}] {} {} ({}): {}",
            self.at, self.severity, self.kind, self.key, self.message
        )
    }
}

/// A thread-safe in-memory alert collector.
#[derive(Clone, Default)]
pub struct AlertSink {
    alerts: Arc<Mutex<Vec<Alert>>>,
}

impl AlertSink {
    /// An empty sink.
    pub fn new() -> AlertSink {
        Self::default()
    }

    /// A panic elsewhere cannot leave a half-pushed alert behind, so a
    /// poisoned lock is still sound to use.
    fn lock(&self) -> MutexGuard<'_, Vec<Alert>> {
        self.alerts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record an alert.
    pub fn push(&self, alert: Alert) {
        self.lock().push(alert);
    }

    /// Record if `Some`.
    pub fn push_opt(&self, alert: Option<Alert>) {
        if let Some(a) = alert {
            self.push(a);
        }
    }

    /// Number of alerts collected.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of all alerts.
    pub fn snapshot(&self) -> Vec<Alert> {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn alert(kind: &str, at_ms: u64) -> Alert {
        Alert {
            severity: Severity::Warning,
            kind: kind.into(),
            key: "k".into(),
            message: "m".into(),
            at: Timestamp::from_millis(at_ms),
            value: 1.0,
        }
    }

    #[test]
    fn sink_collects_and_filters() {
        let sink = AlertSink::new();
        assert!(sink.is_empty());
        sink.push(alert("a", 1));
        sink.push_opt(Some(alert("b", 2)));
        sink.push_opt(None);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.snapshot().len(), 2);
    }

    #[test]
    fn sink_clones_share_storage() {
        let sink = AlertSink::new();
        let clone = sink.clone();
        clone.push(alert("x", 1));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Warning < Severity::Critical);
        assert_eq!(Severity::Critical.to_string(), "CRITICAL");
    }

    #[test]
    fn alert_display_is_informative() {
        let s = alert("latency_spike", 1500).to_string();
        assert!(s.contains("WARNING"));
        assert!(s.contains("latency_spike"));
        assert!(s.contains("1.500000s"));
    }
}
