//! Anomaly detectors — §3 of the paper operationalized.
//!
//! The paper's case studies: a nightly firewall update adding **4000 ms**
//! that *"had not been noticed by conventional measurement tools (e.g.,
//! SNMP polls)"*, and *"other types of anomalies (e.g., unusual number of
//! TCP connections between two locations or SYN floods) can also be
//! identified in real-time with simple Ruru modules"*. Three such simple
//! modules:
//!
//! * [`LatencySpikeDetector`] — per-key robust baseline (median + MAD over
//!   a sliding window); flags samples many deviations above it. Robust
//!   statistics matter: the firewall spike is huge and rare, and would
//!   drag a mean-based baseline along with it.
//! * [`SynFloodDetector`] — per-interval SYN vs completion accounting.
//! * [`RateAnomalyDetector`] — per-location-pair connection counts per
//!   window, flagged against the pair's own history.

use crate::alert::{Alert, Severity};
use ruru_nic::Timestamp;
use std::collections::VecDeque;

/// Configuration of the robust latency detector.
#[derive(Debug, Clone)]
pub struct SpikeConfig {
    /// Sliding window length (samples) per key.
    pub window: usize,
    /// Minimum samples before alerts are possible.
    pub min_samples: usize,
    /// Alert when `value > median + threshold_mads × MAD`.
    pub threshold_mads: f64,
    /// And the absolute excess is at least this many ns (suppresses alerts
    /// on micro-jitter around a very stable baseline).
    pub min_excess_ns: u64,
}

impl Default for SpikeConfig {
    fn default() -> Self {
        SpikeConfig {
            window: 256,
            min_samples: 30,
            threshold_mads: 8.0,
            min_excess_ns: 20_000_000, // 20 ms
        }
    }
}

/// A sliding window of the last `cap` samples, kept twice: a ring in
/// arrival order (which sample leaves next) and an ascending copy (which
/// the statistics read). Pushing a sample into a full window is one binary
/// search for the leaving value, one for the new value's place, and a shift
/// of the slots between them; the median is then an index and the MAD a
/// two-run selection, so neither detector copies or sorts per sample.
///
/// The ring reserves `cap` slots up front; the sorted copy grows on demand,
/// so a key that only ever sees a few samples does not pay for a second
/// full window.
struct SortedWindow {
    cap: usize,
    ring: VecDeque<u64>,
    sorted: Vec<u64>,
}

impl SortedWindow {
    fn new(cap: usize) -> SortedWindow {
        SortedWindow {
            cap,
            ring: VecDeque::with_capacity(cap),
            sorted: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Append `v`; once the window holds `cap` samples the oldest leaves.
    fn push(&mut self, v: u64) {
        if self.ring.len() < self.cap {
            self.ring.push_back(v);
            let at = self.sorted.partition_point(|&x| x < v);
            self.sorted.insert(at, v);
            return;
        }
        let Some(old) = self.ring.pop_front() else {
            return;
        };
        self.ring.push_back(v);
        // Any slot holding `old` will do: equal values are interchangeable.
        let Ok(out) = self.sorted.binary_search(&old) else {
            return;
        };
        // `into` counts the values below `v`, the leaving slot included
        // when `old < v`; the slots between move one step toward `out`.
        let into = self.sorted.partition_point(|&x| x < v);
        if into > out {
            self.sorted[out..into].rotate_left(1);
            self.sorted[into - 1] = v;
        } else {
            self.sorted[into..=out].rotate_right(1);
            self.sorted[into] = v;
        }
    }

    /// The upper median, `sorted[len / 2]` (`None` when empty).
    fn median(&self) -> Option<u64> {
        self.sorted.get(self.sorted.len() / 2).copied()
    }

    /// The median and the median absolute deviation as the detectors
    /// define it: the `len / 2`-th smallest of `|x − median|` (`None` when
    /// empty).
    ///
    /// Around the median slot `h`, the deviations form two ascending runs,
    /// `median − sorted[h − 1 − i]` below it and `sorted[h + j] − median`
    /// from it upward, so the MAD is a k-th-of-two-sorted-runs selection:
    /// O(log len) probes and no deviation buffer.
    fn median_mad(&self) -> Option<(u64, u64)> {
        let s = &self.sorted;
        let h = s.len() / 2;
        let median = *s.get(h)?;
        let below = |i: usize| median - s[h - 1 - i];
        let above = |j: usize| s[h + j] - median;
        Some((median, kth_of_two_runs(h, h, s.len() - h, below, above)))
    }
}

/// The `k`-th smallest (0-based) value of two ascending runs `a(0..na)`
/// and `b(0..nb)`, with `k < na + nb`. Binary search on how many of the
/// `k + 1` smallest come from `a`: the split is the first count `i` at
/// which `a(i)` is no smaller than the last value taken from `b`.
fn kth_of_two_runs(
    k: usize,
    na: usize,
    nb: usize,
    a: impl Fn(usize) -> u64,
    b: impl Fn(usize) -> u64,
) -> u64 {
    let take = k + 1;
    let (mut lo, mut hi) = (take.saturating_sub(nb), take.min(na));
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        if a(i) < b(take - i - 1) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    match (lo, take - lo) {
        (0, j) => b(j - 1),
        (i, 0) => a(i - 1),
        (i, j) => a(i - 1).max(b(j - 1)),
    }
}

/// Per-key robust latency-spike detection.
///
/// Keys are dense `u32` ids from one external interner (e.g.
/// [`crate::intern::PairInterner`]): [`LatencySpikeDetector::observe_id`]
/// indexes a `Vec` directly — no string formatting, hashing or allocation
/// per sample.
pub struct LatencySpikeDetector {
    config: SpikeConfig,
    windows: Vec<SortedWindow>,
}

impl LatencySpikeDetector {
    /// Create a detector.
    pub fn new(config: SpikeConfig) -> LatencySpikeDetector {
        assert!(config.window >= 8, "window too small");
        assert!(config.min_samples >= 2, "need some history");
        LatencySpikeDetector {
            config,
            windows: Vec::new(),
        }
    }

    /// Observe one latency sample for key `id` at time `at`. Returns an
    /// alert if the sample is anomalous.
    ///
    /// `id` must come from one dense id namespace (it indexes per-key state
    /// directly); `name` (e.g. `"Auckland→Los Angeles"`) is only used in
    /// alert text, so it is never copied on the no-alert path.
    ///
    /// Anomalous samples are *not* added to the baseline window, so a
    /// sustained incident keeps alerting instead of poisoning its own
    /// baseline.
    #[allow(clippy::disallowed_methods)] // sanctioned: name copied only when an alert fires
    pub fn observe_id(
        &mut self,
        id: u32,
        name: &str,
        value_ns: u64,
        at: Timestamp,
    ) -> Option<Alert> {
        let idx = id as usize;
        if idx >= self.windows.len() {
            let cap = self.config.window;
            self.windows.resize_with(idx + 1, || SortedWindow::new(cap));
        }
        let window = &mut self.windows[idx];

        let baseline = if window.len() >= self.config.min_samples {
            window.median_mad()
        } else {
            None
        };
        let alert = if let Some((median, mad)) = baseline {
            // MAD floored at 1% of the median (or 100 µs) so a perfectly
            // stable baseline still yields a usable scale.
            let mad = mad.max(median / 100).max(100_000);
            let threshold =
                median + (self.config.threshold_mads * mad as f64) as u64;
            if value_ns > threshold
                && value_ns.saturating_sub(median) >= self.config.min_excess_ns
            {
                Some(Alert {
                    severity: if value_ns > median.saturating_mul(10) {
                        Severity::Critical
                    } else {
                        Severity::Warning
                    },
                    kind: "latency_spike".into(),
                    key: name.to_string(),
                    message: format!(
                        "latency {:.1} ms vs median {:.1} ms (threshold {:.1} ms)",
                        value_ns as f64 / 1e6,
                        median as f64 / 1e6,
                        threshold as f64 / 1e6
                    ),
                    at,
                    value: value_ns as f64 / 1e6,
                })
            } else {
                None
            }
        } else {
            None
        };

        if alert.is_none() {
            window.push(value_ns);
        }
        alert
    }

    /// Number of tracked key slots (distinct keys when ids are dense).
    pub fn key_count(&self) -> usize {
        self.windows.len()
    }
}

/// Configuration of the SYN-flood detector.
#[derive(Debug, Clone)]
pub struct FloodConfig {
    /// Accounting interval.
    pub interval_ns: u64,
    /// Minimum SYNs/interval before a flood can be declared.
    pub min_syns: u64,
    /// Alert when `syns > ratio × completions` within an interval.
    pub ratio: f64,
}

impl Default for FloodConfig {
    fn default() -> Self {
        FloodConfig {
            interval_ns: 1_000_000_000, // 1 s
            min_syns: 500,
            ratio: 5.0,
        }
    }
}

/// Streaming SYN-flood detection from per-packet events.
pub struct SynFloodDetector {
    config: FloodConfig,
    interval_start: Timestamp,
    syns: u64,
    completions: u64,
}

impl SynFloodDetector {
    /// Create a detector.
    pub fn new(config: FloodConfig) -> SynFloodDetector {
        assert!(config.interval_ns > 0, "interval must be positive");
        SynFloodDetector {
            config,
            interval_start: Timestamp::ZERO,
            syns: 0,
            completions: 0,
        }
    }

    /// Close the current interval if `at` lies past it. Only the current
    /// interval holds counts, so only it can alert; the empty intervals
    /// between it and `at` are skipped in one step, which keeps the first
    /// event of an epoch-stamped capture O(1).
    fn roll(&mut self, at: Timestamp) -> Option<Alert> {
        let interval = self.config.interval_ns;
        let elapsed = at.saturating_nanos_since(self.interval_start);
        if elapsed < interval {
            return None;
        }
        let mut alert = None;
        if self.syns >= self.config.min_syns
            && (self.syns as f64) > self.config.ratio * (self.completions.max(1) as f64)
        {
            alert = Some(Alert {
                severity: Severity::Critical,
                kind: "syn_flood".into(),
                key: "global".into(),
                message: format!(
                    "{} SYNs vs {} completed handshakes in {:.1} s",
                    self.syns,
                    self.completions,
                    interval as f64 / 1e9
                ),
                at: self.interval_start.advanced(interval),
                value: self.syns as f64,
            });
        }
        self.interval_start = self.interval_start.advanced(elapsed / interval * interval);
        self.syns = 0;
        self.completions = 0;
        alert
    }

    /// Record a SYN observed at `at`; may close an interval and alert.
    pub fn observe_syn(&mut self, at: Timestamp) -> Option<Alert> {
        self.observe_syns(at, 1)
    }

    /// Record a tally of `n` SYNs from the interval that holds `at`, its
    /// latest SYN; may close an earlier interval and alert. The detector
    /// only counts per interval, so a tally raises the same alerts as `n`
    /// [`observe_syn`](Self::observe_syn) calls at that interval's SYNs.
    pub fn observe_syns(&mut self, at: Timestamp, n: u64) -> Option<Alert> {
        let alert = self.roll(at);
        self.syns += n;
        alert
    }

    /// Record a completed handshake at `at`.
    pub fn observe_completion(&mut self, at: Timestamp) -> Option<Alert> {
        let alert = self.roll(at);
        self.completions += 1;
        alert
    }
}

/// Configuration of the per-pair connection-rate detector.
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Counting window.
    pub window_ns: u64,
    /// History length (windows) per pair.
    pub history: usize,
    /// Minimum history before alerting.
    pub min_history: usize,
    /// Alert when a window count exceeds `factor ×` the historical median.
    pub factor: f64,
    /// Minimum count for an alert (ignore tiny pairs).
    pub min_count: u64,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            window_ns: 10_000_000_000, // 10 s
            history: 60,
            min_history: 6,
            factor: 4.0,
            min_count: 50,
        }
    }
}

struct PairState {
    /// Index of the one open window (`at / window_ns`).
    window: u64,
    /// Connections counted into the open window.
    count: u64,
    /// Counts of the last `history` closed windows.
    history: SortedWindow,
}

/// "Unusual number of TCP connections between two locations."
///
/// Counts are bucketed by the *measurement's own timestamp*. The input is
/// expected in time order — the detector loop's watermark reorderer
/// releases events that way — so each pair keeps one open window. A sample
/// in a later window closes it (and the empty windows up to the new one);
/// a straggler from an earlier window counts into the open window rather
/// than being lost.
///
/// Like [`LatencySpikeDetector`], per-pair state is keyed by dense `u32`
/// ids from one external interner (e.g. [`crate::intern::PairInterner`]).
pub struct RateAnomalyDetector {
    config: RateConfig,
    pairs: Vec<Option<PairState>>,
}

impl RateAnomalyDetector {
    /// Create a detector.
    pub fn new(config: RateConfig) -> RateAnomalyDetector {
        assert!(config.window_ns > 0, "window must be positive");
        RateAnomalyDetector {
            config,
            pairs: Vec::new(),
        }
    }

    /// Record one new connection for pair `id` at `at`. `id` must come
    /// from one dense id namespace; `name` is only used in alert text.
    #[allow(clippy::disallowed_methods)] // sanctioned: name copied only when an alert fires
    pub fn observe_id(&mut self, id: u32, name: &str, at: Timestamp) -> Option<Alert> {
        let slot = id as usize;
        if slot >= self.pairs.len() {
            self.pairs.resize_with(slot + 1, || None);
        }
        let config = &self.config;
        let idx = at.as_nanos() / config.window_ns;
        let state = self.pairs[slot].get_or_insert_with(|| PairState {
            window: idx,
            count: 0,
            history: SortedWindow::new(config.history),
        });
        if idx <= state.window {
            state.count += 1;
            return None;
        }

        // Close the open window: the only one with a count, so the only
        // one that can alert.
        let mut alert = None;
        let count = state.count;
        if state.history.len() >= config.min_history && count >= config.min_count {
            let median = state.history.median().unwrap_or(0).max(1);
            if count as f64 > config.factor * median as f64 {
                alert = Some(Alert {
                    severity: Severity::Warning,
                    kind: "connection_rate".into(),
                    key: name.to_string(),
                    message: format!("{count} connections/window vs median {median}"),
                    at: Timestamp::from_nanos((state.window + 1) * config.window_ns),
                    value: count as f64,
                });
            }
        }
        // Then the empty windows before `idx`. Past `history` of them the
        // history is all zeros whatever the gap, so the loop is capped.
        let empty = (idx - state.window - 1).min(config.history as u64);
        for c in std::iter::once(count).chain((0..empty).map(|_| 0)) {
            state.history.push(c);
        }
        state.window = idx;
        state.count = 1;
        alert
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn spike_detector_learns_then_alerts_on_4000ms() {
        let mut d = LatencySpikeDetector::new(SpikeConfig::default());
        // 130 ms ± jitter baseline.
        for i in 0..100u64 {
            let v = 130 * MS + (i % 7) * MS / 10;
            assert!(d.observe_id(0, "AKL→LAX", v, t(i * 10)).is_none());
        }
        // The firewall spike.
        let alert = d.observe_id(0, "AKL→LAX", 4130 * MS, t(2000)).unwrap();
        assert_eq!(alert.kind, "latency_spike");
        assert_eq!(alert.key, "AKL→LAX");
        assert_eq!(alert.severity, Severity::Critical);
        assert!(alert.message.contains("4130.0 ms"));
    }

    #[test]
    fn spike_detector_needs_history_first() {
        let mut d = LatencySpikeDetector::new(SpikeConfig::default());
        // The very first sample, even if huge, cannot alert.
        assert!(d.observe_id(0, "k", 4000 * MS, t(0)).is_none());
    }

    #[test]
    fn sustained_incident_keeps_alerting() {
        let mut d = LatencySpikeDetector::new(SpikeConfig::default());
        for i in 0..50u64 {
            d.observe_id(0, "k", 130 * MS, t(i));
        }
        // 20 consecutive anomalous samples: every one must alert because
        // anomalies are excluded from the baseline.
        let mut alerts = 0;
        for i in 0..20u64 {
            if d.observe_id(0, "k", 4000 * MS, t(100 + i)).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 20);
    }

    #[test]
    fn keys_are_independent() {
        let mut d = LatencySpikeDetector::new(SpikeConfig::default());
        for i in 0..50u64 {
            d.observe_id(0, "low", 10 * MS, t(i));
            d.observe_id(1, "high", 300 * MS, t(i));
        }
        // 300 ms is normal for "high" but anomalous for "low".
        assert!(d.observe_id(1, "high", 310 * MS, t(100)).is_none());
        assert!(d.observe_id(0, "low", 300 * MS, t(100)).is_some());
        assert_eq!(d.key_count(), 2);
    }

    #[test]
    fn small_jitter_does_not_alert() {
        let mut d = LatencySpikeDetector::new(SpikeConfig::default());
        for i in 0..200u64 {
            let v = 130 * MS + (i % 13) * MS; // up to +12ms of jitter
            assert!(
                d.observe_id(0, "k", v, t(i)).is_none(),
                "jitter sample {i} must not alert"
            );
        }
    }

    /// The copy-and-sort spike detector the sorted window replaced: every
    /// sample copies and sorts the window, then sorts the deviations.
    struct CopySortSpike {
        config: SpikeConfig,
        windows: Vec<VecDeque<u64>>,
    }

    impl CopySortSpike {
        #[allow(clippy::disallowed_methods)] // the alert text must match the detector's
        fn observe(&mut self, id: u32, name: &str, value_ns: u64, at: Timestamp) -> Option<Alert> {
            let idx = id as usize;
            if idx >= self.windows.len() {
                self.windows.resize_with(idx + 1, VecDeque::new);
            }
            let window = &mut self.windows[idx];
            let mut alert = None;
            if window.len() >= self.config.min_samples {
                let mut sorted: Vec<u64> = window.iter().copied().collect();
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2];
                let mut devs: Vec<u64> = sorted.iter().map(|&v| v.abs_diff(median)).collect();
                devs.sort_unstable();
                let mad = devs[devs.len() / 2].max(median / 100).max(100_000);
                let threshold = median + (self.config.threshold_mads * mad as f64) as u64;
                if value_ns > threshold
                    && value_ns.saturating_sub(median) >= self.config.min_excess_ns
                {
                    alert = Some(Alert {
                        severity: if value_ns > median.saturating_mul(10) {
                            Severity::Critical
                        } else {
                            Severity::Warning
                        },
                        kind: "latency_spike".into(),
                        key: name.to_string(),
                        message: format!(
                            "latency {:.1} ms vs median {:.1} ms (threshold {:.1} ms)",
                            value_ns as f64 / 1e6,
                            median as f64 / 1e6,
                            threshold as f64 / 1e6
                        ),
                        at,
                        value: value_ns as f64 / 1e6,
                    });
                }
            }
            if alert.is_none() {
                if window.len() == self.config.window {
                    window.pop_front();
                }
                window.push_back(value_ns);
            }
            alert
        }
    }

    /// Feeds `(id, value_ns, at_ms)` samples to the detector and to the
    /// copy-and-sort reference, asserts identical alerts (text included),
    /// and returns how many fired.
    fn alerts_match(config: &SpikeConfig, samples: &[(u32, u64, u64)]) -> usize {
        let names = ["a", "b", "c", "d", "e", "f"];
        let mut fast = LatencySpikeDetector::new(config.clone());
        let mut slow = CopySortSpike {
            config: config.clone(),
            windows: Vec::new(),
        };
        let mut alerts = 0;
        for (i, &(id, value, at)) in samples.iter().enumerate() {
            let name = names[id as usize % names.len()];
            let want = slow.observe(id, name, value, t(at));
            let got = fast.observe_id(id, name, value, t(at));
            assert_eq!(got, want, "sample {i} config {config:?}");
            alerts += usize::from(got.is_some());
        }
        alerts
    }

    #[test]
    fn spike_detector_matches_copy_and_sort_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut alerts = 0;
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let window = rng.gen_range(8..=300);
            let config = SpikeConfig {
                window,
                min_samples: [2, 5, 30, window][seed as usize % 4],
                threshold_mads: [3.0, 8.0][seed as usize / 4 % 2],
                min_excess_ns: [0, 20 * MS][seed as usize / 8 % 2],
            };
            let (mut value, mut run) = (130 * MS, 0u32);
            let mut samples = Vec::new();
            for at in 0..2000u64 {
                // Few distinct levels (heavy ties), runs of one repeated
                // value, and rare spikes far above the baseline.
                if run == 0 {
                    value = match rng.gen_range(0..100u32) {
                        0..=2 => rng.gen_range(1..5u64) * 1000 * MS,
                        3..=9 => 130 * MS,
                        _ => (120 + rng.gen_range(0..6u64) * 4) * MS,
                    };
                    run = if rng.gen_range(0..10u32) == 0 {
                        rng.gen_range(1..60)
                    } else {
                        1
                    };
                }
                run -= 1;
                samples.push((rng.gen_range(0..5u32), value, at));
            }
            alerts += alerts_match(&config, &samples);
        }
        assert!(alerts > 100, "the streams reach the alert path ({alerts})");
    }

    #[test]
    fn spike_detector_matches_copy_and_sort_on_a_firewall_trace() {
        // E3's shape: 50 handshakes/s over six pairs for 180 s, each pair
        // with its own base RTT and ±5 % jitter, and the nightly firewall
        // adding 4000 ms to every handshake between 60 s and 75 s.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<(u32, u64, u64)> = (0..9000u64)
            .map(|i| {
                let at = i * 20;
                let id = rng.gen_range(0..6u32);
                let base = (20 + 50 * u64::from(id)) * MS;
                let mut v = base - base / 20 + rng.gen_range(0..=base / 10);
                if (60_000..75_000).contains(&at) {
                    v += 4000 * MS;
                }
                (id, v, at)
            })
            .collect();
        let spiked = samples
            .iter()
            .filter(|s| (60_000..75_000).contains(&s.2))
            .count();
        let alerts = alerts_match(&SpikeConfig::default(), &samples);
        assert_eq!(alerts, spiked, "every firewall-delayed handshake alerts");
    }

    #[test]
    fn kth_deviation_matches_sorting_the_deviations() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for len in 1..=300usize {
            for spread in [1u64, 4, 1000] {
                let mut w = SortedWindow::new(len);
                for _ in 0..len {
                    w.push(rng.gen_range(0..spread) * 3);
                }
                let sorted = w.sorted.clone();
                assert!(sorted.windows(2).all(|p| p[0] <= p[1]), "len {len}");
                let median = sorted[len / 2];
                let mut devs: Vec<u64> = sorted.iter().map(|&v| v.abs_diff(median)).collect();
                devs.sort_unstable();
                assert_eq!(
                    w.median_mad(),
                    Some((median, devs[len / 2])),
                    "len {len} spread {spread}"
                );
            }
        }
        assert_eq!(SortedWindow::new(4).median_mad(), None);
    }

    #[test]
    fn flood_detector_alerts_on_uncompleted_syns() {
        let mut d = SynFloodDetector::new(FloodConfig {
            interval_ns: 1_000_000_000,
            min_syns: 100,
            ratio: 5.0,
        });
        // Interval 0: 1000 SYNs, 10 completions -> flood.
        for i in 0..1000u64 {
            assert!(d.observe_syn(t(i)).is_none());
        }
        for i in 0..10u64 {
            d.observe_completion(t(500 + i));
        }
        // The first event in the next interval closes interval 0.
        let alert = d.observe_syn(t(1500)).expect("flood alert");
        assert_eq!(alert.kind, "syn_flood");
        assert!(alert.message.contains("1000 SYNs"));
    }

    #[test]
    fn flood_detector_quiet_on_normal_traffic() {
        let mut d = SynFloodDetector::new(FloodConfig::default());
        // 600 SYNs/s, all completing: no alert over 5 s.
        for s in 0..5u64 {
            for i in 0..600u64 {
                assert!(d.observe_syn(t(s * 1000 + i)).is_none());
                assert!(d.observe_completion(t(s * 1000 + i)).is_none());
            }
        }
    }

    #[test]
    fn flood_detector_respects_min_syns() {
        let mut d = SynFloodDetector::new(FloodConfig {
            min_syns: 500,
            ..FloodConfig::default()
        });
        // 100 uncompleted SYNs: suspicious ratio but below min volume.
        for i in 0..100u64 {
            d.observe_syn(t(i));
        }
        assert!(d.observe_syn(t(1500)).is_none());
    }

    #[test]
    fn flood_detector_skips_empty_intervals() {
        let mut d = SynFloodDetector::new(FloodConfig::default());
        for i in 0..1000u64 {
            assert!(d.observe_syn(t(i)).is_none());
        }
        // Next event 10 s later: the flood interval still gets reported once.
        assert!(d.observe_syn(t(10_000)).is_some());
        assert!(d.observe_syn(t(20_000)).is_none());
    }

    #[test]
    fn flood_detector_starts_at_an_epoch_timestamp() {
        // A pcap capture starts ~1.7·10⁹ s after the detector's zero: the
        // first SYN must not walk every interval in between.
        let base = 1_700_000_000_000u64; // ms since the epoch
        let mut d = SynFloodDetector::new(FloodConfig::default());
        assert!(d.observe_syn(t(base + 250)).is_none());
        for i in 0..1000u64 {
            assert!(d.observe_syn(t(base + 1000 + i)).is_none());
        }
        let alert = d.observe_syn(t(base + 2500)).expect("flood alert");
        assert_eq!(alert.at, t(base + 2000));
        assert!(alert.message.contains("1000 SYNs"));
    }

    /// One event of a flood test stream, at a tap time in ns.
    #[derive(Clone, Copy)]
    enum FloodEv {
        Syn,
        /// A tally of `n` SYNs.
        Tally(u64),
        Completion,
    }

    /// A flood test stream: events at tap times in ns, sorted by time.
    type FloodStream = Vec<(u64, FloodEv)>;

    /// Every alert a 1 µs-interval detector raises over `events`.
    fn flood_alerts(events: &[(u64, FloodEv)]) -> Vec<Alert> {
        let mut d = SynFloodDetector::new(FloodConfig {
            interval_ns: 1_000,
            min_syns: 5,
            ratio: 2.0,
        });
        let at = Timestamp::from_nanos;
        let mut alerts = Vec::new();
        for &(ns, ev) in events {
            alerts.extend(match ev {
                FloodEv::Syn => d.observe_syn(at(ns)),
                FloodEv::Tally(n) => d.observe_syns(at(ns), n),
                FloodEv::Completion => d.observe_completion(at(ns)),
            });
        }
        alerts
    }

    /// The per-SYN stream of `(ns, queue)` SYNs and completion times, and
    /// the same stream with each queue's SYNs tallied per 1 µs interval,
    /// every tally stamped with its latest SYN.
    fn per_syn_and_tallied(
        syns: &[(u64, u16)],
        completions: &[u64],
    ) -> (FloodStream, FloodStream) {
        let mut per_syn: FloodStream =
            completions.iter().map(|&ns| (ns, FloodEv::Completion)).collect();
        let mut tallied = per_syn.clone();
        per_syn.extend(syns.iter().map(|&(ns, _)| (ns, FloodEv::Syn)));
        let mut tallies: HashMap<(u16, u64), (u64, u64)> = HashMap::new();
        for &(ns, queue) in syns {
            let t = tallies.entry((queue, ns / 1_000)).or_insert((ns, 0));
            t.0 = t.0.max(ns);
            t.1 += 1;
        }
        tallied.extend(tallies.into_values().map(|(ns, n)| (ns, FloodEv::Tally(n))));
        per_syn.sort_by_key(|&(ns, _)| ns);
        tallied.sort_by_key(|&(ns, _)| ns);
        (per_syn, tallied)
    }

    #[test]
    fn a_syn_tally_raises_the_alerts_of_its_syns() {
        // By hand: a SYN exactly at each interval start (0, 1 and 4 µs),
        // completions inside tallied intervals, intervals 2 and 3 empty,
        // and a partial last interval that only a later event closes.
        let syns: Vec<(u64, u16)> = (0..8)
            .map(|i| (i * 100, 0))
            .chain((0..3).map(|i| (1_000 + i * 300, 1)))
            .chain((0..9).map(|i| (4_000 + i * 50, (i % 2) as u16)))
            .collect();
        let completions = [350, 1_100, 4_020, 4_700];
        let (mut per_syn, mut tallied) = per_syn_and_tallied(&syns, &completions);
        let partial = flood_alerts(&per_syn);
        assert_eq!(partial.len(), 1, "interval 0 floods: {partial:?}");
        assert_eq!(partial[0].at, Timestamp::from_nanos(1_000));
        assert_eq!(partial[0].value, 8.0);
        assert_eq!(flood_alerts(&tallied), partial);
        per_syn.push((9_000, FloodEv::Completion));
        tallied.push((9_000, FloodEv::Completion));
        let closed = flood_alerts(&per_syn);
        assert_eq!(closed.len(), 2, "and so does the last one: {closed:?}");
        assert!(closed[1].message.contains("9 SYNs vs 2 completed"));
        assert_eq!(flood_alerts(&tallied), closed);

        // Random streams over up to 4 queues and 10 intervals, some of
        // them empty, the last one partial.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut alerting = 0;
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (queues, intervals) = (rng.gen_range(1..=4u16), rng.gen_range(1..=10u64));
            let (mut syns, mut completions) = (Vec::new(), Vec::new());
            for k in 0..intervals {
                if rng.gen_range(0..4u32) == 0 {
                    continue;
                }
                let start = k * 1_000;
                let span = if k + 1 == intervals { 500 } else { 1_000 };
                for _ in 0..rng.gen_range(0..=12u32) {
                    syns.push((start + rng.gen_range(0..span), rng.gen_range(0..queues)));
                }
                if rng.gen_range(0..3u32) == 0 {
                    syns.push((start, rng.gen_range(0..queues)));
                }
                for _ in 0..rng.gen_range(0..=6u32) {
                    completions.push(start + rng.gen_range(0..span));
                }
            }
            let (mut per_syn, mut tallied) = per_syn_and_tallied(&syns, &completions);
            assert_eq!(flood_alerts(&tallied), flood_alerts(&per_syn), "seed {seed}");
            let end = intervals * 1_000 + rng.gen_range(0..3_000);
            per_syn.push((end, FloodEv::Completion));
            tallied.push((end, FloodEv::Completion));
            let closed = flood_alerts(&per_syn);
            assert_eq!(flood_alerts(&tallied), closed, "seed {seed}, closed at {end}");
            alerting += usize::from(!closed.is_empty());
        }
        assert!(alerting > 50, "the streams exercise alerts: {alerting} of 300");
    }

    #[test]
    fn rate_detector_alerts_on_surge() {
        let cfg = RateConfig {
            window_ns: 1_000_000_000,
            history: 10,
            min_history: 3,
            factor: 4.0,
            min_count: 50,
        };
        let mut d = RateAnomalyDetector::new(cfg);
        // 5 windows of ~20 connections.
        for w in 0..5u64 {
            for i in 0..20u64 {
                assert!(d.observe_id(0, "AKL→LAX", t(w * 1000 + i * 45)).is_none());
            }
        }
        // Surge window: 200 connections.
        let mut alert = None;
        for i in 0..200u64 {
            alert = alert.or(d.observe_id(0, "AKL→LAX", t(5000 + i * 4)));
        }
        // The alert fires when the surge window closes.
        alert = alert.or(d.observe_id(0, "AKL→LAX", t(6100)));
        let alert = alert.expect("rate alert");
        assert_eq!(alert.kind, "connection_rate");
        assert_eq!(alert.key, "AKL→LAX");
    }

    #[test]
    fn rate_detector_tracks_pairs_separately() {
        let mut d = RateAnomalyDetector::new(RateConfig {
            window_ns: 1_000_000_000,
            history: 10,
            min_history: 2,
            factor: 2.0,
            min_count: 10,
        });
        // "busy" staying busy is not anomalous.
        for w in 0..4u64 {
            for i in 0..5u64 {
                assert!(d.observe_id(0, "quiet", t(w * 1000 + i)).is_none());
            }
            for i in 0..50u64 {
                assert!(d.observe_id(1, "busy", t(w * 1000 + i * 10)).is_none());
            }
        }
    }

    #[test]
    fn rate_detector_counts_window_zero() {
        // Virtual time starts at 0: the first window is part of the history.
        let mut d = RateAnomalyDetector::new(RateConfig {
            window_ns: 1_000_000_000,
            history: 10,
            min_history: 1,
            factor: 4.0,
            min_count: 50,
        });
        for i in 0..20u64 {
            assert!(d.observe_id(0, "AKL→LAX", t(i * 45)).is_none());
        }
        for i in 0..200u64 {
            assert!(d.observe_id(0, "AKL→LAX", t(1000 + i * 4)).is_none());
        }
        // Closing window 1 compares its 200 against window 0's 20.
        let alert = d.observe_id(0, "AKL→LAX", t(2100)).expect("alert");
        assert_eq!(alert.kind, "connection_rate");
        assert_eq!(alert.at, t(2000));
        assert_eq!(alert.value, 200.0);
    }

    /// Naive per-window count: a straggler counts into the newest window
    /// seen so far; every window before the last one closes, in order,
    /// against the counts of the `history` windows before it.
    fn naive_rate_alerts(c: &RateConfig, stream: &[u64]) -> Vec<(u64, u64)> {
        let mut counts = HashMap::new();
        let mut open = 0;
        for &at in stream {
            open = open.max(at / c.window_ns);
            *counts.entry(open).or_insert(0u64) += 1;
        }
        let (Some(&first), Some(&last)) = (counts.keys().min(), counts.keys().max()) else {
            return Vec::new();
        };
        let (mut alerts, mut history) = (Vec::new(), VecDeque::new());
        for w in first..last {
            let n = counts.get(&w).copied().unwrap_or(0);
            if history.len() >= c.min_history && n >= c.min_count {
                let mut sorted: Vec<u64> = history.iter().copied().collect();
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2].max(1);
                if n as f64 > c.factor * median as f64 {
                    alerts.push(((w + 1) * c.window_ns, n));
                }
            }
            if history.len() == c.history {
                history.pop_front();
            }
            history.push_back(n);
        }
        alerts
    }

    #[test]
    fn rate_detector_matches_a_naive_count_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let c = RateConfig {
            window_ns: 1_000_000_000,
            history: 8,
            min_history: 2,
            factor: 3.0,
            min_count: 5,
        };
        let mut alerts = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = RateAnomalyDetector::new(c.clone());
            let (mut streams, mut got) = (vec![Vec::new(); 3], vec![Vec::new(); 3]);
            let (mut now, mut newest) = (0u64, 0u64);
            for _ in 0..4000 {
                // Mostly in order with bursts and gaps longer than the
                // history; every tenth sample straggles up to 3 windows.
                now += match rng.gen_range(0..100u32) {
                    0..=79 => rng.gen_range(0..20_000_000u64),
                    80..=97 => rng.gen_range(0..400_000_000u64),
                    _ => rng.gen_range(0..30_000_000_000u64),
                };
                newest = newest.max(now);
                let at = if rng.gen_range(0..10u32) == 0 {
                    newest.saturating_sub(rng.gen_range(0..3_000_000_000u64))
                } else {
                    now
                };
                let id = rng.gen_range(0..3u32);
                streams[id as usize].push(at);
                if let Some(a) = d.observe_id(id, "pair", Timestamp::from_nanos(at)) {
                    got[id as usize].push((a.at.as_nanos(), a.value as u64));
                }
            }
            for (id, stream) in streams.iter().enumerate() {
                let want = naive_rate_alerts(&c, stream);
                assert_eq!(got[id], want, "seed {seed} pair {id}");
                alerts += got[id].len();
            }
        }
        assert!(alerts > 20, "the streams reach the alert path ({alerts})");
    }
}
