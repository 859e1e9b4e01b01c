//! Grafana-style panels over the time-series database.
//!
//! The paper: *"the Grafana UI also shows statistics and graphs of the
//! measured end-to-end latency (e.g., min, max, median, mean) for a
//! required time interval"*. A [`Panel`] is a declarative query; evaluating
//! it against a [`TsDb`] yields [`PanelData`] — time series of the chosen
//! statistic — renderable as JSON for the web UI or as an ASCII sparkline
//! for terminals.

use crate::json::JsonWriter;
use ruru_tsdb::{Query, TsDb};

/// Which statistic a panel plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Mean.
    Mean,
    /// Median.
    Median,
    /// 95th percentile.
    P95,
    /// 99th percentile.
    P99,
    /// Sample count.
    Count,
}

impl Stat {
    /// The stat's display name.
    pub fn name(&self) -> &'static str {
        match self {
            Stat::Min => "min",
            Stat::Max => "max",
            Stat::Mean => "mean",
            Stat::Median => "median",
            Stat::P95 => "p95",
            Stat::P99 => "p99",
            Stat::Count => "count",
        }
    }
}

/// A declarative panel.
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title.
    pub title: String,
    /// Measurement to read.
    pub measurement: String,
    /// Field to aggregate.
    pub field: String,
    /// Tag filters.
    pub tags: Vec<(String, String)>,
    /// Statistics to plot (one series each).
    pub stats: Vec<Stat>,
}

impl Panel {
    /// The paper's default latency panel: min/max/median/mean of total
    /// latency.
    pub fn latency_overview() -> Panel {
        Panel {
            title: "End-to-end latency".into(),
            measurement: "latency".into(),
            field: "total_ms".into(),
            tags: Vec::new(),
            stats: vec![Stat::Min, Stat::Max, Stat::Median, Stat::Mean],
        }
    }

    /// A self-monitoring panel over one `ruru_self` scalar export (counter
    /// or gauge): plots the exported running value over time. `Max` per
    /// bucket is the right statistic for cumulative counters — each export
    /// is a running total, so the bucket's last (= largest) value is the
    /// state at bucket end.
    pub(crate) fn self_metric(metric: &str) -> Panel {
        Panel {
            title: format!("self: {metric}"),
            measurement: "ruru_self".into(),
            field: "value".into(),
            tags: vec![("metric".into(), metric.into())],
            stats: vec![Stat::Max],
        }
    }

    /// A self-monitoring panel over one `ruru_self` stage-residency
    /// histogram export: plots the exported p95 (tail residency) per
    /// collection interval.
    pub(crate) fn stage_residency(metric: &str) -> Panel {
        Panel {
            title: format!("residency: {metric}"),
            measurement: "ruru_self".into(),
            field: "p95".into(),
            tags: vec![
                ("metric".into(), metric.into()),
                ("kind".into(), "histogram".into()),
            ],
            stats: vec![Stat::Mean, Stat::Max],
        }
    }

    /// Restrict the panel to a tag value.
    pub fn with_tag(mut self, key: &str, value: &str) -> Panel {
        self.tags.push((key.into(), value.into()));
        self
    }

    /// Evaluate over `[start_ns, end_ns)` in `buckets` windows.
    pub fn evaluate(&self, db: &TsDb, start_ns: u64, end_ns: u64, buckets: usize) -> PanelData {
        assert!(buckets > 0, "need at least one bucket");
        assert!(end_ns > start_ns, "empty time range");
        let bucket_ns = (end_ns - start_ns).div_ceil(buckets as u64).max(1);
        let mut query = Query::range(&self.measurement, &self.field, start_ns, end_ns)
            .with_buckets(bucket_ns);
        for (k, v) in &self.tags {
            query = query.with_tag(k, v);
        }
        let result = db.query(&query);
        let times: Vec<u64> = result.iter().map(|b| b.start_ns).collect();
        let series = self
            .stats
            .iter()
            .map(|stat| {
                let values = result
                    .iter()
                    .map(|b| {
                        b.agg.map(|a| match stat {
                            Stat::Min => a.min,
                            Stat::Max => a.max,
                            Stat::Mean => a.mean,
                            Stat::Median => a.median,
                            Stat::P95 => a.p95,
                            Stat::P99 => a.p99,
                            Stat::Count => a.count as f64,
                        })
                    })
                    .collect();
                (*stat, values)
            })
            .collect();
        PanelData {
            title: self.title.clone(),
            times,
            series,
        }
    }
}

/// Evaluated panel data: one optional value per bucket per statistic.
#[derive(Debug, Clone)]
pub struct PanelData {
    /// Panel title.
    pub title: String,
    /// Bucket start times (ns).
    pub times: Vec<u64>,
    /// Series per statistic.
    pub series: Vec<(Stat, Vec<Option<f64>>)>,
}

impl PanelData {
    /// The series for one statistic.
    pub fn series_for(&self, stat: Stat) -> Option<&[Option<f64>]> {
        self.series
            .iter()
            .find(|(s, _)| *s == stat)
            .map(|(_, v)| v.as_slice())
    }

    /// Encode as the JSON document the web panel consumes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("title")
            .string(&self.title)
            .key("times")
            .begin_array();
        for t in &self.times {
            w.number(*t as f64 / 1e9);
        }
        w.end_array().key("series").begin_object();
        for (stat, values) in &self.series {
            w.key(stat.name()).begin_array();
            for v in values {
                match v {
                    Some(x) => w.number(*x),
                    None => w.null(),
                };
            }
            w.end_array();
        }
        w.end_object().end_object();
        w.finish()
    }

    /// Render one statistic as an ASCII sparkline (for terminal demos).
    /// Empty buckets render as spaces.
    pub fn sparkline(&self, stat: Stat) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let Some(values) = self.series_for(stat) else {
            return String::new();
        };
        let present: Vec<f64> = values.iter().flatten().copied().collect();
        if present.is_empty() {
            return " ".repeat(values.len());
        }
        let min = present.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(1e-12);
        values
            .iter()
            .map(|v| match v {
                Some(x) => BARS[(((x - min) / span) * 7.0).round() as usize],
                None => ' ',
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_tsdb::Point;

    fn seed_db() -> TsDb {
        let db = TsDb::new();
        // 10 s of per-second samples: 130 ms baseline, spike at t=7s.
        for s in 0..10u64 {
            for i in 0..20u64 {
                let v = if s == 7 { 4000.0 } else { 130.0 + i as f64 * 0.1 };
                db.write(&Point::new(
                    "latency",
                    vec![("src_city".into(), "Auckland".into())],
                    vec![("total_ms".into(), v)],
                    s * 1_000_000_000 + i * 1_000_000,
                ));
            }
        }
        db
    }

    #[test]
    fn overview_panel_exposes_spike_in_max() {
        let db = seed_db();
        let data = Panel::latency_overview().evaluate(&db, 0, 10_000_000_000, 10);
        assert_eq!(data.times.len(), 10);
        let max = data.series_for(Stat::Max).unwrap();
        assert_eq!(max[6], Some(131.9));
        assert_eq!(max[7], Some(4000.0));
        let median = data.series_for(Stat::Median).unwrap();
        assert!(median[0].unwrap() < 132.0);
    }

    #[test]
    fn tag_filter_empties_foreign_series() {
        let db = seed_db();
        let data = Panel::latency_overview()
            .with_tag("src_city", "Tokyo")
            .evaluate(&db, 0, 10_000_000_000, 10);
        assert!(data.series_for(Stat::Mean).unwrap().iter().all(|v| v.is_none()));
    }

    #[test]
    fn count_stat_counts() {
        let db = seed_db();
        let panel = Panel {
            stats: vec![Stat::Count],
            ..Panel::latency_overview()
        };
        let data = panel.evaluate(&db, 0, 10_000_000_000, 10);
        let counts = data.series_for(Stat::Count).unwrap();
        assert!(counts.iter().all(|c| *c == Some(20.0)));
    }

    #[test]
    fn json_contains_all_series() {
        let db = seed_db();
        let json = Panel::latency_overview()
            .evaluate(&db, 0, 10_000_000_000, 5)
            .to_json();
        for name in ["min", "max", "median", "mean"] {
            assert!(json.contains(&format!("\"{name}\":[")), "{json}");
        }
        assert!(json.contains("\"title\":\"End-to-end latency\""));
    }

    #[test]
    fn sparkline_highlights_spike() {
        let db = seed_db();
        let data = Panel::latency_overview().evaluate(&db, 0, 10_000_000_000, 10);
        let line = data.sparkline(Stat::Max);
        let chars: Vec<char> = line.chars().collect();
        assert_eq!(chars.len(), 10);
        assert_eq!(chars[7], '█', "spike bucket maxes the scale: {line}");
        assert!(chars[0] == '▁', "baseline hugs the floor: {line}");
    }

    #[test]
    fn sparkline_handles_missing_buckets() {
        let db = TsDb::new();
        db.write(&Point::new(
            "latency",
            vec![],
            vec![("total_ms".into(), 100.0)],
            500_000_000,
        ));
        let data = Panel::latency_overview().evaluate(&db, 0, 2_000_000_000, 4);
        let line = data.sparkline(Stat::Mean);
        assert_eq!(line.chars().filter(|c| *c == ' ').count(), 3);
    }

    #[test]
    fn missing_stat_returns_none() {
        let db = seed_db();
        let panel = Panel {
            stats: vec![Stat::Mean],
            ..Panel::latency_overview()
        };
        let data = panel.evaluate(&db, 0, 1_000_000_000, 1);
        assert!(data.series_for(Stat::P99).is_none());
        assert_eq!(data.sparkline(Stat::P99), "");
    }
}
