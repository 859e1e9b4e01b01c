//! Dashboards: named collections of panels evaluated together — the
//! "Grafana UI" of the paper, which shows latency statistics alongside the
//! live map.

use crate::json::JsonWriter;
use crate::panel::{Panel, PanelData, Stat};
use ruru_tsdb::TsDb;

/// A declarative dashboard.
#[derive(Debug, Clone)]
pub struct Dashboard {
    /// Dashboard title.
    pub title: String,
    /// The panels, in display order.
    pub panels: Vec<Panel>,
}

impl Dashboard {
    /// The Ruru operator dashboard: overall latency, internal vs external
    /// split, and per-destination views for the top cities in the store.
    pub fn operator_default(db: &TsDb, top_cities: usize) -> Dashboard {
        let mut panels = vec![
            Panel::latency_overview(),
            Panel {
                title: "Internal latency".into(),
                measurement: "latency".into(),
                field: "internal_ms".into(),
                tags: Vec::new(),
                stats: vec![Stat::Median, Stat::P95, Stat::Max],
            },
            Panel {
                title: "External latency".into(),
                measurement: "latency".into(),
                field: "external_ms".into(),
                tags: Vec::new(),
                stats: vec![Stat::Median, Stat::P95, Stat::Max],
            },
            Panel {
                title: "Connections".into(),
                measurement: "latency".into(),
                field: "total_ms".into(),
                tags: Vec::new(),
                stats: vec![Stat::Count],
            },
        ];
        for city in db.tag_values("latency", "dst_city").into_iter().take(top_cities) {
            panels.push(
                Panel {
                    title: format!("→ {city}"),
                    ..Panel::latency_overview()
                }
                .with_tag("dst_city", &city),
            );
        }
        Dashboard {
            title: "Ruru — end-to-end latency".into(),
            panels,
        }
    }

    /// The pipeline self-monitoring dashboard over the `ruru_self` export
    /// (see `ruru-telemetry`): stage throughput counters, flow-table
    /// occupancy, bus drops, stage-residency tails, and the snapshot
    /// health counter — the pipeline watching itself through the same
    /// tsdb + panel machinery the latency data uses.
    pub fn self_monitoring() -> Dashboard {
        Dashboard {
            title: "Ruru — pipeline self-telemetry".into(),
            panels: vec![
                Panel::self_metric("dp_records_in"),
                Panel::self_metric("dp_records_out"),
                Panel::self_metric("enrich_enriched"),
                Panel::self_metric("det_records_out"),
                Panel::self_metric("flow_table_occupancy"),
                Panel::self_metric("enrich_geo_misses"),
                Panel::self_metric("mq_dropped"),
                Panel::self_metric("reject_bus_closed"),
                Panel::self_metric("snapshot_skipped_shards"),
                Panel::stage_residency("stage_rx_residency_ns"),
                Panel::stage_residency("stage_enrich_residency_ns"),
                Panel::stage_residency("stage_publish_residency_ns"),
            ],
        }
    }

    /// Evaluate every panel over the same window.
    pub fn evaluate(&self, db: &TsDb, start_ns: u64, end_ns: u64, buckets: usize) -> DashboardData {
        DashboardData {
            title: self.title.clone(),
            panels: self
                .panels
                .iter()
                .map(|p| p.evaluate(db, start_ns, end_ns, buckets))
                .collect(),
        }
    }
}

/// Evaluated dashboard data.
#[derive(Debug, Clone)]
pub struct DashboardData {
    /// Dashboard title.
    pub title: String,
    /// Evaluated panels, in display order.
    pub panels: Vec<PanelData>,
}

impl DashboardData {
    /// The JSON document the web UI consumes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("title")
            .string(&self.title)
            .key("panels")
            .begin_array();
        for p in &self.panels {
            // PanelData::to_json produces a complete document; embed its
            // structure directly rather than re-stringifying.
            w.begin_object().key("title").string(&p.title).key("times").begin_array();
            for t in &p.times {
                w.number(*t as f64 / 1e9);
            }
            w.end_array().key("series").begin_object();
            for (stat, values) in &p.series {
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
        }
        w.end_array().end_object();
        w.finish()
    }

    /// A terminal rendering: one sparkline row per panel/stat.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        for p in &self.panels {
            out.push_str(&format!("{}\n", p.title));
            for (stat, _) in &p.series {
                out.push_str(&format!("  {:>6} {}\n", stat.name(), p.sparkline(*stat)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_tsdb::Point;

    fn seeded_db() -> TsDb {
        let db = TsDb::new();
        for (city, base) in [("Los Angeles", 130.0), ("Sydney", 35.0)] {
            for i in 0..50u64 {
                db.write(&Point::new(
                    "latency",
                    vec![("dst_city".into(), city.into())],
                    vec![
                        ("total_ms".into(), base + i as f64 * 0.1),
                        ("internal_ms".into(), 2.0),
                        ("external_ms".into(), base),
                    ],
                    i * 20_000_000,
                ));
            }
        }
        db
    }

    #[test]
    fn operator_default_builds_per_city_panels() {
        let db = seeded_db();
        let d = Dashboard::operator_default(&db, 2);
        assert_eq!(d.panels.len(), 4 + 2);
        assert!(d.panels.iter().any(|p| p.title == "→ Los Angeles"));
        assert!(d.panels.iter().any(|p| p.title == "→ Sydney"));
    }

    #[test]
    fn evaluate_and_encode() {
        let db = seeded_db();
        let d = Dashboard::operator_default(&db, 1);
        let data = d.evaluate(&db, 0, 1_000_000_000, 5);
        assert_eq!(data.panels.len(), d.panels.len());
        let json = data.to_json();
        assert!(json.contains("\"title\":\"Ruru — end-to-end latency\""));
        assert!(json.contains("\"panels\":["));
        assert!(json.contains("\"median\":["));
        let ascii = data.render_ascii();
        assert!(ascii.contains("Internal latency"));
        assert!(ascii.lines().count() > 10);
    }

    #[test]
    fn top_cities_limit_respected() {
        let db = seeded_db();
        let d = Dashboard::operator_default(&db, 0);
        assert_eq!(d.panels.len(), 4);
    }

    #[test]
    fn self_monitoring_reads_ruru_self_exports() {
        let db = TsDb::new();
        // Three collections of the shape ruru-telemetry exports: cumulative
        // scalars tagged by metric name, histogram tails as fields.
        for (i, ts) in [(1u64, 1_000_000_000u64), (2, 2_000_000_000), (3, 2_900_000_000)] {
            db.write(&Point::new(
                "ruru_self",
                vec![
                    ("metric".into(), "dp_records_in".into()),
                    ("kind".into(), "counter".into()),
                ],
                vec![("value".into(), (i * 100) as f64)],
                ts,
            ));
            db.write(&Point::new(
                "ruru_self",
                vec![
                    ("metric".into(), "stage_rx_residency_ns".into()),
                    ("kind".into(), "histogram".into()),
                ],
                vec![("p95".into(), (i * 1000) as f64), ("count".into(), i as f64)],
                ts,
            ));
        }
        let d = Dashboard::self_monitoring();
        assert!(d.panels.iter().any(|p| p.title == "self: dp_records_in"));
        let data = d.evaluate(&db, 0, 3_000_000_000, 3);
        let dp = data
            .panels
            .iter()
            .find(|p| p.title == "self: dp_records_in")
            .unwrap();
        // Cumulative counter: Max per bucket is the state at bucket end
        // (t=2.0s and t=2.9s both land in the last 1-second bucket).
        assert_eq!(dp.series_for(Stat::Max).unwrap()[1], Some(100.0));
        assert_eq!(dp.series_for(Stat::Max).unwrap()[2], Some(300.0));
        let rx = data
            .panels
            .iter()
            .find(|p| p.title == "residency: stage_rx_residency_ns")
            .unwrap();
        assert_eq!(rx.series_for(Stat::Max).unwrap()[2], Some(3000.0));
        // Scalar panels must not pick up histogram points of other metrics.
        assert!(data
            .panels
            .iter()
            .find(|p| p.title == "self: mq_dropped")
            .unwrap()
            .series_for(Stat::Max)
            .unwrap()
            .iter()
            .all(|v| v.is_none()));
    }
}
