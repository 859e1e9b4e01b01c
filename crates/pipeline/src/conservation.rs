//! Machine-readable counter-conservation manifest (DESIGN.md §15).
//!
//! PR 5 asserted the conservation identities inline in the integration
//! tests; this module is the single source of truth both consumers read,
//! so the identity list can never drift from what is checked:
//!
//! * **statically** — `cargo xtask account-check` scans this file for the
//!   metric names inside each term and proves every one is a declared
//!   registry id with at least one write site on a path reachable from
//!   the dataplane roots;
//! * **dynamically** — the integration suites call [`check`] on the final
//!   telemetry snapshot and fail on any imbalance, including a torn
//!   (shard-skipping) final snapshot, with the skipped shard ids.
//!
//! Terms name registry counters/gauges/histograms; `External` terms are
//! quantities the registry cannot see (report fields) that the dynamic
//! caller binds by name. The static pass checks only registry terms.

use ruru_telemetry::Snapshot;

/// One side's summand in a conservation identity.
pub enum Term {
    /// A registry counter id, read as its summed-across-shards value.
    Counter(&'static str),
    /// A registry gauge id (the pull-mirrored stats).
    Gauge(&'static str),
    /// A registry histogram id, read as its sample count.
    Hist(&'static str),
    /// A quantity outside the registry, bound by the dynamic caller
    /// (e.g. `Report` fields). Skipped by the static pass.
    External(&'static str),
}

/// `Σ lhs == Σ rhs` over one final, exact snapshot.
pub struct Identity {
    /// Stable identity name, used in violation messages and docs.
    pub name: &'static str,
    /// Left-hand summands.
    pub lhs: &'static [Term],
    /// Right-hand summands.
    pub rhs: &'static [Term],
}

use Term::{Counter, External, Gauge, Hist};

/// The conservation identities of the measurement pipeline. Each says the
/// same thing at a different stage boundary: every record is either
/// measured or accounted loss.
pub const IDENTITIES: &[Identity] = &[
    // Every record entering the dataplane is either rejected (per cause)
    // or handed to the handshake tracker.
    Identity {
        name: "dataplane-input",
        lhs: &[Counter("dp_records_in")],
        rhs: &[
            Counter("reject_not_ip"),
            Counter("reject_not_tcp"),
            Counter("reject_fragment"),
            Counter("reject_bad_ip_checksum"),
            Counter("reject_bad_tcp_checksum"),
            Counter("reject_bad_tcp"),
            Counter("reject_bus_closed"),
            Gauge("tracker_packets"),
        ],
    },
    // The measurement path is loss-free: every dataplane output is a
    // tracker measurement…
    Identity {
        name: "measurement-loss-free",
        lhs: &[Counter("dp_records_out")],
        rhs: &[Gauge("tracker_measurements")],
    },
    // …and every measurement is enriched exactly once.
    Identity {
        name: "enrichment-loss-free",
        lhs: &[Counter("dp_records_out")],
        rhs: &[Counter("enrich_enriched")],
    },
    // One enrichment-residency sample per enriched record.
    Identity {
        name: "enrichment-residency-samples",
        lhs: &[Counter("enrich_enriched")],
        rhs: &[Hist("stage_enrich_residency_ns")],
    },
    // The detector feed carries every measurement plus the lcores' SYN
    // tallies; both sides count a tally as its SYNs.
    Identity {
        name: "detector-input",
        lhs: &[Counter("det_records_in")],
        rhs: &[Counter("dp_records_out"), Counter("dp_syn_events")],
    },
    // The detector conserves records: everything entering it is released
    // to the detectors.
    Identity {
        name: "detector-conservation",
        lhs: &[Counter("det_records_in")],
        rhs: &[Counter("det_records_out")],
    },
    // The in-flow RTT path sees every packet the handshake tracker sees:
    // both trackers are fed the same classified metas, so a packet
    // skipped by one but not the other is a wiring bug.
    Identity {
        name: "inflow-input",
        lhs: &[Gauge("inflow_packets")],
        rhs: &[Gauge("tracker_packets")],
    },
    // Every in-flow RTT sample is folded into the per-queue registry
    // histogram exactly once — the sample counter and the histogram's
    // population can never drift (samples are histogram buckets, not
    // per-sample records; this is the identity that guarantees none are
    // dropped on the way).
    Identity {
        name: "inflow-histogram-accounting",
        lhs: &[Counter("inflow_samples")],
        rhs: &[Hist("inflow_rtt_ns")],
    },
    // Every tsdb point is either a measurement or a ruru_self export.
    Identity {
        name: "tsdb-accounting",
        lhs: &[External("tsdb_points_ingested")],
        rhs: &[Counter("dp_records_out"), External("telemetry_points")],
    },
    // The striped ingest path conserves points: everything the store
    // absorbed arrived through a counted pool stripe flush or the
    // collector's direct `ruru_self` export. A stripe dropped without
    // flushing shows up here as an imbalance, never as silent loss.
    Identity {
        name: "tsdb-merge-accounting",
        lhs: &[External("tsdb_points_ingested")],
        rhs: &[Counter("tsdb_merge_points"), External("telemetry_points")],
    },
];

impl Term {
    /// The metric name (or external key) this term reads.
    pub fn label(&self) -> &'static str {
        match self {
            Counter(n) | Gauge(n) | Hist(n) | External(n) => n,
        }
    }

    /// Resolve the term against a snapshot and the caller's external
    /// bindings.
    fn value(&self, snap: &Snapshot, externals: &[(&'static str, u64)]) -> Result<u64, String> {
        match self {
            Counter(n) => Ok(snap.counter(n)),
            Gauge(n) => Ok(snap.gauge(n)),
            Hist(n) => snap
                .hist(n)
                .map(|h| h.count)
                .ok_or_else(|| format!("histogram `{n}` is not in the snapshot")),
            External(n) => externals
                .iter()
                .find(|(k, _)| k == n)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("external term `{n}` was not bound by the caller")),
        }
    }
}

fn side(terms: &[Term], snap: &Snapshot, ext: &[(&'static str, u64)]) -> Result<u64, String> {
    let mut sum = 0u64;
    for t in terms {
        sum = sum.saturating_add(t.value(snap, ext)?);
    }
    Ok(sum)
}

/// Evaluate every identity against a **final** snapshot, returning one
/// message per violation (empty = conserved). A torn snapshot fails
/// first, loudly, with the skipped shard ids — a collection that folded
/// only some shards cannot witness conservation either way.
pub fn check(snap: &Snapshot, externals: &[(&'static str, u64)]) -> Vec<String> {
    let mut violations = Vec::new();
    if snap.skipped_shards != 0 {
        violations.push(format!(
            "final snapshot is torn: {} shard(s) skipped after {} retries each — shard ids {:?}",
            snap.skipped_shards,
            ruru_telemetry::SNAP_RETRIES,
            snap.skipped_shard_ids,
        ));
        return violations;
    }
    for id in IDENTITIES {
        let lhs = side(id.lhs, snap, externals);
        let rhs = side(id.rhs, snap, externals);
        match (lhs, rhs) {
            (Ok(l), Ok(r)) if l == r => {}
            (Ok(l), Ok(r)) => violations.push(format!(
                "identity `{}` violated: {} = {l} but {} = {r}",
                id.name,
                describe(id.lhs),
                describe(id.rhs),
            )),
            (Err(e), _) | (_, Err(e)) => {
                violations.push(format!("identity `{}` unevaluable: {e}", id.name))
            }
        }
    }
    violations
}

fn describe(terms: &[Term]) -> String {
    terms
        .iter()
        .map(Term::label)
        .collect::<Vec<_>>()
        .join(" + ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_telemetry::RegistryBuilder;

    fn registry_with_all_terms() -> ruru_telemetry::Registry {
        let mut b = RegistryBuilder::new();
        for id in IDENTITIES {
            for t in id.lhs.iter().chain(id.rhs) {
                match t {
                    Counter(n) => {
                        b.counter(n);
                    }
                    Gauge(n) => {
                        b.gauge(n);
                    }
                    Hist(n) => {
                        b.histogram(n, 7);
                    }
                    External(_) => {}
                }
            }
        }
        b.build(1)
    }

    #[test]
    fn zeroed_registry_is_conserved() {
        let reg = registry_with_all_terms();
        let snap = reg.snapshot(0);
        let violations = check(
            &snap,
            &[("tsdb_points_ingested", 0), ("telemetry_points", 0)],
        );
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn imbalance_is_reported_by_identity_name() {
        let reg = registry_with_all_terms();
        let mut snap = reg.snapshot(0);
        for slot in &mut snap.counters {
            if slot.0 == "dp_records_in" {
                slot.1 = 5;
            }
        }
        let violations = check(
            &snap,
            &[("tsdb_points_ingested", 0), ("telemetry_points", 0)],
        );
        assert!(
            violations.iter().any(|v| v.contains("dataplane-input")),
            "{violations:?}"
        );
    }

    #[test]
    fn unbound_external_is_an_error_not_a_pass() {
        let reg = registry_with_all_terms();
        let snap = reg.snapshot(0);
        let violations = check(&snap, &[]);
        assert!(
            violations.iter().any(|v| v.contains("tsdb_points_ingested")),
            "{violations:?}"
        );
    }

    #[test]
    fn torn_snapshot_fails_with_shard_ids() {
        let reg = registry_with_all_terms();
        let mut snap = reg.snapshot(0);
        snap.skipped_shards = 2;
        snap.skipped_shard_ids = vec![0, 3];
        let violations = check(&snap, &[]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("[0, 3]"), "{}", violations[0]);
    }

    /// A cause missing from `dataplane-input` would leave its rejects
    /// unbalanced: one record in, rejected once, must conserve for each.
    #[test]
    fn every_reject_cause_balances_dataplane_input() {
        use crate::telemetry::SelfMetrics;
        use ruru_flow::classify::Reject;
        for cause in Reject::ALL {
            let m = SelfMetrics::new(1, 1);
            let shard = m.dataplane_shard(0);
            m.registry().counter_add(shard, m.dp_records_in, 1);
            m.registry().counter_add(shard, m.reject_counter(cause), 1);
            let violations = check(
                &m.registry().snapshot(0),
                &[("tsdb_points_ingested", 0), ("telemetry_points", 0)],
            );
            assert!(violations.is_empty(), "{cause:?}: {violations:?}");
        }
    }
}
