//! Pipeline self-telemetry (ISSUE 5): every stage counter, gauge and
//! stage-latency histogram lives in one sharded [`Registry`], and the
//! collector exports it as `ruru_self` line-protocol points into the same
//! tsdb the measurements land in — the pipeline monitors itself with its
//! own storage, exactly as the deployed system pointed Grafana at
//! InfluxDB.
//!
//! ## Shard layout
//!
//! Every writer owns exactly one shard, so all updates are single-writer
//! (plain `load(Relaxed)`/`store(Release)` bumps, no RMW contention):
//!
//! ```text
//! shard 0 .. Q-1   dataplane lcore worker per RX queue
//! shard Q          detector + frontend thread
//! shard Q+1 .. +E  enrichment pool workers
//! shard Q+E+1      collector (mirrored port/mq/tsdb gauges)
//! ```
//!
//! Counters are summed across shards at snapshot time; gauges are stored
//! as absolute per-writer values and also summed, so a per-queue gauge
//! (e.g. `flow_table_occupancy`) exports the whole-pipeline total.
//!
//! ## Stage residency histograms
//!
//! Three virtual-time histograms (never `Instant::now` — the clock is the
//! pipeline's shared virtual clock, so residency is measured in simulated
//! nanoseconds and runs are reproducible):
//!
//! * `stage_rx_residency_ns` — mbuf timestamp → classify/track, recorded
//!   per packet by the dataplane workers (one clock read per burst);
//! * `stage_enrich_residency_ns` — handshake completion → enrichment;
//! * `stage_publish_residency_ns` — handshake completion → detector
//!   release (includes the watermark reorder delay).

use ruru_analytics::PoolTelemetry;
use ruru_flow::classify::Reject;
use ruru_nic::port::PortStats;
use ruru_nic::Clock;
use ruru_telemetry::{CounterId, GaugeId, HistId, Registry, RegistryBuilder, Snapshot};
use std::sync::Arc;

/// Bucket precision for the stage residency histograms: 2^-7 ≈ 0.8 %
/// relative error, 58 × 128 buckets ≈ 58 KiB per shard.
const RESIDENCY_PRECISION: u32 = 7;

/// Bucket precision for the per-queue in-flow RTT histogram: 2^-5 ≈ 3 %
/// relative error, 60 × 32 buckets ≈ 15 KiB per shard.
const INFLOW_PRECISION: u32 = 5;

/// The pipeline's self-metric registry plus every metric id, pre-registered
/// at construction so the hot paths never touch a name.
pub struct SelfMetrics {
    registry: Arc<Registry>,
    num_queues: usize,
    enrich_threads: usize,

    // Dataplane stage (shards 0..Q).
    pub(crate) dp_records_in: CounterId,
    pub(crate) dp_records_out: CounterId,
    pub(crate) dp_batches: CounterId,
    pub(crate) dp_syn_events: CounterId,
    pub(crate) rx_residency: HistId,

    // Per-cause classification rejects (dataplane shards).
    pub(crate) reject_not_ip: CounterId,
    pub(crate) reject_not_tcp: CounterId,
    pub(crate) reject_fragment: CounterId,
    pub(crate) reject_bad_ip_checksum: CounterId,
    pub(crate) reject_bad_tcp_checksum: CounterId,
    pub(crate) reject_bad_tcp: CounterId,
    pub(crate) reject_bus_closed: CounterId,

    // Tracker mirror (absolute per queue; summed = run totals).
    pub(crate) tracker_packets: GaugeId,
    pub(crate) tracker_syns: GaugeId,
    pub(crate) tracker_synacks: GaugeId,
    pub(crate) tracker_measurements: GaugeId,
    pub(crate) tracker_syn_retransmissions: GaugeId,
    pub(crate) tracker_synack_retransmissions: GaugeId,
    pub(crate) tracker_restarts: GaugeId,
    pub(crate) tracker_stray_synacks: GaugeId,
    pub(crate) tracker_rst_aborts: GaugeId,
    pub(crate) tracker_expired: GaugeId,
    pub(crate) tracker_evicted: GaugeId,
    pub(crate) tracker_nonmonotonic: GaugeId,
    pub(crate) flow_table_occupancy: GaugeId,

    // Continuous in-flow RTT (dataplane shards; ISSUE 10). Samples fold
    // into `inflow_rtt_ns` — per queue at write time, summed across shards
    // at snapshot. Conservation: `inflow_samples == hist(inflow_rtt_ns)`
    // and `inflow_packets == tracker_packets` (both trackers see every
    // classified packet).
    pub(crate) inflow_samples: CounterId,
    pub(crate) inflow_no_timestamp: CounterId,
    /// Ring slots overwritten while still outstanding (per-flow TSval ring
    /// overflow) — the in-flow analogue of a capacity eviction.
    pub(crate) inflow_evicted: CounterId,
    pub(crate) inflow_rtt: HistId,
    pub(crate) inflow_packets: GaugeId,
    pub(crate) inflow_tsvals_recorded: GaugeId,
    pub(crate) inflow_duplicate_tsvals: GaugeId,
    pub(crate) inflow_zero_tsvals: GaugeId,
    pub(crate) inflow_nonmonotonic: GaugeId,
    pub(crate) inflow_expired_flows: GaugeId,
    pub(crate) inflow_table_occupancy: GaugeId,

    // Enrichment stage (pool shards Q+1..Q+1+E).
    pub(crate) enrich_enriched: CounterId,
    pub(crate) enrich_geo_misses: CounterId,
    pub(crate) enrich_bytes_out: CounterId,
    pub(crate) enrich_batches_in: CounterId,
    pub(crate) enrich_alloc_hits: CounterId,
    /// Points folded into the shared tsdb by the enrichers' stripe
    /// flushes. Conservation: `tsdb_points_ingested == tsdb_merge_points +
    /// telemetry_points` (the `tsdb-merge-accounting` identity).
    pub(crate) tsdb_merge_points: CounterId,
    pub(crate) enrich_residency: HistId,

    // Detector stage (shard Q).
    pub(crate) det_records_in: CounterId,
    pub(crate) det_records_out: CounterId,
    pub(crate) det_batches: CounterId,
    pub(crate) publish_residency: HistId,

    // Collector mirror gauges (shard Q+E+1).
    pub(crate) port_rx_packets: GaugeId,
    pub(crate) port_rx_bytes: GaugeId,
    pub(crate) port_no_mbuf_drops: GaugeId,
    pub(crate) port_ring_full_drops: GaugeId,
    pub(crate) port_non_ip_packets: GaugeId,
    /// Lossless injects that waited for ring space or a free mbuf.
    pub(crate) port_inject_waits: GaugeId,
    /// Times the port woke a parked or sleeping RX lcore.
    pub(crate) port_rx_wakeups: GaugeId,
    /// Coalescing sleeps (moderated parks) the RX lcores took.
    pub(crate) port_rx_sleeps: GaugeId,
    /// Times an RX lcore woke a lossless inject parked on its full ring.
    pub(crate) port_inject_parks: GaugeId,
    /// Times a PUSH woke an enricher sleeping on its empty input pipe.
    pub(crate) enrich_wakeups: GaugeId,
    /// Times a PUSH woke the detector sleeping on its empty feed.
    pub(crate) detect_wakeups: GaugeId,
    pub(crate) mq_published: GaugeId,
    pub(crate) mq_delivered: GaugeId,
    pub(crate) mq_dropped: GaugeId,
    pub(crate) tsdb_points: GaugeId,
    /// Two-phase storage mirror: points and bytes resting in compressed
    /// sealed chunks, and points still in mutable active tails.
    pub(crate) tsdb_sealed_points: GaugeId,
    pub(crate) tsdb_sealed_bytes: GaugeId,
    pub(crate) tsdb_active_points: GaugeId,
}

/// The message-bus counters one collection mirrors.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BusStats {
    /// The PUB edge's `(published, delivered, dropped)`.
    pub(crate) publisher: (u64, u64, u64),
    /// Wakes of the enrichers' input pipe (`enrich_wakeups`).
    pub(crate) enrich_wakeups: u64,
    /// Wakes of the detector's feed (`detect_wakeups`).
    pub(crate) detect_wakeups: u64,
}

impl SelfMetrics {
    /// Build the registry for a pipeline with `num_queues` RX queues and
    /// `enrich_threads` enrichment workers.
    pub fn new(num_queues: usize, enrich_threads: usize) -> SelfMetrics {
        let mut b = RegistryBuilder::new();
        // Each metric is declared once, in this literal, as
        // `field: b.kind("name")`: the form `cargo xtask account-check`
        // reads. Fields evaluate in the order written, so the registry
        // is built last, once every metric is on the builder.
        SelfMetrics {
            num_queues,
            enrich_threads,
            dp_records_in: b.counter("dp_records_in"),
            dp_records_out: b.counter("dp_records_out"),
            dp_batches: b.counter("dp_batches"),
            dp_syn_events: b.counter("dp_syn_events"),
            rx_residency: b.histogram("stage_rx_residency_ns", RESIDENCY_PRECISION),
            reject_not_ip: b.counter("reject_not_ip"),
            reject_not_tcp: b.counter("reject_not_tcp"),
            reject_fragment: b.counter("reject_fragment"),
            reject_bad_ip_checksum: b.counter("reject_bad_ip_checksum"),
            reject_bad_tcp_checksum: b.counter("reject_bad_tcp_checksum"),
            reject_bad_tcp: b.counter("reject_bad_tcp"),
            reject_bus_closed: b.counter("reject_bus_closed"),
            tracker_packets: b.gauge("tracker_packets"),
            tracker_syns: b.gauge("tracker_syns"),
            tracker_synacks: b.gauge("tracker_synacks"),
            tracker_measurements: b.gauge("tracker_measurements"),
            tracker_syn_retransmissions: b.gauge("tracker_syn_retransmissions"),
            tracker_synack_retransmissions: b.gauge("tracker_synack_retransmissions"),
            tracker_restarts: b.gauge("tracker_restarts"),
            tracker_stray_synacks: b.gauge("tracker_stray_synacks"),
            tracker_rst_aborts: b.gauge("tracker_rst_aborts"),
            tracker_expired: b.gauge("tracker_expired"),
            tracker_evicted: b.gauge("tracker_evicted"),
            tracker_nonmonotonic: b.gauge("tracker_nonmonotonic"),
            flow_table_occupancy: b.gauge("flow_table_occupancy"),
            inflow_samples: b.counter("inflow_samples"),
            inflow_no_timestamp: b.counter("inflow_no_timestamp"),
            inflow_evicted: b.counter("inflow_evicted"),
            inflow_rtt: b.histogram("inflow_rtt_ns", INFLOW_PRECISION),
            inflow_packets: b.gauge("inflow_packets"),
            inflow_tsvals_recorded: b.gauge("inflow_tsvals_recorded"),
            inflow_duplicate_tsvals: b.gauge("inflow_duplicate_tsvals"),
            inflow_zero_tsvals: b.gauge("inflow_zero_tsvals"),
            inflow_nonmonotonic: b.gauge("inflow_nonmonotonic"),
            inflow_expired_flows: b.gauge("inflow_expired_flows"),
            inflow_table_occupancy: b.gauge("inflow_table_occupancy"),
            enrich_enriched: b.counter("enrich_enriched"),
            enrich_geo_misses: b.counter("enrich_geo_misses"),
            enrich_bytes_out: b.counter("enrich_bytes_out"),
            enrich_batches_in: b.counter("enrich_batches_in"),
            enrich_alloc_hits: b.counter("enrich_alloc_hits"),
            tsdb_merge_points: b.counter("tsdb_merge_points"),
            enrich_residency: b.histogram("stage_enrich_residency_ns", RESIDENCY_PRECISION),
            det_records_in: b.counter("det_records_in"),
            det_records_out: b.counter("det_records_out"),
            det_batches: b.counter("det_batches"),
            publish_residency: b.histogram("stage_publish_residency_ns", RESIDENCY_PRECISION),
            port_rx_packets: b.gauge("port_rx_packets"),
            port_rx_bytes: b.gauge("port_rx_bytes"),
            port_no_mbuf_drops: b.gauge("port_no_mbuf_drops"),
            port_ring_full_drops: b.gauge("port_ring_full_drops"),
            port_non_ip_packets: b.gauge("port_non_ip_packets"),
            port_inject_waits: b.gauge("port_inject_waits"),
            port_rx_wakeups: b.gauge("port_rx_wakeups"),
            port_rx_sleeps: b.gauge("port_rx_sleeps"),
            port_inject_parks: b.gauge("port_inject_parks"),
            enrich_wakeups: b.gauge("enrich_wakeups"),
            detect_wakeups: b.gauge("detect_wakeups"),
            mq_published: b.gauge("mq_published"),
            mq_delivered: b.gauge("mq_delivered"),
            mq_dropped: b.gauge("mq_dropped"),
            tsdb_points: b.gauge("tsdb_points"),
            tsdb_sealed_points: b.gauge("tsdb_sealed_points"),
            tsdb_sealed_bytes: b.gauge("tsdb_sealed_bytes"),
            tsdb_active_points: b.gauge("tsdb_active_points"),
            // queues + detector + enrichers + collector.
            registry: Arc::new(b.build(num_queues + 1 + enrich_threads + 1)),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Shard owned by the dataplane worker of RX queue `queue`.
    pub(crate) fn dataplane_shard(&self, queue: u16) -> usize {
        (queue as usize).min(self.num_queues.saturating_sub(1))
    }

    /// Shard owned by the detector thread.
    pub(crate) fn detector_shard(&self) -> usize {
        self.num_queues
    }

    /// First shard of the enrichment pool (worker `i` owns base + i).
    fn enrich_shard_base(&self) -> usize {
        self.num_queues + 1
    }

    /// Shard owned by the collector (mirrored port/mq/tsdb gauges).
    fn collector_shard(&self) -> usize {
        self.num_queues + 1 + self.enrich_threads
    }

    /// The per-cause reject counter for `reject`.
    pub(crate) fn reject_counter(&self, reject: Reject) -> CounterId {
        match reject {
            Reject::NotIp => self.reject_not_ip,
            Reject::NotTcp => self.reject_not_tcp,
            Reject::Fragment => self.reject_fragment,
            Reject::BadIpChecksum => self.reject_bad_ip_checksum,
            Reject::BadTcpChecksum => self.reject_bad_tcp_checksum,
            Reject::BadTcp => self.reject_bad_tcp,
            Reject::BusClosed => self.reject_bus_closed,
        }
    }

    /// The enrichment pool's handle bundle (worker `i` writes shard
    /// `enrich_shard_base() + i`).
    pub(crate) fn pool_telemetry(&self, clock: Clock) -> PoolTelemetry {
        PoolTelemetry {
            registry: Arc::clone(&self.registry),
            clock,
            shard_base: self.enrich_shard_base(),
            enriched: self.enrich_enriched,
            geo_misses: self.enrich_geo_misses,
            batches_in: self.enrich_batches_in,
            bytes_out: self.enrich_bytes_out,
            alloc_hits: self.enrich_alloc_hits,
            tsdb_merged: self.tsdb_merge_points,
            enrich_residency: self.enrich_residency,
        }
    }

    /// One collection: mirror the pull-based stats (port, in-proc bus,
    /// tsdb ingest) into the collector shard, then take an epoch-validated
    /// snapshot. `snap`/`scratch` are reused buffers — after warm-up the
    /// collection allocates nothing.
    pub(crate) fn collect_into(
        &self,
        timestamp_ns: u64,
        port: &PortStats,
        mq: &BusStats,
        tsdb: (u64, ruru_tsdb::StorageStats),
        snap: &mut Snapshot,
        scratch: &mut Vec<u64>,
    ) {
        let shard = self.collector_shard();
        self.registry.burst_begin(shard);
        self.registry
            .gauge_store(shard, self.port_rx_packets, port.rx_packets);
        self.registry
            .gauge_store(shard, self.port_rx_bytes, port.rx_bytes);
        self.registry
            .gauge_store(shard, self.port_no_mbuf_drops, port.no_mbuf_drops);
        self.registry
            .gauge_store(shard, self.port_ring_full_drops, port.ring_full_drops);
        self.registry
            .gauge_store(shard, self.port_non_ip_packets, port.non_ip_packets);
        self.registry
            .gauge_store(shard, self.port_inject_waits, port.inject_waits);
        self.registry
            .gauge_store(shard, self.port_rx_wakeups, port.rx_wakeups);
        self.registry
            .gauge_store(shard, self.port_rx_sleeps, port.rx_sleeps);
        self.registry
            .gauge_store(shard, self.port_inject_parks, port.inject_parks);
        self.registry
            .gauge_store(shard, self.enrich_wakeups, mq.enrich_wakeups);
        self.registry
            .gauge_store(shard, self.detect_wakeups, mq.detect_wakeups);
        let (published, delivered, dropped) = mq.publisher;
        self.registry.gauge_store(shard, self.mq_published, published);
        self.registry.gauge_store(shard, self.mq_delivered, delivered);
        self.registry.gauge_store(shard, self.mq_dropped, dropped);
        let (points_ingested, storage) = tsdb;
        self.registry
            .gauge_store(shard, self.tsdb_points, points_ingested);
        self.registry
            .gauge_store(shard, self.tsdb_sealed_points, storage.sealed_points);
        self.registry
            .gauge_store(shard, self.tsdb_sealed_bytes, storage.sealed_bytes);
        self.registry
            .gauge_store(shard, self.tsdb_active_points, storage.active_points);
        self.registry.burst_end(shard);
        self.registry.snapshot_into(timestamp_ns, snap, scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_layout_is_disjoint_and_covers_the_registry() {
        let m = SelfMetrics::new(4, 2);
        assert_eq!(m.registry().shard_count(), 4 + 1 + 2 + 1);
        let mut shards = vec![
            m.detector_shard(),
            m.collector_shard(),
            m.enrich_shard_base(),
            m.enrich_shard_base() + 1,
        ];
        for q in 0..4 {
            shards.push(m.dataplane_shard(q));
        }
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), m.registry().shard_count(), "one owner per shard");
        // Out-of-range queues clamp instead of colliding with the detector.
        assert_eq!(m.dataplane_shard(99), 3);
    }

    #[test]
    fn reject_counters_are_distinct_per_cause() {
        let m = SelfMetrics::new(1, 1);
        let shard = m.dataplane_shard(0);
        m.registry().burst_begin(shard);
        for (i, &c) in Reject::ALL.iter().enumerate() {
            m.registry()
                .counter_add(shard, m.reject_counter(c), (i + 1) as u64);
        }
        m.registry().burst_end(shard);
        let snap = m.registry().snapshot(0);
        assert_eq!(snap.counter("reject_not_ip"), 1);
        assert_eq!(snap.counter("reject_fragment"), 3);
        assert_eq!(snap.counter("reject_bus_closed"), 7);
    }

    #[test]
    fn collect_into_mirrors_collector_gauges() {
        let m = SelfMetrics::new(2, 1);
        let port = PortStats {
            rx_packets: 100,
            rx_bytes: 6400,
            no_mbuf_drops: 1,
            ring_full_drops: 2,
            non_ip_packets: 3,
            inject_waits: 4,
            rx_wakeups: 5,
            rx_sleeps: 9,
            inject_parks: 6,
        };
        let mut snap = ruru_telemetry::Snapshot::default();
        let mut scratch = Vec::new();
        let storage = ruru_tsdb::StorageStats {
            sealed_points: 40,
            sealed_bytes: 120,
            active_points: 15,
        };
        let mq = BusStats {
            publisher: (10, 20, 30),
            enrich_wakeups: 7,
            detect_wakeups: 8,
        };
        m.collect_into(42, &port, &mq, (55, storage), &mut snap, &mut scratch);
        assert_eq!(snap.timestamp_ns, 42);
        assert_eq!(snap.gauge("port_rx_packets"), 100);
        assert_eq!(snap.gauge("port_inject_waits"), 4);
        assert_eq!(snap.gauge("port_rx_wakeups"), 5);
        assert_eq!(snap.gauge("port_rx_sleeps"), 9);
        assert_eq!(snap.gauge("port_inject_parks"), 6);
        assert_eq!(snap.gauge("enrich_wakeups"), 7);
        assert_eq!(snap.gauge("detect_wakeups"), 8);
        assert_eq!(snap.gauge("mq_delivered"), 20);
        assert_eq!(snap.gauge("tsdb_points"), 55);
        assert_eq!(snap.gauge("tsdb_sealed_points"), 40);
        assert_eq!(snap.gauge("tsdb_sealed_bytes"), 120);
        assert_eq!(snap.gauge("tsdb_active_points"), 15);
        assert!(snap.hist("stage_rx_residency_ns").is_some());
    }
}
