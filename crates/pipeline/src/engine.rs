//! The assembled Ruru pipeline.
//!
//! Construction wires the stages of Figure 2 together; [`Pipeline::feed`]
//! plays tap events through it (advancing the shared virtual clock);
//! [`Pipeline::finish`] drains and joins every stage and returns a
//! [`Report`] with the statistics every experiment reads.

use crate::snmp::{SnmpPoller, SnmpSample};
use crate::telemetry::{BusStats, SelfMetrics};
use ruru_analytics::detect::FloodConfig;
use ruru_analytics::{
    AlertSink, DetectorInput, EnrichedMeasurement, EnrichmentPool, LatencySpikeDetector,
    PairAggregator, PairInterner, RateAnomalyDetector, SynFloodDetector,
};
use ruru_flow::classify::{classify_mbuf, ChecksumMode, Reject, RejectStats, TcpMeta};
use ruru_flow::{
    HandshakeTracker, InflowStats, InflowTracker, LatencyMeasurement, TrackerConfig, TrackerStats,
};
use ruru_gen::Event;
use ruru_geo::{GeoDb, SynthWorld};
use ruru_mq::chan::Probe;
use ruru_mq::{pipe, Publisher, Pull, Push};
use ruru_nic::Mbuf;
use ruru_nic::lcore::{WorkerGroup, BURST_SIZE};
use ruru_nic::port::{Port, PortConfig, PortStats};
use ruru_nic::{Clock, Timestamp};
use ruru_telemetry::Snapshot;
use ruru_tsdb::TsDb;
use std::sync::Arc;

/// Whole-pipeline configuration. The in-flow tracker and the three
/// detectors run with their default settings.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The simulated NIC.
    pub port: PortConfig,
    /// Per-queue handshake tracker settings.
    pub tracker: TrackerConfig,
    /// Message-bus high-water mark.
    pub mq_hwm: usize,
    /// When true (the default), [`Pipeline::feed`] waits for ring space
    /// instead of dropping at a full RX ring. Simulated time is decoupled
    /// from wall time, so "waiting" costs nothing and runs are lossless on
    /// any host. Set false to study genuine NIC overload behaviour.
    pub lossless_inject: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            port: PortConfig::default(),
            tracker: TrackerConfig::default(),
            mq_hwm: 65536,
            lossless_inject: true,
        }
    }
}

/// Virtual time between self-telemetry collections: each one snapshots
/// the sharded registry and writes `ruru_self` points into the tsdb (see
/// [`crate::telemetry`]).
const TELEMETRY_INTERVAL_NS: u64 = 1_000_000_000;

/// Everything the run produced. Every stage count (dataplane, enrichment,
/// in-flow, detector, bus) is read from [`Report::telemetry`], the final
/// registry snapshot: the numbers the live `ruru_self` export carries, so
/// a report and a dashboard cannot disagree.
pub struct Report {
    /// NIC-level statistics.
    pub port: PortStats,
    /// Per-queue tracker statistics.
    pub trackers: Vec<(u16, TrackerStats)>,
    /// All alerts raised.
    pub alerts: Vec<ruru_analytics::Alert>,
    /// The time-series database, for panel queries.
    pub tsdb: Arc<TsDb>,
    /// SNMP baseline samples.
    pub snmp: Vec<SnmpSample>,
    /// Per-cause classification reject counts (the `reject_*` registry
    /// counters).
    pub rejects: RejectStats,
    /// Rolling per-location-pair / per-AS-pair aggregates (the paper's
    /// "aggregates statistics by source and destination locations, and AS
    /// numbers").
    pub aggregates: PairAggregator,
    /// Final self-telemetry snapshot: every registry counter, gauge and
    /// stage-residency histogram, taken after all stages quiesced (the
    /// source of the run's last `ruru_self` export, and of `rejects`).
    pub telemetry: Snapshot,
    /// `ruru_self` points written into the tsdb over the run, so
    /// `tsdb.points_ingested() == measurements + telemetry_points` exactly.
    pub telemetry_points: u64,
}

impl Report {
    /// Total measurements across queues.
    pub fn measurements(&self) -> u64 {
        self.trackers.iter().map(|(_, s)| s.measurements).sum()
    }

    /// Total SYNs seen across queues.
    pub fn syns(&self) -> u64 {
        self.trackers.iter().map(|(_, s)| s.syns).sum()
    }

    /// Total continuous in-flow RTT samples across queues (the
    /// `inflow_samples` registry counter).
    pub fn inflow_samples(&self) -> u64 {
        self.telemetry.counter("inflow_samples")
    }
}

struct WorkerState {
    tracker: HandshakeTracker,
    /// Continuous in-flow RTT tracker, fed the same classified metas as
    /// the handshake tracker.
    inflow: InflowTracker,
    push: Push<LatencyMeasurement>,
    /// This lcore's PUSH end of the detector pipe, for SYN tallies.
    det_push: Push<DetectorInput>,
    /// The shared self-metric registry; this worker writes only `shard`.
    metrics: Arc<SelfMetrics>,
    shard: usize,
    clock: Clock,
    /// Measurements accumulated this burst, flushed with one `send_batch`.
    batch: Vec<LatencyMeasurement>,
    /// Classified packets of the current burst, reused across bursts so
    /// the burst path stays allocation-free at steady state.
    metas: Vec<TcpMeta>,
    /// The open SYN tally.
    tally: SynTally,
    /// The flood detector's own interval (`FloodConfig::interval_ns`),
    /// over which SYNs are tallied.
    flood_interval_ns: u64,
    /// Tallies closed this burst, sent at flush after its measurements.
    tallies: Vec<SynTally>,
    /// RX residencies (virtual ns, mbuf timestamp → classify) of the
    /// current burst, reused across bursts.
    residencies: Vec<u64>,
    /// In-flow RTT samples (ns) of the current burst, folded into the
    /// per-queue registry histogram at flush; reused across bursts.
    inflow_rtts: Vec<u64>,
    /// Inflow stats as of the last flush, so counters flush as deltas.
    inflow_flushed: InflowStats,
    /// Frames taken off the RX ring since the last flush.
    records_in: u64,
    /// Rejects of this burst, indexed by `Reject as usize`.
    reject_counts: [u64; Reject::ALL.len()],
}

/// The SYN-only packets one lcore saw in one flood interval. They reach
/// the detector as one [`DetectorInput::Syn`] at the end of the burst in
/// which a packet of a later interval closed the tally, or at shutdown.
#[derive(Clone, Copy)]
struct SynTally {
    /// The interval `[start, end)`, in tap ns.
    start: u64,
    end: u64,
    /// The latest SYN's tap time.
    at: Timestamp,
    /// SYNs counted; 0 while no tally is open.
    count: u64,
}

impl SynTally {
    /// No open tally: no packet lies past it.
    const NONE: SynTally = SynTally {
        start: 0,
        end: u64::MAX,
        at: Timestamp::ZERO,
        count: 0,
    };
}

/// Send `items` as one burst and return how many were not sent: the
/// send fails only once every puller is gone, and then the item it failed
/// on and the rest of the burst are lost.
fn send_counted<T>(push: &Push<T>, items: impl ExactSizeIterator<Item = T>) -> u64 {
    let queued = items.len();
    let mut consumed = 0usize;
    if push.send_batch(items.inspect(|_| consumed += 1)).is_ok() {
        return 0;
    }
    // `consumed` includes the item that failed to send.
    queued.saturating_sub(consumed.saturating_sub(1)) as u64
}

impl WorkerState {
    /// A fresh lcore state for RX queue `qid`.
    fn new(
        qid: u16,
        tracker: TrackerConfig,
        push: Push<LatencyMeasurement>,
        det_push: Push<DetectorInput>,
        metrics: Arc<SelfMetrics>,
        clock: Clock,
        flood_interval_ns: u64,
    ) -> WorkerState {
        WorkerState {
            tracker: HandshakeTracker::new(qid, tracker),
            inflow: InflowTracker::new(qid, Default::default()),
            push,
            det_push,
            shard: metrics.dataplane_shard(qid),
            metrics,
            clock,
            batch: Vec::with_capacity(BURST_SIZE),
            metas: Vec::with_capacity(BURST_SIZE),
            tally: SynTally::NONE,
            flood_interval_ns,
            tallies: Vec::with_capacity(BURST_SIZE),
            residencies: Vec::with_capacity(BURST_SIZE),
            inflow_rtts: Vec::with_capacity(BURST_SIZE),
            inflow_flushed: InflowStats::default(),
            records_in: 0,
            reject_counts: [0; Reject::ALL.len()],
        }
    }

    /// Count a classified packet toward the SYN tally: a packet past the
    /// open tally's interval closes it, and a SYN-only packet outside that
    /// interval opens the next one.
    fn tally_syn(&mut self, meta: &TcpMeta) {
        let ns = meta.timestamp.as_nanos();
        let syn = meta.flags.is_syn_only();
        if ns >= self.tally.end || (syn && ns < self.tally.start) {
            self.close_tally();
        }
        if !syn {
            return;
        }
        let t = &mut self.tally;
        if t.count == 0 {
            t.start = ns - ns.checked_rem(self.flood_interval_ns).unwrap_or(0);
            t.end = t.start.saturating_add(self.flood_interval_ns);
        }
        t.count += 1;
        t.at = t.at.max(meta.timestamp);
    }

    /// Stage the open SYN tally, if there is one, for the next flush.
    fn close_tally(&mut self) {
        let tally = std::mem::replace(&mut self.tally, SynTally::NONE);
        if tally.count > 0 {
            self.tallies.push(tally);
        }
    }

    /// Send the burst's accumulated measurements downstream, then its
    /// closed SYN tallies, and flush local counters into this worker's
    /// registry shard — one epoch-framed burst per RX burst, called at
    /// every burst end and once more at shutdown. The measurement send
    /// wakes a sleeping puller only once its pipe holds a full burst;
    /// [`dataplane_idle`] flushes the rest.
    fn flush(&mut self) {
        // PUSH blocks at the HWM: analytics back-pressure, never loss
        // (ZeroMQ PUSH semantics). A send can only fail once every puller
        // is gone; the unsent remainder of the burst is then counted as
        // bus-closed drops, not panicked on.
        let records_out = self.batch.len();
        let mut lost = 0;
        if records_out > 0 {
            lost += send_counted(&self.push, self.batch.drain(..));
        }
        // Each tally carries how many measurements this lcore has pushed,
        // this burst's included: the detector holds the tally's watermark
        // until it has received them all (DESIGN.md §8).
        let queue = self.tracker.queue_id();
        let ts = self.tracker.stats();
        let measurements = ts.measurements;
        let mut syn_events = 0;
        for SynTally { at, count, .. } in self.tallies.drain(..) {
            syn_events += count;
            let tally = DetectorInput::Syn {
                queue,
                at,
                count,
                measurements,
            };
            if self.det_push.send(tally).is_err() {
                lost += count;
            }
        }
        if let Some(n) = self.reject_counts.get_mut(Reject::BusClosed as usize) {
            *n += lost;
        }
        let m = &*self.metrics;
        let r = m.registry();
        r.burst_begin(self.shard);
        // What this burst moved: one measurement batch at most.
        for (id, n) in [
            (m.dp_records_in, std::mem::take(&mut self.records_in)),
            (m.dp_records_out, records_out as u64),
            (m.dp_batches, u64::from(records_out > 0)),
            (m.dp_syn_events, syn_events),
        ] {
            if n > 0 {
                r.counter_add(self.shard, id, n);
            }
        }
        for (&cause, &n) in Reject::ALL.iter().zip(&self.reject_counts) {
            if n > 0 {
                r.counter_add(self.shard, m.reject_counter(cause), n);
            }
        }
        self.reject_counts = [0; Reject::ALL.len()];
        for &ns in &self.residencies {
            r.hist_record(self.shard, m.rx_residency, ns);
        }
        self.residencies.clear();
        // Tracker stats are absolute per queue: stored as gauges, they sum
        // across shards to the run totals.
        r.gauge_store(self.shard, m.tracker_packets, ts.packets);
        r.gauge_store(self.shard, m.tracker_syns, ts.syns);
        r.gauge_store(self.shard, m.tracker_synacks, ts.synacks);
        r.gauge_store(self.shard, m.tracker_measurements, ts.measurements);
        r.gauge_store(self.shard, m.tracker_syn_retransmissions, ts.syn_retransmissions);
        r.gauge_store(
            self.shard,
            m.tracker_synack_retransmissions,
            ts.synack_retransmissions,
        );
        r.gauge_store(self.shard, m.tracker_restarts, ts.restarts);
        r.gauge_store(self.shard, m.tracker_stray_synacks, ts.stray_synacks);
        r.gauge_store(self.shard, m.tracker_rst_aborts, ts.rst_aborts);
        r.gauge_store(self.shard, m.tracker_expired, ts.expired);
        r.gauge_store(self.shard, m.tracker_evicted, ts.evicted);
        r.gauge_store(self.shard, m.tracker_nonmonotonic, ts.nonmonotonic);
        r.gauge_store(
            self.shard,
            m.flow_table_occupancy,
            self.tracker.in_flight() as u64,
        );
        // In-flow RTT path: sample/skip/eviction counters flush as deltas
        // against the last flush, the burst's samples fold into the
        // per-queue registry histogram (buckets, not per-sample records),
        // and the cumulative stats mirror as gauges like the tracker's.
        let is = self.inflow.stats();
        let last = self.inflow_flushed;
        let d = is.samples.saturating_sub(last.samples);
        if d > 0 {
            r.counter_add(self.shard, m.inflow_samples, d);
        }
        let d = is.no_timestamp.saturating_sub(last.no_timestamp);
        if d > 0 {
            r.counter_add(self.shard, m.inflow_no_timestamp, d);
        }
        let d = is.ring_evicted.saturating_sub(last.ring_evicted);
        if d > 0 {
            r.counter_add(self.shard, m.inflow_evicted, d);
        }
        self.inflow_flushed = is;
        for &ns in &self.inflow_rtts {
            r.hist_record(self.shard, m.inflow_rtt, ns);
        }
        self.inflow_rtts.clear();
        r.gauge_store(self.shard, m.inflow_packets, is.packets);
        r.gauge_store(self.shard, m.inflow_tsvals_recorded, is.tsvals_recorded);
        r.gauge_store(self.shard, m.inflow_duplicate_tsvals, is.duplicate_tsvals);
        r.gauge_store(self.shard, m.inflow_zero_tsvals, is.zero_tsvals);
        r.gauge_store(self.shard, m.inflow_nonmonotonic, is.nonmonotonic);
        r.gauge_store(self.shard, m.inflow_expired_flows, is.expired_flows);
        r.gauge_store(
            self.shard,
            m.inflow_table_occupancy,
            self.inflow.flows_tracked() as u64,
        );
        r.burst_end(self.shard);
    }
}

/// The threads [`Pipeline::finish`] stops and joins, in this order.
struct Stages {
    workers: WorkerGroup<WorkerState>,
    pool: EnrichmentPool,
    detector: std::thread::JoinHandle<PairAggregator>,
}

/// The running pipeline.
pub struct Pipeline {
    clock: Clock,
    lossless_inject: bool,
    publisher: Publisher,
    port: Port,
    /// Taken by `finish`, which then still borrows the rest of `self`.
    stages: Option<Stages>,
    tsdb: Arc<TsDb>,
    alerts: AlertSink,
    snmp: SnmpPoller,
    metrics: Arc<SelfMetrics>,
    /// Wake counters of the enrichers' input pipe and of the detector's
    /// feed, read at each collection.
    enrich_probe: Probe<LatencyMeasurement>,
    detect_probe: Probe<DetectorInput>,
    last_telemetry: u64,
    telemetry_points: u64,
    // Reused collection buffers: snapshots allocate nothing after warm-up.
    telemetry_snap: Snapshot,
    telemetry_scratch: Vec<u64>,
    last_event: Timestamp,
}

/// Everything the detector thread consumes, bundled so the thread body can
/// be a named function (see [`detector_loop`]).
struct DetectorInputs {
    det_pull: Pull<DetectorInput>,
    flood: FloodConfig,
    alerts: AlertSink,
    num_queues: u16,
    metrics: Arc<SelfMetrics>,
    clock: Clock,
}

/// What moved through the detector in one loop iteration, flushed to its
/// registry shard as the `det_*` counters.
#[derive(Default)]
struct DetectorDelta {
    /// Records entering: enriched records plus SYNs (a tally counts as
    /// its SYNs).
    records_in: u64,
    /// Records released from the reorder buffer to the detectors, counted
    /// the same way.
    records_out: u64,
    /// Batched receives.
    batches: u64,
}

/// Flush the detector's per-iteration deltas into its registry shard (one
/// epoch-framed burst). `residencies` holds `(ns, records)` pairs: a
/// tally's SYNs share its residency.
fn flush_detector_deltas(
    metrics: &SelfMetrics,
    shard: usize,
    delta: &mut DetectorDelta,
    residencies: &mut Vec<(u64, u64)>,
) {
    if delta.records_in == 0 && delta.records_out == 0 && residencies.is_empty() {
        return;
    }
    let r = metrics.registry();
    r.burst_begin(shard);
    if delta.records_in > 0 {
        r.counter_add(shard, metrics.det_records_in, delta.records_in);
    }
    if delta.records_out > 0 {
        r.counter_add(shard, metrics.det_records_out, delta.records_out);
    }
    if delta.batches > 0 {
        r.counter_add(shard, metrics.det_batches, delta.batches);
    }
    for &(ns, n) in residencies.iter() {
        r.hist_record_n(shard, metrics.publish_residency, ns, n);
    }
    r.burst_end(shard);
    residencies.clear();
    *delta = DetectorDelta::default();
}

/// One RX burst through the dataplane stage: classify every packet with
/// checksum validation through [`classify_mbuf`], then run the whole burst
/// through the tracker's software-pipelined [`HandshakeTracker::process_burst`]
/// — each packet's `FlowKey::table_hash` home bucket and tag lines are
/// prefetch-staged across the burst before any packet touches the table
/// (the RSS hash already did its one job, choosing this queue) — and through
/// the in-flow tracker's, staging each measurement in the burst's batch
/// and flushing one vectored PUSH per burst. Named (rather
/// than left as a closure inside [`Pipeline::new`]) so `cargo xtask
/// panic-check` can root its reachability walk at the hot path.
fn dataplane_worker(state: &mut WorkerState, burst: &mut Vec<Mbuf>) {
    classify_burst(state, burst);
    // Split the borrows: the tracker walks `metas` while the emit closure
    // fills `batch`.
    let WorkerState {
        tracker,
        inflow,
        inflow_rtts,
        metas,
        batch,
        ..
    } = state;
    tracker.process_burst(metas, |m| batch.push(m));
    // Same metas through the continuous in-flow RTT path: one prefetch-
    // staged slab-table walk, samples staged for the flush below.
    inflow.process_burst(metas, |rtt_ns| inflow_rtts.push(rtt_ns));
    // Burst boundary: at most one measurement per packet, so the batch is
    // bounded by BURST_SIZE; one vectored send covers the whole burst.
    state.flush();
}

/// The lcore's idle hook, run on its first empty poll after a burst:
/// wake the enrichers and the detector for whatever part bursts this
/// lcore left in their pipes, so no record waits for more traffic (DPDK
/// `l3fwd`'s TX drain). Named so the static checkers root here.
fn dataplane_idle(state: &mut WorkerState) {
    state.push.flush();
    state.det_push.flush();
}

/// The classification half of a dataplane burst: drain the RX burst
/// through [`classify_mbuf`], record residencies, tally SYNs, and stage
/// the surviving [`TcpMeta`]s in `state.metas` for the tracker walk.
fn classify_burst(state: &mut WorkerState, burst: &mut Vec<Mbuf>) {
    state.records_in += burst.len() as u64;
    state.metas.clear();
    // One clock read per burst: RX residency is virtual time between the
    // mbuf's tap timestamp and this classification pass.
    let now = state.clock.now();
    for mbuf in burst.drain(..) {
        match classify_mbuf(&mbuf, ChecksumMode::Validate) {
            Ok(meta) => {
                state
                    .residencies
                    .push(now.saturating_nanos_since(meta.timestamp));
                state.tally_syn(&meta);
                state.metas.push(meta);
            }
            Err(reject) => {
                // Fragments/UDP/ARP are normal on a live tap; count them
                // per cause, flushed to this worker's registry shard.
                if let Some(n) = state.reject_counts.get_mut(reject as usize) {
                    *n += 1;
                }
            }
        }
    }
}

/// The detector thread: consumes SYN tallies and enriched measurements,
/// raises alerts and folds the per-pair aggregates (map frames are cut by
/// PUB `enriched` subscribers). Named so the panic checker roots here.
///
/// Both kinds arrive on the one detector pipe as [`DetectorInput`]
/// values: the lcores PUSH one SYN tally per queue and flood interval, the
/// enrichers enriched records.
/// The thread blocks in `recv_batch`; a return of 0 means every pusher is
/// gone and the pipe is drained, so the stream has ended.
///
/// A sharded dataplane delivers events to analytics out of simulated-time
/// order (a briefly descheduled worker is minutes of simulated time behind
/// its siblings), and the enrichers, pulling from one pipe, may deliver
/// one queue's measurements out of order. Detectors that window on time
/// need an in-order stream, so this runs a watermark reorderer: events
/// buffer in a min-heap and release only once every queue's watermark has
/// passed them. A queue's watermark is its latest SYN tally whose lcore's
/// earlier measurements have all arrived (see [`DetectorInput::Syn`]).
fn detector_loop(inputs: DetectorInputs) -> PairAggregator {
    use std::cmp::Reverse;
    use std::collections::binary_heap::{BinaryHeap, PeekMut};
    use std::collections::VecDeque;

    let DetectorInputs {
        det_pull,
        flood,
        alerts,
        num_queues,
        metrics,
        clock,
    } = inputs;

    /// A buffered event, heap-ordered as `(at, seq, Ev)`: `seq` is unique,
    /// so the event itself never decides an order.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        /// A tally of this many SYNs.
        Syn(u64),
        /// Slot of the record in `parked`.
        Meas(usize),
    }

    let mut spike = LatencySpikeDetector::new(Default::default());
    let mut flood = SynFloodDetector::new(flood);
    let mut rate = RateAnomalyDetector::new(Default::default());
    let mut aggregates = PairAggregator::new();
    // City-pair keys interned once; the per-measurement hot path below
    // works on dense u32 ids, no `format!` per record.
    let mut pairs = PairInterner::new();
    // Per-iteration deltas + publish residencies, flushed into the
    // detector's registry shard as one epoch-framed burst per iteration.
    let mut delta = DetectorDelta::default();
    // alloc-ok: one-time setup before the receive loop.
    let mut residencies: Vec<(u64, u64)> = Vec::with_capacity(2 * BURST_SIZE);
    let det_shard = metrics.detector_shard();
    let top_queue = num_queues.saturating_sub(1);

    // Per queue (ids clamped to `top_queue`): the watermark, the
    // measurements received, and the tallies, as `(measurements, at)`,
    // whose watermark waits for the measurements their lcore pushed
    // first. All watermarks start at zero; nothing is released until
    // every queue has sent a tally (or the stream ends).
    let queues = usize::from(top_queue) + 1;
    // alloc-ok: one-time setup before the receive loop.
    let mut watermarks = vec![0u64; queues];
    // alloc-ok: one-time setup before the receive loop.
    let mut received = vec![0u64; queues];
    // alloc-ok: one-time setup; a queue's gates are few and reused.
    let mut gated: Vec<VecDeque<(u64, u64)>> = vec![VecDeque::new(); queues];
    let mut pending: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    // Measurements held for the watermark, parked in a slab whose slots are
    // reused once released: the heap orders slot indices, not boxes.
    let mut parked: Vec<EnrichedMeasurement> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();

    // alloc-ok: one-time setup; drained and refilled in place each burst.
    let mut det_batch: Vec<DetectorInput> = Vec::with_capacity(BURST_SIZE);
    let mut done = false;
    while !done {
        done = det_pull.recv_batch(&mut det_batch, BURST_SIZE) == 0;
        if !done {
            delta.batches += 1;
        }
        for input in det_batch.drain(..) {
            let (at, q, ev) = match input {
                DetectorInput::Syn {
                    queue,
                    at,
                    count,
                    measurements,
                } => {
                    delta.records_in += count;
                    let q = usize::from(queue.min(top_queue));
                    if let Some(gates) = gated.get_mut(q) {
                        // alloc-ok: one tally per queue and second; its
                        // gate is met within milliseconds, so the deque
                        // holds one or two and reuses its capacity.
                        gates.push_back((measurements, at.as_nanos()));
                    }
                    (at.as_nanos(), q, Ev::Syn(count))
                }
                DetectorInput::Measurement(em) => {
                    delta.records_in += 1;
                    let q = usize::from(em.queue_id.min(top_queue));
                    if let Some(n) = received.get_mut(q) {
                        *n += 1;
                    }
                    let slot = free_slots.pop().unwrap_or(parked.len());
                    let at = em.completed_at.as_nanos();
                    if let Some(free) = parked.get_mut(slot) {
                        *free = em;
                    } else {
                        parked.push(em);
                    }
                    (at, q, Ev::Meas(slot))
                }
            };
            // Raise the queue's watermark to each tally whose earlier
            // measurements have all arrived.
            if let (Some(gates), Some(&n), Some(w)) =
                (gated.get_mut(q), received.get(q), watermarks.get_mut(q))
            {
                while gates.front().is_some_and(|&(need, _)| need <= n) {
                    if let Some((_, tally_at)) = gates.pop_front() {
                        *w = (*w).max(tally_at);
                    }
                }
            }
            pending.push(Reverse((at, seq, ev)));
            seq += 1;
        }
        // Release everything at or below the lowest watermark — or, once
        // the stream has ended, everything still buffered.
        let low = if done {
            u64::MAX
        } else {
            watermarks.iter().copied().min().unwrap_or(0)
        };
        let now = clock.now();
        while let Some(top) = pending.peek_mut() {
            let Reverse((at, _, ev)) = *top;
            if at > low {
                // account-ok: watermark hold — the event stays buffered in
                // `pending` and is released on a later iteration.
                break;
            }
            PeekMut::pop(top);
            let records = if let Ev::Syn(n) = ev { n } else { 1 };
            delta.records_out += records;
            // Completion → detector release, including the watermark
            // reorder delay (virtual ns).
            let at = Timestamp::from_nanos(at);
            residencies.push((now.saturating_nanos_since(at), records));
            match ev {
                Ev::Syn(n) => alerts.push_opt(flood.observe_syns(at, n)),
                Ev::Meas(slot) => {
                    free_slots.push(slot);
                    // Always present: the slot was parked when the record
                    // arrived and is reused only after this release.
                    if let Some(em) = parked.get(slot) {
                        alerts.push_opt(flood.observe_completion(at));
                        let src = pairs.atom(if em.src.city.is_empty() {
                            "?"
                        } else {
                            &em.src.city
                        });
                        let dst = pairs.atom(if em.dst.city.is_empty() {
                            "?"
                        } else {
                            &em.dst.city
                        });
                        let key = pairs.pair(src, dst);
                        alerts.push_opt(spike.observe_id(key, pairs.name(key), em.total_ns(), at));
                        alerts.push_opt(rate.observe_id(key, pairs.name(key), at));
                        aggregates.observe(em);
                    }
                }
            }
        }
        flush_detector_deltas(&metrics, det_shard, &mut delta, &mut residencies);
    }
    aggregates
}

impl Pipeline {
    /// Build and start a pipeline over the given geo database.
    // Thread spawn failure is a startup-time OS error; fail loudly.
    #[allow(clippy::expect_used)]
    pub fn new(config: PipelineConfig, db: Arc<GeoDb>) -> Pipeline {
        let clock = Clock::virtual_clock();
        let mut port = Port::new(config.port.clone(), clock.clone());
        let queues = port.take_all_rx_queues();

        let publisher = Publisher::new();
        // Detectors read a lossless PUSH/PULL feed (back-pressure, never
        // drops) that both the enrichers and the lcores push onto; the PUB
        // side stays available for best-effort consumers like external
        // frontends.
        let (det_push, det_pull) = pipe(config.mq_hwm);
        let detect_probe = det_pull.probe();
        let lcore_det_push = det_push.clone();
        // The lcores tally SYNs over the flood detector's own interval.
        let flood = FloodConfig::default();
        let flood_interval_ns = flood.interval_ns;
        let tsdb = Arc::new(TsDb::new());
        let alerts = AlertSink::new();
        // One enrichment worker per RX queue.
        let num_queues = config.port.num_queues as usize;
        let metrics = Arc::new(SelfMetrics::new(num_queues, num_queues));

        // The enrichment pool sits between the lcores and the detector
        // feed: lcores PUSH measurements, enrichers PULL them.
        let (worker_push, pull) = pipe(config.mq_hwm);
        let enrich_probe = pull.probe();
        let pool = EnrichmentPool::spawn(
            num_queues,
            pull,
            Arc::clone(&db),
            Arc::clone(&tsdb),
            publisher.clone(),
            det_push,
            metrics.pool_telemetry(clock.clone()),
        );

        // Detector thread; the body is the named [`detector_loop`] so the
        // panic checker can root there.
        let detector_inputs = DetectorInputs {
            det_pull,
            flood,
            alerts: alerts.clone(),
            num_queues: config.port.num_queues,
            metrics: Arc::clone(&metrics),
            clock: clock.clone(),
        };
        let detector_handle = std::thread::Builder::new()
            .name("ruru-detect".into())
            .spawn(move || detector_loop(detector_inputs))
            .expect("spawn detector thread");

        // lcore workers: classify → track → push measurements.
        let tracker_cfg = config.tracker.clone();
        let metrics_for_workers = Arc::clone(&metrics);
        let clock_for_workers = clock.clone();
        let init = move |qid| {
            WorkerState::new(
                qid,
                tracker_cfg.clone(),
                worker_push.clone(),
                lcore_det_push.clone(),
                Arc::clone(&metrics_for_workers),
                clock_for_workers.clone(),
                flood_interval_ns,
            )
        };
        // Whole-burst workers: classify the burst, prefetch-staged table
        // walk, one vectored PUSH at the burst boundary (PUSH blocks at
        // the HWM, so that is back-pressure, never measurement loss —
        // ZeroMQ PUSH semantics), and a flush when the ring runs dry.
        let workers = WorkerGroup::spawn_bursts(queues, init, dataplane_worker, dataplane_idle);

        // The paper's five-minute SNMP poll, of a 10 Gbit/s link.
        let snmp = SnmpPoller::new(300 * 1_000_000_000, 10_000_000_000);

        Pipeline {
            clock,
            lossless_inject: config.lossless_inject,
            publisher: publisher.clone(),
            port,
            stages: Some(Stages {
                workers,
                pool,
                detector: detector_handle,
            }),
            tsdb,
            alerts,
            snmp,
            metrics,
            enrich_probe,
            detect_probe,
            last_telemetry: 0,
            telemetry_points: 0,
            telemetry_snap: Snapshot::default(),
            telemetry_scratch: Vec::new(),
            last_event: Timestamp::ZERO,
        }
    }

    /// Build over a fresh synthetic world's database.
    pub fn with_synth_world(config: PipelineConfig) -> (Pipeline, SynthWorld) {
        let world = SynthWorld::generate(2);
        let db = Arc::new(world.db().clone());
        (Pipeline::new(config, db), world)
    }

    /// Inject one tap event: advances the virtual clock to `event.at` and
    /// delivers the frame to the port. Returns false if the NIC dropped it
    /// (only possible with `lossless_inject: false`). A lossless inject
    /// waits for the workers to free ring space or an mbuf, and counts in
    /// `port_inject_waits` if it had to, never as a drop.
    pub fn feed(&mut self, event: &Event) -> bool {
        if event.at > self.clock.now() {
            self.clock.set(event.at);
        }
        self.last_event = self.last_event.max(event.at);
        self.snmp.observe_packet(event.at, event.frame.len());
        let now_ns = self.clock.now().as_nanos();
        if now_ns.saturating_sub(self.last_telemetry) >= TELEMETRY_INTERVAL_NS {
            self.collect_telemetry(now_ns);
        }
        if self.lossless_inject {
            // Virtual time is ours to pace, so a NIC ahead of its workers
            // waits for them instead of dropping.
            return self.port.inject_lossless_at(&event.frame, event.at).is_some();
        }
        self.port.inject_at(&event.frame, event.at).is_some()
    }

    /// Feed an entire generator run.
    pub fn run(&mut self, gen: &mut ruru_gen::TrafficGen) -> u64 {
        let mut fed = 0;
        for event in gen.by_ref() {
            if self.feed(&event) {
                fed += 1;
            }
        }
        fed
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Subscribe to the live enriched-measurement stream (topic
    /// `enriched`, line-protocol payloads) — how external frontends attach,
    /// exactly as the deployed system exposed its ZeroMQ PUB socket. Slow
    /// subscribers drop (PUB semantics); the internal detector feed is
    /// unaffected.
    pub fn subscribe_enriched(&self, hwm: usize) -> ruru_mq::Subscriber {
        self.publisher
            .subscribe(ruru_analytics::workers::ENRICHED_TOPIC, hwm)
    }

    /// Collect self-telemetry now, mid-run, and return the snapshot: every
    /// registry counter and gauge as the stages have flushed them so far.
    /// Like a periodic collection, it exports `ruru_self` points.
    pub fn telemetry_now(&mut self) -> &Snapshot {
        let now_ns = self.clock.now().as_nanos().max(self.last_telemetry);
        self.collect_telemetry(now_ns);
        &self.telemetry_snap
    }

    /// One self-telemetry collection: mirror the pull-based stats into the
    /// collector shard, snapshot the registry, and export the snapshot as
    /// `ruru_self` points into the tsdb.
    fn collect_telemetry(&mut self, now_ns: u64) {
        self.last_telemetry = now_ns;
        let port = self.port.stats();
        let mq = BusStats {
            publisher: self.publisher.stats(),
            enrich_wakeups: self.enrich_probe.wakeups(),
            detect_wakeups: self.detect_probe.wakeups(),
        };
        let ingested = self.tsdb.points_ingested();
        self.metrics.collect_into(
            now_ns,
            &port,
            &mq,
            (ingested, self.tsdb.storage_stats()),
            &mut self.telemetry_snap,
            &mut self.telemetry_scratch,
        );
        self.telemetry_points += self.telemetry_snap.write_into(&self.tsdb) as u64;
    }

    /// Drain and join every stage; returns the final report.
    // Propagating a detector panic at join is shutdown-time, by design.
    #[allow(clippy::expect_used)]
    pub fn finish(mut self) -> Report {
        let stages = self.stages.take().expect("only finish takes the stages");
        // 1. Stop the lcore workers (they drain their queues first) and
        //    take back their states, in queue order. Each shard's only
        //    writer has exited, so flushing it here is single-writer. The
        //    open SYN tally goes to the detector first.
        let mut trackers: Vec<(u16, TrackerStats)> = Vec::new();
        for mut state in stages.workers.shutdown() {
            state.close_tally();
            state.flush();
            trackers.push((state.tracker.queue_id(), state.tracker.stats()));
            // Dropping `state` drops this worker's PUSH ends of both
            // pipes; after the last one the enrichment pipe is closed.
        }
        // 2. The enrichment pool drains its pipe and exits, dropping the
        //    last PUSH ends of the detector pipe. Every tsdb merge happens
        //    inside the pool's stripe flushes, so from here the store holds
        //    every measurement and `tsdb_merge_points` accounts for all of
        //    them; nothing is merged at finish time.
        stages.pool.join();
        // 3. The detector drains its closed pipe, releases its reorder
        //    buffer and returns.
        let aggregates = stages.detector.join().expect("detector panicked");

        // 4. Final telemetry collection: every writer has joined, so the
        //    snapshot is exact (no skipped shards).
        self.collect_telemetry(self.last_event.as_nanos().max(self.last_telemetry));

        // 5. The per-cause rejects are read from that one snapshot, like
        //    every other stage count a caller reads from `telemetry`.
        let t = self.telemetry_snap;
        let rejects = RejectStats {
            not_ip: t.counter("reject_not_ip"),
            not_tcp: t.counter("reject_not_tcp"),
            fragment: t.counter("reject_fragment"),
            bad_ip_checksum: t.counter("reject_bad_ip_checksum"),
            bad_tcp_checksum: t.counter("reject_bad_tcp_checksum"),
            bad_tcp: t.counter("reject_bad_tcp"),
            bus_closed: t.counter("reject_bus_closed"),
        };
        Report {
            port: self.port.stats(),
            trackers,
            alerts: self.alerts.snapshot(),
            tsdb: self.tsdb,
            snmp: self.snmp.finish(self.last_event),
            rejects,
            aggregates,
            telemetry: t,
            telemetry_points: self.telemetry_points,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_gen::{GenConfig, TrafficGen};

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            port: PortConfig {
                num_queues: 2,
                queue_depth: 8192,
                pool_size: 16384,
                buf_size: 2048,
                symmetric_rss: true,
            },
            ..PipelineConfig::default()
        }
    }

    /// An enriched measurement of queue 0 that completed at `ns`.
    fn measurement_at(ns: u64) -> DetectorInput {
        let world = SynthWorld::generate(1);
        let m = LatencyMeasurement {
            src: ruru_wire::IpAddress::V4(ruru_wire::ipv4::Address([9, 9, 9, 9])),
            dst: ruru_wire::IpAddress::V4(ruru_wire::ipv4::Address([8, 8, 8, 8])),
            src_port: 1,
            dst_port: 2,
            internal_ns: 1_000,
            external_ns: 2_000,
            completed_at: Timestamp::from_nanos(ns),
            queue_id: 0,
            syn_retransmissions: 0,
        };
        let db = Arc::new(world.db().clone());
        DetectorInput::Measurement(ruru_analytics::Enricher::new(db, 0).enrich(&m))
    }

    /// Two enrichers can deliver one queue's measurements out of order. A
    /// SYN tally raises its queue's watermark only once the measurements
    /// its lcore pushed before it have arrived, so the late one is still
    /// released in its own flood interval. Here the first receive takes
    /// a 600-SYN tally of interval 0 (after one measurement), the
    /// measurement of interval 1 and 30 tallies of interval 1 (after two);
    /// the measurement of interval 0 comes in the next receive.
    #[test]
    fn a_late_measurement_is_released_in_its_interval() {
        const S: u64 = 1_000_000_000;
        let metrics = Arc::new(SelfMetrics::new(1, 1));
        let (push, det_pull) = pipe(64);
        let tally = |at, count, measurements| DetectorInput::Syn {
            queue: 0,
            at: Timestamp::from_nanos(at),
            count,
            measurements,
        };
        push.send(tally(S * 9 / 10, 600, 1)).unwrap();
        push.send(measurement_at(S * 12 / 10)).unwrap();
        for _ in 0..30 {
            push.send(tally(S * 19 / 10, 1, 2)).unwrap();
        }
        push.send(measurement_at(S / 2)).unwrap();
        drop(push);
        let alerts = AlertSink::new();
        detector_loop(DetectorInputs {
            det_pull,
            flood: FloodConfig::default(),
            alerts: alerts.clone(),
            num_queues: 1,
            metrics,
            clock: Clock::virtual_clock(),
        });
        let floods: Vec<(Timestamp, String)> = alerts
            .snapshot()
            .into_iter()
            .filter(|a| a.kind == "syn_flood")
            .map(|a| (a.at, a.message))
            .collect();
        assert_eq!(
            floods,
            [(
                Timestamp::from_nanos(S),
                "600 SYNs vs 1 completed handshakes in 1.0 s".to_owned()
            )]
        );
    }

    /// The detector releases every record it takes in, SYN tallies and
    /// measurements alike, and drains its pipe once every pusher is gone.
    /// A tally counts as its SYNs, in the stage counters and in the
    /// publish residencies.
    #[test]
    fn the_detector_releases_every_syn_and_measurement() {
        let metrics = Arc::new(SelfMetrics::new(1, 1));
        let (push, det_pull) = pipe(64);
        let syns = [(10, 1), (20, 2)].map(|(ns, count)| DetectorInput::Syn {
            queue: 0,
            at: Timestamp::from_nanos(ns),
            count,
            measurements: 0,
        });
        push.send_batch(syns).unwrap();
        push.send(measurement_at(25)).unwrap();
        drop(push);
        let aggregates = detector_loop(DetectorInputs {
            det_pull,
            flood: FloodConfig::default(),
            alerts: AlertSink::new(),
            num_queues: 1,
            metrics: Arc::clone(&metrics),
            clock: Clock::virtual_clock(),
        });
        let t = metrics.registry().snapshot(0);
        assert_eq!(t.counter("det_records_in"), 4, "3 SYNs, 1 measurement");
        assert_eq!(t.counter("det_records_out"), 4, "detector-conservation");
        let released = t.hist("stage_publish_residency_ns").map(|h| h.count);
        assert_eq!(released, Some(4));
        use ruru_analytics::KeySpace;
        assert_eq!(aggregates.key_count(KeySpace::CityPair), 1);
    }

    /// SYN-only packets over three flood intervals on one queue, fed in
    /// bursts that straddle the interval edges, reach the detector as
    /// exactly three tallies, one per interval, each stamped with its
    /// interval's latest SYN; their counts sum to the SYNs.
    #[test]
    fn an_lcore_sends_one_syn_tally_per_flood_interval() {
        use ruru_gen::packet::TcpPacketSpec;
        let clock = Clock::virtual_clock();
        let mut port = Port::new(
            PortConfig {
                num_queues: 1,
                ..quick_config().port
            },
            clock.clone(),
        );
        let mut rx = port.take_all_rx_queues().swap_remove(0);
        let metrics = Arc::new(SelfMetrics::new(1, 1));
        let (push, _pull) = pipe(64);
        let (det_push, det_pull) = pipe(64);
        let interval = FloodConfig::default().interval_ns;
        let mut state = WorkerState::new(
            0,
            TrackerConfig::default(),
            push,
            det_push,
            Arc::clone(&metrics),
            clock,
            interval,
        );
        // Ten SYNs per interval, the first exactly at its start.
        let stamps: Vec<u64> = (0..3)
            .flat_map(|k| (0..10).map(move |i| k * interval + i * (interval / 10)))
            .collect();
        let mut burst = Vec::new();
        for (b, chunk) in stamps.chunks(7).enumerate() {
            for (i, &ns) in chunk.iter().enumerate() {
                let port_no = 1024 + (7 * b + i) as u16;
                let syn = TcpPacketSpec::control(
                    [10, 0, 0, 1],
                    [10, 0, 0, 2],
                    port_no,
                    80,
                    1,
                    0,
                    ruru_wire::tcp::Flags::SYN,
                );
                assert_eq!(port.inject_at(&syn.build(), Timestamp::from_nanos(ns)), Some(0));
            }
            assert_eq!(rx.rx_burst(&mut burst, BURST_SIZE), chunk.len());
            dataplane_worker(&mut state, &mut burst);
        }
        // What `Pipeline::finish` does with a stopped lcore's state.
        state.close_tally();
        state.flush();
        let mut received = Vec::new();
        det_pull.try_recv_batch(&mut received, 64);
        let tallies: Vec<(u16, u64, u64)> = received
            .iter()
            .map(|input| match input {
                DetectorInput::Syn {
                    queue, at, count, ..
                } => (*queue, at.as_nanos(), *count),
                DetectorInput::Measurement(_) => panic!("only SYNs were fed"),
            })
            .collect();
        let expected: Vec<(u16, u64, u64)> = (0..3)
            .map(|k| (0, k * interval + 9 * (interval / 10), 10))
            .collect();
        assert_eq!(tallies, expected);
        let t = metrics.registry().snapshot(0);
        assert_eq!(t.counter("dp_syn_events"), 30, "the tallies' SYNs");
        assert_eq!(t.counter("dp_records_in"), 30);
    }

    /// Regression: a lossless inject that finds the ring full waits for
    /// space. It used to retry the whole inject, re-parsing and copying
    /// the frame and counting every retry in `port_ring_full_drops`.
    #[test]
    fn lossless_inject_into_a_tiny_ring_drops_nothing() {
        let mut config = quick_config();
        config.port.queue_depth = 4;
        let (mut pipeline, world) = Pipeline::with_synth_world(config);
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 9,
                flows_per_sec: 300.0,
                duration: Timestamp::from_secs(2),
                data_exchanges: (0, 2),
                ..GenConfig::default()
            },
            world,
        );
        let fed = pipeline.run(&mut gen);
        assert!(fed > 2000, "a few thousand packets, got {fed}");
        let truths = gen.truths().len() as u64;
        let report = pipeline.finish();
        assert_eq!(report.port.rx_packets, fed, "every packet delivered");
        assert_eq!(report.port.ring_full_drops, 0);
        assert_eq!(report.port.no_mbuf_drops, 0);
        assert_eq!(report.measurements(), truths, "every flow measured");
        let t = &report.telemetry;
        assert_eq!(t.gauge("port_ring_full_drops"), 0);
        assert_eq!(t.gauge("port_inject_waits"), report.port.inject_waits);
        let violations = crate::conservation::check(
            t,
            &[
                ("tsdb_points_ingested", report.tsdb.points_ingested()),
                ("telemetry_points", report.telemetry_points),
            ],
        );
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    #[test]
    fn end_to_end_run_measures_all_flows() {
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 5,
                flows_per_sec: 300.0,
                duration: Timestamp::from_secs(2),
                data_exchanges: (0, 2),
                ..GenConfig::default()
            },
            world,
        );
        let fed = pipeline.run(&mut gen);
        assert!(fed > 0);
        let truths = gen.truths().len() as u64;
        let report = pipeline.finish();
        assert_eq!(report.measurements(), truths, "all flows measured");
        let t = &report.telemetry;
        assert_eq!(t.counter("enrich_enriched"), truths, "all measurements enriched");
        assert_eq!(t.counter("enrich_geo_misses"), 0);
        assert!(report.telemetry_points > 0, "self-telemetry was exported");
        assert_eq!(
            report.tsdb.points_ingested(),
            truths + report.telemetry_points,
            "every tsdb point is a measurement or a ruru_self export"
        );
        assert_eq!(report.port.no_mbuf_drops, 0);
        assert_eq!(report.port.ring_full_drops, 0);
        assert!(!report.snmp.is_empty());
        assert_eq!(report.rejects.total(), 0, "clean traffic: no rejects");
        assert!(t.counter("enrich_batches_in") > 0, "enrichers read batched input");
        assert!(t.counter("enrich_bytes_out") > 0);

        // The registry agrees with every other accounting of the run.
        assert_eq!(t.skipped_shards, 0, "quiesced final snapshot is exact");
        assert_eq!(t.counter("dp_records_out"), truths);
        assert_eq!(t.gauge("tracker_measurements"), truths);
        assert_eq!(t.counter("det_records_out"), t.counter("det_records_in"));
        let rx = t.hist("stage_rx_residency_ns").expect("rx residency");
        assert_eq!(rx.count, fed, "one RX residency sample per clean packet");
        let enr = t.hist("stage_enrich_residency_ns").expect("enrich residency");
        assert_eq!(enr.count, truths);
        let publ = t.hist("stage_publish_residency_ns").expect("publish residency");
        assert_eq!(publ.count, t.counter("det_records_out"));
        // ruru_self series landed in the same tsdb the measurements use.
        assert!(report.tsdb.series_count("ruru_self") > 0);

        // The continuous in-flow RTT path ran alongside the handshake
        // tracker: timestamped traffic keeps yielding samples after the
        // handshake, every sample folded into the registry histogram
        // exactly once, and both trackers saw the same packets.
        assert!(report.inflow_samples() > 0, "in-flow RTT samples");
        let inf = t.hist("inflow_rtt_ns").expect("inflow histogram");
        assert_eq!(inf.count, report.inflow_samples());
        assert_eq!(t.gauge("inflow_packets"), t.gauge("tracker_packets"));
    }

    #[test]
    fn reject_and_stage_counters_track_the_run() {
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        // Non-IP frames are normal on a live tap: counted per cause,
        // never measured.
        for i in 0..10u64 {
            assert!(pipeline.feed(&Event {
                at: Timestamp::from_nanos(i * 1_000),
                frame: vec![0u8; 64],
            }));
        }
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 11,
                flows_per_sec: 200.0,
                duration: Timestamp::from_secs(2),
                data_exchanges: (0, 1),
                ..GenConfig::default()
            },
            world,
        );
        let fed = pipeline.run(&mut gen);
        let truths = gen.truths().len() as u64;
        let report = pipeline.finish();
        assert_eq!(report.measurements(), truths);

        // Per-cause reject counters replace the old single total — and the
        // registry's per-cause counters reconcile with them exactly.
        assert_eq!(report.rejects.not_ip, 10);
        assert_eq!(report.rejects.total(), 10);
        let t = &report.telemetry;
        assert_eq!(t.counter("reject_not_ip"), 10);
        assert_eq!(t.counter("reject_not_tcp"), 0);
        assert_eq!(t.counter("reject_bus_closed"), 0);

        // Dataplane stage: every frame in, every measurement out, pushed
        // in batches.
        assert_eq!(t.counter("dp_records_in"), fed + 10);
        assert_eq!(t.counter("dp_records_out"), truths);
        assert!((1..=truths).contains(&t.counter("dp_batches")));

        // Detector stage: every measurement and every tallied SYN arrives,
        // batched, and every record admitted to the reorder buffer is
        // eventually processed (the stage counts a tally as its SYNs).
        let det_in = t.counter("det_records_in");
        let syn_events = t.counter("dp_syn_events");
        assert!(syn_events >= truths, "one SYN per flow at least");
        assert_eq!(det_in, truths + syn_events, "SYNs plus measurements");
        assert_eq!(t.counter("det_records_out"), det_in);
        assert!((1..=det_in).contains(&t.counter("det_batches")));
    }

    #[test]
    fn multiple_queues_share_the_load() {
        let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig {
            port: PortConfig {
                num_queues: 4,
                ..quick_config().port
            },
            ..quick_config()
        });
        let sub = pipeline.subscribe_enriched(1 << 16);
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 6,
                flows_per_sec: 500.0,
                duration: Timestamp::from_secs(2),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let report = pipeline.finish();
        let truths = gen.truths().len() as u64;
        let busy_queues = report
            .trackers
            .iter()
            .filter(|(_, s)| s.measurements > 0)
            .count();
        assert!(busy_queues >= 3, "RSS spreads flows: {:?}", report.trackers);
        // No queue sees a partial handshake (symmetric RSS keeps flows whole):
        // measurements add up to the truth count.
        assert_eq!(report.measurements(), truths);
        // Four enrichers (one per queue) enrich, store and publish every
        // measurement exactly once.
        assert_eq!(sub.backlog() as u64, truths, "every record published");
        let t = &report.telemetry;
        assert_eq!(t.counter("enrich_enriched"), truths);
        assert_eq!(t.counter("enrich_geo_misses"), 0, "clean world, no misses");
        assert_eq!(t.counter("dp_records_out"), truths);
        assert_eq!(
            report.tsdb.points_ingested(),
            truths + report.telemetry_points
        );
        let violations = crate::conservation::check(
            t,
            &[
                ("tsdb_points_ingested", report.tsdb.points_ingested()),
                ("telemetry_points", report.telemetry_points),
            ],
        );
        assert!(violations.is_empty(), "{}", violations.join("\n"));
    }

    #[test]
    fn external_subscribers_see_the_enriched_stream() {
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        let sub = pipeline.subscribe_enriched(1 << 16);
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 10,
                flows_per_sec: 100.0,
                duration: Timestamp::from_secs(1),
                data_exchanges: (0, 0),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let truths = gen.truths().len();
        let report = pipeline.finish();
        assert_eq!(sub.backlog(), truths, "every measurement published");
        let msg = sub.try_recv().unwrap();
        let line = core::str::from_utf8(&msg.payload).unwrap();
        assert!(ruru_analytics::EnrichedMeasurement::from_line(line).is_some());
        assert_eq!(report.measurements(), truths as u64);
    }

    #[test]
    fn no_false_alerts_on_clean_diurnal_traffic() {
        // Regression guard for the watermark reorderer: cross-queue
        // delivery skew must not manufacture rate/spike/flood alerts.
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 9,
                flows_per_sec: 120.0,
                duration: Timestamp::from_secs(30),
                data_exchanges: (0, 1),
                rate_profile: ruru_gen::RateProfile::diurnal(),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let report = pipeline.finish();
        assert_eq!(report.measurements(), gen.truths().len() as u64);
        assert!(
            report.alerts.is_empty(),
            "clean traffic raised {} alerts: {:?}",
            report.alerts.len(),
            report.alerts.first()
        );
    }

    #[test]
    fn aggregates_cover_all_pairs() {
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 8,
                flows_per_sec: 200.0,
                duration: Timestamp::from_secs(2),
                data_exchanges: (0, 0),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let truths = gen.truths().len() as u64;
        let report = pipeline.finish();
        use ruru_analytics::KeySpace;
        let total: u64 = report
            .aggregates
            .top_by_count(KeySpace::CityPair, usize::MAX)
            .iter()
            .map(|(_, s)| s.count())
            .sum();
        assert_eq!(total, truths, "every measurement aggregated");
        assert!(report.aggregates.key_count(KeySpace::CountryPair) >= 2);
        // NZ→US must exist and look trans-Pacific.
        let nzus = report
            .aggregates
            .get(KeySpace::CountryPair, "NZ→US")
            .expect("NZ→US pair present");
        assert!(nzus.mean() > 50.0 && nzus.mean() < 300.0);
    }

    #[test]
    fn tsdb_panels_work_after_run() {
        let (mut pipeline, world) = Pipeline::with_synth_world(quick_config());
        let mut gen = TrafficGen::with_world(
            GenConfig {
                seed: 7,
                flows_per_sec: 200.0,
                duration: Timestamp::from_secs(2),
                data_exchanges: (0, 0),
                ..GenConfig::default()
            },
            world,
        );
        pipeline.run(&mut gen);
        let report = pipeline.finish();
        let panel = ruru_viz::Panel::latency_overview();
        let data = panel.evaluate(&report.tsdb, 0, 2_000_000_000, 4);
        let mean = data.series_for(ruru_viz::panel::Stat::Mean).unwrap();
        assert!(mean.iter().any(|v| v.is_some()), "panel has data");
    }
}
