//! The multi-threaded enrichment pool.
//!
//! Mirrors the deployed analytics process: measurements arrive on a
//! PULL socket (work distribution — each measurement is enriched exactly
//! once), every worker thread looks each endpoint up in the shared
//! database, and the enriched, IP-free records are written to the tsdb and
//! republished on a PUB socket (topic `enriched`) for the frontend feed.
//!
//! Workers run in DPDK-style bursts: up to [`WORKER_BURST`] records per
//! [`Pull::recv_batch`], each rendered once by the worker's [`Renderer`],
//! and forwarded with one [`Push::send_batch`] / `publish_batch` per
//! burst. A worker blocks only on an empty input, and flushes
//! ([`Push::flush`]) the detector feed before it does.
//!
//! The two edges inside the pipeline carry values: measurements arrive as
//! [`LatencyMeasurement`]s and leave for the detector as
//! [`DetectorInput::Measurement`]s, with nothing to encode or decode. The
//! renderer appends one typed row to the record's tsdb stripe series and
//! writes the line-protocol line for the PUB edge, the one edge that
//! leaves the pipeline's threads, into a scratch block, so external
//! subscribers stay text-parseable; both come from text and series it
//! keeps per location ([`crate::render`]). Every count the pool makes
//! goes into its own shards of the pipeline's telemetry registry, once
//! per burst.

use crate::enrich::{EnrichedMeasurement, Enricher};
use crate::render::Renderer;
use bytes::Bytes;
use ruru_flow::LatencyMeasurement;
use ruru_geo::GeoDb;
use ruru_mq::{Message, Publisher, Pull, Push};
use ruru_nic::{Clock, Timestamp};
use ruru_telemetry::{CounterId, HistId, Registry};
use ruru_tsdb::TsDb;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Topic the pool republishes enriched measurements on.
pub const ENRICHED_TOPIC: &[u8] = b"enriched";

/// Records a worker moves per batched bus operation (mirrors the
/// dataplane's DPDK burst size).
pub const WORKER_BURST: usize = 32;

/// One record on the detector's feed. The enrichers push measurements and
/// the lcores push SYN tallies onto the one pipe; the detector orders both
/// by tap time.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectorInput {
    /// An enriched handshake measurement.
    Measurement(EnrichedMeasurement),
    /// The `count` SYN-only packets that the lcore of RX queue `queue`
    /// saw in one flood interval (`FloodConfig::interval_ns`), the latest
    /// tapped at `at`.
    Syn {
        /// The RX queue whose lcore saw the SYNs.
        queue: u16,
        /// The tap timestamp of the interval's latest SYN.
        at: Timestamp,
        /// SYNs in the tally, at least one.
        count: u64,
        /// Measurements the lcore had pushed to the enrichers when it sent
        /// the tally. Every later one completed after `at`, so once the
        /// detector has received these, no record of this queue older than
        /// `at` is still on its way.
        measurements: u64,
    },
}

/// Points a worker buffers in its private tsdb stripe before folding it
/// into the shared store. The stripe is the lock-free striped-ingest
/// write path: workers never take the store lock per point, only one
/// whole-shard merge per `STRIPE_FLUSH_POINTS` (and one on exit).
const STRIPE_FLUSH_POINTS: u64 = 4096;

/// Handles into the pipeline's self-telemetry registry for the pool's
/// worker threads. Worker `i` owns shard `shard_base + i`, so its updates
/// are single-writer and contention-free; the pipeline's collector merges
/// shards at snapshot time.
#[derive(Clone)]
pub struct PoolTelemetry {
    /// The shared metric registry.
    pub registry: Arc<Registry>,
    /// The pipeline's virtual clock — enrich residency is virtual time
    /// since the measurement completed, never wall time.
    pub clock: Clock,
    /// First registry shard reserved for this pool.
    pub shard_base: usize,
    /// Measurements enriched.
    pub enriched: CounterId,
    /// Records with either endpoint unknown to the geo database.
    pub geo_misses: CounterId,
    /// Input batches drained from the PULL socket.
    pub batches_in: CounterId,
    /// PUB line bytes published.
    pub bytes_out: CounterId,
    /// Scratch-block allocations for the PUB lines.
    pub alloc_hits: CounterId,
    /// Points folded into the shared tsdb by stripe merges (the
    /// `tsdb-merge-accounting` conservation term).
    pub tsdb_merged: CounterId,
    /// Track → enrich residency histogram (virtual ns).
    pub enrich_residency: HistId,
}

/// A running pool of enrichment workers.
pub struct EnrichmentPool {
    handles: Vec<JoinHandle<()>>,
}

impl EnrichmentPool {
    /// Spawn `threads` workers draining `input`. Workers exit when every
    /// PUSH end of `input` is dropped and the pipe is drained; join with
    /// [`EnrichmentPool::join`].
    ///
    /// Every enriched record is written to `tsdb`, republished as line
    /// protocol on `publisher` (best-effort: PUB may drop for slow
    /// consumers), and pushed as a [`DetectorInput::Measurement`] value
    /// on `detector_feed`, whose PUSH/PULL back-pressure means detectors
    /// never miss one. Each
    /// worker writes its counters and the track→enrich residency histogram
    /// into its own `telemetry` shard, burst-framed so the collector never
    /// reads a torn burst.
    pub fn spawn(
        threads: usize,
        input: Pull<LatencyMeasurement>,
        db: Arc<GeoDb>,
        tsdb: Arc<TsDb>,
        publisher: Publisher,
        detector_feed: Push<DetectorInput>,
        telemetry: PoolTelemetry,
    ) -> EnrichmentPool {
        assert!(threads > 0, "need at least one worker");
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let input = input.clone();
            let db = Arc::clone(&db);
            let tsdb = Arc::clone(&tsdb);
            let publisher = publisher.clone();
            let detector_feed = detector_feed.clone();
            let t = telemetry.clone();
            let shard = t.shard_base + i;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("enrich-{i}"))
                    .spawn(move || {
                        let mut enricher = Enricher::new(db, 0);
                        // Private lock-free stripe: points buffer here and
                        // fold into the shared store one whole shard at a
                        // time, so the write lock is taken O(points/4096)
                        // times instead of once per point.
                        let mut renderer = Renderer::new(tsdb.stripe(STRIPE_FLUSH_POINTS));
                        let mut batch: Vec<LatencyMeasurement> = Vec::with_capacity(WORKER_BURST);
                        let mut feed_out: Vec<DetectorInput> = Vec::with_capacity(WORKER_BURST);
                        let mut pub_out: Vec<Message> = Vec::with_capacity(WORKER_BURST);
                        // Reused residency scratch: no steady-state allocation.
                        let mut residencies: Vec<u64> = Vec::with_capacity(WORKER_BURST);
                        loop {
                            // Take what is buffered; only an empty input
                            // blocks, and the detector feed is flushed
                            // first, so no record of this worker's part
                            // bursts waits for more traffic.
                            if input.try_recv_batch(&mut batch, WORKER_BURST) == 0 {
                                detector_feed.flush();
                                if input.recv_batch(&mut batch, WORKER_BURST) == 0 {
                                    break;
                                }
                            }
                            let enriched = batch.len() as u64;
                            let mut geo_misses = 0u64;
                            let mut bytes_out = 0u64;
                            let mut alloc_hits = 0u64;
                            let mut merged = 0u64;
                            residencies.clear();
                            for m in batch.drain(..) {
                                residencies
                                    .push(t.clock.now().saturating_nanos_since(m.completed_at));
                                let (em, at) = enricher.locate(&m);
                                if em.src.is_unknown() || em.dst.is_unknown() {
                                    geo_misses += 1;
                                }
                                let out = renderer.render(&em, at);
                                merged += out.merged;
                                alloc_hits += u64::from(out.fresh_block);
                                bytes_out += out.line.len() as u64;
                                pub_out.push(Message::new(
                                    Bytes::from_static(ENRICHED_TOPIC),
                                    out.line,
                                ));
                                feed_out.push(DetectorInput::Measurement(em));
                            }
                            // One batch out on each edge. The detector feed
                            // blocks at the HWM: detectors never miss.
                            let _ = detector_feed.send_batch(feed_out.drain(..));
                            publisher.publish_batch(pub_out.drain(..));
                            // One registry burst per input burst: the
                            // collector either sees all of it or none.
                            let r = &t.registry;
                            r.burst_begin(shard);
                            for &ns in &residencies {
                                r.hist_record(shard, t.enrich_residency, ns);
                            }
                            r.counter_add(shard, t.batches_in, 1);
                            r.counter_add(shard, t.enriched, enriched);
                            r.counter_add(shard, t.geo_misses, geo_misses);
                            r.counter_add(shard, t.bytes_out, bytes_out);
                            r.counter_add(shard, t.alloc_hits, alloc_hits);
                            r.counter_add(shard, t.tsdb_merged, merged);
                            r.burst_end(shard);
                        }
                        // The input pipe is closed and drained: fold the
                        // stripe's tail so no buffered point is lost. The
                        // merge is counted like any other flush — this is
                        // what keeps `tsdb-merge-accounting` exact.
                        let flushed = renderer.flush();
                        if flushed > 0 {
                            t.registry.burst_begin(shard);
                            t.registry.counter_add(shard, t.tsdb_merged, flushed);
                            t.registry.burst_end(shard);
                        }
                    })
                    .expect("spawn enrichment worker"),
            );
        }
        EnrichmentPool { handles }
    }

    /// Wait for all workers to finish (after the input pipe closes). Every
    /// count they made is then in the telemetry registry.
    pub fn join(self) {
        for h in self.handles {
            h.join().expect("enrichment worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ruru_geo::synth::{SynthWorld, AUCKLAND, LOS_ANGELES};
    use ruru_mq::pipe;
    use ruru_nic::Timestamp;
    use ruru_telemetry::{RegistryBuilder, Snapshot};
    use ruru_wire::{ipv4, IpAddress};

    fn measurement(w: &SynthWorld, rng: &mut StdRng, i: u64) -> LatencyMeasurement {
        LatencyMeasurement {
            src: IpAddress::V4(ipv4::Address(w.sample_v4(AUCKLAND, rng))),
            dst: IpAddress::V4(ipv4::Address(w.sample_v4(LOS_ANGELES, rng))),
            src_port: 40000 + (i % 1000) as u16,
            dst_port: 443,
            internal_ns: 1_000_000 + i,
            external_ns: 130_000_000,
            completed_at: Timestamp::from_millis(i),
            queue_id: 0,
            syn_retransmissions: 0,
        }
    }

    /// A small registry holding every metric the pool writes, one shard
    /// per worker.
    fn telemetry(threads: usize) -> PoolTelemetry {
        let mut b = RegistryBuilder::new();
        let enriched = b.counter("enriched");
        let geo_misses = b.counter("geo_misses");
        let batches_in = b.counter("batches_in");
        let bytes_out = b.counter("bytes_out");
        let alloc_hits = b.counter("alloc_hits");
        let tsdb_merged = b.counter("tsdb_merged");
        let enrich_residency = b.histogram("enrich_residency", 5);
        PoolTelemetry {
            registry: Arc::new(b.build(threads)),
            clock: Clock::virtual_clock(),
            shard_base: 0,
            enriched,
            geo_misses,
            batches_in,
            bytes_out,
            alloc_hits,
            tsdb_merged,
            enrich_residency,
        }
    }

    /// Spawn a `threads`-worker pool whose detector feed holds up to
    /// `feed_hwm` records; returns the pool, the feed's PULL end and the
    /// registry the pool counts into.
    fn spawn(
        threads: usize,
        input: Pull<LatencyMeasurement>,
        db: Arc<GeoDb>,
        tsdb: Arc<TsDb>,
        publisher: Publisher,
        feed_hwm: usize,
    ) -> (EnrichmentPool, Pull<DetectorInput>, Arc<Registry>) {
        let (det_push, det_pull) = pipe(feed_hwm);
        let t = telemetry(threads);
        let registry = Arc::clone(&t.registry);
        let pool = EnrichmentPool::spawn(threads, input, db, tsdb, publisher, det_push, t);
        (pool, det_pull, registry)
    }

    /// Join the pool and take one snapshot of the counters it made.
    fn join(pool: EnrichmentPool, registry: &Registry) -> Snapshot {
        pool.join();
        let snap = registry.snapshot(0);
        assert_eq!(snap.skipped_shards, 0, "joined writers leave no open burst");
        snap
    }

    #[test]
    fn pool_enriches_everything_and_feeds_both_sinks() {
        let world = SynthWorld::generate(2);
        let db = Arc::new(world.db().clone());
        let tsdb = Arc::new(TsDb::new());
        let publisher = Publisher::new();
        let sub = publisher.subscribe(ENRICHED_TOPIC, 100_000);
        let (push, pull) = pipe(1024);
        let (pool, det_pull, registry) = spawn(4, pull, db, Arc::clone(&tsdb), publisher, 1000);

        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..1000u64 {
            let m = measurement(&world, &mut rng, i);
            push.send(m).unwrap();
        }
        drop(push);
        let stats = join(pool, &registry);
        assert_eq!(stats.counter("enriched"), 1000);
        assert_eq!(stats.counter("geo_misses"), 0);
        assert_eq!(stats.counter("tsdb_merged"), 1000, "every buffered point was merged");
        assert_eq!(tsdb.points_ingested(), 1000);
        assert_eq!(sub.backlog(), 1000);
        assert_eq!(det_pull.backlog(), 1000);
        assert_eq!(stats.hist("enrich_residency").map(|h| h.count), Some(1000));
        // Republished lines decode and carry no IPs.
        let msg = sub.try_recv().unwrap();
        let line = core::str::from_utf8(&msg.payload).unwrap();
        let em = crate::enrich::EnrichedMeasurement::from_line(line).unwrap();
        assert_eq!(&*em.src.city, "Auckland");
        assert!(!line.contains("100."), "no raw IPs on the bus: {line}");
    }

    #[test]
    fn detector_feed_carries_enriched_values() {
        let world = SynthWorld::generate(2);
        let db = Arc::new(world.db().clone());
        let tsdb = Arc::new(TsDb::new());
        let publisher = Publisher::new();
        let sub = publisher.subscribe(ENRICHED_TOPIC, 10_000);
        let (push, pull) = pipe(1024);
        let (pool, det_pull, registry) = spawn(2, pull, db, tsdb, publisher, 10_000);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..100u64 {
            let m = measurement(&world, &mut rng, i);
            push.send(m).unwrap();
        }
        drop(push);
        let stats = join(pool, &registry);
        assert_eq!(stats.counter("enriched"), 100);

        // The internal feed carries the enriched records themselves.
        let mut seen = 0;
        while let Some(input) = det_pull.try_recv() {
            let DetectorInput::Measurement(em) = input else {
                panic!("the pool pushes only measurements: {input:?}");
            };
            assert_eq!(&*em.src.city, "Auckland");
            seen += 1;
        }
        assert_eq!(seen, 100, "detector feed is lossless");

        // The external PUB edge still speaks line protocol, and its bytes
        // are the ones the pool counts out.
        let mut line_bytes = 0;
        while let Some(msg) = sub.try_recv() {
            let line = core::str::from_utf8(&msg.payload).unwrap();
            assert!(crate::enrich::EnrichedMeasurement::from_line(line).is_some());
            line_bytes += msg.payload.len() as u64;
        }
        assert_eq!(stats.counter("bytes_out"), line_bytes);

        // Batching and allocation counters: work moved in bursts, and the
        // scratch block amortized allocations far below one per record.
        let batches_in = stats.counter("batches_in");
        assert!(batches_in >= 4, "batched input: {batches_in}");
        assert!(batches_in <= 100);
        let alloc_hits = stats.counter("alloc_hits");
        assert!(
            (1..=2).contains(&alloc_hits),
            "one scratch block per worker, not per record: {alloc_hits}"
        );
    }

    #[test]
    fn pool_counts_geo_misses() {
        let world = SynthWorld::generate(1);
        let db = Arc::new(world.db().clone());
        let tsdb = Arc::new(TsDb::new());
        let (push, pull) = pipe(64);
        let (pool, _det_pull, registry) = spawn(1, pull, db, tsdb, Publisher::new(), 64);
        let m = LatencyMeasurement {
            src: IpAddress::V4(ipv4::Address([9, 9, 9, 9])),
            dst: IpAddress::V4(ipv4::Address([8, 8, 8, 8])),
            src_port: 1,
            dst_port: 2,
            internal_ns: 1,
            external_ns: 2,
            completed_at: Timestamp::ZERO,
            queue_id: 0,
            syn_retransmissions: 0,
        };
        push.send(m).unwrap();
        drop(push);
        let stats = join(pool, &registry);
        assert_eq!(stats.counter("enriched"), 1);
        assert_eq!(stats.counter("geo_misses"), 1);
    }

    #[test]
    fn multiple_threads_split_the_work() {
        let world = SynthWorld::generate(1);
        let db = Arc::new(world.db().clone());
        let tsdb = Arc::new(TsDb::new());
        let (push, pull) = pipe(10_000);
        let (pool, _det_pull, registry) =
            spawn(8, pull, db, Arc::clone(&tsdb), Publisher::new(), 5000);
        let mut rng = StdRng::seed_from_u64(2);
        for i in 0..5000u64 {
            let m = measurement(&world, &mut rng, i);
            push.send(m).unwrap();
        }
        drop(push);
        let stats = join(pool, &registry);
        assert_eq!(stats.counter("enriched"), 5000);
        assert_eq!(stats.counter("tsdb_merged"), 5000);
        assert_eq!(tsdb.points_ingested(), 5000);
    }
}
