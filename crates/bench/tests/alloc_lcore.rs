//! Steady-state allocation audit of the lcore hot path: after a warm-up
//! pass, a burst loop of classify → handshake tracker → in-flow tracker →
//! typed sends performs **zero** heap allocations. Each burst's
//! measurements go to the enrichers' pipe and its SYN events to the
//! detector's pipe, one `send_batch` each, as the pipeline's
//! `dataplane_worker` does; this thread drains both pipes after every
//! burst, standing in for their pullers.
//!
//! The counting allocator is process-wide, so this audit is a test binary
//! of its own.

// Miri has its own allocator machinery, and the property is
// native-allocator behaviour anyway.
#![cfg(not(miri))]

use ruru_analytics::DetectorInput;
use ruru_bench::{workload, Workload};
use ruru_flow::classify::{classify, ChecksumMode, TcpMeta};
use ruru_flow::{HandshakeTracker, InflowConfig, InflowTracker, LatencyMeasurement, TrackerConfig};
use ruru_mq::{pipe, Pull, Push};
use ruru_nic::lcore::BURST_SIZE;
use ruru_nic::Timestamp;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

/// The lcore's per-worker state, built once like a `WorkerState`, and
/// the pulling ends of its two pipes.
struct Lcore {
    tracker: HandshakeTracker,
    inflow: InflowTracker,
    metas: Vec<TcpMeta>,
    batch: Vec<LatencyMeasurement>,
    syn_stamps: Vec<Timestamp>,
    push: Push<LatencyMeasurement>,
    det_push: Push<DetectorInput>,
    pull: Pull<LatencyMeasurement>,
    det_pull: Pull<DetectorInput>,
    received: Vec<LatencyMeasurement>,
    det_received: Vec<DetectorInput>,
}

/// Counts from one pass over the workload.
#[derive(Default)]
struct Pass {
    measurements: u64,
    syns: u64,
    samples: u64,
    received: u64,
    syns_received: u64,
}

impl Lcore {
    fn new() -> Lcore {
        let (push, pull) = pipe(1 << 16);
        let (det_push, det_pull) = pipe(1 << 16);
        Lcore {
            tracker: HandshakeTracker::new(0, TrackerConfig::default()),
            inflow: InflowTracker::new(0, InflowConfig::default()),
            metas: Vec::with_capacity(BURST_SIZE),
            batch: Vec::with_capacity(BURST_SIZE),
            syn_stamps: Vec::with_capacity(BURST_SIZE),
            push,
            det_push,
            pull,
            det_pull,
            received: Vec::with_capacity(BURST_SIZE),
            det_received: Vec::with_capacity(BURST_SIZE),
        }
    }

    /// Replay `w` in bursts, its tap timestamps shifted by `offset_ns`.
    fn run(&mut self, w: &Workload, offset_ns: u64) -> Pass {
        let mut pass = Pass::default();
        for burst in w.events.chunks(BURST_SIZE) {
            self.metas.clear();
            for (at, frame) in burst {
                let at = Timestamp::from_nanos(at.as_nanos() + offset_ns);
                if let Ok(meta) = classify(frame, at, ChecksumMode::Trust) {
                    if meta.flags.is_syn_only() {
                        self.syn_stamps.push(meta.timestamp);
                    }
                    self.metas.push(meta);
                }
            }
            let batch = &mut self.batch;
            self.tracker.process_burst(&self.metas, |m| batch.push(m));
            self.inflow
                .process_burst(&self.metas, |_| pass.samples += 1);

            pass.measurements += self.batch.len() as u64;
            pass.syns += self.syn_stamps.len() as u64;
            let events = self
                .syn_stamps
                .drain(..)
                .map(|at| DetectorInput::Syn { queue: 0, at });
            self.det_push
                .send_batch(events)
                .expect("the detector pipe is open");
            self.push
                .send_batch(self.batch.drain(..))
                .expect("the enrichers' pipe is open");

            // This thread's pullers take the burst back off both pipes.
            let received = self.pull.try_recv_batch(&mut self.received, BURST_SIZE);
            let syns = self
                .det_pull
                .try_recv_batch(&mut self.det_received, BURST_SIZE);
            pass.received += received as u64;
            pass.syns_received += syns as u64;
            self.received.clear();
            self.det_received.clear();
        }
        pass
    }
}

#[test]
fn lcore_hot_path_allocates_nothing_in_steady_state() {
    let w = workload(91, 300.0, 2, (2, 4));
    let span_ns = w.events.last().map_or(0, |(at, _)| at.as_nanos());
    let mut lcore = Lcore::new();

    // Warm pass: slab insertions and staging buffers.
    let warm = lcore.run(&w, 0);
    assert_eq!(warm.received, warm.measurements, "the warm pass drained");

    // Audited pass, a minute later in tap time: the first housekeep
    // expires everything the warm pass left behind.
    ruru_bench::take_hits();
    ruru_bench::arm();
    let audited = lcore.run(&w, span_ns + 60_000_000_000);
    ruru_bench::disarm();
    let hits = ruru_bench::take_hits();

    assert_eq!(hits, 0, "the steady-state lcore must not touch the heap");
    // The audit window did real work on both trackers and both pipes.
    assert!(audited.measurements > 0, "handshake tracker measured");
    assert!(audited.samples > 0, "in-flow tracker produced samples");
    assert!(audited.syns >= audited.measurements, "SYN events were sent");
    assert_eq!(
        audited.received, audited.measurements,
        "every measurement crossed the enrichers' pipe"
    );
    assert_eq!(
        audited.syns_received, audited.syns,
        "every SYN event crossed the detector's pipe"
    );
}
