//! Steady-state allocation audit of the lcore hot path: after a warm-up
//! pass, a burst loop of classify → SYN tally → handshake tracker →
//! in-flow tracker → typed sends performs **zero** heap allocations. Each
//! burst's measurements go to the enrichers' pipe in one `send_batch`, and
//! each flood interval's SYNs to the detector's pipe as one tally, sent
//! after the measurements of the burst in which a packet of a later
//! interval closed it, as the pipeline's `dataplane_worker` does; this
//! thread drains both pipes after every burst, standing in for their
//! pullers.
//!
//! The counting allocator is process-wide, so this audit is a test binary
//! of its own.

// Miri has its own allocator machinery, and the property is
// native-allocator behaviour anyway.
#![cfg(not(miri))]

use ruru_analytics::detect::FloodConfig;
use ruru_analytics::DetectorInput;
use ruru_bench::{workload, Workload};
use ruru_flow::classify::{classify, ChecksumMode, TcpMeta};
use ruru_flow::{HandshakeTracker, InflowConfig, InflowTracker, LatencyMeasurement, TrackerConfig};
use ruru_mq::{pipe, Pull, Push};
use ruru_nic::lcore::BURST_SIZE;
use ruru_nic::Timestamp;

#[global_allocator]
static GLOBAL: ruru_bench::CountingAlloc = ruru_bench::CountingAlloc;

/// The open SYN tally of one flood interval `[start, end)`, as
/// `WorkerState` keeps it: `end` is `u64::MAX` while none is open.
#[derive(Clone, Copy)]
struct Tally {
    start: u64,
    end: u64,
    at: Timestamp,
    count: u64,
}

const NO_TALLY: Tally = Tally {
    start: 0,
    end: u64::MAX,
    at: Timestamp::ZERO,
    count: 0,
};

/// The lcore's per-worker state, built once like a `WorkerState`, and
/// the pulling ends of its two pipes.
struct Lcore {
    tracker: HandshakeTracker,
    inflow: InflowTracker,
    metas: Vec<TcpMeta>,
    batch: Vec<LatencyMeasurement>,
    tally: Tally,
    interval_ns: u64,
    /// Tallies closed this burst, reused across bursts.
    tallies: Vec<Tally>,
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
    tallies_received: u64,
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
            tally: NO_TALLY,
            interval_ns: FloodConfig::default().interval_ns,
            tallies: Vec::with_capacity(BURST_SIZE),
            push,
            det_push,
            pull,
            det_pull,
            received: Vec::with_capacity(BURST_SIZE),
            det_received: Vec::with_capacity(BURST_SIZE),
        }
    }

    /// Count one packet toward the SYN tally, closing it when the packet
    /// lies past its interval (a SYN also before it).
    fn tally_syn(&mut self, meta: &TcpMeta) {
        let ns = meta.timestamp.as_nanos();
        let syn = meta.flags.is_syn_only();
        if ns >= self.tally.end || (syn && ns < self.tally.start) {
            self.close_tally();
        }
        if syn {
            let t = &mut self.tally;
            if t.count == 0 {
                t.start = ns - ns % self.interval_ns;
                t.end = t.start + self.interval_ns;
            }
            t.count += 1;
            t.at = t.at.max(meta.timestamp);
        }
    }

    /// Stage the open tally, if any, for the end of the burst.
    fn close_tally(&mut self) {
        let tally = std::mem::replace(&mut self.tally, NO_TALLY);
        if tally.count > 0 {
            self.tallies.push(tally);
        }
    }

    /// Send the burst's measurements, then its closed tallies, each one
    /// `DetectorInput::Syn` carrying the measurements sent so far.
    fn send(&mut self) {
        self.push
            .send_batch(self.batch.drain(..))
            .expect("the enrichers' pipe is open");
        let measurements = self.tracker.stats().measurements;
        for Tally { at, count, .. } in self.tallies.drain(..) {
            let tally = DetectorInput::Syn {
                queue: 0,
                at,
                count,
                measurements,
            };
            self.det_push.send(tally).expect("the detector pipe is open");
        }
    }

    /// Take whatever this burst left in the detector's pipe.
    fn drain_detector(&mut self, pass: &mut Pass) {
        self.det_pull
            .try_recv_batch(&mut self.det_received, BURST_SIZE);
        for input in self.det_received.drain(..) {
            if let DetectorInput::Syn { count, .. } = input {
                pass.tallies_received += 1;
                pass.syns_received += count;
            }
        }
    }

    /// Replay `w` in bursts, its tap timestamps shifted by `offset_ns`,
    /// and close the last tally at the end, as shutdown does.
    fn run(&mut self, w: &Workload, offset_ns: u64) -> Pass {
        let mut pass = Pass::default();
        for burst in w.events.chunks(BURST_SIZE) {
            self.metas.clear();
            for (at, frame) in burst {
                let at = Timestamp::from_nanos(at.as_nanos() + offset_ns);
                if let Ok(meta) = classify(frame, at, ChecksumMode::Trust) {
                    pass.syns += u64::from(meta.flags.is_syn_only());
                    self.tally_syn(&meta);
                    self.metas.push(meta);
                }
            }
            let batch = &mut self.batch;
            self.tracker.process_burst(&self.metas, |m| batch.push(m));
            self.inflow
                .process_burst(&self.metas, |_| pass.samples += 1);

            pass.measurements += self.batch.len() as u64;
            self.send();

            // This thread's pullers take the burst back off both pipes.
            let received = self.pull.try_recv_batch(&mut self.received, BURST_SIZE);
            pass.received += received as u64;
            self.received.clear();
            self.drain_detector(&mut pass);
        }
        self.close_tally();
        self.send();
        self.drain_detector(&mut pass);
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
    assert!(audited.syns >= audited.measurements, "SYNs were tallied");
    assert_eq!(
        audited.received, audited.measurements,
        "every measurement crossed the enrichers' pipe"
    );
    assert_eq!(
        audited.syns_received, audited.syns,
        "every SYN crossed the detector's pipe, in a tally"
    );
    // A 2 s workload spans three 1 s flood intervals at most.
    assert!(
        (1..=3).contains(&audited.tallies_received),
        "one tally per interval: {}",
        audited.tallies_received
    );
}
