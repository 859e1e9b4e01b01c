//! The traffic generator: Poisson flow arrivals over a weighted city-pair
//! mix, full TCP conversations, anomaly injection, and a ground-truth log.
//!
//! Events are produced as a time-ordered stream (a pending-packet heap fed
//! by the arrival processes), so day-long simulations run in bounded
//! memory. Timestamps are *tap times*: the instants packets pass Ruru's
//! optical tap, which is exactly what the measurement pipeline sees.

use crate::anomaly::Anomaly;
use crate::model::PathModel;
use crate::packet::{AddrPair, TcpPacketSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ruru_geo::synth::{SynthWorld, AUCKLAND, LOS_ANGELES};
use ruru_nic::Timestamp;
use ruru_wire::tcp::Flags;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the flow arrival rate varies over the (simulated) day.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Flat rate.
    Constant,
    /// Hourly multipliers on `flows_per_sec`, linearly interpolated across
    /// each hour and repeating every 24 h of simulated time.
    Hourly([f64; 24]),
}

impl RateProfile {
    /// A typical residential/enterprise mix: quiet 02:00–06:00, busy
    /// evenings — the shape REANNZ's link follows.
    pub fn diurnal() -> RateProfile {
        RateProfile::Hourly([
            0.45, 0.35, 0.30, 0.28, 0.30, 0.38, // 00–05
            0.55, 0.75, 0.95, 1.05, 1.10, 1.10, // 06–11
            1.05, 1.05, 1.00, 1.00, 1.05, 1.15, // 12–17
            1.30, 1.45, 1.50, 1.40, 1.10, 0.70, // 18–23
        ])
    }

    /// The multiplier at simulated time `t`.
    fn multiplier_at(&self, t: Timestamp) -> f64 {
        match self {
            RateProfile::Constant => 1.0,
            RateProfile::Hourly(hours) => {
                let secs_of_day = (t.as_nanos() / 1_000_000_000) % 86_400;
                let hour = (secs_of_day / 3600) as usize;
                let frac = (secs_of_day % 3600) as f64 / 3600.0;
                let a = hours[hour];
                let b = hours[(hour + 1) % 24];
                a + (b - a) * frac
            }
        }
    }

    /// The maximum multiplier (the thinning envelope).
    pub fn peak(&self) -> f64 {
        match self {
            RateProfile::Constant => 1.0,
            RateProfile::Hourly(hours) => hours.iter().cloned().fold(0.0, f64::max),
        }
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// RNG seed; equal seeds give identical traffic.
    pub seed: u64,
    /// Mean new flows per second (Poisson arrivals) at multiplier 1.0.
    pub flows_per_sec: f64,
    /// Time-of-day modulation of the arrival rate.
    pub rate_profile: RateProfile,
    /// Generate flow arrivals until this simulated time.
    pub duration: Timestamp,
    /// Inclusive range of request/response exchanges per flow.
    pub data_exchanges: (u8, u8),
    /// Cities on the internal (NZ) side of the tap.
    pub internal_cities: Vec<usize>,
    /// Weighted cities on the external side.
    pub external_weights: Vec<(usize, u32)>,
    /// The path latency model.
    pub model: PathModel,
    /// Anomalies to inject.
    pub anomalies: Vec<Anomaly>,
    /// Emit TCP timestamp options (needed by the pping baseline).
    pub tcp_timestamps: bool,
    /// Fraction of flows using IPv6 (the tapped link is dual-stack).
    pub v6_fraction: f64,
    /// Record per-flow ground truth (disable for day-long runs).
    pub record_truth: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 1,
            flows_per_sec: 100.0,
            rate_profile: RateProfile::Constant,
            duration: Timestamp::from_secs(10),
            data_exchanges: (0, 3),
            internal_cities: vec![AUCKLAND, 2, 3], // Auckland, Wellington, Christchurch
            external_weights: vec![
                (LOS_ANGELES, 30),
                (6, 10), // San Francisco
                (7, 8),  // Seattle
                (8, 6),  // New York
                (4, 8),  // Sydney
                (13, 6), // Tokyo
                (16, 5), // Singapore
                (21, 5), // London
                (24, 4), // Frankfurt
                (12, 3), // Honolulu
            ],
            model: PathModel::default(),
            anomalies: Vec::new(),
            tcp_timestamps: true,
            v6_fraction: 0.1,
            record_truth: true,
        }
    }
}

impl GenConfig {
    /// The elephant-flow scenario: a modest number of long-lived flows,
    /// each carrying many request/response exchanges, with a mid-flow
    /// congestion shift that begins only after every handshake has
    /// completed (`arrivals_until < shift_start`). Handshake-only
    /// measurement sees nothing but clean setups; the continuous in-flow
    /// RTT path watches every exchange inside `[shift_start, shift_end)`
    /// jump by `shift_extra_ns`.
    pub fn elephant_flows(
        seed: u64,
        arrivals_until: Timestamp,
        shift_start: Timestamp,
        shift_end: Timestamp,
        shift_extra_ns: u64,
    ) -> GenConfig {
        GenConfig {
            seed,
            flows_per_sec: 30.0,
            duration: arrivals_until,
            // Long-lived flows: each exchange costs roughly one external
            // RTT plus think time (~0.3 s to the US west coast), so 20–40
            // exchanges keep a flow alive for many seconds — long enough
            // to straddle the shift window.
            data_exchanges: (20, 40),
            anomalies: vec![Anomaly::MidFlowLatencyShift {
                start: shift_start,
                end: shift_end,
                extra_ns: shift_extra_ns,
            }],
            ..GenConfig::default()
        }
    }
}

/// One tap event: a frame passing the tap at `at`.
#[derive(Debug, Clone)]
pub struct Event {
    /// Tap timestamp.
    pub at: Timestamp,
    /// The Ethernet frame bytes.
    pub frame: Vec<u8>,
}

/// Ground truth for one generated flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTruth {
    /// Client address.
    pub src: ruru_wire::IpAddress,
    /// Server address.
    pub dst: ruru_wire::IpAddress,
    /// Client port.
    pub src_port: u16,
    /// Server port.
    pub dst_port: u16,
    /// When the SYN passed the tap.
    pub t_syn_tap: Timestamp,
    /// True external latency (SYN→SYN-ACK at the tap), ns.
    pub external_ns: u64,
    /// True internal latency (SYN-ACK→ACK at the tap), ns.
    pub internal_ns: u64,
    /// Client city index.
    pub client_city: usize,
    /// Server city index.
    pub server_city: usize,
    /// Whether the flow started inside a latency-anomaly window.
    pub anomalous: bool,
}

struct Scheduled {
    at: Timestamp,
    seq: u64,
    frame: Vec<u8>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The generator. Iterate it to obtain time-ordered [`Event`]s.
pub struct TrafficGen {
    config: GenConfig,
    world: SynthWorld,
    rng: StdRng,
    heap: BinaryHeap<Reverse<Scheduled>>,
    next_arrival: Option<Timestamp>,
    flood_cursors: Vec<(usize, Timestamp)>, // (anomaly idx, next syn time)
    seq: u64,
    truths: Vec<FlowTruth>,
    flows_started: u64,
    flood_syns: u64,
    packets_emitted: u64,
}

impl TrafficGen {
    /// Create a generator over a fresh synthetic world (2 providers/city).
    pub fn new(config: GenConfig) -> TrafficGen {
        Self::with_world(config, SynthWorld::generate(2))
    }

    /// Create a generator over a caller-provided world.
    pub fn with_world(config: GenConfig, world: SynthWorld) -> TrafficGen {
        assert!(config.flows_per_sec >= 0.0, "rate must be non-negative");
        assert!(
            !config.internal_cities.is_empty() && !config.external_weights.is_empty(),
            "need at least one city on each side"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let next_arrival = if config.flows_per_sec > 0.0 {
            Some(Timestamp::from_nanos(exp_interval_ns(
                config.flows_per_sec * config.rate_profile.peak(),
                &mut rng,
            )))
        } else {
            None
        };
        let flood_cursors = config
            .anomalies
            .iter()
            .enumerate()
            .filter_map(|(i, a)| match a {
                Anomaly::SynFlood { start, .. } => Some((i, *start)),
                _ => None,
            })
            .collect();
        TrafficGen {
            config,
            world,
            rng,
            heap: BinaryHeap::new(),
            next_arrival,
            flood_cursors,
            seq: 0,
            truths: Vec::new(),
            flows_started: 0,
            flood_syns: 0,
            packets_emitted: 0,
        }
    }

    /// Ground truth of flows scheduled so far (only if `record_truth`).
    pub fn truths(&self) -> &[FlowTruth] {
        &self.truths
    }

    /// `(flows started, flood SYNs, packets emitted)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.flows_started, self.flood_syns, self.packets_emitted)
    }

    /// Access the generator's world (e.g. for its geo database).
    pub fn world(&self) -> &SynthWorld {
        &self.world
    }

    fn push(&mut self, at: Timestamp, frame: Vec<u8>) {
        self.heap.push(Reverse(Scheduled {
            at,
            seq: self.seq,
            frame,
        }));
        self.seq += 1;
    }

    fn pick_external_city(&mut self) -> usize {
        let total: u32 = self.config.external_weights.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.gen_range(0..total);
        for (city, w) in &self.config.external_weights {
            if roll < *w {
                return *city;
            }
            roll -= w;
        }
        self.config.external_weights[0].0
    }

    fn server_port(&mut self) -> u16 {
        match self.rng.gen_range(0..100u32) {
            0..=59 => 443,
            60..=84 => 80,
            85..=91 => 8080,
            92..=95 => 22,
            _ => 25,
        }
    }

    /// Schedule every packet of one flow starting (SYN at tap) at `t0`.
    fn schedule_flow(&mut self, t0: Timestamp) {
        let client_city = self.config.internal_cities
            [self.rng.gen_range(0..self.config.internal_cities.len())];
        let server_city = self.pick_external_city();
        let pair = if self.config.v6_fraction > 0.0 && self.rng.gen_bool(self.config.v6_fraction) {
            AddrPair::V6(
                self.world.sample_v6(client_city, &mut self.rng),
                self.world.sample_v6(server_city, &mut self.rng),
            )
        } else {
            AddrPair::V4(
                self.world.sample_v4(client_city, &mut self.rng),
                self.world.sample_v4(server_city, &mut self.rng),
            )
        };
        let src_port: u16 = self.rng.gen_range(32768..61000);
        let dst_port = self.server_port();
        let client_isn: u32 = self.rng.gen();
        let server_isn: u32 = self.rng.gen();

        // Anomalies can stretch the external handshake.
        let extra_ns: u64 = self
            .config
            .anomalies
            .iter()
            .map(|a| a.extra_setup_ns(t0))
            .sum();

        // The external leg is tap→server; internal is client→tap. The tap
        // sits at the NZ border, so approximate internal distance by the
        // client city → Auckland leg and external by Auckland → server.
        let m = self.config.model.clone();
        let e_base = m.base_owd_ns(AUCKLAND, server_city);
        let i_base = m.base_owd_ns(client_city, AUCKLAND);
        let e_leg1 = e_base + m.sample_jitter_ns(&mut self.rng);
        let e_leg2 = e_base + m.sample_jitter_ns(&mut self.rng);
        let i_leg1 = i_base + m.sample_jitter_ns(&mut self.rng);
        let i_leg2 = i_base + m.sample_jitter_ns(&mut self.rng);
        let p_server = m.sample_server_proc_ns(&mut self.rng);
        let p_client = m.sample_client_proc_ns(&mut self.rng);

        let external_ns = e_leg1 + p_server + e_leg2 + extra_ns;
        let internal_ns = i_leg1 + p_client + i_leg2;
        let t_synack = t0.advanced(external_ns);
        let t_ack = t_synack.advanced(internal_ns);

        // TCP timestamp clocks (1 kHz) per side.
        let ts_on = self.config.tcp_timestamps;
        let client_ts_base: u32 = self.rng.gen();
        let server_ts_base: u32 = self.rng.gen();
        let client_ts = |at: Timestamp| client_ts_base.wrapping_add((at.as_millis()) as u32);
        let server_ts = |at: Timestamp| server_ts_base.wrapping_add((at.as_millis()) as u32);

        // --- handshake ---
        let mut syn =
            TcpPacketSpec::control_pair(pair, src_port, dst_port, client_isn, 0, Flags::SYN);
        if ts_on {
            syn = syn.with_timestamps(client_ts(t0), 0);
        }
        self.push(t0, syn.build());

        let mut synack = TcpPacketSpec::control_pair(
            pair.flipped(),
            dst_port,
            src_port,
            server_isn,
            client_isn.wrapping_add(1),
            Flags::SYN | Flags::ACK,
        );
        if ts_on {
            synack = synack.with_timestamps(server_ts(t_synack), client_ts(t0));
        }
        self.push(t_synack, synack.build());

        let mut ack = TcpPacketSpec::control_pair(
            pair,
            src_port,
            dst_port,
            client_isn.wrapping_add(1),
            server_isn.wrapping_add(1),
            Flags::ACK,
        );
        if ts_on {
            ack = ack.with_timestamps(client_ts(t_ack), server_ts(t_synack));
        }
        self.push(t_ack, ack.build());

        // --- data exchanges ---
        let (lo, hi) = self.config.data_exchanges;
        let exchanges = if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            lo
        };
        let mut cseq = client_isn.wrapping_add(1);
        let mut sseq = server_isn.wrapping_add(1);
        let mut t = t_ack;
        let mut last_server_ts = server_ts(t_synack);
        for _ in 0..exchanges {
            // Client request.
            let think: u64 = self.rng.gen_range(1_000_000..50_000_000); // 1–50 ms
            t = t.advanced(think);
            let req_len = self.rng.gen_range(100..800usize);
            let mut req = TcpPacketSpec::control_pair(
                pair, src_port, dst_port, cseq, sseq, Flags::ACK | Flags::PSH,
            )
            .with_payload(req_len);
            if ts_on {
                req = req.with_timestamps(client_ts(t), last_server_ts);
            }
            self.push(t, req.build());
            let req_ts = client_ts(t);
            cseq = cseq.wrapping_add(req_len as u32);

            // Server response 2×external later. Mid-flow anomalies stretch
            // the response leg of exchanges whose request enters the
            // affected path inside their window — the handshake above is
            // already scheduled and stays clean.
            let data_extra: u64 = self
                .config
                .anomalies
                .iter()
                .map(|a| a.extra_data_ns(t))
                .sum();
            let resp_at = t
                .advanced(2 * e_base + m.sample_jitter_ns(&mut self.rng))
                .advanced(m.sample_server_proc_ns(&mut self.rng))
                .advanced(data_extra);
            let resp_len = self.rng.gen_range(200..1400usize);
            let mut resp = TcpPacketSpec::control_pair(
                pair.flipped(), dst_port, src_port, sseq, cseq, Flags::ACK | Flags::PSH,
            )
            .with_payload(resp_len);
            if ts_on {
                last_server_ts = server_ts(resp_at);
                resp = resp.with_timestamps(last_server_ts, req_ts);
            }
            self.push(resp_at, resp.build());
            sseq = sseq.wrapping_add(resp_len as u32);

            // Client ACK 2×internal later.
            let ack_at = resp_at.advanced(2 * i_base + m.sample_jitter_ns(&mut self.rng));
            let mut a = TcpPacketSpec::control_pair(
                pair, src_port, dst_port, cseq, sseq, Flags::ACK,
            );
            if ts_on {
                a = a.with_timestamps(client_ts(ack_at), last_server_ts);
            }
            self.push(ack_at, a.build());
            t = ack_at;
        }

        // --- close (half the flows FIN cleanly) ---
        if self.rng.gen_bool(0.5) {
            let fin_at = t.advanced(self.rng.gen_range(1_000_000..20_000_000));
            self.push(
                fin_at,
                TcpPacketSpec::control_pair(
                    pair, src_port, dst_port, cseq, sseq, Flags::FIN | Flags::ACK,
                )
                .build(),
            );
            let finack_at = fin_at.advanced(external_ns);
            self.push(
                finack_at,
                TcpPacketSpec::control_pair(
                    pair.flipped(),
                    dst_port,
                    src_port,
                    sseq,
                    cseq.wrapping_add(1),
                    Flags::FIN | Flags::ACK,
                )
                .build(),
            );
            self.push(
                finack_at.advanced(internal_ns),
                TcpPacketSpec::control_pair(
                    pair,
                    src_port,
                    dst_port,
                    cseq.wrapping_add(1),
                    sseq.wrapping_add(1),
                    Flags::ACK,
                )
                .build(),
            );
        }

        self.flows_started += 1;
        if self.config.record_truth {
            self.truths.push(FlowTruth {
                src: pair.src(),
                dst: pair.dst(),
                src_port,
                dst_port,
                t_syn_tap: t0,
                external_ns,
                internal_ns,
                client_city,
                server_city,
                anomalous: extra_ns > 0,
            });
        }
    }

    fn schedule_flood_syn(&mut self, anomaly_idx: usize, t: Timestamp) {
        let Anomaly::SynFlood { target_city, .. } = self.config.anomalies[anomaly_idx] else {
            return;
        };
        let dst = self.world.sample_v4(target_city, &mut self.rng);
        // Spoofed source: random address across the whole synthetic space.
        let spoof_city = self.rng.gen_range(0..self.world.city_count());
        let src = self.world.sample_v4(spoof_city, &mut self.rng);
        let spec = TcpPacketSpec::control(
            src,
            dst,
            self.rng.gen_range(1024..65535),
            443,
            self.rng.gen(),
            0,
            Flags::SYN,
        );
        self.push(t, spec.build());
        self.flood_syns += 1;
    }

    /// Pump arrival processes until the heap's head is guaranteed final.
    fn refill(&mut self) {
        loop {
            let horizon = self.heap.peek().map(|Reverse(s)| s.at);
            // Flow arrivals.
            let mut advanced = false;
            if let Some(na) = self.next_arrival {
                if na < self.config.duration && horizon.is_none_or(|h| na <= h) {
                    // Thinning (Lewis & Shedler): candidates arrive at the
                    // peak rate; accept with prob λ(t)/λ_peak. Rejected
                    // candidates advance time but schedule nothing.
                    let peak = self.config.rate_profile.peak();
                    let accept = self.config.rate_profile.multiplier_at(na) / peak;
                    if accept >= 1.0 || self.rng.gen_bool(accept.clamp(0.0, 1.0)) {
                        self.schedule_flow(na);
                    }
                    let step =
                        exp_interval_ns(self.config.flows_per_sec * peak, &mut self.rng);
                    self.next_arrival = Some(na.advanced(step));
                    advanced = true;
                } else if na >= self.config.duration {
                    self.next_arrival = None;
                }
            }
            // Flood arrivals.
            for ci in 0..self.flood_cursors.len() {
                let (ai, t) = self.flood_cursors[ci];
                let Anomaly::SynFlood {
                    end, syns_per_sec, ..
                } = self.config.anomalies[ai]
                else {
                    continue;
                };
                if t < end && self.heap.peek().map(|Reverse(s)| s.at).is_none_or(|h| t <= h) {
                    self.schedule_flood_syn(ai, t);
                    let step = exp_interval_ns(syns_per_sec as f64, &mut self.rng);
                    self.flood_cursors[ci].1 = t.advanced(step);
                    advanced = true;
                }
            }
            if !advanced {
                break;
            }
        }
    }
}

fn exp_interval_ns(rate_per_sec: f64, rng: &mut impl Rng) -> u64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    ((-u.ln() / rate_per_sec) * 1e9) as u64
}

impl Iterator for TrafficGen {
    type Item = Event;

    fn next(&mut self) -> Option<Event> {
        self.refill();
        let Reverse(s) = self.heap.pop()?;
        self.packets_emitted += 1;
        Some(Event { at: s.at, frame: s.frame })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_flow::classify::{classify, ChecksumMode};
    use ruru_flow::{HandshakeTracker, TrackerConfig};

    fn small_config() -> GenConfig {
        GenConfig {
            seed: 42,
            flows_per_sec: 200.0,
            duration: Timestamp::from_secs(2),
            data_exchanges: (0, 2),
            ..GenConfig::default()
        }
    }

    #[test]
    fn events_are_time_ordered() {
        let gen = TrafficGen::new(small_config());
        let mut last = Timestamp::ZERO;
        let mut count = 0;
        for ev in gen {
            assert!(ev.at >= last, "events must be time-ordered");
            last = ev.at;
            count += 1;
        }
        assert!(count > 500, "expected plenty of packets, got {count}");
    }

    #[test]
    fn all_frames_validate() {
        let gen = TrafficGen::new(small_config());
        for ev in gen {
            classify(&ev.frame, ev.at, ChecksumMode::Validate)
                .expect("generated frames must be valid");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let collect = |seed| {
            let gen = TrafficGen::new(GenConfig {
                seed,
                ..small_config()
            });
            gen.map(|e| (e.at, e.frame)).collect::<Vec<_>>()
        };
        assert_eq!(collect(7), collect(7));
        assert_ne!(collect(7), collect(8));
    }

    #[test]
    fn tracker_measures_exactly_the_ground_truth() {
        let mut gen = TrafficGen::new(small_config());
        let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
        let mut measured = Vec::new();
        for ev in gen.by_ref() {
            let meta = classify(&ev.frame, ev.at, ChecksumMode::Validate).unwrap();
            if let Some(m) = tracker.process(&meta) {
                measured.push(m);
            }
        }
        let truths = gen.truths();
        assert_eq!(
            measured.len(),
            truths.len(),
            "every generated flow must be measured"
        );
        // Match measurements to truths by 4-tuple and compare exactly.
        for truth in truths {
            let m = measured
                .iter()
                .find(|m| {
                    m.src_port == truth.src_port
                        && m.dst_port == truth.dst_port
                        && m.src == truth.src
                })
                .expect("truth has a measurement");
            assert_eq!(m.external_ns, truth.external_ns);
            assert_eq!(m.internal_ns, truth.internal_ns);
        }
    }

    #[test]
    fn external_latency_matches_geography() {
        // LA-only external mix: external latency ≈ AKL-LAX RTT ~105-140ms.
        let cfg = GenConfig {
            external_weights: vec![(LOS_ANGELES, 1)],
            internal_cities: vec![AUCKLAND],
            data_exchanges: (0, 0),
            flows_per_sec: 100.0,
            duration: Timestamp::from_secs(2),
            ..small_config()
        };
        let mut gen = TrafficGen::new(cfg);
        for _ in gen.by_ref() {}
        let truths = gen.truths();
        assert!(!truths.is_empty());
        for t in truths {
            let ms = t.external_ns as f64 / 1e6;
            assert!((100.0..160.0).contains(&ms), "external {ms} ms");
            let int_ms = t.internal_ns as f64 / 1e6;
            assert!(int_ms < 10.0, "internal {int_ms} ms should be small");
        }
    }

    #[test]
    fn firewall_anomaly_stretches_affected_flows_only() {
        let cfg = GenConfig {
            anomalies: vec![Anomaly::firewall_4s(
                Timestamp::from_millis(500),
                Timestamp::from_millis(700),
            )],
            data_exchanges: (0, 0),
            ..small_config()
        };
        let mut gen = TrafficGen::new(cfg);
        for _ in gen.by_ref() {}
        let truths = gen.truths();
        let (hit, clean): (Vec<&FlowTruth>, Vec<&FlowTruth>) =
            truths.iter().partition(|t| t.anomalous);
        assert!(!hit.is_empty(), "some flows start inside the window");
        assert!(!clean.is_empty());
        for t in &hit {
            assert!(
                t.t_syn_tap >= Timestamp::from_millis(500)
                    && t.t_syn_tap < Timestamp::from_millis(700)
            );
            assert!(t.external_ns >= 4_000_000_000);
        }
        for t in &clean {
            assert!(t.external_ns < 1_000_000_000);
        }
    }

    #[test]
    fn congestion_shift_invisible_to_handshakes_but_not_inflow() {
        // Elephant flows: every handshake completes before the shift
        // window opens, so handshake-only measurement sees a clean run —
        // while the in-flow RTT stream jumps for every exchange inside
        // the window. LA-only external mix keeps the clean data-leg RTT
        // below ~150 ms (2×OWD + jitter + proc), so the 60 ms shift
        // separates the populations deterministically.
        let shift_start = Timestamp::from_secs(4);
        let shift_end = Timestamp::from_secs(8);
        let cfg = GenConfig {
            external_weights: vec![(LOS_ANGELES, 1)],
            internal_cities: vec![AUCKLAND],
            ..GenConfig::elephant_flows(
                21,
                Timestamp::from_secs(1),
                shift_start,
                shift_end,
                60_000_000,
            )
        };
        let mut gen = TrafficGen::new(cfg);
        let mut tracker = HandshakeTracker::new(0, TrackerConfig::default());
        let mut inflow =
            ruru_flow::InflowTracker::new(0, ruru_flow::InflowConfig::default());
        let mut handshake_max = 0u64;
        let mut pre = Vec::new(); // samples observed before the window
        let mut during = Vec::new(); // samples observed inside it
        for ev in gen.by_ref() {
            let meta = classify(&ev.frame, ev.at, ChecksumMode::Validate).unwrap();
            if let Some(m) = tracker.process(&meta) {
                handshake_max = handshake_max.max(m.external_ns + m.internal_ns);
            }
            if let Some(rtt) = inflow.process(&meta) {
                if ev.at < shift_start {
                    pre.push(rtt);
                } else if ev.at < shift_end {
                    during.push(rtt);
                }
            }
        }
        assert!(!gen.truths().is_empty());
        assert!(
            gen.truths().iter().all(|t| t.t_syn_tap < Timestamp::from_secs(1)),
            "all flows set up before the shift"
        );
        // Handshake-only view: nothing anomalous, ever.
        assert!(
            handshake_max < 160_000_000,
            "handshakes stay clean: {handshake_max} ns"
        );
        assert!(pre.len() > 100 && during.len() > 100, "both phases sampled");
        // Before the window no external data leg exceeds clean AKL↔LAX.
        assert!(pre.iter().all(|&r| r < 160_000_000));
        // Inside it, shifted exchanges are unmistakable: ≥ 2×OWD + 60 ms.
        let shifted = during.iter().filter(|&&r| r >= 160_000_000).count();
        assert!(
            shifted > 50,
            "in-flow sampling sees the regression: {shifted} of {}",
            during.len()
        );
    }

    #[test]
    fn syn_flood_emits_extra_syns_without_truth_entries() {
        let cfg = GenConfig {
            flows_per_sec: 10.0,
            duration: Timestamp::from_secs(1),
            anomalies: vec![Anomaly::SynFlood {
                start: Timestamp::from_millis(200),
                end: Timestamp::from_millis(400),
                syns_per_sec: 5_000,
                target_city: LOS_ANGELES,
            }],
            ..small_config()
        };
        let mut gen = TrafficGen::new(cfg);
        let mut syn_count = 0u64;
        for ev in gen.by_ref() {
            let meta = classify(&ev.frame, ev.at, ChecksumMode::Trust).unwrap();
            if meta.flags.is_syn_only() {
                syn_count += 1;
            }
        }
        let (flows, floods, _) = gen.stats();
        assert!(floods > 500, "flood SYNs injected: {floods}");
        assert_eq!(gen.truths().len() as u64, flows);
        assert!(syn_count >= floods + flows);
    }

    #[test]
    fn diurnal_profile_shapes_arrivals() {
        // One simulated day at low resolution: night hours must carry far
        // fewer flows than the evening peak.
        let cfg = GenConfig {
            seed: 77,
            flows_per_sec: 2.0,
            duration: Timestamp::from_secs(86_400),
            data_exchanges: (0, 0),
            rate_profile: RateProfile::diurnal(),
            tcp_timestamps: false,
            ..GenConfig::default()
        };
        let mut gen = TrafficGen::new(cfg);
        for _ in gen.by_ref() {}
        let mut per_hour = [0u32; 24];
        for t in gen.truths() {
            per_hour[(t.t_syn_tap.as_nanos() / 1_000_000_000 / 3600) as usize % 24] += 1;
        }
        let night: u32 = per_hour[2..5].iter().sum();
        let evening: u32 = per_hour[19..22].iter().sum();
        assert!(
            (evening as f64) > 2.5 * night as f64,
            "evening {evening} vs night {night}: {per_hour:?}"
        );
    }

    #[test]
    fn rate_profile_multiplier_interpolates() {
        let p = RateProfile::diurnal();
        let h3 = p.multiplier_at(Timestamp::from_secs(3 * 3600));
        let h3_5 = p.multiplier_at(Timestamp::from_secs(3 * 3600 + 1800));
        let h4 = p.multiplier_at(Timestamp::from_secs(4 * 3600));
        assert!((h3_5 - (h3 + h4) / 2.0).abs() < 1e-9, "midpoint interpolates");
        // Wraps at midnight.
        let h23_5 = p.multiplier_at(Timestamp::from_secs(23 * 3600 + 1800));
        let day2 = p.multiplier_at(Timestamp::from_secs(86_400 + 23 * 3600 + 1800));
        assert_eq!(h23_5, day2);
        assert_eq!(RateProfile::Constant.multiplier_at(Timestamp::ZERO), 1.0);
        assert!(p.peak() >= 1.5);
    }

    #[test]
    fn zero_rate_produces_no_flows() {
        let cfg = GenConfig {
            flows_per_sec: 0.0,
            ..small_config()
        };
        let mut gen = TrafficGen::new(cfg);
        assert!(gen.next().is_none());
    }

    #[test]
    fn truth_recording_can_be_disabled() {
        let cfg = GenConfig {
            record_truth: false,
            ..small_config()
        };
        let mut gen = TrafficGen::new(cfg);
        for _ in gen.by_ref() {}
        assert!(gen.truths().is_empty());
        assert!(gen.stats().0 > 0);
    }
}
