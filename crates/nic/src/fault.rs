//! Wire-level fault injection.
//!
//! Real links drop, corrupt, duplicate and reorder packets; the Ruru tracker
//! must survive all of it (a lost SYN-ACK must not wedge a table entry, a
//! corrupted header must not produce a bogus latency). The injector sits
//! between the traffic generator and the port, mutating the packet stream
//! with configured probabilities and a deterministic RNG so failures
//! reproduce.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Probabilities (each in `[0, 1]`) for the four fault classes; the
/// default injects no faults.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped.
    pub drop: f64,
    /// Probability one random byte of the packet is flipped.
    pub corrupt: f64,
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet is held back and released after the next one
    /// (a single-step reorder, the common form on parallel paths).
    pub reorder: f64,
}

impl FaultConfig {
    fn validate(&self) {
        for (name, p) in [
            ("drop", self.drop),
            ("corrupt", self.corrupt),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} probability {p} out of range");
        }
    }
}

/// Counters of injected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Packets dropped.
    pub dropped: u64,
    /// Packets with a byte flipped.
    pub corrupted: u64,
    /// Extra copies delivered.
    pub duplicated: u64,
    /// Packets delivered out of order.
    pub reordered: u64,
}

/// A deterministic fault injector over byte-vector packets.
pub struct FaultInjector {
    config: FaultConfig,
    rng: StdRng,
    stats: FaultStats,
    /// A packet held back for single-step reordering.
    held: Option<Vec<u8>>,
}

impl FaultInjector {
    /// Create an injector with the given config and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> FaultInjector {
        config.validate();
        FaultInjector {
            config,
            rng: StdRng::seed_from_u64(seed),
            stats: FaultStats::default(),
            held: None,
        }
    }

    /// Push one packet through the injector; returns zero, one or more
    /// packets to actually deliver (in delivery order).
    pub fn apply(&mut self, mut packet: Vec<u8>) -> Vec<Vec<u8>> {
        let mut out = Vec::with_capacity(2);

        if self.rng.gen_bool(self.config.drop) {
            self.stats.dropped += 1;
            // A drop still releases any held packet, otherwise it could be
            // delayed unboundedly.
            if let Some(held) = self.held.take() {
                out.push(held);
            }
            return out;
        }

        if !packet.is_empty() && self.rng.gen_bool(self.config.corrupt) {
            let idx = self.rng.gen_range(0..packet.len());
            let bit = 1u8 << self.rng.gen_range(0..8);
            if let Some(b) = packet.get_mut(idx) {
                *b ^= bit;
            }
            self.stats.corrupted += 1;
        }

        let duplicate = self.rng.gen_bool(self.config.duplicate);

        if self.held.is_none() && self.rng.gen_bool(self.config.reorder) {
            // Hold this packet; it will be emitted after the next one.
            self.stats.reordered += 1;
            self.held = Some(packet);
            return out;
        }

        out.push(packet.clone());
        if duplicate {
            self.stats.duplicated += 1;
            out.push(packet);
        }
        if let Some(held) = self.held.take() {
            out.push(held);
        }
        out
    }

    /// Release any held packet (call at end of stream).
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }

    /// Fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lossy link: 1% drop, 0.1% corrupt, 0.1% duplicate, 0.5% reorder.
    fn lossy() -> FaultConfig {
        FaultConfig {
            drop: 0.01,
            corrupt: 0.001,
            duplicate: 0.001,
            reorder: 0.005,
        }
    }

    #[test]
    fn no_faults_is_identity() {
        let mut inj = FaultInjector::new(FaultConfig::default(), 1);
        for i in 0..100u8 {
            let out = inj.apply(vec![i]);
            assert_eq!(out, vec![vec![i]]);
        }
        assert_eq!(inj.stats(), FaultStats::default());
        assert_eq!(inj.flush(), None);
    }

    #[test]
    fn full_drop_drops_everything() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                drop: 1.0,
                ..FaultConfig::default()
            },
            2,
        );
        for i in 0..50u8 {
            assert!(inj.apply(vec![i]).is_empty());
        }
        assert_eq!(inj.stats().dropped, 50);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                corrupt: 1.0,
                ..FaultConfig::default()
            },
            3,
        );
        let orig = vec![0u8; 16];
        let out = inj.apply(orig.clone());
        assert_eq!(out.len(), 1);
        let diff_bits: u32 = out[0]
            .iter()
            .zip(&orig)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff_bits, 1);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                duplicate: 1.0,
                ..FaultConfig::default()
            },
            4,
        );
        let out = inj.apply(vec![7]);
        assert_eq!(out, vec![vec![7], vec![7]]);
        assert_eq!(inj.stats().duplicated, 1);
    }

    #[test]
    fn reorder_swaps_adjacent_packets() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                reorder: 1.0,
                ..FaultConfig::default()
            },
            5,
        );
        // First packet gets held…
        assert!(inj.apply(vec![1]).is_empty());
        // …second is delivered first, then the held one. The second packet
        // cannot itself be held because a packet is already in flight.
        let out = inj.apply(vec![2]);
        assert_eq!(out, vec![vec![2], vec![1]]);
    }

    #[test]
    fn flush_releases_held_packet() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                reorder: 1.0,
                ..FaultConfig::default()
            },
            6,
        );
        assert!(inj.apply(vec![9]).is_empty());
        assert_eq!(inj.flush(), Some(vec![9]));
        assert_eq!(inj.flush(), None);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = |seed| {
            let mut inj = FaultInjector::new(lossy(), seed);
            let mut delivered = Vec::new();
            for i in 0..200u8 {
                delivered.extend(inj.apply(vec![i]));
            }
            (delivered, inj.stats())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn conservation_no_drop() {
        // Without drops, every packet is delivered at least once.
        let mut inj = FaultInjector::new(
            FaultConfig {
                drop: 0.0,
                corrupt: 0.0,
                duplicate: 0.2,
                reorder: 0.2,
            },
            7,
        );
        let mut count = 0usize;
        for i in 0..1000u16 {
            count += inj.apply(i.to_be_bytes().to_vec()).len();
        }
        if inj.flush().is_some() {
            count += 1;
        }
        assert!(count >= 1000);
        assert_eq!(count, 1000 + inj.stats().duplicated as usize);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_probability_rejected() {
        FaultInjector::new(
            FaultConfig {
                drop: 1.5,
                ..FaultConfig::default()
            },
            0,
        );
    }

    #[test]
    fn empty_packet_never_corrupted() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                corrupt: 1.0,
                ..FaultConfig::default()
            },
            8,
        );
        assert_eq!(inj.apply(vec![]), vec![vec![]]);
        assert_eq!(inj.stats().corrupted, 0);
    }
}
