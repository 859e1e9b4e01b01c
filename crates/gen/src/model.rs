//! The path latency model.
//!
//! One-way delay between two points = great-circle distance at the speed of
//! light in fiber (~200,000 km/s ⇒ 5 µs/km), multiplied by a route
//! inflation factor (real paths are not great circles), plus per-hop
//! queueing/forwarding delay, plus exponential jitter. These are the
//! standard ingredients of transit latency models and land the simulated
//! Auckland↔Los Angeles RTT in the ~130 ms band REANNZ observed.

use rand::Rng;
use ruru_geo::synth::{distance_km, CITIES};

/// Nanoseconds of one-way propagation per kilometre of fiber.
pub const NS_PER_KM: f64 = 5_000.0;

/// Parameters of the latency model.
#[derive(Debug, Clone)]
pub struct PathModel {
    /// Multiplier on great-circle distance (cable routing detours).
    pub route_inflation: f64,
    /// Fixed one-way floor: local loop + first/last router, ns.
    pub owd_floor_ns: u64,
    /// Mean of the exponential per-packet jitter, ns.
    pub jitter_mean_ns: u64,
    /// Server SYN-ACK processing delay range (uniform), ns.
    pub server_proc_ns: (u64, u64),
    /// Client ACK turnaround delay range (uniform), ns.
    pub client_proc_ns: (u64, u64),
}

impl Default for PathModel {
    fn default() -> Self {
        PathModel {
            route_inflation: 1.2,
            owd_floor_ns: 250_000,          // 0.25 ms
            jitter_mean_ns: 150_000,        // 0.15 ms
            server_proc_ns: (50_000, 1_000_000), // 0.05–1 ms
            client_proc_ns: (20_000, 500_000),   // 0.02–0.5 ms
        }
    }
}

impl PathModel {
    /// Deterministic baseline one-way delay between two cities (no jitter).
    pub(crate) fn base_owd_ns(&self, city_a: usize, city_b: usize) -> u64 {
        let a = &CITIES[city_a];
        let b = &CITIES[city_b];
        let d = distance_km(a.lat, a.lon, b.lat, b.lon);
        (d * NS_PER_KM * self.route_inflation) as u64 + self.owd_floor_ns
    }

    /// Sample exponential jitter.
    pub(crate) fn sample_jitter_ns(&self, rng: &mut impl Rng) -> u64 {
        if self.jitter_mean_ns == 0 {
            return 0;
        }
        let u: f64 = rng.gen_range(1e-9..1.0);
        (-(u.ln()) * self.jitter_mean_ns as f64) as u64
    }

    /// Sample the server's handshake processing delay.
    pub(crate) fn sample_server_proc_ns(&self, rng: &mut impl Rng) -> u64 {
        rng.gen_range(self.server_proc_ns.0..=self.server_proc_ns.1)
    }

    /// Sample the client's ACK turnaround delay.
    pub(crate) fn sample_client_proc_ns(&self, rng: &mut impl Rng) -> u64 {
        rng.gen_range(self.client_proc_ns.0..=self.client_proc_ns.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use ruru_geo::synth::{AUCKLAND, LOS_ANGELES};

    #[test]
    fn auckland_la_rtt_lands_near_observed_130ms() {
        let m = PathModel::default();
        let owd = m.base_owd_ns(AUCKLAND, LOS_ANGELES);
        let rtt_ms = 2.0 * owd as f64 / 1e6;
        // Observed trans-Pacific AKL-LAX RTT is ~128-135 ms.
        assert!((115.0..150.0).contains(&rtt_ms), "rtt {rtt_ms} ms");
    }

    #[test]
    fn same_city_hits_the_floor() {
        let m = PathModel::default();
        assert_eq!(m.base_owd_ns(AUCKLAND, AUCKLAND), m.owd_floor_ns);
    }

    #[test]
    fn owd_is_symmetric() {
        let m = PathModel::default();
        assert_eq!(m.base_owd_ns(0, 5), m.base_owd_ns(5, 0));
    }

    #[test]
    fn jitter_is_positive_with_sane_mean() {
        let m = PathModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| m.sample_jitter_ns(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        let expect = m.jitter_mean_ns as f64;
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn zero_jitter_model_is_deterministic() {
        let m = PathModel {
            jitter_mean_ns: 0,
            ..PathModel::default()
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_jitter_ns(&mut rng), 0);
    }

    #[test]
    fn proc_delays_within_bounds() {
        let m = PathModel::default();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let s = m.sample_server_proc_ns(&mut rng);
            assert!((m.server_proc_ns.0..=m.server_proc_ns.1).contains(&s));
            let c = m.sample_client_proc_ns(&mut rng);
            assert!((m.client_proc_ns.0..=m.client_proc_ns.1).contains(&c));
        }
    }
}
