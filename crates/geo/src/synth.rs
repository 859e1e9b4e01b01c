//! A deterministic synthetic world — the substitute for the proprietary
//! IP2Location LITE data.
//!
//! Real city coordinates (so great-circle distances, and therefore the
//! traffic generator's propagation delays and the frontend's arcs, are
//! realistic), synthetic address blocks and AS numbers. Everything is a
//! pure function of the seed, so experiments reproduce bit-for-bit.

use crate::db::{DbError, GeoDb, Location, Range};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One city of the synthetic world.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct City {
    /// City name.
    pub name: &'static str,
    /// ISO country code.
    pub cc: [u8; 2],
    /// Country name.
    pub country: &'static str,
    /// Region / state.
    pub region: &'static str,
    /// Latitude (degrees).
    pub lat: f32,
    /// Longitude (degrees).
    pub lon: f32,
}

const fn city(
    name: &'static str,
    cc: &'static [u8; 2],
    country: &'static str,
    region: &'static str,
    lat: f32,
    lon: f32,
) -> City {
    City {
        name,
        cc: *cc,
        country,
        region,
        lat,
        lon,
    }
}

/// The cities of the synthetic world. Auckland and Los Angeles first: the
/// paper's deployment taps the link between them.
pub const CITIES: &[City] = &[
    city("Auckland", b"NZ", "New Zealand", "Auckland", -36.85, 174.76),
    city("Los Angeles", b"US", "United States", "California", 34.05, -118.24),
    city("Wellington", b"NZ", "New Zealand", "Wellington", -41.29, 174.78),
    city("Christchurch", b"NZ", "New Zealand", "Canterbury", -43.53, 172.64),
    city("Sydney", b"AU", "Australia", "New South Wales", -33.87, 151.21),
    city("Melbourne", b"AU", "Australia", "Victoria", -37.81, 144.96),
    city("San Francisco", b"US", "United States", "California", 37.77, -122.42),
    city("Seattle", b"US", "United States", "Washington", 47.61, -122.33),
    city("New York", b"US", "United States", "New York", 40.71, -74.01),
    city("Chicago", b"US", "United States", "Illinois", 41.88, -87.63),
    city("Dallas", b"US", "United States", "Texas", 32.78, -96.80),
    city("Ashburn", b"US", "United States", "Virginia", 39.04, -77.49),
    city("Honolulu", b"US", "United States", "Hawaii", 21.31, -157.86),
    city("Tokyo", b"JP", "Japan", "Tokyo", 35.68, 139.69),
    city("Osaka", b"JP", "Japan", "Osaka", 34.69, 135.50),
    city("Seoul", b"KR", "South Korea", "Seoul", 37.57, 126.98),
    city("Singapore", b"SG", "Singapore", "Singapore", 1.35, 103.82),
    city("Hong Kong", b"HK", "Hong Kong", "Hong Kong", 22.32, 114.17),
    city("Taipei", b"TW", "Taiwan", "Taipei", 25.03, 121.57),
    city("Mumbai", b"IN", "India", "Maharashtra", 19.08, 72.88),
    city("Chennai", b"IN", "India", "Tamil Nadu", 13.08, 80.27),
    city("London", b"GB", "United Kingdom", "England", 51.51, -0.13),
    city("Glasgow", b"GB", "United Kingdom", "Scotland", 55.86, -4.25),
    city("Amsterdam", b"NL", "Netherlands", "North Holland", 52.37, 4.90),
    city("Frankfurt", b"DE", "Germany", "Hesse", 50.11, 8.68),
    city("Paris", b"FR", "France", "Île-de-France", 48.86, 2.35),
    city("Madrid", b"ES", "Spain", "Madrid", 40.42, -3.70),
    city("Milan", b"IT", "Italy", "Lombardy", 45.46, 9.19),
    city("Stockholm", b"SE", "Sweden", "Stockholm", 59.33, 18.07),
    city("Warsaw", b"PL", "Poland", "Masovia", 52.23, 21.01),
    city("Moscow", b"RU", "Russia", "Moscow", 55.76, 37.62),
    city("Dubai", b"AE", "UAE", "Dubai", 25.20, 55.27),
    city("Johannesburg", b"ZA", "South Africa", "Gauteng", -26.20, 28.05),
    city("Cairo", b"EG", "Egypt", "Cairo", 30.04, 31.24),
    city("São Paulo", b"BR", "Brazil", "São Paulo", -23.55, -46.63),
    city("Buenos Aires", b"AR", "Argentina", "Buenos Aires", -34.60, -58.38),
    city("Santiago", b"CL", "Chile", "Santiago", -33.45, -70.67),
    city("Mexico City", b"MX", "Mexico", "CDMX", 19.43, -99.13),
    city("Toronto", b"CA", "Canada", "Ontario", 43.65, -79.38),
    city("Vancouver", b"CA", "Canada", "British Columbia", 49.28, -123.12),
    city("Suva", b"FJ", "Fiji", "Central", -18.14, 178.44),
    city("Nouméa", b"NC", "New Caledonia", "South", -22.26, 166.45),
];

/// Index of Auckland in [`CITIES`].
pub const AUCKLAND: usize = 0;
/// Index of Los Angeles in [`CITIES`].
pub const LOS_ANGELES: usize = 1;

/// Great-circle distance between two coordinates, in kilometres (haversine).
pub fn distance_km(lat1: f32, lon1: f32, lat2: f32, lon2: f32) -> f64 {
    const R_EARTH_KM: f64 = 6371.0;
    let (lat1, lon1, lat2, lon2) = (
        (lat1 as f64).to_radians(),
        (lon1 as f64).to_radians(),
        (lat2 as f64).to_radians(),
        (lon2 as f64).to_radians(),
    );
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R_EARTH_KM * a.sqrt().asin()
}

/// The IPv4-mapped offset of the u128 key space.
const V4_BASE: u128 = 0xffff_0000_0000;

/// The synthetic world: a [`GeoDb`] plus the address plan needed to sample
/// addresses from a given city (used by the traffic generator).
pub struct SynthWorld {
    db: GeoDb,
    providers_per_city: usize,
}

impl SynthWorld {
    /// Build the world: each city gets `providers_per_city` providers, each
    /// provider one IPv4 /16 and one IPv6 /96-equivalent block.
    pub fn generate(providers_per_city: usize) -> SynthWorld {
        assert!(
            (1..=8).contains(&providers_per_city),
            "1..=8 providers per city supported"
        );
        let mut locations = Vec::new();
        let mut ranges = Vec::new();
        for (ci, c) in CITIES.iter().enumerate() {
            for p in 0..providers_per_city {
                let asn = 64000 + (ci * 8 + p) as u32;
                let loc_idx = locations.len() as u32;
                locations.push(Location {
                    country_code: c.cc,
                    country: c.country.into(),
                    region: c.region.into(),
                    city: c.name.into(),
                    lat: c.lat,
                    lon: c.lon,
                    asn,
                    as_name: format!("SYNTH-{}-{}", c.name.to_uppercase().replace(' ', ""), p),
                });
                // IPv4: 100.(ci*8+p).0.0/16 mapped into the u128 space.
                let v4_start = V4_BASE | ((100u128) << 24) | (((ci * 8 + p) as u128) << 16);
                ranges.push(Range {
                    start: v4_start,
                    end: v4_start + 0xffff,
                    location: loc_idx,
                });
                // IPv6: 2400:10xx:yy00::/40-ish block, disjoint per provider.
                let v6_start = (0x2400u128 << 112)
                    | (0x1000u128 + ci as u128) << 96
                    | (p as u128) << 88;
                ranges.push(Range {
                    start: v6_start,
                    end: v6_start | ((1u128 << 88) - 1),
                    location: loc_idx,
                });
            }
        }
        let db = GeoDb::new(locations, ranges).expect("synthetic plan is disjoint");
        SynthWorld {
            db,
            providers_per_city,
        }
    }

    /// The database.
    pub fn db(&self) -> &GeoDb {
        &self.db
    }

    /// Number of cities.
    pub fn city_count(&self) -> usize {
        CITIES.len()
    }

    /// A uniformly random IPv4 address (as wire bytes) belonging to `city`.
    pub fn sample_v4(&self, city: usize, rng: &mut impl Rng) -> [u8; 4] {
        assert!(city < CITIES.len(), "city index out of range");
        let p = rng.gen_range(0..self.providers_per_city);
        let host: u16 = rng.gen_range(2..0xfffe); // avoid .0.0 and broadcast
        // Same block arithmetic as the range plan: for city*8+p ≥ 256 the
        // block index carries into the first octet (101.x, 102.x, …).
        let block = (100u32 << 24) | (((city * 8 + p) as u32) << 16);
        (block | host as u32).to_be_bytes()
    }

    /// A uniformly random IPv6 address (as wire bytes) belonging to `city`.
    pub fn sample_v6(&self, city: usize, rng: &mut impl Rng) -> [u8; 16] {
        assert!(city < CITIES.len(), "city index out of range");
        let p = rng.gen_range(0..self.providers_per_city);
        let host: u64 = rng.gen();
        let addr = (0x2400u128 << 112)
            | (0x1000u128 + city as u128) << 96
            | (p as u128) << 88
            | host as u128;
        addr.to_be_bytes()
    }

    /// The location of `city` as stored in the database (provider 0).
    pub fn city_location(&self, city: usize) -> &Location {
        let key = V4_BASE | (100u128 << 24) | (((city * 8) as u128) << 16) | 2;
        self.db.lookup_key(key).expect("city block exists")
    }

    /// A copy of the database with every IPv4 block split into `fragments`
    /// consecutive ranges (all pointing at the same location).
    ///
    /// Real IP2Location databases hold millions of rows because allocations
    /// are fragmented; lookups there walk a much deeper binary search. This
    /// models that row count so cache-vs-no-cache comparisons (E6) are run
    /// against a realistically sized table, not our compact city plan.
    pub fn fragmented(&self, fragments: u32) -> Result<GeoDb, DbError> {
        assert!(fragments >= 1, "need at least one fragment");
        let locations = self.db.locations().to_vec();
        let mut ranges = Vec::new();
        for r in self.db.ranges() {
            let span = r.end - r.start + 1;
            if span < fragments as u128 * 2 {
                ranges.push(*r);
                continue;
            }
            let step = span / fragments as u128;
            for f in 0..fragments as u128 {
                let start = r.start + f * step;
                let end = if f == fragments as u128 - 1 {
                    r.end
                } else {
                    start + step - 1
                };
                ranges.push(Range {
                    start,
                    end,
                    location: r.location,
                });
            }
        }
        GeoDb::new(locations, ranges)
    }

    /// A copy of the database with a fraction `error_rate` of the ranges
    /// pointing at a *wrong* location — used to reproduce the paper's "98%
    /// country-level accuracy" claim (experiment E6).
    pub fn perturbed(&self, error_rate: f64, seed: u64) -> Result<GeoDb, DbError> {
        assert!((0.0..=1.0).contains(&error_rate), "rate out of range");
        let mut rng = StdRng::seed_from_u64(seed);
        let locations = self.db.locations().to_vec();
        let n_loc = locations.len() as u32;
        let ranges = self
            .db
            .ranges()
            .iter()
            .map(|r| {
                if rng.gen_bool(error_rate) {
                    // Point at a different location (wrap around by one to
                    // guarantee it differs; locations are per-provider so a
                    // +providers_per_city step changes the city).
                    let step = (self.providers_per_city as u32).max(1);
                    Range {
                        location: (r.location + step) % n_loc,
                        ..*r
                    }
                } else {
                    *r
                }
            })
            .collect();
        GeoDb::new(locations, ranges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn world_is_queryable() {
        let w = SynthWorld::generate(2);
        assert_eq!(w.db().location_count(), CITIES.len() * 2);
        assert_eq!(w.db().range_count(), CITIES.len() * 2 * 2); // v4 + v6
        let akl = w.city_location(AUCKLAND);
        assert_eq!(&*akl.city, "Auckland");
        assert_eq!(&akl.country_code, b"NZ");
        let lax = w.city_location(LOS_ANGELES);
        assert_eq!(&*lax.city, "Los Angeles");
    }

    #[test]
    fn sampled_addresses_geolocate_to_their_city() {
        let w = SynthWorld::generate(3);
        let mut rng = StdRng::seed_from_u64(1);
        for (city, info) in CITIES.iter().enumerate() {
            for _ in 0..20 {
                let addr = w.sample_v4(city, &mut rng);
                let key = V4_BASE | u32::from_be_bytes(addr) as u128;
                let loc = w.db().lookup_key(key).expect("sampled address in db");
                assert_eq!(&*loc.city, info.name);
            }
        }
    }

    #[test]
    fn sampled_v6_addresses_geolocate_to_their_city() {
        let w = SynthWorld::generate(3);
        let mut rng = StdRng::seed_from_u64(8);
        for city in [0usize, 1, 20, 41] {
            for _ in 0..20 {
                let addr = w.sample_v6(city, &mut rng);
                let key = u128::from_be_bytes(addr);
                let loc = w.db().lookup_key(key).expect("sampled v6 in db");
                assert_eq!(&*loc.city, CITIES[city].name);
            }
        }
    }

    #[test]
    fn ipv6_blocks_geolocate() {
        let w = SynthWorld::generate(1);
        // An address inside Auckland's provider-0 v6 block.
        let key = (0x2400u128 << 112) | (0x1000u128 << 96) | 42;
        let loc = w.db().lookup_key(key).unwrap();
        assert_eq!(&*loc.city, "Auckland");
    }

    #[test]
    fn asns_are_distinct_per_provider() {
        let w = SynthWorld::generate(2);
        let mut asns: Vec<u32> = w.db().locations().iter().map(|l| l.asn).collect();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(asns.len(), CITIES.len() * 2);
    }

    #[test]
    fn auckland_la_distance_is_about_10480_km() {
        let akl = &CITIES[AUCKLAND];
        let lax = &CITIES[LOS_ANGELES];
        let d = distance_km(akl.lat, akl.lon, lax.lat, lax.lon);
        assert!((10_300.0..10_650.0).contains(&d), "distance {d}");
    }

    #[test]
    fn distance_properties() {
        let a = &CITIES[AUCKLAND];
        let b = &CITIES[4]; // Sydney
        assert_eq!(distance_km(a.lat, a.lon, a.lat, a.lon), 0.0);
        let ab = distance_km(a.lat, a.lon, b.lat, b.lon);
        let ba = distance_km(b.lat, b.lon, a.lat, a.lon);
        assert!((ab - ba).abs() < 1e-9, "symmetric");
        assert!((2_100.0..2_250.0).contains(&ab), "AKL-SYD ~2156km, got {ab}");
    }

    #[test]
    fn perturbation_rate_is_respected() {
        // One database has only ~80 ranges: 1.6 expected perturbations at
        // 2 %, so P(none) is about 20 %. Pool the draws of every seed in
        // 0..SEEDS instead, and hold the pooled rate to 5 sigma.
        const SEEDS: u64 = 64;
        const RATE: f64 = 0.02;
        let w = SynthWorld::generate(1);
        let (mut draws, mut wrong) = (0usize, 0usize);
        for seed in 0..SEEDS {
            let perturbed = w.perturbed(RATE, seed).unwrap();
            for (a, b) in w.db().ranges().iter().zip(perturbed.ranges()) {
                draws += 1;
                if a.location != b.location {
                    wrong += 1;
                    // A perturbed range must point at a DIFFERENT city
                    // (country check in E6).
                    let la = &w.db().locations()[a.location as usize];
                    let lb = &perturbed.locations()[b.location as usize];
                    assert_ne!(la.city, lb.city);
                }
            }
        }
        assert!(draws >= 5_000, "only {draws} draws");
        let rate = wrong as f64 / draws as f64;
        let sigma = (RATE * (1.0 - RATE) / draws as f64).sqrt();
        assert!(
            (rate - RATE).abs() <= 5.0 * sigma,
            "rate {rate} over {draws} draws, expected {RATE} ± {}",
            5.0 * sigma
        );
    }

    #[test]
    fn fragmented_db_preserves_lookups() {
        let w = SynthWorld::generate(2);
        let frag = w.fragmented(64).unwrap();
        assert!(frag.range_count() > w.db().range_count() * 32);
        let mut rng = StdRng::seed_from_u64(5);
        for city in [AUCKLAND, LOS_ANGELES, 20, 41] {
            for _ in 0..50 {
                let addr = w.sample_v4(city, &mut rng);
                let key = V4_BASE | u32::from_be_bytes(addr) as u128;
                assert_eq!(
                    frag.lookup_key(key).map(|l| &l.city),
                    w.db().lookup_key(key).map(|l| &l.city)
                );
            }
        }
    }

    #[test]
    fn fragmented_one_is_identity() {
        let w = SynthWorld::generate(1);
        assert_eq!(&w.fragmented(1).unwrap(), w.db());
    }

    #[test]
    fn zero_perturbation_is_identity() {
        let w = SynthWorld::generate(1);
        let p = w.perturbed(0.0, 1).unwrap();
        assert_eq!(&p, w.db());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = SynthWorld::generate(2);
        let b = SynthWorld::generate(2);
        assert_eq!(a.db(), b.db());
        assert_eq!(a.perturbed(0.05, 9).unwrap(), b.perturbed(0.05, 9).unwrap());
    }

    #[test]
    #[should_panic(expected = "city index out of range")]
    fn sample_bad_city_panics() {
        let w = SynthWorld::generate(1);
        let mut rng = StdRng::seed_from_u64(0);
        w.sample_v4(9999, &mut rng);
    }
}
