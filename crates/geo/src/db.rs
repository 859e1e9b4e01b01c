//! The range-table geolocation database.
//!
//! IP2Location ships databases as sorted, non-overlapping address ranges
//! pointing at location rows. [`GeoDb`] is exactly that over a u128 key
//! space (IPv4 addresses live in the IPv4-mapped range, so one table serves
//! both families), with `O(log n)` binary-search lookup.

use std::sync::Arc;

/// One location row: what an IP2Location DB24-style record carries, plus AS
/// information (IP2Location ASN database fields).
#[derive(Debug, Clone, PartialEq)]
pub struct Location {
    /// ISO 3166-1 alpha-2 country code.
    pub country_code: [u8; 2],
    /// Country name.
    pub country: String,
    /// Region / state.
    pub region: String,
    /// City name, shared by every enriched record of this location.
    pub city: Arc<str>,
    /// Latitude in degrees.
    pub lat: f32,
    /// Longitude in degrees.
    pub lon: f32,
    /// Autonomous system number.
    pub asn: u32,
    /// Autonomous system name.
    pub as_name: String,
}

/// An address range `[start, end]` (inclusive, like IP2Location rows)
/// mapped to a location row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// First address of the range (u128 key space).
    pub start: u128,
    /// Last address (inclusive).
    pub end: u128,
    /// Index into the location table.
    pub location: u32,
}

/// Errors from database construction or deserialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// Ranges overlap or are unsorted after normalization.
    Overlap {
        /// Row index (after sorting) where the overlap was found.
        at: usize,
    },
    /// A range's location index is out of bounds.
    BadLocationIndex {
        /// Offending row index.
        at: usize,
    },
    /// A range has `end < start`.
    InvertedRange {
        /// Offending row index.
        at: usize,
    },
}

impl core::fmt::Display for DbError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DbError::Overlap { at } => write!(f, "overlapping ranges at row {at}"),
            DbError::BadLocationIndex { at } => write!(f, "bad location index at row {at}"),
            DbError::InvertedRange { at } => write!(f, "inverted range at row {at}"),
        }
    }
}

impl std::error::Error for DbError {}

/// The geolocation database: a location table plus sorted ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoDb {
    locations: Vec<Location>,
    ranges: Vec<Range>,
}

impl GeoDb {
    /// Build a database, sorting the ranges and validating that they do not
    /// overlap and reference valid locations.
    pub fn new(locations: Vec<Location>, mut ranges: Vec<Range>) -> Result<GeoDb, DbError> {
        ranges.sort_unstable_by_key(|r| r.start);
        for (i, r) in ranges.iter().enumerate() {
            if r.end < r.start {
                return Err(DbError::InvertedRange { at: i });
            }
            if r.location as usize >= locations.len() {
                return Err(DbError::BadLocationIndex { at: i });
            }
            if i > 0 && ranges[i - 1].end >= r.start {
                return Err(DbError::Overlap { at: i });
            }
        }
        Ok(GeoDb { locations, ranges })
    }

    /// Number of ranges.
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Number of location rows.
    pub fn location_count(&self) -> usize {
        self.locations.len()
    }

    /// The location table.
    pub(crate) fn locations(&self) -> &[Location] {
        &self.locations
    }

    /// The sorted range table.
    pub(crate) fn ranges(&self) -> &[Range] {
        &self.ranges
    }

    /// Look up an address key (see `ruru_wire::IpAddress::as_u128`).
    pub fn lookup_key(&self, key: u128) -> Option<&Location> {
        self.lookup(key).map(|(_, loc)| loc)
    }

    /// Look up an address key, returning the row with its index in the
    /// location table: the index names the location for whatever a
    /// reader derives from it once and keeps.
    pub fn lookup(&self, key: u128) -> Option<(u32, &Location)> {
        // partition_point: first range with start > key; the candidate is
        // the one before it.
        let idx = self.ranges.partition_point(|r| r.start <= key);
        let r = self.ranges.get(idx.checked_sub(1)?)?;
        if key > r.end {
            return None;
        }
        Some((r.location, self.locations.get(r.location as usize)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(cc: &str, city: &str, asn: u32) -> Location {
        Location {
            country_code: cc.as_bytes().try_into().unwrap(),
            country: format!("Country-{cc}"),
            region: "Region".into(),
            city: city.into(),
            lat: 1.5,
            lon: -2.5,
            asn,
            as_name: format!("AS-{asn}"),
        }
    }

    fn sample_db() -> GeoDb {
        GeoDb::new(
            vec![loc("NZ", "Auckland", 9500), loc("US", "Los Angeles", 7018)],
            vec![
                Range {
                    start: 100,
                    end: 199,
                    location: 0,
                },
                Range {
                    start: 300,
                    end: 399,
                    location: 1,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_hits_and_misses() {
        let db = sample_db();
        assert_eq!(&*db.lookup_key(100).unwrap().city, "Auckland");
        assert_eq!(&*db.lookup_key(150).unwrap().city, "Auckland");
        assert_eq!(&*db.lookup_key(199).unwrap().city, "Auckland");
        assert_eq!(db.lookup_key(399).unwrap().asn, 7018);
        assert!(db.lookup_key(99).is_none());
        assert!(db.lookup_key(200).is_none());
        assert!(db.lookup_key(250).is_none());
        assert!(db.lookup_key(u128::MAX).is_none());
        assert!(db.lookup_key(0).is_none());
        assert_eq!(db.lookup(150).map(|(at, _)| at), Some(0));
        assert_eq!(db.lookup(300).map(|(at, loc)| (at, loc.asn)), Some((1, 7018)));
        assert!(db.lookup(200).is_none());
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let db = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![
                Range {
                    start: 500,
                    end: 599,
                    location: 0,
                },
                Range {
                    start: 100,
                    end: 199,
                    location: 0,
                },
            ],
        )
        .unwrap();
        assert!(db.lookup_key(550).is_some());
        assert!(db.lookup_key(150).is_some());
    }

    #[test]
    fn overlap_rejected() {
        let err = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![
                Range {
                    start: 100,
                    end: 250,
                    location: 0,
                },
                Range {
                    start: 200,
                    end: 300,
                    location: 0,
                },
            ],
        )
        .unwrap_err();
        assert_eq!(err, DbError::Overlap { at: 1 });
    }

    #[test]
    fn touching_ranges_allowed() {
        // [100,199] and [200,299] are adjacent, not overlapping.
        let db = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![
                Range {
                    start: 100,
                    end: 199,
                    location: 0,
                },
                Range {
                    start: 200,
                    end: 299,
                    location: 0,
                },
            ],
        )
        .unwrap();
        assert!(db.lookup_key(199).is_some());
        assert!(db.lookup_key(200).is_some());
    }

    #[test]
    fn inverted_range_rejected() {
        let err = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![Range {
                start: 200,
                end: 100,
                location: 0,
            }],
        )
        .unwrap_err();
        assert_eq!(err, DbError::InvertedRange { at: 0 });
    }

    #[test]
    fn bad_location_index_rejected() {
        let err = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![Range {
                start: 1,
                end: 2,
                location: 5,
            }],
        )
        .unwrap_err();
        assert_eq!(err, DbError::BadLocationIndex { at: 0 });
    }

    #[test]
    fn single_address_range() {
        let db = GeoDb::new(
            vec![loc("NZ", "A", 1)],
            vec![Range {
                start: 42,
                end: 42,
                location: 0,
            }],
        )
        .unwrap();
        assert!(db.lookup_key(42).is_some());
        assert!(db.lookup_key(41).is_none());
        assert!(db.lookup_key(43).is_none());
    }

    #[test]
    fn empty_db_always_misses() {
        let db = GeoDb::new(vec![], vec![]).unwrap();
        assert!(db.lookup_key(0).is_none());
        assert!(db.lookup_key(12345).is_none());
    }
}
