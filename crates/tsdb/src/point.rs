//! Points and series keys.

/// A single tagged, timestamped data point.
///
/// Tags are indexed dimensions (country, city, ASN…); fields are the
/// numeric values (latencies). A point's *series* is its measurement name
/// plus its sorted tag set — all points of one series share one storage run.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Measurement name, e.g. `"latency"`.
    pub measurement: String,
    /// Tag key/value pairs. Kept sorted by key (see [`Point::normalize`]).
    pub tags: Vec<(String, String)>,
    /// Field name/value pairs.
    pub fields: Vec<(String, f64)>,
    /// Timestamp in nanoseconds.
    pub timestamp_ns: u64,
}

impl Point {
    /// Build a point, normalizing the tag order.
    pub fn new(
        measurement: impl Into<String>,
        tags: Vec<(String, String)>,
        fields: Vec<(String, f64)>,
        timestamp_ns: u64,
    ) -> Point {
        let mut p = Point {
            measurement: measurement.into(),
            tags,
            fields,
            timestamp_ns,
        };
        p.normalize();
        p
    }

    /// Sort tags by key so equal tag sets produce equal series keys.
    pub fn normalize(&mut self) {
        self.tags.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// The value of tag `key`, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value of field `name`, if present.
    pub fn field(&self, name: &str) -> Option<f64> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Write the series key `measurement,k1=v1,k2=v2` (over `tags` as given,
/// sorted for a normalized point) into `out`, replacing its contents. The
/// caller keeps `out` as a scratch buffer, so a repeat series costs no
/// allocation.
pub(crate) fn series_key(measurement: &str, tags: &[(String, String)], out: &mut String) {
    out.clear();
    out.push_str(measurement);
    for (k, v) in tags {
        out.push(',');
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
}

#[cfg(test)]
mod tests {
    // Display/ToString in assertions is fine; the ban targets hot paths.
    #![allow(clippy::disallowed_methods)]
    use super::*;

    fn key(p: &Point) -> String {
        let mut out = String::from("stale");
        series_key(&p.measurement, &p.tags, &mut out);
        out
    }

    fn tags(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn series_key_is_order_independent() {
        let a = Point::new(
            "latency",
            tags(&[("city", "akl"), ("asn", "64000")]),
            vec![("total_ms".into(), 130.0)],
            1,
        );
        let b = Point::new(
            "latency",
            tags(&[("asn", "64000"), ("city", "akl")]),
            vec![("total_ms".into(), 130.0)],
            2,
        );
        assert_eq!(key(&a), key(&b));
        assert_eq!(key(&a), "latency,asn=64000,city=akl");
    }

    #[test]
    fn tag_and_field_access() {
        let p = Point::new(
            "m",
            tags(&[("a", "1")]),
            vec![("x".into(), 2.5), ("y".into(), 3.5)],
            0,
        );
        assert_eq!(p.tag("a"), Some("1"));
        assert_eq!(p.tag("b"), None);
        assert_eq!(p.field("y"), Some(3.5));
        assert_eq!(p.field("z"), None);
    }

    #[test]
    fn tagless_series_key_is_measurement() {
        let p = Point::new("m", vec![], vec![("x".into(), 0.0)], 0);
        assert_eq!(key(&p), "m");
    }
}
