//! The InfluxDB line protocol.
//!
//! ```text
//! measurement,tag1=v1,tag2=v2 field1=1.5,field2=2 1465839830100400200
//! ```
//!
//! Commas, spaces and equals signs inside names and tag values are escaped
//! with a backslash, as InfluxDB does. Field values here are always floats
//! (the only kind Ruru writes).

use crate::point::Point;
use core::fmt::{self, Write};

/// Errors from parsing a protocol line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineError {
    /// The line has too few sections (needs measurement+fields at minimum).
    MissingSection,
    /// A tag or field pair lacked an `=`.
    BadPair,
    /// A field value was not a number.
    BadNumber,
    /// The timestamp was not an integer.
    BadTimestamp,
    /// The measurement name was empty.
    EmptyMeasurement,
    /// No fields present.
    NoFields,
}

/// A writer that escapes `,`, ` `, `=` and `\` in everything written
/// through it, as InfluxDB escapes names and tag values.
struct Escaped<'a, W: ?Sized>(&'a mut W);

impl<W: Write + ?Sized> Write for Escaped<'_, W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut plain = 0;
        for (at, special) in s.match_indices([',', ' ', '=', '\\']) {
            self.0.write_str(s.get(plain..at).unwrap_or_default())?;
            self.0.write_char('\\')?;
            self.0.write_str(special)?;
            plain = at + special.len();
        }
        self.0.write_str(s.get(plain..).unwrap_or_default())
    }
}

/// Write `s` into `out` escaped as a name or tag value: a backslash
/// before each `,`, ` `, `=` and `\`.
pub fn write_escaped<W: Write + ?Sized>(out: &mut W, s: &str) -> fmt::Result {
    Escaped(out).write_str(s)
}

/// Write one protocol line into `out`: the crate's only line encoder.
///
/// Tags are written in the order given (a normalized point keeps them
/// sorted) and may be any `Display`, so a caller can write numbers and
/// borrowed text without building strings first. Names and tag values
/// are escaped; field values are written with `f64`'s `Display`.
pub fn write<'a, W, V>(
    out: &mut W,
    measurement: &str,
    tags: impl IntoIterator<Item = (&'a str, V)>,
    fields: impl IntoIterator<Item = (&'a str, f64)>,
    timestamp_ns: u64,
) -> fmt::Result
where
    W: Write + ?Sized,
    V: fmt::Display,
{
    Escaped(&mut *out).write_str(measurement)?;
    for (k, v) in tags {
        out.write_char(',')?;
        Escaped(&mut *out).write_str(k)?;
        out.write_char('=')?;
        write!(Escaped(&mut *out), "{v}")?;
    }
    out.write_char(' ')?;
    for (i, (k, v)) in fields.into_iter().enumerate() {
        if i > 0 {
            out.write_char(',')?;
        }
        Escaped(&mut *out).write_str(k)?;
        write!(out, "={v}")?;
    }
    write!(out, " {timestamp_ns}")
}

/// Encode a point as one protocol line.
pub fn encode(p: &Point) -> String {
    let mut out = String::new();
    // Writing into a `String` cannot fail.
    let _ = write(
        &mut out,
        &p.measurement,
        p.tags.iter().map(|(k, v)| (k.as_str(), v)),
        p.fields.iter().map(|(k, v)| (k.as_str(), *v)),
        p.timestamp_ns,
    );
    out
}

/// Split `s` on unescaped occurrences of `sep`, unescaping the pieces.
fn split_unescaped(s: &str, sep: char) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars();
    while let Some(ch) = chars.next() {
        if ch == '\\' {
            if let Some(next) = chars.next() {
                cur.push(next);
            }
        } else if ch == sep {
            parts.push(std::mem::take(&mut cur));
        } else {
            cur.push(ch);
        }
    }
    parts.push(cur);
    parts
}

/// Parse one protocol line into a [`Point`].
#[allow(clippy::disallowed_methods)] // sanctioned: the line protocol is text by definition
pub fn parse(line: &str) -> Result<Point, LineError> {
    // Section split must respect escapes but NOT unescape yet (tag/field
    // parsing needs the escapes intact). Do a manual scan.
    let mut sections: Vec<&str> = Vec::with_capacity(3);
    let bytes = line.as_bytes();
    let mut start = 0;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            // Skipping the escaped byte can land mid-way through a UTF-8
            // sequence (`\` before a multi-byte char); the checked slices
            // below turn that into a parse error instead of a panic.
            b'\\' => i = i.saturating_add(2),
            b' ' => {
                sections.push(line.get(start..i).ok_or(LineError::BadPair)?);
                start = i.saturating_add(1);
                i = i.saturating_add(1);
            }
            _ => i = i.saturating_add(1),
        }
    }
    sections.push(line.get(start..).unwrap_or(""));
    let (series_sec, fields_sec, ts_sec) = match sections.as_slice() {
        [a, b] => (*a, *b, None),
        [a, b, c] => (*a, *b, Some(*c)),
        _ => return Err(LineError::MissingSection),
    };

    // Series section: measurement,tag=v,...
    let series_parts = split_unescaped(series_sec, ',');
    let Some((measurement, tag_parts)) = series_parts.split_first() else {
        return Err(LineError::EmptyMeasurement);
    };
    let measurement = measurement.clone();
    if measurement.is_empty() {
        return Err(LineError::EmptyMeasurement);
    }
    let mut tags = Vec::new();
    for part in tag_parts {
        // `part` is already unescaped; split on the first '=' is safe only
        // if values contain no '='. To support escaped '=' we re-split the
        // raw text; for Ruru's tag values (cities, countries, ASNs) '=' does
        // not occur, so split-on-first-= of the unescaped text is correct.
        let (k, v) = part.split_once('=').ok_or(LineError::BadPair)?;
        tags.push((k.to_string(), v.to_string()));
    }

    // Fields section.
    let mut fields = Vec::new();
    for part in split_unescaped(fields_sec, ',') {
        let (k, v) = part.split_once('=').ok_or(LineError::BadPair)?;
        let v: f64 = v.parse().map_err(|_| LineError::BadNumber)?;
        fields.push((k.to_string(), v));
    }
    if fields.is_empty() {
        return Err(LineError::NoFields);
    }

    let timestamp_ns = match ts_sec {
        Some(ts) => ts.parse().map_err(|_| LineError::BadTimestamp)?,
        None => 0,
    };

    Ok(Point::new(measurement, tags, fields, timestamp_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_parse_roundtrip() {
        let p = Point::new(
            "latency",
            vec![
                ("src_city".into(), "Auckland".into()),
                ("dst_asn".into(), "64008".into()),
            ],
            vec![("total_ms".into(), 131.25), ("int_ms".into(), 1.2)],
            1_465_839_830_100_400_200,
        );
        let line = encode(&p);
        // Tags are emitted in sorted order; fields keep insertion order.
        assert!(line.starts_with("latency,dst_asn=64008,src_city=Auckland "), "{line}");
        assert!(line.ends_with(" 1465839830100400200"), "{line}");
        let back = parse(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn escaping_roundtrip() {
        let p = Point::new(
            "my measurement",
            vec![("city".into(), "Los Angeles".into()), ("k,2".into(), "a=b".into())],
            vec![("f 1".into(), 2.0)],
            7,
        );
        let line = encode(&p);
        let back = parse(&line).unwrap();
        assert_eq!(back.measurement, "my measurement");
        assert_eq!(back.tag("city"), Some("Los Angeles"));
        assert_eq!(back.tag("k,2"), Some("a=b"));
        assert_eq!(back.field("f 1"), Some(2.0));
    }

    #[test]
    fn parse_without_timestamp_defaults_zero() {
        let p = parse("m value=1").unwrap();
        assert_eq!(p.timestamp_ns, 0);
        assert_eq!(p.field("value"), Some(1.0));
    }

    #[test]
    fn parse_without_tags() {
        let p = parse("cpu usage=0.5 123").unwrap();
        assert_eq!(p.measurement, "cpu");
        assert!(p.tags.is_empty());
        assert_eq!(p.timestamp_ns, 123);
    }

    #[test]
    fn parse_errors() {
        assert_eq!(parse("onlymeasurement"), Err(LineError::MissingSection));
        assert_eq!(parse("m,badtag value=1 1"), Err(LineError::BadPair));
        assert_eq!(parse("m value=abc 1"), Err(LineError::BadNumber));
        assert_eq!(parse("m value=1 notanumber"), Err(LineError::BadTimestamp));
        assert_eq!(parse("m value=1 1 extra"), Err(LineError::MissingSection));
        assert_eq!(parse(",t=1 v=1 1"), Err(LineError::EmptyMeasurement));
    }

    #[test]
    fn escape_before_multibyte_char_is_rejected_not_panicking() {
        // `\` directly before a multi-byte character makes the escape scan
        // land on a non-boundary; the parser must error, not panic.
        let _ = parse("m\\\u{00e9} value=1 1");
        let _ = parse("\\\u{00e9}m,t\\\u{00e9}=x v=1");
    }

    #[test]
    fn negative_and_scientific_field_values() {
        let p = parse("m a=-1.5,b=2e3 9").unwrap();
        assert_eq!(p.field("a"), Some(-1.5));
        assert_eq!(p.field("b"), Some(2000.0));
    }
}
