//! A minimal JSON writer.
//!
//! Frames and panels go to the browser as JSON over the WebSocket. The
//! sanctioned dependency set has no JSON crate, so this is a small,
//! correct-by-construction writer: strings are escaped per RFC 8259,
//! non-finite floats are emitted as `null` (matching what browsers'
//! `JSON.parse` can accept).

/// Incrementally builds a JSON document into a `String`.
pub struct JsonWriter {
    out: String,
    /// Stack of "needs a comma before the next item" flags.
    comma: Vec<bool>,
}

impl JsonWriter {
    /// A fresh writer.
    pub fn new() -> JsonWriter {
        JsonWriter {
            out: String::with_capacity(256),
            comma: vec![false],
        }
    }

    fn pre_value(&mut self) {
        if let Some(top) = self.comma.last_mut() {
            if *top {
                self.out.push(',');
            }
            *top = true;
        }
    }

    /// Begin an object (as a value).
    pub fn begin_object(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('{');
        self.comma.push(false);
        self
    }

    /// End the current object.
    pub fn end_object(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push('}');
        self
    }

    /// Begin an array (as a value).
    pub fn begin_array(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push('[');
        self.comma.push(false);
        self
    }

    /// End the current array.
    pub fn end_array(&mut self) -> &mut Self {
        self.comma.pop();
        self.out.push(']');
        self
    }

    /// Write an object key (must be inside an object, before its value).
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.pre_value();
        self.write_escaped(k);
        self.out.push(':');
        // The value that follows must not emit a comma.
        if let Some(top) = self.comma.last_mut() {
            *top = false;
        }
        self
    }

    /// Write a string value.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.pre_value();
        self.write_escaped(s);
        self
    }

    /// Write a float value (`null` if non-finite).
    pub fn number(&mut self, v: f64) -> &mut Self {
        use core::fmt::Write;
        self.pre_value();
        if v.is_finite() {
            // Trim floats that are exactly integral for compactness.
            // Formatting writes straight into the output buffer.
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(self.out, "{}", v as i64);
            } else {
                let _ = write!(self.out, "{v}");
            }
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Write an integer value.
    pub fn integer(&mut self, v: i64) -> &mut Self {
        use core::fmt::Write;
        self.pre_value();
        let _ = write!(self.out, "{v}");
        self
    }

    /// Write a float with a fixed number of decimals via integer math —
    /// much cheaper than shortest-roundtrip float formatting, and exactly
    /// what coordinates/latencies need (a frame holds ~100k of them).
    /// Non-finite values become `null`; `decimals` must be ≤ 9.
    pub fn fixed(&mut self, v: f64, decimals: u32) -> &mut Self {
        assert!(decimals <= 9, "at most 9 decimals supported");
        self.pre_value();
        if !v.is_finite() {
            self.out.push_str("null");
            return self;
        }
        let scale = 10u64.pow(decimals);
        let scaled = (v.abs() * scale as f64).round();
        if scaled >= 9e18 {
            // Out of integer range: fall back to std formatting.
            use core::fmt::Write;
            let _ = write!(self.out, "{v}");
            return self;
        }
        let scaled = scaled as u64;
        if v < 0.0 && scaled > 0 {
            self.out.push('-');
        }
        let whole = scaled / scale;
        let frac = scaled % scale;
        let mut buf = [0u8; 20];
        let mut at = buf.len();
        let mut w = whole;
        loop {
            at -= 1;
            buf[at] = b'0' + (w % 10) as u8;
            w /= 10;
            if w == 0 {
                break;
            }
        }
        self.out
            .push_str(core::str::from_utf8(&buf[at..]).expect("digits"));
        if decimals > 0 {
            self.out.push('.');
            let mut f = frac;
            let start = self.out.len();
            for _ in 0..decimals {
                self.out.insert(start, char::from(b'0' + (f % 10) as u8));
                f /= 10;
            }
        }
        self
    }

    /// Write a null value.
    pub(crate) fn null(&mut self) -> &mut Self {
        self.pre_value();
        self.out.push_str("null");
        self
    }

    fn write_escaped(&mut self, s: &str) {
        self.out.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                '\r' => self.out.push_str("\\r"),
                '\t' => self.out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    use core::fmt::Write;
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// Finish, returning the document.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.comma.len(), 1, "unbalanced begin/end");
        self.out
    }
}

impl Default for JsonWriter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_object() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("name")
            .string("ruru")
            .key("count")
            .integer(3)
            .key("ratio")
            .number(0.5)
            .end_object();
        assert_eq!(
            w.finish(),
            r#"{"name":"ruru","count":3,"ratio":0.5}"#
        );
    }

    #[test]
    fn nested_arrays_and_objects() {
        let mut w = JsonWriter::new();
        w.begin_object().key("arcs").begin_array();
        for i in 0..2 {
            w.begin_object().key("i").integer(i).end_object();
        }
        w.end_array().end_object();
        assert_eq!(w.finish(), r#"{"arcs":[{"i":0},{"i":1}]}"#);
    }

    #[test]
    fn string_escaping() {
        let mut w = JsonWriter::new();
        w.string("a\"b\\c\nd\te\u{1}");
        assert_eq!(w.finish(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn integral_floats_compact() {
        let mut w = JsonWriter::new();
        w.begin_array().number(2.0).number(2.5).number(f64::NAN).end_array();
        assert_eq!(w.finish(), "[2,2.5,null]");
    }

    #[test]
    fn top_level_array_of_numbers() {
        let mut w = JsonWriter::new();
        w.begin_array().integer(1).integer(2).integer(3).end_array();
        assert_eq!(w.finish(), "[1,2,3]");
    }

    #[test]
    fn fixed_point_formatting() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .fixed(-36.8485, 5)
            .fixed(174.76, 2)
            .fixed(0.0, 3)
            .fixed(-0.0004, 3)
            .fixed(123.456789, 0)
            .fixed(f64::NAN, 2)
            .fixed(1e19, 2)
            .end_array();
        assert_eq!(
            w.finish(),
            "[-36.84850,174.76,0.000,0.000,123,null,10000000000000000000]"
        );
    }

    #[test]
    fn fixed_rounds_half_up() {
        let mut w = JsonWriter::new();
        w.begin_array().fixed(1.005, 2).fixed(-1.005, 2).end_array();
        // 1.005 is not exactly representable; accept either rounding of the
        // true binary value but require sign symmetry.
        let s = w.finish();
        assert!(s == "[1.01,-1.01]" || s == "[1.00,-1.00]", "{s}");
    }

    #[test]
    fn null_value() {
        let mut w = JsonWriter::new();
        w.begin_object().key("x").null().end_object();
        assert_eq!(w.finish(), r#"{"x":null}"#);
    }
}
