//! The latency colour scale.
//!
//! §3: *"red lines in areas where most lines are green show increased
//! latency for some connections"*. Green below `lo`, red above `hi`, a
//! green→yellow→red gradient between.

/// An RGBA colour (8 bits per channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Color {
    /// Red.
    pub r: u8,
    /// Green.
    pub g: u8,
    /// Blue.
    pub b: u8,
    /// Alpha.
    pub a: u8,
}

impl Color {
    /// Fully-saturated green (the "healthy" end of the scale).
    pub const GREEN: Color = Color {
        r: 0x2e,
        g: 0xcc,
        b: 0x40,
        a: 0xff,
    };
    /// The "hot" end of the scale.
    pub const RED: Color = Color {
        r: 0xff,
        g: 0x41,
        b: 0x36,
        a: 0xff,
    };
    /// The midpoint yellow.
    pub const YELLOW: Color = Color {
        r: 0xff,
        g: 0xdc,
        b: 0x00,
        a: 0xff,
    };

    /// CSS hex form `#rrggbbaa`.
    pub fn to_hex(&self) -> String {
        format!("#{:02x}{:02x}{:02x}{:02x}", self.r, self.g, self.b, self.a)
    }

    /// Linear interpolation between two colours.
    fn lerp(a: Color, b: Color, t: f32) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |x: u8, y: u8| (x as f32 + (y as f32 - x as f32) * t).round() as u8;
        Color {
            r: mix(a.r, b.r),
            g: mix(a.g, b.g),
            b: mix(a.b, b.b),
            a: mix(a.a, b.a),
        }
    }
}

/// A piecewise-linear latency→colour scale.
#[derive(Debug, Clone, Copy)]
pub struct LatencyScale {
    /// At or below: pure green.
    pub lo_ms: f64,
    /// At or above: pure red.
    pub hi_ms: f64,
}

impl Default for LatencyScale {
    fn default() -> Self {
        // Tuned for an international link: <80 ms green, >400 ms red.
        LatencyScale {
            lo_ms: 80.0,
            hi_ms: 400.0,
        }
    }
}

impl LatencyScale {
    /// Map a latency to its colour.
    pub fn color(&self, latency_ms: f64) -> Color {
        if latency_ms <= self.lo_ms {
            return Color::GREEN;
        }
        if latency_ms >= self.hi_ms {
            return Color::RED;
        }
        let mid = (self.lo_ms + self.hi_ms) / 2.0;
        if latency_ms <= mid {
            let t = (latency_ms - self.lo_ms) / (mid - self.lo_ms);
            Color::lerp(Color::GREEN, Color::YELLOW, t as f32)
        } else {
            let t = (latency_ms - mid) / (self.hi_ms - mid);
            Color::lerp(Color::YELLOW, Color::RED, t as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints_saturate() {
        let s = LatencyScale::default();
        assert_eq!(s.color(0.0), Color::GREEN);
        assert_eq!(s.color(80.0), Color::GREEN);
        assert_eq!(s.color(400.0), Color::RED);
        assert_eq!(s.color(4000.0), Color::RED, "firewall spike is red");
    }

    #[test]
    fn midpoint_is_yellow() {
        let s = LatencyScale::default();
        assert_eq!(s.color(240.0), Color::YELLOW);
    }

    #[test]
    fn gradient_is_monotonic_in_redness() {
        let s = LatencyScale::default();
        let mut last_r = 0;
        for ms in (80..=400).step_by(10) {
            let c = s.color(ms as f64);
            assert!(c.r >= last_r, "red must not decrease");
            last_r = c.r;
        }
    }

    #[test]
    fn lerp_boundaries() {
        assert_eq!(Color::lerp(Color::GREEN, Color::RED, 0.0), Color::GREEN);
        assert_eq!(Color::lerp(Color::GREEN, Color::RED, 1.0), Color::RED);
        assert_eq!(Color::lerp(Color::GREEN, Color::RED, -1.0), Color::GREEN);
        assert_eq!(Color::lerp(Color::GREEN, Color::RED, 2.0), Color::RED);
    }

    #[test]
    fn hex_format() {
        assert_eq!(Color::GREEN.to_hex(), "#2ecc40ff");
    }
}
