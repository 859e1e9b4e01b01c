//! The 30 fps frame batcher.
//!
//! Measurements arrive continuously; the browser draws at a fixed cadence.
//! The batcher accumulates arcs and cuts a [`Frame`] every `1/fps` of
//! simulated time, enforcing a per-frame arc budget (beyond it, arcs are
//! dropped and counted — the map saturates gracefully under load, exactly
//! like the real frontend).

use crate::arc::{tessellate, Arc3D};
use crate::color::LatencyScale;
use crate::json::JsonWriter;
use ruru_nic::Timestamp;

/// Frame batcher configuration.
#[derive(Debug, Clone)]
pub struct FrameConfig {
    /// Frames per second (paper: 30).
    pub fps: u32,
    /// Arc polyline segments (render quality).
    pub segments: usize,
    /// Maximum arcs accepted into one frame.
    pub max_arcs_per_frame: usize,
    /// The colour scale.
    pub scale: LatencyScale,
}

impl Default for FrameConfig {
    fn default() -> Self {
        FrameConfig {
            fps: 30,
            segments: 32,
            max_arcs_per_frame: 2000,
            scale: LatencyScale::default(),
        }
    }
}

/// One rendered frame: the arcs born in its window.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame sequence number.
    pub seq: u64,
    /// Window start time.
    pub start: Timestamp,
    /// Arcs to draw.
    pub arcs: Vec<Arc3D>,
    /// Arcs dropped over budget in this window.
    pub dropped: u64,
}

impl Frame {
    /// Encode the frame as the JSON document sent over the WebSocket.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .key("seq")
            .integer(self.seq as i64)
            .key("t")
            .number(self.start.as_secs_f64())
            .key("dropped")
            .integer(self.dropped as i64)
            .key("arcs")
            .begin_array();
        for arc in &self.arcs {
            w.begin_object()
                .key("color")
                .string(&arc.color.to_hex())
                .key("ms")
                .fixed(arc.latency_ms, 2)
                .key("path")
                .begin_array();
            // Fixed-point coordinates: 5 decimals ≈ 1 m of precision, and
            // an order of magnitude cheaper to format than full floats.
            for (lat, lon, alt) in &arc.points {
                w.begin_array()
                    .fixed(*lat as f64, 5)
                    .fixed(*lon as f64, 5)
                    .fixed(*alt as f64, 1)
                    .end_array();
            }
            w.end_array().end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

/// Accumulates arcs and cuts frames on a fixed cadence of simulated time.
pub struct FrameBatcher {
    config: FrameConfig,
    frame_ns: u64,
    current_start: Timestamp,
    seq: u64,
    arcs: Vec<Arc3D>,
    dropped_this_frame: u64,
    total_arcs: u64,
    total_dropped: u64,
}

impl FrameBatcher {
    /// Create a batcher; the first frame window starts at `origin`.
    pub fn new(config: FrameConfig, origin: Timestamp) -> FrameBatcher {
        assert!(config.fps > 0, "fps must be positive");
        let frame_ns = 1_000_000_000 / config.fps as u64;
        FrameBatcher {
            config,
            frame_ns,
            current_start: origin,
            seq: 0,
            arcs: Vec::new(),
            dropped_this_frame: 0,
            total_arcs: 0,
            total_dropped: 0,
        }
    }

    /// Add one connection arc at time `at`. Returns completed frames (all
    /// windows that closed strictly before `at`).
    pub fn add(
        &mut self,
        at: Timestamp,
        src: (f32, f32),
        dst: (f32, f32),
        latency_ms: f64,
    ) -> Vec<Frame> {
        let frames = self.advance_to(at);
        if self.arcs.len() < self.config.max_arcs_per_frame {
            self.arcs
                .push(tessellate(src, dst, latency_ms, self.config.segments, &self.config.scale));
            self.total_arcs += 1;
        } else {
            self.dropped_this_frame += 1;
            self.total_dropped += 1;
        }
        frames
    }

    /// Close every window ending at or before `now`, returning the frames.
    pub fn advance_to(&mut self, now: Timestamp) -> Vec<Frame> {
        let mut out = Vec::new();
        while now.saturating_nanos_since(self.current_start) >= self.frame_ns {
            out.push(Frame {
                seq: self.seq,
                start: self.current_start,
                arcs: std::mem::take(&mut self.arcs),
                dropped: std::mem::replace(&mut self.dropped_this_frame, 0),
            });
            self.seq += 1;
            self.current_start = self.current_start.advanced(self.frame_ns);
            // Don't emit unbounded empty frames after a long idle gap —
            // jump directly to the window containing `now` once the gap
            // exceeds one second of frames.
            let gap = now.saturating_nanos_since(self.current_start);
            if out.len() > self.config.fps as usize && gap > self.frame_ns {
                let skip = gap / self.frame_ns;
                self.seq += skip;
                self.current_start = self.current_start.advanced(skip * self.frame_ns);
            }
        }
        out
    }

    /// `(arcs accepted, arcs dropped)` overall.
    pub fn stats(&self) -> (u64, u64) {
        (self.total_arcs, self.total_dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const AKL: (f32, f32) = (-36.85, 174.76);
    const LAX: (f32, f32) = (34.05, -118.24);

    fn batcher(max_arcs: usize) -> FrameBatcher {
        FrameBatcher::new(
            FrameConfig {
                fps: 30,
                segments: 8,
                max_arcs_per_frame: max_arcs,
                scale: LatencyScale::default(),
            },
            Timestamp::ZERO,
        )
    }

    #[test]
    fn frame_period_is_33ms_at_30fps() {
        let b = batcher(100);
        assert_eq!(b.frame_ns, 33_333_333);
    }

    #[test]
    fn arcs_land_in_their_window() {
        let mut b = batcher(100);
        assert!(b.add(Timestamp::from_millis(1), AKL, LAX, 130.0).is_empty());
        assert!(b.add(Timestamp::from_millis(20), AKL, LAX, 131.0).is_empty());
        // Crossing 33.3 ms closes frame 0 with both arcs.
        let frames = b.add(Timestamp::from_millis(40), AKL, LAX, 132.0);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[0].arcs.len(), 2);
        assert_eq!(frames[0].dropped, 0);
    }

    #[test]
    fn budget_drops_over_limit() {
        let mut b = batcher(3);
        for i in 0..10 {
            b.add(Timestamp::from_millis(i), AKL, LAX, 130.0);
        }
        let frames = b.advance_to(Timestamp::from_millis(50));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].arcs.len(), 3);
        assert_eq!(frames[0].dropped, 7);
        assert_eq!(b.stats(), (3, 7));
    }

    #[test]
    fn multiple_windows_close_in_order() {
        let mut b = batcher(100);
        let mut frames = b.add(Timestamp::from_millis(1), AKL, LAX, 1.0);
        // Adding at t=35ms closes window 0 immediately.
        frames.extend(b.add(Timestamp::from_millis(35), AKL, LAX, 2.0));
        frames.extend(b.advance_to(Timestamp::from_millis(70)));
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 0);
        assert_eq!(frames[1].seq, 1);
        assert_eq!(frames[0].arcs.len(), 1);
        assert_eq!(frames[1].arcs.len(), 1);
    }

    #[test]
    fn late_arc_lands_in_the_open_frame() {
        // Enrichers publish per queue, so an arc can arrive after the
        // window of its completion closed: it is drawn late, never lost.
        let mut b = batcher(100);
        b.add(Timestamp::from_millis(1), AKL, LAX, 1.0);
        assert_eq!(b.advance_to(Timestamp::from_millis(40)).len(), 1);
        assert!(b.add(Timestamp::from_millis(10), AKL, LAX, 2.0).is_empty());
        assert_eq!(b.stats(), (2, 0));
        let frames = b.advance_to(Timestamp::from_millis(70));
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].seq, 1);
        assert_eq!(frames[0].arcs.len(), 1);
        assert_eq!(frames[0].arcs[0].latency_ms, 2.0);
        assert_eq!(frames[0].dropped, 0);
    }

    #[test]
    fn long_idle_gap_does_not_flood_empty_frames() {
        let mut b = batcher(100);
        b.add(Timestamp::from_millis(1), AKL, LAX, 1.0);
        // An hour of idle.
        let frames = b.advance_to(Timestamp::from_secs(3600));
        assert!(
            frames.len() < 80,
            "empty frames must be skipped, got {}",
            frames.len()
        );
        // Sequence numbers still advance past the gap.
        let next = b.advance_to(Timestamp::from_secs(3601));
        let last_seq = next.last().unwrap().seq;
        assert!(last_seq > 100_000, "seq {last_seq} reflects wall progress");
    }

    #[test]
    fn frame_json_shape() {
        let mut b = batcher(100);
        b.add(Timestamp::from_millis(1), AKL, LAX, 130.0);
        let frames = b.advance_to(Timestamp::from_millis(40));
        let json = frames[0].to_json();
        assert!(json.starts_with(r#"{"seq":0,"t":0,"dropped":0,"arcs":[{"#), "{json}");
        assert!(json.contains(r#""color":"#));
        assert!(json.contains(r#""path":[["#));
        // 9 vertices for 8 segments.
        assert_eq!(json.matches('[').count() - 2, 9, "{json}");
    }
}
