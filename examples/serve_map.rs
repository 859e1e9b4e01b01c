//! Serve the live 3D map to a real browser, drawn from what the pipeline
//! measures while it measures ("multiple thousands of connections per
//! second on a live 3D map", 30 fps, fed from the PUB socket):
//!
//! * the main thread feeds generated traffic at 4 500 connections/s, paced
//!   so that virtual time is wall time since start;
//! * a frontend thread subscribes to PUB `enriched` before the first
//!   packet, batches each decoded line into 30 fps frames, and every 33 ms
//!   closes the frames that are due, empty ones included;
//! * each frame is encoded once (JSON in a WebSocket text frame) and fanned
//!   out to the browsers over a PUB socket, which drops frames for a slow
//!   browser instead of stalling the map. A tiny HTTP server delivers the
//!   HTML5-canvas page that subscribes to it.
//!
//! ```sh
//! cargo run --release --example serve_map                  # visit the printed URL
//! cargo run --release --example serve_map -- --self-test   # CI smoke mode
//! ```

use ruru::analytics::EnrichedMeasurement;
use ruru::gen::{GenConfig, TrafficGen};
use ruru::mq::{Message, Publisher, Subscriber};
use ruru::nic::{Clock, Timestamp};
use ruru::pipeline::{Pipeline, PipelineConfig};
use ruru::viz::frame::{Frame, FrameBatcher, FrameConfig};
use ruru::viz::ws;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: &str = r#"<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>ruru — live latency map</title>
<style>
 body { margin:0; background:#0b1020; color:#dde; font:13px monospace; }
 #hud { position:fixed; top:8px; left:12px; }
 canvas { display:block; width:100vw; height:100vh; }
</style></head>
<body><div id="hud">connecting…</div><canvas id="map"></canvas>
<script>
const canvas = document.getElementById('map');
const ctx = canvas.getContext('2d');
const hud = document.getElementById('hud');
let arcs = [];   // {path:[[lat,lon,alt]..], color, born}
function resize(){ canvas.width = innerWidth; canvas.height = innerHeight; }
addEventListener('resize', resize); resize();
function project(lat, lon){
  return [ (lon + 180) / 360 * canvas.width,
           (90 - lat) / 180 * canvas.height ];
}
function draw(){
  ctx.fillStyle = 'rgba(11,16,32,0.25)';
  ctx.fillRect(0,0,canvas.width,canvas.height);
  // graticule
  ctx.strokeStyle = 'rgba(120,140,180,0.12)'; ctx.lineWidth = 1;
  for (let lon=-180; lon<=180; lon+=30){ const [x]=project(0,lon);
    ctx.beginPath(); ctx.moveTo(x,0); ctx.lineTo(x,canvas.height); ctx.stroke(); }
  for (let lat=-60; lat<=60; lat+=30){ const [,y]=project(lat,0);
    ctx.beginPath(); ctx.moveTo(0,y); ctx.lineTo(canvas.width,y); ctx.stroke(); }
  const now = performance.now();
  arcs = arcs.filter(a => now - a.born < 2500);
  for (const a of arcs){
    const age = (now - a.born) / 2500;
    ctx.strokeStyle = a.color.slice(0,7);
    ctx.globalAlpha = 1 - age;
    ctx.lineWidth = 1.5;
    ctx.beginPath();
    let started = false, prevLon = null;
    for (const [lat, lon, alt] of a.path){
      // lift by altitude for the 3D feel
      const [x, y0] = project(lat, lon);
      const y = y0 - alt / 40;
      // break the stroke at the antimeridian
      if (prevLon !== null && Math.abs(lon - prevLon) > 180) started = false;
      prevLon = lon;
      if (!started){ ctx.moveTo(x, y); started = true; } else ctx.lineTo(x, y);
    }
    ctx.stroke();
  }
  ctx.globalAlpha = 1;
  requestAnimationFrame(draw);
}
requestAnimationFrame(draw);
const ws = new WebSocket(`ws://${location.host}/ws`);
let frames = 0, shown = 0;
ws.onmessage = ev => {
  const f = JSON.parse(ev.data);
  frames++;
  shown += f.arcs.length;
  const born = performance.now();
  for (const arc of f.arcs) arcs.push({path: arc.path, color: arc.color, born});
  hud.textContent = `ruru live map — frame ${f.seq} · ${f.arcs.length} new arcs · ` +
                    `${shown} total · ${f.dropped} dropped`;
};
ws.onclose = () => hud.textContent += ' — stream ended';
</script></body></html>"#;

/// Offered connections per second: the paper's "multiple thousands".
const RATE: f64 = 4_500.0;
/// How long the interactive demo measures before it stops.
const DEMO_SECS: u64 = 300;
/// How long the self-test measures.
const SELF_TEST_SECS: u64 = 5;
/// The frontend's frame tick: 30 fps.
const TICK: Duration = Duration::from_millis(33);
/// Enriched lines the frontend may fall behind before PUB drops them.
const FEED_HWM: usize = 1 << 16;
/// Frames a browser may fall behind (about 30 s) before PUB drops them.
const BROWSER_HWM: usize = 1024;
/// Topics on the frame PUB socket; browsers subscribe to their prefix.
const FRAME_TOPIC: &str = "map.frame";
const CLOSE_TOPIC: &str = "map.close";

/// The frontend: PUB `enriched` in, 30 fps WebSocket frames out.
struct Frontend {
    feed: Subscriber,
    clock: Clock,
    batcher: FrameBatcher,
    /// Completion times of the records in the open frame.
    open: Vec<Timestamp>,
    out: Publisher,
    /// The wall instant of virtual time zero.
    start: Instant,
    /// Set once every record is published.
    done: Arc<AtomicBool>,
    /// Enriched lines received from the pipeline.
    received: u64,
    /// Per frame sent: the instant it was published and its encode time.
    sent: Vec<(Instant, Duration)>,
    /// Per record: its completion to the send of the frame carrying it.
    lags: Vec<Duration>,
}

impl Frontend {
    fn take(&mut self, msg: Message) {
        let em = std::str::from_utf8(&msg.payload)
            .ok()
            .and_then(EnrichedMeasurement::from_line)
            .expect("the pipeline publishes well-formed enriched lines");
        self.received += 1;
        // Enrichers publish per queue, out of completion order: an arc
        // whose window already closed lands in the open frame.
        let frames = self.batcher.add(
            em.completed_at,
            (em.src.lat, em.src.lon),
            (em.dst.lat, em.dst.lon),
            em.total_ns() as f64 / 1e6,
        );
        self.send(frames);
        self.open.push(em.completed_at);
    }

    /// Encode each frame once and publish it to every browser.
    fn send(&mut self, frames: Vec<Frame>) {
        for frame in frames {
            let t = Instant::now();
            let bytes = ws::encode_frame(ws::Opcode::Text, frame.to_json().as_bytes());
            let encode = t.elapsed();
            self.out.publish(Message::new(FRAME_TOPIC, bytes));
            let at = Instant::now();
            self.sent.push((at, encode));
            // Only the first closed frame is the one that was open.
            for completed in self.open.drain(..) {
                let completed = self.start + Duration::from_nanos(completed.as_nanos());
                self.lags.push(at.saturating_duration_since(completed));
            }
        }
    }

    /// Run until `done` is set and the feed is drained, then close the open
    /// frame and publish a close.
    fn run(mut self) -> Frontend {
        let mut tick = Instant::now() + TICK;
        loop {
            match self.feed.recv_timeout(tick.saturating_duration_since(Instant::now())) {
                Some(msg) => self.take(msg),
                None if self.done.load(Ordering::Acquire) => break,
                None => {}
            }
            if Instant::now() >= tick {
                let frames = self.batcher.advance_to(self.clock.now());
                self.send(frames);
                tick += TICK;
            }
        }
        // A line may have landed after the last receive timed out.
        while let Some(msg) = self.feed.try_recv() {
            self.take(msg);
        }
        let frames = self.batcher.advance_to(self.clock.now().advanced(1_000_000_000 / 30));
        self.send(frames);
        self.out
            .publish(Message::new(CLOSE_TOPIC, ws::encode_frame(ws::Opcode::Close, &[])));
        self
    }
}

/// Serve one HTTP connection: the map page, or a WebSocket that streams
/// every frame published on `frames` until the close.
fn handle_client(mut stream: TcpStream, frames: &Publisher) {
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut lines = reader.lines().map_while(Result::ok);
    let Some(request) = lines.next() else { return };
    let ws_key = lines
        .take_while(|l| !l.is_empty())
        .find_map(|l| Some(l.strip_prefix("Sec-WebSocket-Key:")?.trim().to_string()));
    let Some(ws_key) = ws_key.filter(|_| request.starts_with("GET /ws ")) else {
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{}",
            PAGE.len(),
            PAGE
        );
        let _ = stream.write_all(response.as_bytes());
        return;
    };
    // Subscribe before the handshake reply: a client that has read the
    // reply receives every frame published after it.
    let sub = frames.subscribe("map.", BROWSER_HWM);
    let response = format!(
        "HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\
         Connection: Upgrade\r\nSec-WebSocket-Accept: {}\r\n\r\n",
        ws::accept_key(&ws_key)
    );
    if stream.write_all(response.as_bytes()).is_err() {
        return;
    }
    loop {
        let Some(msg) = sub.recv_timeout(Duration::from_secs(1)) else {
            continue;
        };
        if stream.write_all(&msg.payload).is_err() || &msg.topic[..] == CLOSE_TOPIC.as_bytes() {
            return;
        }
    }
}

/// Text frames in a server's byte stream, and the arcs and dropped arcs
/// they carry.
fn count_frames(buf: &[u8]) -> (u64, u64, u64) {
    let (mut at, mut frames, mut arcs, mut dropped) = (0, 0, 0, 0);
    while at < buf.len() {
        let (len, hdr) = match buf[at + 1] & 0x7f {
            126 => (u16::from_be_bytes([buf[at + 2], buf[at + 3]]) as usize, 4),
            127 => (u64::from_be_bytes(buf[at + 2..at + 10].try_into().unwrap()) as usize, 10),
            n => (n as usize, 2),
        };
        let payload = std::str::from_utf8(&buf[at + hdr..at + hdr + len]).expect("UTF-8");
        if buf[at] & 0x0f == 0x1 {
            frames += 1;
            arcs += payload.matches(r#"{"color":"#).count() as u64;
            let (_, rest) = payload.split_once(r#""dropped":"#).expect("a dropped count");
            dropped += rest.split(',').next().and_then(|d| d.parse::<u64>().ok()).unwrap();
        }
        at += hdr + len;
    }
    (frames, arcs, dropped)
}

fn main() {
    let self_test = std::env::args().any(|a| a == "--self-test");
    let secs = if self_test { SELF_TEST_SECS } else { DEMO_SECS };
    let (mut pipeline, world) = Pipeline::with_synth_world(PipelineConfig::default());
    let feed = pipeline.subscribe_enriched(FEED_HWM);
    let frames = Publisher::new();

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("bound address");
    println!("serving live map on http://{addr}/  (measuring for {secs} s)");
    // Browsers come and go; the accept loop lives until the process exits.
    let server = frames.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let frames = server.clone();
            std::thread::spawn(move || handle_client(stream, &frames));
        }
    });
    // Self-test: one page fetch, then one WebSocket client attached before
    // the first packet, reading until the server closes.
    let client = self_test.then(|| {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET / HTTP/1.1\r\nHost: x\r\n\r\n").expect("request page");
        let mut page = String::new();
        s.read_to_string(&mut page).expect("read page");
        assert!(page.contains("200 OK") && page.contains("ruru — live latency map"));
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(
            s,
            "GET /ws HTTP/1.1\r\nHost: x\r\nUpgrade: websocket\r\nConnection: Upgrade\r\n\
             Sec-WebSocket-Key: dGhlIHNhbXBsZSBub25jZQ==\r\nSec-WebSocket-Version: 13\r\n\r\n"
        )
        .expect("request upgrade");
        let mut r = BufReader::new(s);
        let mut line = String::new();
        r.read_line(&mut line).expect("read upgrade reply");
        assert!(line.starts_with("HTTP/1.1 101"), "upgrade refused: {line}");
        while line.trim() != "" {
            line.clear();
            r.read_line(&mut line).expect("read upgrade reply");
        }
        std::thread::spawn(move || {
            let mut buf = Vec::new();
            r.read_to_end(&mut buf).expect("read frames");
            buf
        })
    });

    let mut gen = TrafficGen::with_world(
        GenConfig {
            seed: 3030,
            flows_per_sec: RATE,
            duration: Timestamp::from_secs(secs),
            data_exchanges: (0, 0),
            record_truth: false,
            ..GenConfig::default()
        },
        world,
    );
    let done = Arc::new(AtomicBool::new(false));
    let start = Instant::now();
    let frontend = Frontend {
        feed,
        clock: pipeline.clock().clone(),
        batcher: FrameBatcher::new(FrameConfig::default(), Timestamp::ZERO),
        open: Vec::new(),
        out: frames,
        start,
        done: Arc::clone(&done),
        received: 0,
        sent: Vec::new(),
        lags: Vec::new(),
    };
    let frontend = std::thread::spawn(move || frontend.run());
    // Open loop: each packet is fed when its virtual time comes due.
    for event in gen.by_ref() {
        let due = start + Duration::from_nanos(event.at.as_nanos());
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        pipeline.feed(&event);
    }
    let fed_until = Instant::now();
    let report = pipeline.finish();
    done.store(true, Ordering::Release);
    let mut fe = frontend.join().expect("frontend panicked");

    // While the feeder ran: frame spacing and encode cost.
    let live: Vec<(Instant, Duration)> =
        fe.sent.iter().copied().filter(|&(at, _)| at <= fed_until).collect();
    let mut gaps: Vec<Duration> = live.windows(2).map(|w| w[1].0 - w[0].0).collect();
    gaps.sort();
    let median_gap = gaps[gaps.len() / 2];
    let max_encode = live.iter().map(|&(_, e)| e).max().unwrap_or_default();
    fe.lags.sort();
    let rate = report.measurements() as f64 / secs as f64;
    let feed_drops = fe.feed.drops();
    println!(
        "measured {} connections ({rate:.0}/s); frontend received {} ({feed_drops} dropped \
         by PUB); sent {} frames: median interval {median_gap:.1?}, max encode {max_encode:.2?}, \
         frame lag p50 {:.1?} p99 {:.1?}",
        report.measurements(),
        fe.received,
        fe.sent.len(),
        fe.lags[fe.lags.len() / 2],
        fe.lags[fe.lags.len() * 99 / 100],
    );
    if let Some(client) = client {
        let (frames, arcs, dropped) = count_frames(&client.join().expect("client panicked"));
        assert_eq!(frames, fe.sent.len() as u64, "the client got every frame sent");
        assert_eq!(arcs + dropped, fe.received, "one arc (or drop) per record received");
        assert!(fe.received > 0, "the frontend received records");
        assert_eq!(fe.received, report.measurements() - feed_drops);
        assert!(rate >= 4_000.0, "offered {rate:.0} connections/s");
        assert!(
            median_gap.abs_diff(TICK) <= Duration::from_millis(5),
            "median frame interval {median_gap:?}"
        );
        assert!(max_encode < TICK, "a frame took {max_encode:?} to encode");
        println!("self-test ok: page + {frames} live frames, {arcs} arcs, {dropped} dropped");
    }
}
