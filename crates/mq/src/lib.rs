#![warn(missing_docs)]

//! # ruru-mq — a ZeroMQ-style message bus
//!
//! The paper: *"The DPDK application publishes the latency measurements …
//! on zero-copy ZeroMQ sockets to other software modules"* and *"the use of
//! ZeroMQ sockets allowing efficient and fast interconnect of modules"*.
//!
//! This crate reproduces the two socket patterns Ruru uses, with ZeroMQ's
//! semantics:
//!
//! * [`pubsub`] — PUB/SUB: topic-prefix subscriptions; a slow subscriber
//!   whose high-water mark is reached **loses messages** (PUB never blocks
//!   the dataplane).
//! * [`pushpull`] — PUSH/PULL: work distribution to a pool of analytics
//!   workers; at the high-water mark PUSH **blocks** (back-pressure).
//! * [`tcp`] — a length-prefixed TCP transport so modules can run in
//!   separate processes, as in the deployed system.
//!
//! Both in-process patterns sit on [`chan`], a bounded blocking MPMC
//! channel built on the [`sync`] shim (`std` normally, `loom` under
//! `RUSTFLAGS="--cfg loom"`), so the bus's blocking and drop semantics are
//! model-checked by `tests/loom_mq.rs` — see DESIGN.md §9.
//!
//! Payloads are [`bytes::Bytes`]: fanning a message out to N subscribers
//! clones a reference count, never the bytes — the "zero-copy" the paper
//! leans on. Experiment E8 benchmarks this against a copying bus. A
//! PUSH/PULL pipe is generic over its item ([`Message`] by default): an
//! edge between threads of one process moves its records as values, with
//! nothing to encode or decode, and only the edges that leave the
//! process's threads (PUB, [`tcp`]) carry bytes.
//!
//! All three patterns move **bursts**: [`Push::send_batch`],
//! [`Pull::recv_batch`] and [`Publisher::publish_batch`] take each channel
//! lock once per burst (a PUB burst once per subscriber queue), and the
//! one-message calls are one-message bursts. A PUSH wakes a sleeping
//! puller only once the pipe holds a full burst or the producer flushes
//! ([`Push::flush`], which every producer calls when it goes idle);
//! [`Pull::probe`] counts those wakes. Batch calls keep the per-message
//! semantics — same ordering, same HWM back-pressure (PUSH) and
//! drop-on-full (PUB) behaviour — and batched and unbatched endpoints
//! interoperate freely.

pub mod chan;
pub mod message;
pub mod pubsub;
pub mod pushpull;
pub mod sync;
pub mod tcp;

pub use message::Message;
pub use pubsub::{Publisher, Subscriber};
pub use pushpull::{pipe, Pull, Push};
