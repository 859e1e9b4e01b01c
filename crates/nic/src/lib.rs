#![warn(missing_docs)]

//! # ruru-nic — a DPDK-style simulated dataplane
//!
//! Ruru's production deployment runs on a DPDK-enabled NIC: a userspace,
//! polling-based driver with symmetric Receive Side Scaling dispatching
//! packets to multiple receive queues, each polled by a dedicated CPU core.
//! This crate reproduces that dataplane faithfully in software so the rest
//! of the pipeline exercises the *same code paths* — RSS classification,
//! per-queue bursts, zero-copy buffers, per-core sharding — without the
//! hardware:
//!
//! * [`clock`] — sub-microsecond monotonic timestamps, in both wall-clock
//!   and virtual (simulation) modes.
//! * [`mbuf`] — fixed-size packet buffers drawn from a pre-allocated pool,
//!   the `rte_mbuf`/`rte_mempool` analogue.
//! * [`ring`] — a bounded lock-free SPSC queue, the `rte_ring` analogue,
//!   used as the RX queue between the (simulated) NIC and each worker.
//! * [`rss`] — the Toeplitz hash with both the standard Microsoft key and
//!   the *symmetric* key Ruru requires so both directions of a TCP flow
//!   land on the same queue.
//! * [`port`] — a multi-queue port: packets injected on the wire side are
//!   timestamped, RSS-classified and delivered to per-queue rings that
//!   workers drain with `rx_burst`.
//! * [`lcore`] — the worker-thread harness: one thread per queue that
//!   polls, then parks until the port delivers to its queue, with
//!   cooperative shutdown that hands each worker's state back, mirroring
//!   DPDK lcores in RX-interrupt mode.
//! * [`queue`] — a bounded lock-free MPMC queue (Vyukov), the pool's
//!   free list.
//! * [`fault`] — wire-level fault injection (drop / corrupt / duplicate /
//!   reorder), for testing tracker robustness.
//! * [`sync`] — the concurrency shim (`std` normally, `loom` under
//!   `cfg(loom)`) every hot-path module draws its primitives from, making
//!   the unsafe core model-checkable.

pub mod clock;
pub mod fault;
pub mod lcore;
pub mod mbuf;
pub mod port;
pub mod queue;
pub mod ring;
pub mod rss;
pub mod sync;

pub use clock::{Clock, Timestamp};
pub use mbuf::{Mbuf, MbufPool};
pub use port::{Port, PortConfig, PortStats};
pub use rss::RssHasher;
