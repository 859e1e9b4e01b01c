//! Packet buffers (`rte_mbuf`) and the pre-allocated pool (`rte_mempool`).
//!
//! DPDK never allocates on the datapath: packets live in fixed-size buffers
//! drawn from a pool created at startup, and are returned to it when the
//! application is done. [`MbufPool`] reproduces this with a lock-free
//! free-list; [`Mbuf`] carries the receive metadata the dataplane reads
//! from the RX descriptor: the arrival timestamp and the input queue. The
//! RSS hash only chooses that queue, so it is not kept (the flow tables
//! hash their own keys, as DPDK's `rte_hash` does).

use crate::clock::Timestamp;
use crate::queue::MpmcQueue;
use crate::sync::Arc;

/// Default data-room size of a pool buffer (DPDK's conventional 2 KiB).
pub const DEFAULT_BUF_SIZE: usize = 2048;

/// A packet buffer with receive metadata.
///
/// Dropping an `Mbuf` returns its storage to the originating pool
/// automatically, so workers can simply let bufs go out of scope — the
/// analogue of `rte_pktmbuf_free`.
pub struct Mbuf {
    storage: Option<Box<[u8]>>,
    len: usize,
    /// Queue the packet was delivered to.
    pub queue_id: u16,
    /// Arrival timestamp stamped by the RX path.
    pub timestamp: Timestamp,
    pool: Option<Arc<PoolInner>>,
}

impl Mbuf {
    /// A standalone mbuf not tied to any pool (tests, generators).
    pub fn from_bytes(data: &[u8]) -> Mbuf {
        let mut storage = vec![0u8; data.len().max(1)].into_boxed_slice();
        storage[..data.len()].copy_from_slice(data);
        Mbuf {
            storage: Some(storage),
            len: data.len(),
            queue_id: 0,
            timestamp: Timestamp::ZERO,
            pool: None,
        }
    }

    /// The packet bytes. Empty if the storage was already returned to the
    /// pool (a logic bug, but one that must not abort a dataplane worker).
    pub fn data(&self) -> &[u8] {
        self.storage
            .as_deref()
            .and_then(|s| s.get(..self.len))
            .unwrap_or(&[])
    }

    /// Packet length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the packet has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for Mbuf {
    fn drop(&mut self) {
        if let (Some(storage), Some(pool)) = (self.storage.take(), self.pool.take()) {
            pool.put_back(storage);
        }
    }
}

impl core::fmt::Debug for Mbuf {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Mbuf")
            .field("len", &self.len)
            .field("queue_id", &self.queue_id)
            .field("timestamp", &self.timestamp)
            .field("pooled", &self.pool.is_some())
            .finish()
    }
}

/// The pool keeps no per-packet counters: the feeder allocates and the
/// lcore frees every packet, so a shared counter would be one more cache
/// line pulled between them. An allocation that finds the pool empty is
/// counted by the port, as `no_mbuf_drops`.
struct PoolInner {
    free: MpmcQueue<Box<[u8]>>,
    buf_size: usize,
}

impl PoolInner {
    fn put_back(&self, storage: Box<[u8]>) {
        // If the pool somehow receives more buffers than capacity, drop the
        // excess on the floor (cannot happen through the public API).
        let _ = self.free.push(storage);
    }
}

/// A fixed-capacity pool of packet buffers.
///
/// ```
/// use ruru_nic::mbuf::MbufPool;
/// let pool = MbufPool::new(4, 2048);
/// let a = pool.alloc(&[1, 2, 3]).unwrap();
/// assert_eq!(pool.available(), 3);
/// drop(a);
/// assert_eq!(pool.available(), 4);
/// ```
#[derive(Clone)]
pub struct MbufPool {
    inner: Arc<PoolInner>,
}

impl MbufPool {
    /// Pre-allocate `count` buffers of `buf_size` bytes each.
    // Construction-time pool fill: the queue is sized for `count`, so the
    // expect is unreachable and acceptable outside the dataplane.
    #[allow(clippy::expect_used)]
    pub fn new(count: usize, buf_size: usize) -> MbufPool {
        assert!(count > 0, "pool must hold at least one buffer");
        assert!(buf_size > 0, "buffer size must be positive");
        // The queue rounds its capacity up to a power of two, but only
        // `count` buffers ever exist, so the pool still holds exactly
        // `count` — exhaustion means the free list is *empty*, not full.
        let free = MpmcQueue::new(count);
        for _ in 0..count {
            free.push(vec![0u8; buf_size].into_boxed_slice())
                .expect("queue sized for count");
        }
        MbufPool {
            inner: Arc::new(PoolInner { free, buf_size }),
        }
    }

    /// Allocate a buffer and copy `data` into it.
    ///
    /// Returns `None` when the pool is exhausted or `data` exceeds the
    /// buffer size — the dataplane treats both as an RX drop.
    pub fn alloc(&self, data: &[u8]) -> Option<Mbuf> {
        if data.len() > self.inner.buf_size {
            return None;
        }
        match self.inner.free.pop() {
            Some(mut storage) => {
                // data.len() <= buf_size == storage.len(), checked above.
                if let Some(dst) = storage.get_mut(..data.len()) {
                    dst.copy_from_slice(data);
                }
                Some(Mbuf {
                    storage: Some(storage),
                    len: data.len(),
                    queue_id: 0,
                    timestamp: Timestamp::ZERO,
                    pool: Some(Arc::clone(&self.inner)),
                })
            }
            None => None,
        }
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.inner.free.len()
    }

    /// The data room of each buffer.
    pub fn buf_size(&self) -> usize {
        self.inner.buf_size
    }
}

impl core::fmt::Debug for MbufPool {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MbufPool")
            .field("available", &self.available())
            .field("buf_size", &self.inner.buf_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_copies_data() {
        let pool = MbufPool::new(2, 64);
        let m = pool.alloc(&[5, 6, 7]).unwrap();
        assert_eq!(m.data(), &[5, 6, 7]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn exhaustion_returns_none() {
        let pool = MbufPool::new(1, 64);
        let a = pool.alloc(&[0]).unwrap();
        assert!(pool.alloc(&[0]).is_none());
        assert_eq!(pool.available(), 0);
        drop(a);
        assert!(pool.alloc(&[0]).is_some(), "the returned buffer is reusable");
    }

    #[test]
    fn drop_returns_buffer_to_pool() {
        let pool = MbufPool::new(1, 64);
        let m = pool.alloc(&[1]).unwrap();
        assert_eq!(pool.available(), 0);
        drop(m);
        assert_eq!(pool.available(), 1);
        // Buffer is reusable.
        let m2 = pool.alloc(&[2, 3]).unwrap();
        assert_eq!(m2.data(), &[2, 3]);
    }

    #[test]
    fn oversized_packet_rejected() {
        let pool = MbufPool::new(1, 4);
        assert!(pool.alloc(&[0; 5]).is_none());
        assert_eq!(pool.available(), 1, "no buffer leaked");
    }

    #[test]
    fn pool_is_shared_across_clones() {
        let pool = MbufPool::new(2, 64);
        let clone = pool.clone();
        let _m = clone.alloc(&[1]).unwrap();
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn from_bytes_is_pool_free() {
        let m = Mbuf::from_bytes(&[1, 2]);
        assert_eq!(m.data(), &[1, 2]);
        drop(m); // must not panic
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thread-heavy stress; covered by loom instead
    fn concurrent_alloc_free() {
        let pool = MbufPool::new(64, 128);
        let mut handles = Vec::new();
        for t in 0..4 {
            let pool = pool.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u32 {
                    if let Some(m) = pool.alloc(&(i + t).to_be_bytes()) {
                        assert_eq!(m.data().len(), 4);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.available(), 64, "all buffers returned");
    }
}
