//! Prefetch staging for [`FlowTable`], the first stage of the trackers'
//! burst loops (DPDK `rte_hash_lookup_bulk`-style): every packet's home
//! bucket line is touched before any full probe runs, so the probe stage
//! runs against warmed lines.
//!
//! On x86_64 the staging issues real `prefetcht0` hints (DPDK's
//! `rte_prefetch0`), so the bucket/tag cache lines for the whole burst are
//! in flight before the first full probe executes, at the cost of one
//! no-fault hint instruction per probe. Elsewhere (and under Miri, which
//! does not model the intrinsic) it falls back to `core::hint::black_box`
//! forced loads — the compiler must materialize those, buying the same
//! memory-level parallelism portably.

use super::store::FlowTable;

impl<K: Eq, V> FlowTable<K, V> {
    /// Stage the home bucket of `hash` into cache. Cheap enough to call
    /// once per packet at the head of a burst loop.
    #[inline]
    pub(crate) fn prefetch(&self, hash: u32) {
        let b = self.home(hash);
        let (bucket, tag) = self.probe_lines(b);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            if let (Some(bucket), Some(tag)) = (bucket, tag) {
                // SAFETY: `_mm_prefetch` is a pure cache hint — it performs
                // no program-visible memory access and cannot fault even on
                // invalid addresses — and both pointers come from live
                // borrows of this table.
                unsafe {
                    _mm_prefetch::<_MM_HINT_T0>((bucket as *const u32).cast());
                    _mm_prefetch::<_MM_HINT_T0>((tag as *const u8).cast());
                }
            }
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        {
            // Forced loads of the bucket and tag lines; `black_box` keeps
            // the optimizer from discarding them. Tags are u8, so one line
            // covers the whole probe neighborhood.
            core::hint::black_box(bucket.copied());
            core::hint::black_box(tag.copied());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ruru_nic::Timestamp;

    fn h(k: u32) -> u32 {
        k.wrapping_mul(0x9e37_79b1)
    }

    #[test]
    fn prefetch_is_a_pure_read() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, u64::MAX);
        tbl.insert(h(1), 1, 1, Timestamp::ZERO);
        tbl.prefetch(h(1));
        tbl.prefetch(h(999)); // absent key: still fine
        assert_eq!(tbl.len(), 1);
        assert_eq!(tbl.get(h(1), &1), Some(&1));
    }
}
