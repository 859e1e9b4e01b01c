//! The open-addressing core of [`FlowTable`]: probe, insert with
//! backward-shift deletion, and the intrusive FIFO threaded through slab
//! links. Prefetch staging lives in the sibling `burst` module.
//!
//! Every method on the hot path is total: slab and bucket accesses go
//! through `get`/`get_mut` with benign fallbacks, probes are bounded by the
//! bucket count, and there is no indexing, division or unwrap anywhere —
//! `cargo xtask panic-check` roots here.

use super::InsertOutcome;
use ruru_nic::Timestamp;

/// Sentinel for "no slab slot": empty bucket, or end of a FIFO link.
const NIL: u32 = u32::MAX;

/// One slab entry. `prev`/`next` are the intrusive FIFO links (insertion
/// order, `NIL`-terminated); `hash` is retained so deletion can re-derive
/// the entry's home bucket without touching the key.
struct Slot<K, V> {
    key: K,
    value: V,
    hash: u32,
    inserted: Timestamp,
    prev: u32,
    next: u32,
}

/// What a combined duplicate-check/placement probe found.
enum Probe {
    /// The key is present, in this slab slot.
    Present,
    /// The key is absent; this is the first empty bucket on its chain.
    Vacant(usize),
    /// The probe wrapped the whole bucket array without finding an empty
    /// bucket. Unreachable while the ≤ 50 % load invariant holds; callers
    /// treat it as a dropped operation rather than a panic.
    Exhausted,
}

/// A bounded open-addressing hash table keyed by a caller-supplied 32-bit
/// hash (the trackers pass [`crate::key::FlowKey::table_hash`]), with FIFO
/// time-based expiry.
///
/// Collisions on the full 32-bit hash are resolved by comparing keys, so
/// correctness never depends on hash quality — only speed does. The caller
/// must present the *same* hash for the same key on every operation (the
/// trackers do: they hash the canonical key, whichever way the packet
/// travelled).
pub struct FlowTable<K, V> {
    /// 1-byte tags, parallel to `buckets`. Only meaningful where the
    /// bucket is occupied.
    tags: Box<[u8]>,
    /// Slab index per bucket, `NIL` when empty. Power-of-two length.
    buckets: Box<[u32]>,
    /// Entry storage. Capacity is reserved up front (never reallocated);
    /// the vector *grows* lazily toward it so constructing a large table
    /// doesn't write hundreds of megabytes of `None`s — pages are touched
    /// the first time a slot is used.
    slab: Vec<Option<Slot<K, V>>>,
    /// Stack of freed slab indices (capacity reserved up front); fresh
    /// slots come from growing `slab` until it reaches `capacity`.
    free: Vec<u32>,
    /// `buckets.len() - 1`, for masked probe arithmetic.
    mask: usize,
    capacity: usize,
    ttl_ns: u64,
    len: usize,
    /// Oldest entry (next to expire/evict), `NIL` when empty.
    head: u32,
    /// Newest entry, `NIL` when empty.
    tail: u32,
    evictions: u64,
    expirations: u64,
}

#[inline]
fn tag_of(hash: u32) -> u8 {
    // Top byte: independent of the low bits consumed by the bucket mask,
    // so entries sharing a bucket neighborhood still differ in tag.
    (hash >> 24) as u8
}

impl<K: Eq, V> FlowTable<K, V> {
    /// A table holding at most `capacity` entries, each expiring `ttl_ns`
    /// after insertion. All storage is allocated here, once.
    pub fn new(capacity: usize, ttl_ns: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            capacity < (u32::MAX as usize) / 2,
            "capacity must fit u32 slab indices"
        );
        // ≥ 2 × capacity buckets keeps load ≤ 50 %, which both bounds probe
        // lengths and guarantees every chain terminates at an empty bucket.
        let nbuckets = capacity
            .saturating_mul(2)
            .max(8)
            .next_power_of_two();
        FlowTable {
            tags: vec![0u8; nbuckets].into_boxed_slice(),
            buckets: vec![NIL; nbuckets].into_boxed_slice(),
            slab: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            mask: nbuckets - 1,
            capacity,
            ttl_ns,
            len: 0,
            head: NIL,
            tail: NIL,
            evictions: 0,
            expirations: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no live entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Maximum number of live entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries force-evicted due to capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Entries removed by TTL expiry.
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// The home bucket of a hash.
    #[inline]
    pub(super) fn home(&self, hash: u32) -> usize {
        (hash as usize) & self.mask
    }

    /// The slab index stored in bucket `b` (`NIL` if empty or out of
    /// range — the latter cannot happen with masked indices).
    #[inline]
    pub(super) fn bucket(&self, b: usize) -> u32 {
        self.buckets.get(b).copied().unwrap_or(NIL)
    }

    #[inline]
    pub(super) fn tag_at(&self, b: usize) -> u8 {
        self.tags.get(b).copied().unwrap_or(0)
    }

    /// Borrow the bucket and tag cells at `b`, for prefetch staging.
    #[inline]
    pub(super) fn probe_lines(&self, b: usize) -> (Option<&u32>, Option<&u8>) {
        (self.buckets.get(b), self.tags.get(b))
    }

    #[inline]
    fn set_bucket(&mut self, b: usize, slot: u32, tag: u8) {
        if let Some(cell) = self.buckets.get_mut(b) {
            *cell = slot;
        }
        if let Some(cell) = self.tags.get_mut(b) {
            *cell = tag;
        }
    }

    #[inline]
    fn slot(&self, s: u32) -> Option<&Slot<K, V>> {
        self.slab.get(s as usize).and_then(|o| o.as_ref())
    }

    #[inline]
    fn slot_mut(&mut self, s: u32) -> Option<&mut Slot<K, V>> {
        self.slab.get_mut(s as usize).and_then(|o| o.as_mut())
    }

    /// Find the key's bucket and slab slot, tag-filtered linear probe.
    fn find(&self, hash: u32, key: &K) -> Option<(usize, u32)> {
        let tag = tag_of(hash);
        let mut b = self.home(hash);
        // Bounded by the bucket count for totality; in practice the ≤ 50 %
        // load factor ends every chain at an empty bucket much sooner.
        for _ in 0..=self.mask {
            let s = self.bucket(b);
            if s == NIL {
                // account-ok: probe miss — the key is not in the table; the
                // caller decides what a miss means and accounts there.
                return None;
            }
            if self.tag_at(b) == tag {
                if let Some(slot) = self.slot(s) {
                    if slot.hash == hash && slot.key == *key {
                        return Some((b, s));
                    }
                }
            }
            b = b.wrapping_add(1) & self.mask;
        }
        None
    }

    /// Combined duplicate-check / placement probe for insert.
    fn probe(&self, hash: u32, key: &K) -> Probe {
        let tag = tag_of(hash);
        let mut b = self.home(hash);
        for _ in 0..=self.mask {
            let s = self.bucket(b);
            if s == NIL {
                return Probe::Vacant(b);
            }
            if self.tag_at(b) == tag {
                if let Some(slot) = self.slot(s) {
                    if slot.hash == hash && slot.key == *key {
                        return Probe::Present;
                    }
                }
            }
            b = b.wrapping_add(1) & self.mask;
        }
        Probe::Exhausted
    }

    /// Insert `value` under `(hash, key)` at time `now` if absent. Never
    /// replaces an existing entry (the tracker keeps the *first* SYN
    /// timestamp). At capacity the oldest entry is evicted first.
    pub fn insert(&mut self, hash: u32, key: K, value: V, now: Timestamp) -> InsertOutcome {
        let mut evicted = false;
        let bucket = match self.probe(hash, &key) {
            Probe::Present => return InsertOutcome::AlreadyPresent,
            Probe::Vacant(b) => {
                if self.len >= self.capacity {
                    evicted = self.evict_oldest();
                    // The eviction's backward shift may have compacted a
                    // displaced entry into `b`; re-probe for the hole the
                    // removal opened.
                    match self.probe(hash, &key) {
                        Probe::Vacant(b2) => b2,
                        // Unreachable: the key was absent and eviction only
                        // removes entries. Dropping the insert keeps the
                        // path total.
                        Probe::Present | Probe::Exhausted => {
                            return InsertOutcome::AlreadyPresent
                        }
                    }
                } else {
                    b
                }
            }
            // Unreachable at ≤ 50 % load; drop rather than abort.
            Probe::Exhausted => return InsertOutcome::AlreadyPresent,
        };
        let Some(slot_idx) = self.alloc_slot() else {
            // Unreachable: len < capacity ⇒ a fresh or freed slot exists.
            return InsertOutcome::AlreadyPresent;
        };
        self.set_bucket(bucket, slot_idx, tag_of(hash));
        if let Some(cell) = self.slab.get_mut(slot_idx as usize) {
            *cell = Some(Slot {
                key,
                value,
                hash,
                inserted: now,
                prev: self.tail,
                next: NIL,
            });
        }
        // FIFO: append at the tail (newest).
        let old_tail = self.tail;
        if old_tail == NIL {
            self.head = slot_idx;
        } else if let Some(t) = self.slot_mut(old_tail) {
            t.next = slot_idx;
        }
        self.tail = slot_idx;
        self.len = self.len.saturating_add(1);
        if evicted {
            InsertOutcome::InsertedWithEviction
        } else {
            InsertOutcome::Inserted
        }
    }

    /// Hand out a slab slot: a previously freed one, else a fresh one
    /// grown within the reserved capacity (no reallocation, ever).
    /// `None` only if every slot is live — callers evict first.
    fn alloc_slot(&mut self) -> Option<u32> {
        if let Some(s) = self.free.pop() {
            return Some(s);
        }
        if self.slab.len() < self.capacity {
            self.slab.push(None);
            return Some(self.slab.len().saturating_sub(1) as u32);
        }
        None
    }

    /// Get the live entry for `(hash, key)`.
    pub fn get(&self, hash: u32, key: &K) -> Option<&V> {
        // account-ok: lookup miss propagation; no record is held here.
        let (_, s) = self.find(hash, key)?;
        self.slot(s).map(|slot| &slot.value)
    }

    /// Get a mutable reference to the live entry for `(hash, key)`.
    pub fn get_mut(&mut self, hash: u32, key: &K) -> Option<&mut V> {
        // account-ok: lookup miss propagation; no record is held here.
        let (_, s) = self.find(hash, key)?;
        self.slot_mut(s).map(|slot| &mut slot.value)
    }

    /// When the live entry for `(hash, key)` was inserted.
    pub fn inserted_at(&self, hash: u32, key: &K) -> Option<Timestamp> {
        let (_, s) = self.find(hash, key)?;
        self.slot(s).map(|slot| slot.inserted)
    }

    /// Remove and return the entry for `(hash, key)`.
    pub fn remove(&mut self, hash: u32, key: &K) -> Option<V> {
        // account-ok: removing an absent key is a no-op, not a loss.
        let (_, s) = self.find(hash, key)?;
        // account-ok: `find` just returned `s`, so detach cannot miss; the
        // detached value is returned to the caller either way.
        let slot = self.detach(s)?;
        self.free.push(s);
        Some(slot.value)
    }

    /// Drop the oldest live entry; returns whether anything was evicted.
    fn evict_oldest(&mut self) -> bool {
        let s = self.head;
        if s == NIL {
            return false;
        }
        if self.detach(s).is_some() {
            self.free.push(s);
            self.evictions = self.evictions.saturating_add(1);
            true
        } else {
            false
        }
    }

    /// Remove all entries older than the TTL at time `now`, invoking
    /// `on_expire` for each in insertion (= expiry) order.
    pub fn expire(&mut self, now: Timestamp, mut on_expire: impl FnMut(K, V)) {
        loop {
            let s = self.head;
            if s == NIL {
                return;
            }
            // A missing head slot would be a broken invariant; treating it
            // as "not old enough" terminates rather than loops.
            let old_enough = self
                .slot(s)
                .is_some_and(|slot| now.saturating_nanos_since(slot.inserted) >= self.ttl_ns);
            if !old_enough {
                return;
            }
            let Some(slot) = self.detach(s) else {
                return;
            };
            self.free.push(s);
            self.expirations = self.expirations.saturating_add(1);
            on_expire(slot.key, slot.value);
        }
    }

    /// Iterate over live `(key, value)` pairs (arbitrary order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.slab
            .iter()
            .filter_map(|o| o.as_ref())
            .map(|slot| (&slot.key, &slot.value))
    }

    /// Unlink slab slot `s` from the bucket array (backward-shift) and the
    /// FIFO list, take it out of the slab, and decrement `len`. Does NOT
    /// push `s` onto the free stack — callers do, so eviction can reuse the
    /// slot directly.
    fn detach(&mut self, s: u32) -> Option<Slot<K, V>> {
        let (hash, prev, next) = {
            // account-ok: detaching an already-vacant slot is a no-op.
            let slot = self.slot(s)?;
            (slot.hash, slot.prev, slot.next)
        };
        self.delete_bucket_of(hash, s);
        // FIFO unlink: O(1), no scanning, no generations.
        if prev == NIL {
            self.head = next;
        } else if let Some(p) = self.slot_mut(prev) {
            p.next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else if let Some(n) = self.slot_mut(next) {
            n.prev = prev;
        }
        let slot = self.slab.get_mut(s as usize).and_then(|o| o.take());
        self.len = self.len.saturating_sub(1);
        slot
    }

    /// Clear the bucket pointing at slab slot `s`, then backward-shift the
    /// probe chain so it stays gapless (no tombstones).
    fn delete_bucket_of(&mut self, hash: u32, s: u32) {
        // Locate the bucket holding `s` by probing from the hash's home.
        let mut b = self.home(hash);
        let mut found = false;
        for _ in 0..=self.mask {
            let cur = self.bucket(b);
            if cur == s {
                found = true;
                // account-ok: probe-loop exit on success; bucket bookkeeping
                // only, no record is held.
                break;
            }
            if cur == NIL {
                // account-ok: chain ended without `s`: nothing to clear.
                break;
            }
            b = b.wrapping_add(1) & self.mask;
        }
        if !found {
            return;
        }
        // Backward-shift deletion (Knuth 6.4 algorithm R): repeatedly pull
        // the next entry whose home bucket is at or before the hole into
        // the hole. An entry at bucket `j` with home `k` may fill hole `i`
        // iff its probe distance covers the hole:
        //   (j - k) mod nbuckets >= (j - i) mod nbuckets.
        let mut i = b;
        let mut j = b;
        loop {
            self.set_bucket(i, NIL, 0);
            loop {
                j = j.wrapping_add(1) & self.mask;
                let cur = self.bucket(j);
                if cur == NIL {
                    return; // chain ended: hole is final
                }
                let home = self.slot(cur).map_or(j, |slot| self.home(slot.hash));
                let dist_to_hole = j.wrapping_sub(i) & self.mask;
                let dist_from_home = j.wrapping_sub(home) & self.mask;
                if dist_from_home >= dist_to_hole {
                    // account-ok: backward-shift scan exit — the entry moves
                    // buckets; nothing is deleted here.
                    break;
                }
            }
            let (moved, tag) = (self.bucket(j), self.tag_at(j));
            self.set_bucket(i, moved, tag);
            i = j;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Timestamp {
        Timestamp::from_micros(us)
    }

    /// A well-spread test hash.
    fn h(k: u32) -> u32 {
        k.wrapping_mul(0x9e37_79b1)
    }

    #[test]
    fn insert_get_remove() {
        let mut tbl: FlowTable<u32, &str> = FlowTable::new(4, 1_000_000);
        assert_eq!(tbl.insert(h(1), 1, "a", t(0)), InsertOutcome::Inserted);
        assert_eq!(tbl.get(h(1), &1), Some(&"a"));
        assert_eq!(tbl.inserted_at(h(1), &1), Some(t(0)));
        *tbl.get_mut(h(1), &1).unwrap() = "b";
        assert_eq!(tbl.remove(h(1), &1), Some("b"));
        assert_eq!(tbl.get(h(1), &1), None);
        assert!(tbl.is_empty());
    }

    #[test]
    fn duplicate_insert_keeps_first() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(4, 1_000_000);
        tbl.insert(h(1), 1, 100, t(0));
        assert_eq!(tbl.insert(h(1), 1, 200, t(1)), InsertOutcome::AlreadyPresent);
        assert_eq!(tbl.get(h(1), &1), Some(&100));
        assert_eq!(tbl.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(2, u64::MAX);
        tbl.insert(h(1), 1, 1, t(0));
        tbl.insert(h(2), 2, 2, t(1));
        assert_eq!(
            tbl.insert(h(3), 3, 3, t(2)),
            InsertOutcome::InsertedWithEviction
        );
        assert_eq!(tbl.len(), 2);
        assert_eq!(tbl.get(h(1), &1), None, "oldest evicted");
        assert_eq!(tbl.get(h(2), &2), Some(&2));
        assert_eq!(tbl.get(h(3), &3), Some(&3));
        assert_eq!(tbl.evictions(), 1);
    }

    #[test]
    fn eviction_follows_live_fifo_order() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(2, u64::MAX);
        tbl.insert(h(1), 1, 1, t(0));
        tbl.insert(h(2), 2, 2, t(1));
        tbl.remove(h(1), &1); // unlinks in O(1); no stale front to skip
        tbl.insert(h(3), 3, 3, t(2)); // no eviction needed: len was 1
        assert_eq!(tbl.len(), 2);
        // Next insert must evict key 2 (the oldest live entry).
        tbl.insert(h(4), 4, 4, t(3));
        assert_eq!(tbl.get(h(2), &2), None);
        assert_eq!(tbl.get(h(3), &3), Some(&3));
        assert_eq!(tbl.evictions(), 1);
    }

    #[test]
    fn expiry_removes_old_entries_in_order() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, 1_000); // 1 µs TTL
        tbl.insert(h(1), 1, 1, Timestamp::from_nanos(0));
        tbl.insert(h(2), 2, 2, Timestamp::from_nanos(500));
        tbl.insert(h(3), 3, 3, Timestamp::from_nanos(1500));
        let mut expired = Vec::new();
        tbl.expire(Timestamp::from_nanos(1600), |k, v| expired.push((k, v)));
        assert_eq!(expired, vec![(1, 1), (2, 2)]);
        assert_eq!(tbl.len(), 1);
        assert_eq!(tbl.expirations(), 2);
        tbl.expire(Timestamp::from_nanos(2500), |k, _| expired.push((k, 0)));
        assert_eq!(expired.last(), Some(&(3, 0)));
        assert!(tbl.is_empty());
    }

    #[test]
    fn expire_skips_removed_entries() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, 1_000);
        tbl.insert(h(1), 1, 1, t(0));
        tbl.remove(h(1), &1);
        let mut count = 0;
        tbl.expire(t(10), |_, _| count += 1);
        assert_eq!(count, 0);
        assert_eq!(tbl.expirations(), 0);
    }

    #[test]
    fn reinsert_after_remove_expires_at_new_time() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, 1_000);
        tbl.insert(h(1), 1, 1, Timestamp::from_nanos(0));
        tbl.remove(h(1), &1);
        tbl.insert(h(1), 1, 2, Timestamp::from_nanos(900));
        let mut expired = Vec::new();
        tbl.expire(Timestamp::from_nanos(1000), |k, v| expired.push((k, v)));
        assert!(expired.is_empty());
        assert_eq!(tbl.get(h(1), &1), Some(&2));
        tbl.expire(Timestamp::from_nanos(1900), |k, v| expired.push((k, v)));
        assert_eq!(expired, vec![(1, 2)]);
    }

    #[test]
    fn iter_visits_live_entries() {
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, 1_000);
        tbl.insert(h(1), 1, 10, t(0));
        tbl.insert(h(2), 2, 20, t(0));
        tbl.remove(h(1), &1);
        let mut items: Vec<(u32, u32)> = tbl.iter().map(|(k, v)| (*k, *v)).collect();
        items.sort_unstable();
        assert_eq!(items, vec![(2, 20)]);
    }

    #[test]
    fn flood_is_bounded() {
        let mut tbl: FlowTable<u32, ()> = FlowTable::new(1000, u64::MAX);
        for i in 0..100_000u32 {
            tbl.insert(h(i), i, (), t(i as u64));
        }
        assert_eq!(tbl.len(), 1000);
        assert_eq!(tbl.evictions(), 99_000);
        assert!(tbl.get(h(99_999), &99_999).is_some());
        assert!(tbl.get(h(0), &0).is_none());
    }

    #[test]
    fn full_hash_collisions_resolved_by_key_compare() {
        // Same 32-bit hash, different keys: worst case for any tag scheme.
        const H: u32 = 0x4242_4242;
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, u64::MAX);
        for k in 0..5u32 {
            assert_eq!(tbl.insert(H, k, k * 10, t(k as u64)), InsertOutcome::Inserted);
        }
        for k in 0..5u32 {
            assert_eq!(tbl.get(H, &k), Some(&(k * 10)));
        }
        // Remove from the middle of the probe chain; the backward shift
        // must keep the rest findable.
        assert_eq!(tbl.remove(H, &2), Some(20));
        for k in [0u32, 1, 3, 4] {
            assert_eq!(tbl.get(H, &k), Some(&(k * 10)), "key {k} after shift");
        }
        assert_eq!(tbl.get(H, &2), None);
    }

    #[test]
    fn backward_shift_survives_wrapping_chains() {
        // Hashes that all land on the last bucket force the probe chain to
        // wrap around the array end, exercising the modular distance math.
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(8, u64::MAX);
        let nbuckets = 16u32; // capacity 8 → 16 buckets
        let last = nbuckets - 1;
        // Distinct hashes, same home bucket (differ above the mask).
        let hs: Vec<u32> = (0..5u32).map(|i| last | (i << 8)).collect();
        for (k, &hh) in hs.iter().enumerate() {
            tbl.insert(hh, k as u32, k as u32, t(k as u64));
        }
        // Delete the chain head; everyone shifts back across the wrap.
        assert_eq!(tbl.remove(hs[0], &0), Some(0));
        for (k, &hh) in hs.iter().enumerate().skip(1) {
            assert_eq!(tbl.get(hh, &(k as u32)), Some(&(k as u32)));
        }
        // And a fresh insert reuses the reclaimed space.
        assert_eq!(tbl.insert(last, 99, 99, t(9)), InsertOutcome::Inserted);
        assert_eq!(tbl.get(last, &99), Some(&99));
    }

    #[test]
    fn interleaved_churn_keeps_table_consistent() {
        // Insert/remove churn at full capacity with a deliberately poor
        // hash (many collisions) — shapes the SYN-flood case E9 measures.
        let mut tbl: FlowTable<u32, u32> = FlowTable::new(64, u64::MAX);
        let bad_hash = |k: u32| (k & 7).wrapping_mul(0x0101_0101);
        for k in 0..64u32 {
            tbl.insert(bad_hash(k), k, k, t(k as u64));
        }
        assert_eq!(tbl.len(), 64);
        for k in (0..64u32).step_by(2) {
            assert_eq!(tbl.remove(bad_hash(k), &k), Some(k));
        }
        for k in (1..64u32).step_by(2) {
            assert_eq!(tbl.get(bad_hash(k), &k), Some(&k), "odd key {k} survives");
        }
        for k in 64..96u32 {
            assert_eq!(tbl.insert(bad_hash(k), k, k, t(k as u64)), InsertOutcome::Inserted);
        }
        assert_eq!(tbl.len(), 64);
        for k in 64..96u32 {
            assert_eq!(tbl.get(bad_hash(k), &k), Some(&k));
        }
    }

    #[test]
    fn table_hash_keeps_probes_short_at_full_load() {
        use crate::key::FlowKey;
        use rand::{Rng, SeedableRng};
        use ruru_wire::{ipv4, ipv6, IpAddress};

        const CAPACITY: usize = 1 << 20;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let mut tbl: FlowTable<FlowKey, ()> = FlowTable::new(CAPACITY, u64::MAX);
        for i in 0..CAPACITY {
            let (src, dst) = if i % 2 == 0 {
                let v4 = |x: u32| IpAddress::V4(ipv4::Address::from_u32(x));
                (v4(rng.gen()), v4(rng.gen()))
            } else {
                let v6 = |x: u128| IpAddress::V6(ipv6::Address(x.to_be_bytes()));
                (v6(rng.gen()), v6(rng.gen()))
            };
            let (key, _) = FlowKey::from_tuple(src, dst, rng.gen(), rng.gen());
            tbl.insert(key.table_hash(), key, (), t(0));
        }
        assert_eq!(tbl.len(), CAPACITY);
        // A successful lookup of the entry in bucket `b` probes every
        // bucket from its home through `b`.
        let mut probes = 0usize;
        for (b, &s) in tbl.buckets.iter().enumerate() {
            if let Some(slot) = tbl.slot(s) {
                probes += (b.wrapping_sub(tbl.home(slot.hash)) & tbl.mask) + 1;
            }
        }
        let mean = probes as f64 / CAPACITY as f64;
        assert!(mean <= 2.0, "mean successful probe length {mean:.3}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = FlowTable::<u8, u8>::new(0, 1);
    }
}
