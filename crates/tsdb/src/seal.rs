//! Sealing and retention of compressed chunks — the
//! **cold** half of the store's two-phase shard lifecycle (DESIGN.md §16).
//!
//! Active runs are plain sorted `Vec<(u64, f64)>`s fed by the ingest
//! merge. Once a run crosses [`SEAL_THRESHOLD`], the store cuts
//! [`CHUNK_LEN`]-sample prefixes and rewrites them into immutable
//! Gorilla-compressed [`Chunk`]s; only a short mutable tail stays
//! uncompressed so late stragglers are still sorted into it.
//! Retention drops whole expired chunks without decompressing and
//! rewrites the one straddling chunk.
//!
//! Everything here runs under the store's write lock on maintenance
//! paths (seal points, retention sweeps) — never
//! per point — which is why this module, and only this module, keeps an
//! audited allocation exemption in `cargo xtask hotpath-check`.

use crate::compress::{Chunk, Sample};

/// Samples per sealed chunk. Large enough to amortise the per-chunk
/// header and give the delta-of-delta coder a long run; small enough
/// that a partially-expired chunk rewrite stays cheap.
pub(crate) const CHUNK_LEN: usize = 1024;

/// Active-run length that triggers sealing of full chunks. Four chunks
/// of slack keep the seal cost amortised to one compression pass per
/// `SEAL_THRESHOLD` appends.
pub(crate) const SEAL_THRESHOLD: usize = 4 * CHUNK_LEN;

/// Cut [`CHUNK_LEN`]-sample prefixes off `active` and append them to
/// `sealed` as compressed chunks, leaving the partial tail mutable.
/// With `force`, the tail seals too (used before snapshots of sealed
/// size and by retention-horizon flushes). Returns samples sealed.
pub(crate) fn seal_run(active: &mut Vec<Sample>, sealed: &mut Vec<Chunk>, force: bool) -> u64 {
    let full = (active.len() / CHUNK_LEN) * CHUNK_LEN;
    let take = if force { active.len() } else { full };
    if take == 0 {
        return 0;
    }
    for chunk_samples in active.get(..take).unwrap_or(&[]).chunks(CHUNK_LEN) {
        if let Some(chunk) = Chunk::compress(chunk_samples) {
            sealed.push(chunk);
        }
    }
    active.drain(..take);
    take as u64
}

/// Drop every sample older than `cutoff` from a sealed chunk list.
/// Wholly-expired chunks are dropped without decompressing; the single
/// chunk straddling the cutoff is decoded, filtered and re-sealed.
/// Returns how many samples were dropped.
pub(crate) fn retain_chunks(chunks: &mut Vec<Chunk>, cutoff: u64) -> u64 {
    let mut dropped = 0u64;
    // Chunks are time-ordered by construction; find the first chunk that
    // has anything to keep.
    let whole = chunks.partition_point(|c| c.end_ns() < cutoff);
    for c in chunks.drain(..whole) {
        dropped += c.count() as u64;
    }
    if let Some(first) = chunks.first() {
        if first.start_ns() < cutoff {
            let mut samples = Vec::new();
            first.decompress_into(&mut samples);
            let keep_from = samples.partition_point(|&(t, _)| t < cutoff);
            dropped += keep_from as u64;
            match Chunk::compress(samples.get(keep_from..).unwrap_or(&[])) {
                Some(rewritten) => {
                    if let Some(slot) = chunks.first_mut() {
                        *slot = rewritten;
                    }
                }
                None => {
                    chunks.remove(0);
                }
            }
        }
    }
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(n: u64) -> Vec<Sample> {
        (0..n).map(|i| (i * 1000, i as f64)).collect()
    }

    #[test]
    fn seal_leaves_partial_tail_active() {
        let mut active = run(CHUNK_LEN as u64 * 2 + 100);
        let mut sealed = Vec::new();
        let n = seal_run(&mut active, &mut sealed, false);
        assert_eq!(n, CHUNK_LEN as u64 * 2);
        assert_eq!(sealed.len(), 2);
        assert_eq!(active.len(), 100);
        // Sealed samples decode back exactly and in order.
        let decoded: Vec<Sample> = sealed.iter().flat_map(|c| c.iter()).collect();
        assert_eq!(decoded, run(CHUNK_LEN as u64 * 2));
    }

    #[test]
    fn forced_seal_takes_everything() {
        let mut active = run(10);
        let mut sealed = Vec::new();
        assert_eq!(seal_run(&mut active, &mut sealed, true), 10);
        assert!(active.is_empty());
        assert_eq!(sealed.len(), 1);
        assert_eq!(seal_run(&mut active, &mut sealed, true), 0);
    }

    #[test]
    fn retain_drops_whole_chunks_without_rewrite() {
        let mut active = run(CHUNK_LEN as u64 * 3);
        let mut sealed = Vec::new();
        seal_run(&mut active, &mut sealed, false);
        // Cutoff exactly at the second chunk boundary: first chunk wholly
        // expired, second chunk untouched.
        let cutoff = (CHUNK_LEN as u64) * 1000;
        let dropped = retain_chunks(&mut sealed, cutoff);
        assert_eq!(dropped, CHUNK_LEN as u64);
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.first().map(|c| c.start_ns()), Some(cutoff));
    }

    #[test]
    fn retain_rewrites_straddling_chunk() {
        let mut active = run(CHUNK_LEN as u64);
        let mut sealed = Vec::new();
        seal_run(&mut active, &mut sealed, true);
        let dropped = retain_chunks(&mut sealed, 500 * 1000);
        assert_eq!(dropped, 500);
        let decoded: Vec<Sample> = sealed.iter().flat_map(|c| c.iter()).collect();
        assert_eq!(decoded.len(), CHUNK_LEN - 500);
        assert_eq!(decoded.first().map(|&(t, _)| t), Some(500 * 1000));
    }

    #[test]
    fn retain_can_empty_the_list() {
        let mut active = run(100);
        let mut sealed = Vec::new();
        seal_run(&mut active, &mut sealed, true);
        assert_eq!(retain_chunks(&mut sealed, u64::MAX), 100);
        assert!(sealed.is_empty());
    }
}
