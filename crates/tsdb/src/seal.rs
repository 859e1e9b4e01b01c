//! Sealing and retention of compressed chunks — the
//! **cold** half of the store's two-phase shard lifecycle (DESIGN.md §16).
//!
//! A block's active tail is a sorted timestamp column plus one value
//! column per field, fed by the ingest merge. As soon as the tail holds
//! [`CHUNK_LEN`] rows, the merge cuts whole `CHUNK_LEN`-row prefixes off
//! it and rewrites them into immutable Gorilla-compressed [`Chunk`]s that
//! code the timestamps once for all columns; only the partial tail stays
//! uncompressed, so late stragglers are still sorted into it.
//! Retention drops whole expired chunks without decompressing and
//! rewrites a chunk straddling the cutoff.
//!
//! Everything here runs under the store's write lock on maintenance
//! paths (seal points, retention sweeps) — never
//! per point — which is why this module, and only this module, keeps an
//! audited allocation exemption in `cargo xtask hotpath-check`.

use crate::compress::Chunk;

/// Rows per sealed chunk, and the tail length that seals one. Large
/// enough to amortise the per-chunk header and give the delta-of-delta
/// coder a long run; small enough that a partially-expired chunk
/// rewrite stays cheap.
pub(crate) const CHUNK_LEN: usize = 1024;

/// Cut whole [`CHUNK_LEN`]-row prefixes off a block's active tail (`ts`
/// and its value columns `cols`) and append them to `sealed` as
/// compressed chunks, leaving the partial tail mutable. With `force`,
/// the tail seals too (retention-horizon flushes, snapshot sizing,
/// benchmarks). Returns rows sealed.
pub(crate) fn seal_rows(
    ts: &mut Vec<u64>,
    cols: &mut [Vec<f64>],
    sealed: &mut Vec<Chunk>,
    force: bool,
) -> u64 {
    let take = if force {
        ts.len()
    } else {
        ts.len() / CHUNK_LEN * CHUNK_LEN
    };
    if take == 0 {
        return 0;
    }
    for from in (0..take).step_by(CHUNK_LEN) {
        sealed.extend(Chunk::compress(ts, cols, from..take.min(from + CHUNK_LEN)));
    }
    ts.drain(..take);
    for col in cols {
        col.drain(..take);
    }
    take as u64
}

/// Drop every row older than `cutoff` from a block's sealed chunk list.
/// Wholly-expired chunks are dropped without decompressing; a chunk
/// straddling the cutoff is decoded, filtered and re-sealed. Chunks are
/// visited one by one: stragglers sealed after newer rows can leave them
/// out of time order. Returns how many rows were dropped.
pub(crate) fn retain_chunks(chunks: &mut Vec<Chunk>, columns: usize, cutoff: u64) -> u64 {
    let mut dropped = 0u64;
    chunks.retain_mut(|chunk| {
        if chunk.end_ns() < cutoff {
            dropped += chunk.rows() as u64;
            return false;
        }
        if chunk.start_ns() >= cutoff {
            return true;
        }
        let mut ts = Vec::new();
        let mut cols = vec![Vec::new(); columns];
        chunk.decompress_into(&mut ts, &mut cols);
        let keep_from = ts.partition_point(|&t| t < cutoff);
        dropped += keep_from as u64;
        match Chunk::compress(&ts, &cols, keep_from..ts.len()) {
            Some(rewritten) => {
                *chunk = rewritten;
                true
            }
            None => false,
        }
    });
    dropped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::Sample;

    /// A two-column tail of `n` rows: `(i * 1000, i, -i)`.
    fn tail(n: u64) -> (Vec<u64>, Vec<Vec<f64>>) {
        let ts = (0..n).map(|i| i * 1000).collect();
        let cols = vec![(0..n).map(|i| i as f64).collect(), (0..n).map(|i| -(i as f64)).collect()];
        (ts, cols)
    }

    fn decoded(sealed: &[Chunk], col: usize) -> Vec<Sample> {
        sealed.iter().flat_map(|c| c.iter(col)).collect()
    }

    #[test]
    fn seal_leaves_partial_tail_active() {
        let (mut ts, mut cols) = tail(CHUNK_LEN as u64 * 2 + 100);
        let mut sealed = Vec::new();
        let n = seal_rows(&mut ts, &mut cols, &mut sealed, false);
        assert_eq!(n, CHUNK_LEN as u64 * 2);
        assert_eq!(sealed.len(), 2);
        assert_eq!(ts.len(), 100);
        assert!(cols.iter().all(|c| c.len() == 100));
        assert_eq!(ts.first(), Some(&(CHUNK_LEN as u64 * 2 * 1000)));
        // Sealed rows decode back exactly and in order, every column.
        let (want_ts, want_cols) = tail(CHUNK_LEN as u64 * 2);
        for (c, want) in want_cols.iter().enumerate() {
            let want: Vec<Sample> = want_ts.iter().copied().zip(want.iter().copied()).collect();
            assert_eq!(decoded(&sealed, c), want);
        }
    }

    #[test]
    fn forced_seal_takes_everything() {
        let (mut ts, mut cols) = tail(10);
        let mut sealed = Vec::new();
        assert_eq!(seal_rows(&mut ts, &mut cols, &mut sealed, true), 10);
        assert!(ts.is_empty() && cols.iter().all(Vec::is_empty));
        assert_eq!(sealed.len(), 1);
        assert_eq!(seal_rows(&mut ts, &mut cols, &mut sealed, true), 0);
    }

    #[test]
    fn retain_drops_whole_chunks_without_rewrite() {
        let (mut ts, mut cols) = tail(CHUNK_LEN as u64 * 3);
        let mut sealed = Vec::new();
        seal_rows(&mut ts, &mut cols, &mut sealed, false);
        // Cutoff exactly at the second chunk boundary: first chunk wholly
        // expired, second chunk untouched.
        let cutoff = (CHUNK_LEN as u64) * 1000;
        let dropped = retain_chunks(&mut sealed, 2, cutoff);
        assert_eq!(dropped, CHUNK_LEN as u64);
        assert_eq!(sealed.len(), 2);
        assert_eq!(sealed.first().map(|c| c.start_ns()), Some(cutoff));
    }

    #[test]
    fn retain_rewrites_straddling_chunk() {
        let (mut ts, mut cols) = tail(CHUNK_LEN as u64);
        let mut sealed = Vec::new();
        seal_rows(&mut ts, &mut cols, &mut sealed, true);
        let dropped = retain_chunks(&mut sealed, 2, 500 * 1000);
        assert_eq!(dropped, 500);
        for c in 0..2 {
            let rows = decoded(&sealed, c);
            assert_eq!(rows.len(), CHUNK_LEN - 500);
            assert_eq!(rows.first().map(|&(t, _)| t), Some(500 * 1000));
        }
        assert_eq!(decoded(&sealed, 1).first().map(|&(_, v)| v), Some(-500.0));
    }

    #[test]
    fn retain_can_empty_the_list() {
        let (mut ts, mut cols) = tail(100);
        let mut sealed = Vec::new();
        seal_rows(&mut ts, &mut cols, &mut sealed, true);
        assert_eq!(retain_chunks(&mut sealed, 2, u64::MAX), 100);
        assert!(sealed.is_empty());
    }
}
