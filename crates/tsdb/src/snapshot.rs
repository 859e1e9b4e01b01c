//! Snapshot persistence.
//!
//! InfluxDB's role in Ruru is *"long-term storage"* — the store must
//! survive process restarts. [`TsDb::to_snapshot`] serializes the whole
//! database to a compact binary image; [`TsDb::from_snapshot`] restores it.
//! The format is self-describing and versioned.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic "RTSDB1"
//! u32 measurement_count
//!   per measurement: str name, u32 series_count
//!     per series: u32 tag_count, (str key, str value)*,
//!                 u32 field_count,
//!       per field: str name, u64 sample_count, (u64 ts, f64 value)*
//! ```

use crate::point::series_key;
use crate::sharded::IngestShard;
use crate::store::{Block, Series, TsDb};

const MAGIC: &[u8; 6] = b"RTSDB1";

/// Errors from snapshot decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Wrong magic or truncated image.
    Corrupt(&'static str),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let s = self
            .data
            .get(self.at..)
            .and_then(|rest| rest.get(..n))
            .ok_or(SnapshotError::Corrupt("truncated"))?;
        self.at = self.at.saturating_add(n);
        Ok(s)
    }
    fn chunk<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        match self.take(N)?.first_chunk::<N>() {
            Some(c) => Ok(*c),
            None => Err(SnapshotError::Corrupt("truncated")),
        }
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.chunk()?))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.chunk()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_le_bytes(self.chunk()?))
    }
    fn string(&mut self) -> Result<String, SnapshotError> {
        let len = self.u32()? as usize;
        if len > 1 << 24 {
            return Err(SnapshotError::Corrupt("absurd string length"));
        }
        let b = self.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapshotError::Corrupt("bad utf8"))
    }
}

impl TsDb {
    /// Serialize the whole database to a binary snapshot.
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        let dump = self.dump_for_snapshot();
        out.extend_from_slice(&(dump.len() as u32).to_le_bytes());
        for (measurement, series_list) in dump {
            put_str(&mut out, &measurement);
            out.extend_from_slice(&(series_list.len() as u32).to_le_bytes());
            for (tags, fields) in series_list {
                out.extend_from_slice(&(tags.len() as u32).to_le_bytes());
                for (k, v) in &tags {
                    put_str(&mut out, k);
                    put_str(&mut out, v);
                }
                out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
                for (name, samples) in fields {
                    put_str(&mut out, &name);
                    out.extend_from_slice(&(samples.len() as u64).to_le_bytes());
                    for (ts, v) in samples {
                        out.extend_from_slice(&ts.to_le_bytes());
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Restore a database from a snapshot image. Fields of a series whose
    /// timestamp runs are equal become the columns of one block; each
    /// series' blocks go into one ingest shard whole and the shard is
    /// merged once, where the stable sort by timestamp keeps ties in
    /// their stored order. A series counts as many ingested points as its
    /// longest field run.
    pub fn from_snapshot(data: &[u8]) -> Result<TsDb, SnapshotError> {
        let mut c = Cursor { data, at: 0 };
        if c.take(6)? != MAGIC {
            return Err(SnapshotError::Corrupt("bad magic"));
        }
        let mut shard = IngestShard::default();
        let mut key = String::new();
        let n_measurements = c.u32()?;
        for _ in 0..n_measurements {
            let measurement = c.string()?;
            let series_map = shard.measurements.entry(measurement.clone()).or_default();
            let n_series = c.u32()?;
            for _ in 0..n_series {
                let n_tags = c.u32()?;
                let mut tags = Vec::new();
                for _ in 0..n_tags {
                    let k = c.string()?;
                    let v = c.string()?;
                    tags.push((k, v));
                }
                tags.sort_by(|a, b| a.0.cmp(&b.0));
                let mut series = Series {
                    tags,
                    ..Series::default()
                };
                let mut rows = 0;
                let n_fields = c.u32()?;
                for _ in 0..n_fields {
                    let field = c.string()?;
                    let n_samples = c.u64()?;
                    if n_samples > 1 << 40 {
                        return Err(SnapshotError::Corrupt("absurd sample count"));
                    }
                    rows = rows.max(n_samples);
                    let (mut ts, mut col) = (Vec::new(), Vec::new());
                    for _ in 0..n_samples {
                        ts.push(c.u64()?);
                        col.push(c.f64()?);
                    }
                    if series.blocks.iter().any(|b| b.names.contains(&field)) {
                        return Err(SnapshotError::Corrupt("duplicate field"));
                    }
                    match series.blocks.iter_mut().find(|b| b.ts == ts) {
                        Some(block) => {
                            block.names.push(field);
                            block.cols.push(col);
                        }
                        None => series.blocks.push(Block::new(vec![field], ts, vec![col])),
                    }
                }
                series_key(&measurement, &series.tags, &mut key);
                if series_map.insert(key.clone(), series).is_some() {
                    return Err(SnapshotError::Corrupt("duplicate series"));
                }
                shard.points += rows;
            }
        }
        if c.at != data.len() {
            return Err(SnapshotError::Corrupt("trailing bytes"));
        }
        let db = TsDb::new();
        db.merge_shard(shard);
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::store::Query;

    fn seeded() -> TsDb {
        let db = TsDb::new();
        for i in 0..100u64 {
            db.write(&Point::new(
                "latency",
                vec![("city".into(), if i % 2 == 0 { "akl" } else { "lax" }.into())],
                vec![("total_ms".into(), 100.0 + i as f64), ("int_ms".into(), 1.0)],
                i * 1000,
            ));
        }
        db.write(&Point::new("other", vec![], vec![("x".into(), 5.0)], 7));
        db
    }

    #[test]
    fn snapshot_roundtrip_preserves_queries() {
        let db = seeded();
        let image = db.to_snapshot();
        let restored = TsDb::from_snapshot(&image).unwrap();
        for (measurement, field) in [("latency", "total_ms"), ("latency", "int_ms"), ("other", "x")] {
            let q = Query::range(measurement, field, 0, u64::MAX);
            let a = db.query(&q)[0].agg;
            let b = restored.query(&q)[0].agg;
            assert_eq!(a, b, "{measurement}/{field}");
        }
        // Tag-filtered query too.
        let q = Query::range("latency", "total_ms", 0, u64::MAX).with_tag("city", "akl");
        assert_eq!(db.query(&q)[0].agg, restored.query(&q)[0].agg);
        assert_eq!(restored.series_count("latency"), 2);
        // One ingested point per stored row, not per field sample.
        assert_eq!(restored.points_ingested(), db.points_ingested());
    }

    #[test]
    fn restore_shares_one_timestamp_column_per_field_list() {
        let db = seeded();
        db.write(&Point::new(
            "latency",
            vec![("city".into(), "akl".into())],
            vec![("total_ms".into(), 1.0)],
            5,
        ));
        let image = db.to_snapshot();
        let restored = TsDb::from_snapshot(&image).unwrap();
        // `lax` has one field list; `akl` has two, whose `total_ms` runs
        // differ from its `int_ms` run; `other` has one.
        assert_eq!(restored.block_count(), 4);
        assert_eq!(restored.storage_stats(), {
            let mut s = db.storage_stats();
            s.active_points += s.sealed_points;
            s.sealed_points = 0;
            s.sealed_bytes = 0;
            s
        });
        // Re-dumping the restored store gives back the same image, and new
        // writes in the original field order join the restored block.
        assert_eq!(restored.to_snapshot(), image);
        restored.write(&Point::new(
            "latency",
            vec![("city".into(), "lax".into())],
            vec![("total_ms".into(), 7.0), ("int_ms".into(), 1.0)],
            1_000_000,
        ));
        assert_eq!(restored.block_count(), 4);
        let lax = Query::range("latency", "int_ms", 0, u64::MAX).with_tag("city", "lax");
        assert_eq!(restored.query(&lax)[0].agg.map(|a| a.count), Some(51));
    }

    #[test]
    fn empty_db_roundtrips() {
        let db = TsDb::new();
        let restored = TsDb::from_snapshot(&db.to_snapshot()).unwrap();
        assert_eq!(restored.series_count("anything"), 0);
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let db = seeded();
        let image = db.to_snapshot();
        assert!(TsDb::from_snapshot(&image[..image.len() - 3]).is_err());
        assert!(TsDb::from_snapshot(&[]).is_err());
        let mut bad = image.clone();
        bad[0] = b'X';
        assert_eq!(
            TsDb::from_snapshot(&bad).err(),
            Some(SnapshotError::Corrupt("bad magic"))
        );
        // A corrupt tag count is an error, not a huge allocation.
        let mut huge = MAGIC.to_vec();
        huge.extend_from_slice(&1u32.to_le_bytes());
        put_str(&mut huge, "m");
        huge.extend_from_slice(&1u32.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            TsDb::from_snapshot(&huge).err(),
            Some(SnapshotError::Corrupt("truncated"))
        );
        let mut trailing = image.clone();
        trailing.push(1);
        assert_eq!(
            TsDb::from_snapshot(&trailing).err(),
            Some(SnapshotError::Corrupt("trailing bytes"))
        );
    }
}
