//! The aggregates Ruru's Grafana panels display: min, max, median, mean —
//! plus count, p95, p99 and standard deviation.

/// Aggregate statistics over a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of samples.
    pub count: usize,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (50th percentile, nearest-rank interpolated).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Aggregate {
    /// Compute aggregates; returns `None` for an empty set. `values` is
    /// sorted in place (callers hand over scratch buffers).
    pub(crate) fn compute(values: &mut [f64]) -> Option<Aggregate> {
        if values.is_empty() {
            return None;
        }
        // total_cmp orders NaN deterministically (greatest) instead of
        // panicking on it: a NaN smuggled in by a corrupt sample sorts last
        // and shows up in max/p99 rather than aborting the detector.
        values.sort_unstable_by(|a, b| a.total_cmp(b));
        let count = values.len();
        let sum: f64 = values.iter().sum();
        let mean = sum / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Some(Aggregate {
            count,
            min: values.first().copied().unwrap_or(0.0),
            max: values.last().copied().unwrap_or(0.0),
            mean,
            median: percentile_sorted(values, 50.0),
            p95: percentile_sorted(values, 95.0),
            p99: percentile_sorted(values, 99.0),
            stddev: var.sqrt(),
        })
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
///
/// Total: an empty slice yields NaN (there is no percentile to report) and
/// `pct` is clamped to `0..=100`, so no input can abort a query path.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    let Some((&first, _)) = sorted.split_first() else {
        return f64::NAN;
    };
    let pct = pct.clamp(0.0, 100.0);
    if sorted.len() == 1 {
        return first;
    }
    let rank = pct / 100.0 * (sorted.len().saturating_sub(1)) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let lo_v = sorted.get(lo).copied().unwrap_or(first);
    let hi_v = sorted.get(hi).copied().unwrap_or(lo_v);
    if lo == hi {
        lo_v
    } else {
        let frac = rank - lo as f64;
        lo_v * (1.0 - frac) + hi_v * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_none() {
        assert!(Aggregate::compute(&mut []).is_none());
    }

    #[test]
    fn single_value() {
        let a = Aggregate::compute(&mut [42.0]).unwrap();
        assert_eq!(a.count, 1);
        assert_eq!(a.min, 42.0);
        assert_eq!(a.max, 42.0);
        assert_eq!(a.mean, 42.0);
        assert_eq!(a.median, 42.0);
        assert_eq!(a.p99, 42.0);
        assert_eq!(a.stddev, 0.0);
    }

    #[test]
    fn known_small_set() {
        let mut v = [4.0, 1.0, 3.0, 2.0];
        let a = Aggregate::compute(&mut v).unwrap();
        assert_eq!(a.count, 4);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(a.mean, 2.5);
        assert_eq!(a.median, 2.5);
        assert!((a.stddev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile_sorted(&v, 50.0) - 50.5).abs() < 1e-9);
        assert!((percentile_sorted(&v, 95.0) - 95.05).abs() < 1e-9);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut v = vec![5.0, 1.0, 9.0, 3.0, 7.0];
        let a = Aggregate::compute(&mut v).unwrap();
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 9.0);
        assert_eq!(a.median, 5.0);
    }

    #[test]
    fn p99_catches_outliers() {
        // 980 samples at ~130, 20 at 4000 (the firewall anomaly shape).
        let mut v: Vec<f64> = (0..980).map(|i| 130.0 + (i % 10) as f64 * 0.1).collect();
        v.extend(std::iter::repeat_n(4000.0, 20));
        let a = Aggregate::compute(&mut v).unwrap();
        assert!(a.median < 132.0);
        assert!(a.p99 > 1000.0, "p99 {} must expose the spike", a.p99);
        assert!(a.max == 4000.0);
    }

    #[test]
    fn percentile_empty_is_nan() {
        assert!(percentile_sorted(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_out_of_range_clamps() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&v, -5.0), 1.0);
        assert_eq!(percentile_sorted(&v, 250.0), 3.0);
    }

    #[test]
    fn nan_sample_does_not_abort() {
        let mut v = [2.0, f64::NAN, 1.0];
        let a = Aggregate::compute(&mut v).unwrap();
        // NaN sorts last under total_cmp: min stays finite, max is NaN.
        assert_eq!(a.min, 1.0);
        assert!(a.max.is_nan());
    }
}
