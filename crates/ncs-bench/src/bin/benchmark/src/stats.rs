//! Order statistics: medians, quartiles the way Python's
//! `statistics.quantiles(values, n=4)` computes them (the acceptance check
//! uses that definition), and the tail percentile a sample can support.

/// Sorts `values` ascending (all inputs are finite measurements).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
}

/// Median of an ascending slice; 0 for an empty one.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Median of values in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    median_sorted(&v)
}

/// The value a share `p` of the way up the sorted values (nearest rank);
/// 0 for none.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let last = v.len().saturating_sub(1);
    let rank = (p.clamp(0.0, 1.0) * last as f64).round() as usize;
    v.get(rank).copied().unwrap_or(0.0)
}

/// `(q1, q2, q3)` by the exclusive method (`statistics.quantiles` default).
/// Fewer than two values have no spread: all three equal the value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the spread the
/// acceptance check compares with a metric's bound.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The tail of a latency sample that is worth reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen (e.g. 99.9).
    pub pctl: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond its rank.
    pub beyond: usize,
}

/// Candidate tail percentiles, in thousandths of a percent so that ranks
/// are exact integers (`0.999 * 10_000` is not 9990 in floating point).
const TAIL_CANDIDATES: [usize; 6] = [90_000, 95_000, 99_000, 99_900, 99_990, 99_999];

/// The highest candidate percentile with at least ten samples beyond it,
/// or `None` when even p90 has fewer (under 100 samples).
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_CANDIDATES.iter().rev().find_map(|&p| {
        // 1-based nearest rank of the percentile among n samples.
        let rank = (n * p).div_ceil(100_000).max(1);
        (n >= rank + 10).then(|| Tail {
            pctl: p as f64 / 1000.0,
            value: sorted[rank - 1],
            beyond: n - rank,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert_eq!(quantile(&v, 0.05), 5.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.05), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 99 samples: p90 has rank 90, only 9 beyond.
        assert_eq!(supported_tail(&sample(99)), None);
        // 100 samples: p90 has rank 90, exactly 10 beyond.
        let t = supported_tail(&sample(100)).unwrap();
        assert_eq!((t.pctl, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 has 10 beyond, p99.9 only 1.
        let t = supported_tail(&sample(1000)).unwrap();
        assert_eq!((t.pctl, t.value, t.beyond), (99.0, 990.0, 10));
        // 10_000 samples: p99.9.
        let t = supported_tail(&sample(10_000)).unwrap();
        assert_eq!((t.pctl, t.beyond), (99.9, 10));
        assert_eq!(supported_tail(&[]), None);
    }
}
