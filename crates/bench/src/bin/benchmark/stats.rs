//! Order statistics of latency samples and of repeated runs.

/// A percentile above the median is reported only with at least this many
/// samples beyond it; below that it is the position of a few outliers.
pub const TAIL_MIN: usize = 10;

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values of an even sample); 0 for an
/// empty sample, which is how a layer that did not run reads.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median of `f(op)` over `ops` ops.
pub fn median_over(ops: usize, f: impl Fn(usize) -> f64) -> f64 {
    median(&(0..ops).map(f).collect::<Vec<_>>())
}

/// Nearest rank of the `percent`-th percentile of `n` samples.
fn rank(n: usize, percent: usize) -> usize {
    (n * percent).div_ceil(100).max(1)
}

/// Whether `n` samples leave at least [`TAIL_MIN`] beyond their
/// `percent`-th percentile (from 100 samples for the 90th).
pub fn tail_defined(n: usize, percent: usize) -> bool {
    n >= rank(n, percent) + TAIL_MIN
}

/// Nearest-rank percentile of an ascending sample — the smallest value
/// with at least `percent` % of the sample at or below it — or `None`
/// where it is not [`tail_defined`].
pub fn tail_percentile(ascending: &[f64], percent: usize) -> Option<f64> {
    let n = ascending.len();
    tail_defined(n, percent).then(|| ascending[rank(n, percent) - 1])
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), so the number matches what the driver computes.
/// `None` below two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        // 100 samples: p90 is the 90th value and exactly 10 lie beyond it.
        assert_eq!(tail_percentile(&ramp(100), 90), Some(90.0));
        // 99 samples: the rank is still 90, but only 9 lie beyond — null.
        assert_eq!(tail_percentile(&ramp(99), 90), None);
        assert_eq!(tail_percentile(&ramp(20), 90), None);
        assert_eq!(tail_percentile(&ramp(1), 90), None);
        // p99 needs 1000 samples.
        assert_eq!(tail_percentile(&ramp(1000), 99), Some(990.0));
        assert_eq!(tail_percentile(&ramp(999), 99), None);
        // Nearest rank rounds up: the 90th percentile of 101 values is
        // the 91st, the smallest with at least 90 % at or below it.
        assert_eq!(tail_percentile(&ramp(101), 90), Some(91.0));
        assert!(tail_defined(100, 90) && !tail_defined(99, 90));
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = quartile_spread(&ramp(10)).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = quartile_spread(&[2.0, 1.0]).unwrap();
        assert!((s - 1.0).abs() < 1e-12, "{s}");
        // statistics.quantiles([10, 11, 13, 20, 21], n=4) == [10.5, 13.0, 20.5]
        let s = quartile_spread(&[13.0, 10.0, 21.0, 11.0, 20.0]).unwrap();
        assert!((s - 10.0 / 13.0).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[5.0]), None);
    }
}
