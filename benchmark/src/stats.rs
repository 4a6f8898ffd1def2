//! Order statistics used by every report: nearest-rank percentiles with a
//! minimum tail, medians and Python-compatible quartiles.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise the tail is too thin to mean anything.
pub const MIN_TAIL: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`MIN_TAIL`] beyond percentile `p`.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_TAIL
}

/// The highest of `candidates` (sorted ascending) that `n` samples support.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().rev().copied().find(|&p| supported(n, p))
}

/// A nearest-rank percentile and whether its tail is thick enough.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub supported: bool,
}

/// Nearest-rank percentile `p` of `samples` (any order). `None` when empty.
pub fn percentile(samples: &[u64], p: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    Some(Percentile {
        value: sorted[rank(n, p) - 1] as f64,
        samples: n,
        supported: supported(n, p),
    })
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    uniloc_stats::percentile(values, 50.0).expect("median of a non-empty, NaN-free sample")
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let (n, m) = (4usize, ld + 1);
    let cut = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median; the benchmark's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten lie beyond it.
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        // p90 needs 100 samples, p50 needs 20.
        assert!(supported(100, 90.0) && !supported(99, 90.0));
        assert!(supported(20, 50.0) && !supported(19, 50.0));
        assert!(!supported(0, 50.0));
        assert_eq!(
            highest_supported(5000, &[50.0, 90.0, 99.0, 99.9]),
            Some(99.0)
        );
        assert_eq!(highest_supported(150, &[50.0, 90.0, 99.0]), Some(90.0));
        assert_eq!(highest_supported(12, &[50.0, 90.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=1000).rev().collect();
        let p = percentile(&samples, 99.0).unwrap();
        assert_eq!((p.value, p.samples, p.supported), (990.0, 1000, true));
        assert_eq!(percentile(&samples, 50.0).unwrap().value, 500.0);
        assert_eq!(percentile(&[7], 99.0).unwrap().value, 7.0);
        assert!(!percentile(&[7], 99.0).unwrap().supported);
        assert!(percentile(&[], 50.0).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
    }
}
