//! Order statistics for the ledger: medians, quartiles and the
//! percentile-selection rule ("the highest percentile that still has at
//! least ten samples beyond it").

/// The percentiles a tail latency may be reported at, highest first.
pub const PERCENTILE_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// A tail percentile needs this many samples strictly beyond it.
const MIN_SAMPLES_BEYOND: usize = 10;

/// Median, quartiles and count of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile of an ascending slice (`q` in `0..=1`);
/// NaN when empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The midmean (interquartile mean) of `values`: the mean of the middle
/// half of the sorted samples (NaN when empty). A location statistic that,
/// unlike the median, moves continuously when the samples cluster in two
/// groups and the middle falls between them.
pub fn midmean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 4;
    let middle = &s[cut..s.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median, first and third quartile, and the sample count.
pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    Summary {
        median: quantile_sorted(&s, 0.5),
        q1: quantile_sorted(&s, 0.25),
        q3: quantile_sorted(&s, 0.75),
        n: s.len(),
    }
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile
/// under the nearest-rank definition.
fn samples_beyond(n: usize, p: f64) -> usize {
    n - nearest_rank(n, p)
}

/// One-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // `99.9 / 100.0 * 10_000.0` is a hair above 9990: round products that
    // are whole up to floating-point error before taking the ceiling.
    let exact = p * n as f64 / 100.0;
    let rank = if (exact - exact.round()).abs() < 1e-6 {
        exact.round()
    } else {
        exact.ceil()
    };
    (rank as usize).clamp(1, n.max(1))
}

/// The highest percentile of [`PERCENTILE_LADDER`] that keeps at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it, or `None` when even
/// the lowest rung does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Nearest-rank `p`-th percentile of `values` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return f64::NAN;
    }
    s[nearest_rank(s.len(), p) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let s = summarize(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[7.0]).q3, 7.0);
    }

    #[test]
    fn midmean_averages_the_middle_half() {
        // The quarter below and the quarter above are cut off.
        assert_eq!(midmean(&[100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0]), 3.5);
        assert_eq!(midmean(&[9.0, 1.0, 2.0]), 4.0);
        assert_eq!(midmean(&[7.0]), 7.0);
        assert!(midmean(&[]).is_nan());
        // Two clusters with the middle between them: the median jumps from
        // one cluster to the other when one sample changes sides, the
        // midmean moves by one sample's share.
        let mut v = vec![1.0; 50];
        v.extend(vec![2.0; 50]);
        let before = midmean(&v);
        v[49] = 2.0;
        assert!((midmean(&v) - before).abs() < 0.03);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // 178 samples (two buffered campus episodes): p90 is the highest.
        assert_eq!(highest_supported_percentile(178), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(0), None);
    }
}
