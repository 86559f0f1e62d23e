//! Exact order statistics over raw samples.
//!
//! Percentiles are read from the sorted samples themselves (nearest rank),
//! never from a bucketed histogram, so a change smaller than a bucket still
//! shows. A percentile other than the median is only trustworthy with at
//! least [`MIN_BEYOND`] samples above it; [`Summary::reportable`] says
//! whether that holds.

/// Samples a percentile needs beyond it before it is reported as measured.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle samples for an even
/// count); `NaN` for no samples.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of ascending `sorted`.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// One percentile of a sample set, with the count it was read from.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// The percentile's value.
    pub value: f64,
    /// Samples it was read from.
    pub count: usize,
    /// Samples beyond it.
    pub beyond: usize,
}

impl Summary {
    /// Whether enough samples lie beyond the percentile for it to be
    /// reported as measured (the median always is).
    pub fn reportable(&self, p: f64) -> bool {
        p == 0.5 || self.beyond >= MIN_BEYOND
    }
}

/// The `p`-quantile of `values` (the median for `p == 0.5`); `NaN` for no
/// samples.
pub fn percentile(values: &[f64], p: f64) -> Summary {
    let count = values.len();
    if count == 0 {
        return Summary {
            value: f64::NAN,
            count,
            beyond: 0,
        };
    }
    let value = if p == 0.5 {
        median(values)
    } else {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p)
    };
    Summary {
        value,
        count,
        beyond: beyond(count, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles_count_what_lies_beyond() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&values, 0.99);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
        assert!(p99.reportable(0.99));
        let p999 = percentile(&values, 0.999);
        assert_eq!(p999.beyond, 1);
        assert!(!p999.reportable(0.999));
        assert!(percentile(&values[..3], 0.5).reportable(0.5));
    }
}
