//! Order statistics over latency samples.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least `beyond` samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The percentile, e.g. 98.75 for 800 samples and 10 beyond.
    pub percentile: f64,
    /// Its value (the sample at that rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The tail under the "at least `beyond` samples beyond it" rule: with `n`
/// sorted samples the reported value is the one at rank `n - beyond - 1`, so
/// exactly `beyond` samples lie above it.  `None` when there are not more
/// than `beyond` samples.
pub fn tail(values: &[f64], beyond: usize) -> Option<Tail> {
    let n = values.len();
    if n <= beyond {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - beyond - 1;
    Some(Tail {
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        value: v[rank],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&values, 10).unwrap();
        assert_eq!(t.value, 190.0);
        assert_eq!(t.percentile, 95.0);
        assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
        assert!(tail(&values[..10], 10).is_none());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
