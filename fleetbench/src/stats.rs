//! Order statistics over timing samples.

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest sample with at least ten samples above it, and the
/// percentile it stands at: with `n` samples, the `n − 10`-th smallest is
/// the `100 · (n − 10) / n` percentile. `None` below eleven samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    (n > 10).then(|| (v[n - 11], 100.0 * (n - 10) as f64 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&samples).unwrap();
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(samples.iter().filter(|&&s| s > value).count(), 10);
        assert!(tail(&samples[..10]).is_none());
    }
}
