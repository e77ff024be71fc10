//! Order statistics over measured samples.

/// The `p`-quantile (0 ≤ p ≤ 1) of `samples` by nearest rank; `NaN`
/// when there are no samples.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `samples` (the mean of the middle two for an even
/// count); `NaN` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `samples`; `NaN` when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Microseconds in a duration, as a float.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
