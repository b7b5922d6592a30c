//! Order statistics over measured samples. Every reported timing is a
//! median (or a named percentile) with its sample count; nothing keeps
//! the best repetition.

/// The `p`-th percentile (0 ≤ p ≤ 100), linear interpolation between
/// closest ranks (R-7). `NaN` for an empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (s.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    s[lo] + (rank - lo as f64) * (s[hi] - s[lo])
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of positive values; `NaN` if any is missing or ≤ 0.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| v.is_nan() || *v <= 0.0) {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert!((percentile(&v, 99.0) - 99.01).abs() < 1e-9);
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn geomean_of_equal_values_is_the_value() {
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }
}
