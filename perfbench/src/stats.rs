//! Order statistics over per-op samples.

/// Sorted copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest sample; 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The tail sample: the highest percentile with at least ten samples
/// beyond it. Returns `(percentile, value)`; with ten samples or fewer
/// there is no such percentile and the maximum is returned as p100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    if n <= 10 {
        return (100.0, v[n - 1]);
    }
    // v[n - 11] has exactly ten samples above it.
    (100.0 * (n - 10) as f64 / n as f64, v[n - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        assert_eq!(min(&xs), 1.0);
        assert_eq!(min(&[]), 0.0);
        assert_eq!(tail(&[5.0, 7.0]), (100.0, 7.0));
    }
}
