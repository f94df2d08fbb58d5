//! Order statistics over op latencies.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-th percentile (`0 < q < 100`), or `None` when fewer
/// than ten samples lie beyond it: a tail percentile is only reported
/// where at least ten samples back it (p90 needs 100 samples, p99 1000).
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let beyond = n as f64 * (1.0 - q / 100.0);
    if beyond < 10.0 - 1e-9 {
        return None;
    }
    let v = sorted(values);
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90.0), Some(90.0));
        assert_eq!(tail_percentile(&v, 99.0), None);
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 99.0), Some(990.0));
        assert_eq!(tail_percentile(&v, 99.9), None);
    }
}
