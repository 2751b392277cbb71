//! Order statistics over measured samples.

/// The median of `values` (mean of the middle pair for even counts);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `pct` percentile of `values` (`pct` in 0..=100): the
/// smallest sample with at least `pct`% of the samples at or below it.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return None;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The first and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so spreads printed here match the ones an external checker computes.
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 50.0), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // Two samples: both quartiles clamp to the ends' interpolation.
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
