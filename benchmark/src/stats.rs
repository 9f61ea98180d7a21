//! Order statistics. The run's estimator is the median of its per-rep
//! samples, never a minimum, low percentile, mean or total ÷ wall: on this
//! kind of machine (shared vCPUs, a bimodal clock) those moved more between
//! identical runs than the median in one record and no less in another
//! (README, "Noise").

/// Sorted copy; NaN sorts last and never occurs in a timing.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method) gives them,
/// because that is what the driver computes from our runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let v = sorted(values);
    let len = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Nearest-rank percentile (`p` in 0..=100) — for the per-layer `p90` rows,
/// never for an end-to-end number.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_by_hand() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// `statistics.quantiles(range(1, 11), n=4)` is `[2.75, 5.5, 8.25]`;
    /// `statistics.quantiles([1, 2, 4, 8, 16], n=4)` is `[1.5, 4.0, 12.0]`;
    /// `statistics.quantiles([10, 20], n=4)` is `[7.5, 15.0, 22.5]`.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90.0), 9.0);
        assert_eq!(percentile(&ten, 50.0), 5.0);
        assert_eq!(percentile(&ten, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}
