//! Small order statistics over latency samples.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest
/// value with at least `percent`% of the samples at or below it. `None`
/// for an empty sample. Integer rank arithmetic keeps the choice exact
/// (no `0.9 * n` rounding surprises).
pub fn nearest_rank(sorted: &[f64], percent: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = (percent * n).div_ceil(100).clamp(1, n);
    sorted.get(rank - 1).copied()
}

/// How many samples of an `n`-sample set lie strictly beyond its
/// nearest-rank `percent` quantile position.
pub fn samples_beyond(n: usize, percent: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - (percent * n).div_ceil(100).clamp(1, n)
}

/// The smallest sample count whose nearest-rank `percent` quantile has at
/// least `beyond` samples past it.
pub fn min_samples_for(percent: usize, beyond: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, percent) >= beyond)
        .unwrap_or(usize::MAX)
}

/// Sorts a copy of `values` ascending (total order, so NaN cannot panic).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest-rank p50) of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(&sorted(values), 50)
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_pinned_on_small_vectors() {
        let one = [7.0];
        assert_eq!(nearest_rank(&one, 50), Some(7.0));
        assert_eq!(nearest_rank(&one, 90), Some(7.0));
        assert_eq!(nearest_rank(&one, 0), Some(7.0));

        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&four, 25), Some(1.0));
        assert_eq!(nearest_rank(&four, 50), Some(2.0));
        assert_eq!(nearest_rank(&four, 51), Some(3.0));
        assert_eq!(nearest_rank(&four, 90), Some(4.0));
        assert_eq!(nearest_rank(&four, 100), Some(4.0));

        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50), Some(5.0));
        assert_eq!(nearest_rank(&ten, 90), Some(9.0));
        assert_eq!(nearest_rank(&ten, 91), Some(10.0));

        assert_eq!(nearest_rank(&[], 50), None);
    }

    #[test]
    fn median_and_mean_ignore_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[1.0, 2.0, 3.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(101, 90), 10);
        assert_eq!(samples_beyond(0, 90), 0);
        assert_eq!(min_samples_for(90, 10), 100);
        assert_eq!(min_samples_for(50, 10), 20);
    }
}
