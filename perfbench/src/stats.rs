//! Order statistics of one run's job times. The spread and comparison of
//! sets of runs live in `spread.py`.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Each sample's group mean, for `(group, value)` samples, in sample
/// order.
#[must_use]
pub fn group_means<K: Ord + Copy>(samples: &[(K, f64)]) -> Vec<f64> {
    let mut sums: std::collections::BTreeMap<K, (f64, usize)> = Default::default();
    for &(group, value) in samples {
        let sum = sums.entry(group).or_default();
        sum.0 += value;
        sum.1 += 1;
    }
    samples
        .iter()
        .map(|(group, _)| {
            let (sum, n) = sums[group];
            sum / n as f64
        })
        .collect()
}

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile of `values` and the number of
/// samples strictly beyond its rank — or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it, so a tail figure is never printed
/// from a handful of observations.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> Option<(f64, usize)> {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| (sorted[rank - 1], beyond))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn group_means_replace_each_sample() {
        let samples = [("a", 1.0), ("b", 10.0), ("a", 3.0), ("b", 30.0), ("c", 5.0)];
        let means = group_means(&samples);
        assert_eq!(means.len(), samples.len());
        for (got, want) in means.iter().zip([2.0, 20.0, 2.0, 20.0, 5.0]) {
            assert!(close(*got, want));
        }
        assert!(group_means::<u8>(&[]).is_empty());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 100 samples: the 90th percentile has exactly 10 beyond it.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), Some((90.0, 10)));
        assert_eq!(percentile(&hundred, 50.0), Some((50.0, 50)));
        // 99 samples: only 9 lie beyond the 90th percentile's rank.
        assert_eq!(percentile(&hundred[..99], 90.0), None);
        // The median of 20 samples has 10 beyond it; of 19, only 9.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some((10.0, 10)));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 90.0), Some((180.0, 20)));
    }
}
