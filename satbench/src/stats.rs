//! Order statistics over per-op samples.

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`), reported only when at least
/// ten samples lie strictly beyond its rank — the highest percentile a
/// sample of this size supports. `None` when the sample is too small.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank: the smallest rank r with r / n >= q. The
    // small epsilon keeps q * n from rounding up past an exact integer.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    (n - rank >= 10).then(|| v[rank - 1])
}

/// Mean over `groups` of `stat` of each group: a figure in which every
/// group weighs the same, whatever its sample count, and which moves
/// smoothly when the groups' values do. A pooled order statistic of
/// groups with distinct typical values jumps from one group's cluster to
/// the next instead. `None` when there are no groups or any group lacks
/// the statistic.
pub fn mean_over(groups: &[Vec<f64>], stat: impl Fn(&[f64]) -> Option<f64>) -> Option<f64> {
    let each: Option<Vec<f64>> = groups.iter().map(|g| stat(g)).collect();
    let each = each.filter(|e| !e.is_empty())?;
    Some(each.iter().sum::<f64>() / each.len() as f64)
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
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly samples 91..=100 beyond it.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        // Rank ceil(89.1) = 90 leaves only nine beyond it.
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        assert_eq!(tail_percentile(&[], 0.9), None);
    }

    #[test]
    fn mean_over_weighs_groups_equally() {
        // Two kinds at 1 and 3 ms, three and one samples: the pooled
        // median sits on the larger kind; the mean over kinds does not.
        let groups = vec![vec![1.0, 1.0, 1.0], vec![3.0]];
        assert_eq!(median(&groups.concat()), 1.0);
        assert_eq!(mean_over(&groups, |g| Some(median(g))), Some(2.0));
        assert_eq!(mean_over(&[], |g| Some(median(g))), None);
        // A group without the statistic voids the mean.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(mean_over(&[hundred.clone(), hundred.clone()], |g| tail_percentile(g, 0.9)), Some(90.0));
        assert_eq!(mean_over(&[hundred, vec![1.0]], |g| tail_percentile(g, 0.9)), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail_percentile(&v, 0.9), Some(180.0));
        assert_eq!(tail_percentile(&v, 0.5), Some(100.0));
        // p99 of 200 samples has only two beyond it.
        assert_eq!(tail_percentile(&v, 0.99), None);
    }
}
