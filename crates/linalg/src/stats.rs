//! Descriptive statistics used by experiment reporting.
//!
//! Mirrors the paper's statistical treatment: medians and quartiles for the
//! boxplots, 95% confidence intervals for convergence curves (Figs. 5/6),
//! and MAPE for the prediction-error studies (Figs. 9/10).

/// Arithmetic mean; returns `None` for empty input.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Sample standard deviation (n−1 denominator); returns `None` for fewer
/// than two samples.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// Linear-interpolation quantile (`q` in `[0, 1]`); returns `None` for empty
/// input or out-of-range `q`.
///
/// # Examples
///
/// ```
/// use freedom_linalg::stats::quantile;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&xs, 0.5), Some(2.5));
/// assert_eq!(quantile(&xs, 0.0), Some(1.0));
/// assert_eq!(quantile(&xs, 1.0), Some(4.0));
/// ```
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// [`quantile`] over a counted sample: `counts` lists each distinct
/// value once, in ascending order, with its multiplicity. The result is
/// bit-identical to `quantile` on the expanded sample (the same
/// `lo`/`hi`/`frac` interpolation between the same order statistics)
/// but costs O(distinct values) — e.g. the fleet replay's p95 latency
/// inflation, where tens of millions of invocations share a few
/// thousand values. Returns `None` for an empty sample or out-of-range
/// `q`.
pub fn quantile_counted(counts: &[(f64, u64)], q: f64) -> Option<f64> {
    let n: u64 = counts.iter().map(|&(_, c)| c).sum();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as u64;
    let hi = pos.ceil() as u64;
    let frac = pos - lo as f64;
    // The `k`-th (0-based) order statistic of the expanded sample.
    let nth = |k: u64| {
        let mut seen = 0;
        counts
            .iter()
            .find(|&&(_, c)| {
                seen += c;
                k < seen
            })
            .map(|&(v, _)| v)
            .expect("k < n")
    };
    Some(nth(lo) * (1.0 - frac) + nth(hi) * frac)
}

/// Median (the 0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Five-number summary used by the paper's boxplots: median, quartiles, and
/// 1.5×IQR whiskers clamped to the data range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxplotSummary {
    /// Lower whisker (smallest observation ≥ Q1 − 1.5·IQR).
    pub lo_whisker: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker (largest observation ≤ Q3 + 1.5·IQR).
    pub hi_whisker: f64,
    /// Number of outliers beyond the whiskers.
    pub outliers: usize,
}

/// Computes the paper-style boxplot summary; returns `None` for empty input.
pub fn boxplot(xs: &[f64]) -> Option<BoxplotSummary> {
    let q1 = quantile(xs, 0.25)?;
    let q3 = quantile(xs, 0.75)?;
    let med = median(xs)?;
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    let lo_whisker = xs
        .iter()
        .copied()
        .filter(|&x| x >= lo_fence)
        .fold(f64::INFINITY, f64::min);
    let hi_whisker = xs
        .iter()
        .copied()
        .filter(|&x| x <= hi_fence)
        .fold(f64::NEG_INFINITY, f64::max);
    let outliers = xs.iter().filter(|&&x| x < lo_fence || x > hi_fence).count();
    Some(BoxplotSummary {
        lo_whisker,
        q1,
        median: med,
        q3,
        hi_whisker,
        outliers,
    })
}

/// Mean absolute percentage error between actual and predicted values, in
/// percent; returns `None` when lengths differ, input is empty, or an actual
/// value is zero.
///
/// # Examples
///
/// ```
/// use freedom_linalg::stats::mape;
///
/// let actual = [10.0, 20.0];
/// let predicted = [11.0, 18.0];
/// assert_eq!(mape(&actual, &predicted), Some(10.0));
/// ```
pub fn mape(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    if actual.is_empty() || actual.len() != predicted.len() {
        return None;
    }
    let mut total = 0.0;
    for (a, p) in actual.iter().zip(predicted) {
        if *a == 0.0 {
            return None;
        }
        total += ((a - p) / a).abs();
    }
    Some(100.0 * total / actual.len() as f64)
}

/// Half-width of the 95% normal-approximation confidence interval around the
/// mean; returns `None` for fewer than two samples.
pub fn ci95_half_width(xs: &[f64]) -> Option<f64> {
    let sd = std_dev(xs)?;
    Some(1.96 * sd / (xs.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(std_dev(&[1.0]), None);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap() - 2.138).abs() < 1e-3);
    }

    #[test]
    fn quantile_bounds() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[5.0], 0.5), Some(5.0));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn quantile_counted_matches_sorting_quantile() {
        assert_eq!(quantile_counted(&[], 0.5), None);
        assert_eq!(quantile_counted(&[(1.0, 0)], 0.5), None);
        assert_eq!(quantile_counted(&[(1.0, 1)], -0.1), None);
        // Seeded pseudo-random data with duplicates, against the
        // sort-based reference at every breakpoint-straddling q.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in [1usize, 2, 3, 7, 64, 257] {
            let xs: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 56) as f64) / 8.0
                })
                .collect();
            let mut sorted = xs.clone();
            sorted.sort_by(f64::total_cmp);
            let mut counts: Vec<(f64, u64)> = Vec::new();
            for x in sorted {
                match counts.last_mut() {
                    Some((v, c)) if *v == x => *c += 1,
                    _ => counts.push((x, 1)),
                }
            }
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 1.0] {
                let expect = quantile(&xs, q).unwrap();
                let got = quantile_counted(&counts, q).unwrap();
                assert_eq!(got.to_bits(), expect.to_bits(), "n={n}, q={q}");
            }
        }
    }

    #[test]
    fn boxplot_flags_outliers() {
        let mut xs = vec![1.0, 2.0, 2.5, 3.0, 3.5, 4.0];
        xs.push(100.0); // an outlier
        let b = boxplot(&xs).unwrap();
        assert_eq!(b.outliers, 1);
        assert!(b.hi_whisker <= 4.0 + 1e-12);
        assert!(b.q1 <= b.median && b.median <= b.q3);
    }

    #[test]
    fn mape_validates_input() {
        assert_eq!(mape(&[], &[]), None);
        assert_eq!(mape(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(mape(&[0.0], &[1.0]), None);
        assert_eq!(mape(&[10.0], &[10.0]), Some(0.0));
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = [1.0, 2.0, 3.0, 4.0];
        let many: Vec<f64> = (0..64).map(|i| 1.0 + (i % 4) as f64).collect();
        assert!(ci95_half_width(&many).unwrap() < ci95_half_width(&few).unwrap());
    }
}
