//! Order statistics the benchmark reports: nearest-rank percentiles,
//! medians, median-of-windows summaries and inter-quartile spread.

/// Sorts a copy of `values` ascending. Panics on NaN: every value fed
/// here is a measured duration or count.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`):
/// the smallest sample with at least `p` % of the samples at or below
/// it. 0.0 on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps an exact-integer rank (p99 of 1000 = rank 990)
    // from ceiling up by a float ulp.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle samples averaged on even counts. 0.0 on
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), so spreads computed here agree
/// with the acceptance check run outside. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let at = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    [at(1), at(2), at(3)]
}

/// One latency window's summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStat {
    pub count: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

/// Summarises one window of samples.
pub fn window_stat(samples: &[f64]) -> WindowStat {
    let s = sorted(samples);
    WindowStat {
        count: s.len(),
        p50: percentile(&s, 50.0),
        p90: percentile(&s, 90.0),
        p99: percentile(&s, 99.0),
    }
}

/// Median over windows of each window's percentile: one stalled window
/// moves one of the inputs to the median, not the result.
pub fn median_of_windows(windows: &[WindowStat], pick: impl Fn(&WindowStat) -> f64) -> f64 {
    median(&windows.iter().map(pick).collect::<Vec<_>>())
}

/// Splits `samples` into consecutive windows of `size` (a trailing
/// partial window is dropped unless it is the only one).
pub fn windows_by_count(samples: &[f64], size: usize) -> Vec<WindowStat> {
    if samples.len() < size.max(1) {
        return vec![window_stat(samples)];
    }
    samples.chunks_exact(size.max(1)).map(window_stat).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Ten samples lie beyond p99 of 1000: the tail the guide asks for.
        assert_eq!(v.iter().filter(|&&x| x > percentile(&v, 99.0)).count(), 10);
    }

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9], n=4) == [3.5, 4.5, 7.5]
        assert_eq!(quartiles(&[9.0, 2.0, 4.0, 7.0, 4.0, 5.0]), [3.5, 4.5, 7.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn median_of_windows_ignores_one_stalled_window() {
        let quiet: Vec<f64> = (0..1000).map(|i| 1.0 + i as f64 * 1e-3).collect();
        let stalled: Vec<f64> = quiet.iter().map(|x| x * 30.0).collect();
        let w = [
            window_stat(&quiet),
            window_stat(&stalled),
            window_stat(&quiet),
        ];
        assert_eq!(median_of_windows(&w, |s| s.p99), w[0].p99);
        assert_eq!(w[0].count, 1000);
    }

    #[test]
    fn count_windows_drop_the_partial_tail() {
        let s: Vec<f64> = (0..2500).map(f64::from).collect();
        let w = windows_by_count(&s, 1000);
        assert_eq!(w.len(), 2);
        assert_eq!(w[1].p50, 1499.0);
        assert_eq!(windows_by_count(&s[..10], 1000).len(), 1);
    }
}
