//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on sorted samples, with the
//! rank computed in integer per-mille so that `p99` of 1000 samples is
//! exactly the 990th value. A tail percentile is only reported when at
//! least [`MIN_BEYOND`] samples lie strictly beyond its rank; with fewer,
//! the "p99" would be set by a handful of outliers and the run fails
//! instead of printing a number it cannot support.

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` quantile among `n` samples.
fn rank(n: usize, per_mille: usize) -> usize {
    ((per_mille * n).div_ceil(1000)).max(1)
}

/// Samples strictly beyond the `per_mille` quantile among `n` samples.
fn beyond(n: usize, per_mille: usize) -> usize {
    n - rank(n, per_mille).min(n)
}

/// The `per_mille` quantile (500 = median, 990 = p99) of `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], per_mille: usize) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), per_mille).min(sorted.len()) - 1]
}

/// [`quantile`], refused unless [`MIN_BEYOND`] samples lie beyond it.
pub fn tail_quantile(sorted: &[f64], per_mille: usize) -> Result<f64, String> {
    if sorted.is_empty() {
        return Err("no samples".into());
    }
    let past = beyond(sorted.len(), per_mille);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} of {} samples has only {past} beyond it (need {MIN_BEYOND})",
            per_mille as f64 / 10.0,
            sorted.len()
        ));
    }
    Ok(quantile(sorted, per_mille))
}

/// Sort a sample vector in place (total order; NaN never occurs in
/// durations) and return it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for no samples).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of an unsorted slice.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 500)
}

/// Segments each measured phase is cut into.
pub const WINDOWS: usize = 10;

/// The window a shared machine's interference leaves alone: of the
/// per-window figures `values`, the one a quarter of the way from the
/// best (`lower_is_better` picks the direction).
///
/// Other tenants' disk and CPU bursts last seconds and only ever add
/// latency or take throughput away, so a phase's windows read the
/// system's own cost plus a varying amount of interference. Up to three
/// quarters of the windows may be disturbed without moving this figure;
/// a change to the system moves every window, and so moves it too.
pub fn quiet_window(values: &[f64], lower_is_better: bool) -> f64 {
    let sorted = sorted(values.to_vec());
    quantile(&sorted, if lower_is_better { 250 } else { 750 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbed_windows_do_not_move_the_quiet_window() {
        // Ten windows' medians at 1.0, except that interference doubles
        // the latency in seven of them.
        let p50s = [2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0];
        assert_eq!(quiet_window(&p50s, true), 1.0);
        assert_eq!(median(&p50s), 2.0);
        // A change that slows every window shows.
        let slower: Vec<f64> = p50s.iter().map(|x| x * 1.2).collect();
        assert_eq!(quiet_window(&slower, true), 1.2);
        // Throughput: the quiet window is the high side.
        assert_eq!(quiet_window(&[5.0, 9.0, 10.0, 10.0], false), 10.0);
    }

    #[test]
    fn p99_of_a_thousand_samples_has_exactly_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(tail_quantile(&v, 990), Ok(990.0));
    }

    #[test]
    fn p99_is_refused_below_a_thousand_samples() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(beyond(999, 990), 9);
        assert!(tail_quantile(&v, 990).is_err());
        // The median needs no tail support.
        assert_eq!(quantile(&v, 500), 500.0);
    }

    #[test]
    fn nearest_rank_edges() {
        let v = [3.0, 1.0, 2.0];
        let s = sorted(v.to_vec());
        assert_eq!(quantile(&s, 0), 1.0);
        assert_eq!(quantile(&s, 500), 2.0);
        assert_eq!(quantile(&s, 1000), 3.0);
        assert_eq!(median(&v), 2.0);
        assert_eq!(beyond(3, 1000), 0);
        assert!(tail_quantile(&[], 500).is_err());
    }

    #[test]
    fn beyond_counts_large_samples_exactly() {
        // 21000 open-loop exchanges: rank 20790, 210 beyond.
        assert_eq!(beyond(21_000, 990), 210);
        assert_eq!(beyond(1_312, 990), 13);
    }
}
