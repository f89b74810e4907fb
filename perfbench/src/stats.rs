//! Order statistics used for every reported timing.
//!
//! The reporting rule: a timing is given as its median and as the highest
//! percentile that still has at least [`TAIL_SAMPLES`] samples beyond it, so
//! a p99 needs at least 1,000 samples. Runs are sized so the latency
//! workloads reach that; smaller sample sets report a lower percentile
//! instead of a p99 made up from a handful of points.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile (in `[0.5, 0.99]`, on a 0.01 grid) that has at
/// least [`TAIL_SAMPLES`] of `n` samples strictly beyond its rank.
///
/// `None` when even the median has fewer than that beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    (50..=99)
        .rev()
        .map(|p| p as f64 / 100.0)
        .find(|&p| samples_beyond(n, p) >= TAIL_SAMPLES)
}

/// Number of samples ranked above percentile `p` of `n` samples under the
/// nearest-rank definition used by [`percentile`].
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, p)
}

fn rank(n: usize, p: f64) -> usize {
    // Nearest rank: the smallest index whose cumulative share reaches p.
    // The slack keeps p = 0.99 of 1,000 at rank 990 despite rounding.
    let r = (p * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile `p` of `values` (which need not be sorted).
///
/// NaN for an empty slice (a run in which no operation succeeded), which
/// marks every figure computed from it as invalid.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// Median (nearest rank) of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The tail of `values` under the reporting rule, with the percentile used.
/// Falls back to the median when there are too few samples for any tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let p = tail_percentile(values.len()).unwrap_or(0.5);
    (percentile(values, p), p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_percentile(1_000), Some(0.99));
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        // One sample short: p99 would have only 9 beyond it.
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(tail_percentile(999).unwrap() < 0.99);
        assert_eq!(tail_percentile(20_000), Some(0.99));
    }

    #[test]
    fn small_sets_report_a_lower_percentile() {
        // 100 samples: p90 leaves exactly 10 beyond it.
        assert_eq!(tail_percentile(100), Some(0.90));
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(samples_beyond(100, 0.91), 9);
        // 30 samples: 10 beyond leaves rank 20 of 30.
        let p = tail_percentile(30).unwrap();
        assert!(samples_beyond(30, p) >= TAIL_SAMPLES);
        assert!(samples_beyond(30, p + 0.01) < TAIL_SAMPLES);
        // Too few samples for any tail at all.
        assert_eq!(tail_percentile(15), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn every_reported_tail_has_ten_samples_beyond() {
        for n in 21..3_000 {
            let p = tail_percentile(n).expect("at least 21 samples has a tail");
            assert!(samples_beyond(n, p) >= TAIL_SAMPLES, "n = {n}, p = {p}");
            if p < 0.99 {
                assert!(
                    samples_beyond(n, p + 0.01) < TAIL_SAMPLES,
                    "n = {n}, p = {p}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&values), 50.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&values, 0.0), 1.0);
        let (value, p) = tail(&values);
        assert_eq!((value, p), (90.0, 0.90));
    }

    #[test]
    fn an_empty_sample_set_has_no_figures() {
        assert!(median(&[]).is_nan());
        assert!(tail(&[]).0.is_nan());
    }
}
