//! The one quantile convention every timing in the benchmark uses.
//!
//! Nearest-rank: the p-th percentile of `n` ascending samples is the
//! sample at rank `⌈p·n⌉`, clamped to `1..=n`, so a reported quantile is
//! always a value that was measured. A tail percentile is reported only
//! when at least [`MIN_BEYOND`] samples lie strictly beyond its rank; with
//! fewer samples the next lower rung of [`TAIL_LADDER`] is used, and the
//! result says which percentile it is.
//!
//! Percentiles are held in per-mille (`990` = p99) so ranks are exact
//! integer arithmetic: `0.99 * 1000.0` in floating point is not 990.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down, in per-mille.
pub const TAIL_LADDER: [u32; 4] = [990, 950, 900, 500];

/// The 1-based nearest rank of per-mille percentile `pm` among `n > 0`
/// samples.
pub fn rank(n: usize, pm: u32) -> usize {
    let raw = (pm as usize * n).div_ceil(1000);
    raw.clamp(1, n)
}

/// Samples strictly beyond the rank of `pm` among `n` samples.
pub fn beyond(n: usize, pm: u32) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pm)
    }
}

/// Nearest-rank percentile of ascending `sorted` (`None` when empty).
pub fn percentile(sorted: &[f64], pm: u32) -> Option<f64> {
    if sorted.is_empty() {
        None
    } else {
        Some(sorted[rank(sorted.len(), pm) - 1])
    }
}

/// Median of unsorted `values` (nearest-rank; `None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 500)
}

/// A timing summary: median plus the highest ladder percentile with at
/// least [`MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile actually reported, per-mille (1000 = the
    /// maximum, used only when not even the median has enough samples
    /// beyond it).
    pub tail_pm: u32,
    /// Its value.
    pub tail: f64,
}

/// Summarizes unsorted samples; `None` when there are none.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = percentile(&sorted, 500)?;
    let (tail_pm, tail) = TAIL_LADDER
        .iter()
        .find(|&&pm| beyond(n, pm) >= MIN_BEYOND)
        .map(|&pm| (pm, sorted[rank(n, pm) - 1]))
        .unwrap_or((1000, sorted[n - 1]));
    Some(Summary { count: n, p50, tail_pm, tail })
}

/// Combines per-pass summaries: the median of their medians and of their
/// tails, so a host hiccup during one pass moves one pass, not the
/// result. The combined tail is labelled with the lowest percentile any
/// pass could report.
pub fn median_of(passes: &[Summary]) -> Option<Summary> {
    let p50s: Vec<f64> = passes.iter().map(|s| s.p50).collect();
    let tails: Vec<f64> = passes.iter().map(|s| s.tail).collect();
    Some(Summary {
        count: passes.iter().map(|s| s.count).sum(),
        p50: median(&p50s)?,
        tail_pm: passes.iter().map(|s| s.tail_pm).min()?,
        tail: median(&tails)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn ranks_are_exact_nearest_rank() {
        assert_eq!(rank(1000, 990), 990);
        assert_eq!(rank(100, 990), 99);
        assert_eq!(rank(10, 500), 5);
        assert_eq!(rank(11, 500), 6);
        assert_eq!(rank(7, 0), 1, "p0 clamps to the minimum");
        assert_eq!(rank(7, 1000), 7, "p100 is the maximum");
        assert_eq!(rank(1, 990), 1);
    }

    #[test]
    fn percentile_returns_a_sample_never_an_interpolation() {
        let xs = [1.0, 2.0, 10.0, 11.0];
        assert_eq!(percentile(&xs, 500), Some(2.0), "lower middle for even n");
        assert_eq!(percentile(&xs, 750), Some(10.0));
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond — p99 qualifies exactly.
        let s = summarize(&ramp(1000)).expect("non-empty");
        assert_eq!((s.tail_pm, s.tail, s.count), (990, 990.0, 1000));
        // 999 samples leave nine beyond p99, so p95 is reported.
        let s = summarize(&ramp(999)).expect("non-empty");
        assert_eq!(s.tail_pm, 950);
        assert_eq!(s.tail, 950.0);
        assert_eq!(beyond(999, 950), 49);
        // 25 samples: only the median has ten beyond it.
        let s = summarize(&ramp(25)).expect("non-empty");
        assert_eq!((s.tail_pm, s.tail), (500, 13.0));
        // Too few for any rung: the maximum, flagged as p100.
        let s = summarize(&ramp(12)).expect("non-empty");
        assert_eq!((s.tail_pm, s.tail), (1000, 12.0));
        assert_eq!(summarize(&[]), None);
    }

    #[test]
    fn per_pass_summaries_combine_by_median() {
        let pass = |p50: f64, tail: f64, tail_pm: u32| Summary { count: 1000, p50, tail_pm, tail };
        let combined =
            median_of(&[pass(1.0, 9.0, 990), pass(3.0, 90.0, 990), pass(2.0, 10.0, 950)])
                .expect("non-empty");
        assert_eq!(combined, Summary { count: 3000, p50: 2.0, tail_pm: 950, tail: 10.0 });
        assert_eq!(median_of(&[]), None);
    }

    #[test]
    fn summary_ignores_input_order() {
        let mut xs = ramp(2000);
        xs.reverse();
        let s = summarize(&xs).expect("non-empty");
        assert_eq!((s.p50, s.tail_pm, s.tail), (1000.0, 990, 1980.0));
    }
}
