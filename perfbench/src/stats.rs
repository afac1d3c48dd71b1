//! Order statistics for timing samples.
//!
//! A timing is reported as its median plus the highest standard tail
//! percentile, up to p99, that still has at least [`MIN_BEYOND`] samples
//! beyond it, so a tail figure is never read off a handful of points. The
//! cap keeps the quantile a metric reads fixed once a run has 1,000
//! samples, however many more it gets.

/// Samples a reported tail percentile must have strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// The tail percentiles considered, highest first.
const TAIL_QUANTILES: [f64; 3] = [0.99, 0.9, 0.5];

/// Nearest-rank quantile of an ascending sample: the smallest value with at
/// least `q · n` samples at or below it. Returns `NaN` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` in a sample of `n`.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon absorbs rounding in `q · n`, whose exact value is a
    // multiple of 0.01 for the quantiles used here.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The highest of the standard tail quantiles that leaves at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `n`, or `None` when even
/// the median does not.
pub fn tail_quantile(n: usize) -> Option<f64> {
    TAIL_QUANTILES
        .into_iter()
        .find(|&q| n.saturating_sub(rank(n.max(1), q)) >= MIN_BEYOND)
}

/// Median, mean and tail of a timing sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// The quantile the tail was read at (see [`tail_quantile`]). A sample
    /// too small for any has no tail to read, and its tail falls back to
    /// the median (`0.5`); its maximum would be a single draw.
    pub tail_q: f64,
    /// The tail value.
    pub tail: f64,
}

impl Summary {
    /// Summarises `values` (any order). Returns `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len()).unwrap_or(0.5);
        Some(Summary {
            n: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: quantile(&sorted, 0.5),
            tail_q,
            tail: quantile(&sorted, tail_q),
        })
    }
}

/// Quantile `q` of `values` (any order); `NaN` when empty.
pub fn quantile_of(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, q)
}

/// Median of `values` (any order); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile_of(values, 0.5)
}

/// Quantile `q` of each consecutive block of at least `block` values (in
/// the order given), then the median of those block quantiles.
///
/// A stall of the host delays every request in flight for a few
/// milliseconds a few times a second; read over a whole run it lands in
/// the p99, read per block it lands in a minority of blocks and the median
/// passes over it. A sample shorter than `block` is one block.
pub fn block_quantile(values: &[f64], q: f64, block: usize) -> f64 {
    let blocks = (values.len() / block.max(1)).max(1);
    let per_block: Vec<f64> = (0..blocks)
        .map(|b| {
            let (lo, hi) = (b * values.len() / blocks, (b + 1) * values.len() / blocks);
            quantile_of(&values[lo..hi], q)
        })
        .collect();
    median(&per_block)
}

/// Events per second completed in each consecutive window of `window`
/// seconds, from zero up to the last whole window before `span`, averaged
/// over the windows between the first and third quartile. `done` holds
/// completion times in seconds.
///
/// Like [`block_quantile`], it passes over a stall that idles a minority of
/// windows, yet unlike a median it does not move in whole events per
/// window.
pub fn windowed_rate(done: &[f64], window: f64, span: f64) -> f64 {
    let windows = ((span / window) as usize).max(1);
    let mut counts = vec![0usize; windows];
    for &t in done {
        if let Some(c) = counts.get_mut((t / window) as usize) {
            *c += 1;
        }
    }
    counts.sort_unstable();
    let middle = &counts[windows / 4..windows - windows / 4];
    middle.iter().sum::<usize>() as f64 / middle.len() as f64 / window
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_quantile(1_000_000), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(0), None);
    }

    #[test]
    fn quantile_uses_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 500.0);
        assert_eq!(quantile(&sorted, 0.99), 990.0);
        assert_eq!(quantile(&sorted, 1.0), 1000.0);
        // Exactly ten samples lie beyond the p99 of a thousand.
        assert_eq!(sorted.iter().filter(|&&v| v > 990.0).count(), MIN_BEYOND);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn summary_reports_count_and_falls_back_to_the_median() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(
            (s.n, s.p50, s.mean, s.tail_q, s.tail),
            (3, 2.0, 2.0, 0.5, 2.0)
        );
        let big: Vec<f64> = (0..2_000).map(f64::from).rev().collect();
        let s = Summary::of(&big).expect("non-empty");
        assert_eq!((s.n, s.tail_q, s.tail), (2_000, 0.99, 1_979.0));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_rate_averages_the_middle_windows() {
        // 100 events per 0.1 s for a second, with one window stalled.
        let done: Vec<f64> = (0..1_000)
            .map(|i| f64::from(i) * 1e-3)
            .filter(|t| !(0.3..0.4).contains(t))
            .collect();
        let rate = windowed_rate(&done, 0.1, 1.0);
        assert!((rate - 1_000.0).abs() < 1e-6, "{rate}");
        // Three windows of 0.3 s hold 300, 200 and 300 events; the one
        // past the last whole window is not counted.
        assert!((windowed_rate(&done, 0.3, 1.0) - 8_000.0 / 9.0).abs() < 1e-6);
        // Windows of 400, 100, 300 and 200 events: the middle two count.
        let done: Vec<f64> = [400, 100, 300, 200]
            .iter()
            .enumerate()
            .flat_map(|(w, &n)| std::iter::repeat_n(w as f64 * 0.1 + 0.05, n))
            .collect();
        assert!((windowed_rate(&done, 0.1, 0.4) - 2_500.0).abs() < 1e-6);
    }

    #[test]
    fn block_quantile_passes_over_a_stall_in_a_minority_of_blocks() {
        // Five blocks of 1,000 at 1 ms; a 50 ms stall hits 2% of one block.
        let mut values = vec![1.0; 5_000];
        for v in &mut values[1_000..1_020] {
            *v = 50.0;
        }
        assert_eq!(quantile_of(&values, 0.99), 1.0);
        assert_eq!(quantile_of(&values[1_000..2_000], 0.99), 50.0);
        assert_eq!(block_quantile(&values, 0.99, 1_000), 1.0);
        // A sample of 4,999 makes four blocks, none shorter than 1,000.
        assert_eq!(block_quantile(&values[..4_999], 0.99, 1_000), 1.0);
        assert_eq!(block_quantile(&[3.0, 1.0, 2.0], 0.5, 1_000), 2.0);
    }
}
