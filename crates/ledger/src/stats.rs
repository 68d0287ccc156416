//! The ledger's few statistics rules, on top of `pccheck_util::Summary`.

use crate::api::Summary;

/// Median of `samples` (must be non-empty and finite).
pub fn median(samples: &[f64]) -> f64 {
    Summary::from_samples(samples).median()
}

/// The 10th percentile: what an operation costs when the host lets it run.
///
/// The sandbox's hypervisor takes the CPUs away for milliseconds at a time
/// (2–35% steal, changing by the minute). A descheduled reader thread
/// stretches a recovery, so the upper half of the recovery times measures
/// the neighbours: between a quiet and a busy minute the median of
/// identical runs moved 5.4 → 11.8 ms where this moved 4.7 → 5.9 ms.
pub fn low_decile(samples: &[f64]) -> f64 {
    Summary::from_samples(samples).percentile(10.0)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it, so a reported tail is never one or two outliers.
/// `None` below 40 samples: only the median is reportable.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    // Tenths of a percent, so "ten samples beyond" is exact arithmetic.
    [999usize, 990, 950, 900, 750]
        .into_iter()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// `(percentile, value)` of the tail [`tail_percentile`] allows.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(samples.len())?;
    Some((p, Summary::from_samples(samples).percentile(p)))
}

/// Median rate over `windows` equal sub-windows of a run.
///
/// `stamps[i]` is the time (seconds) at which work item `i` completed;
/// `start` is when the first began. Items are split into `windows`
/// contiguous groups of equal count (the remainder is dropped from the
/// end) and each group's `count / elapsed` is one sample, so one slow
/// stretch moves one sample instead of the whole average.
pub fn window_rate_median(start: f64, stamps: &[f64], windows: usize) -> f64 {
    let per = stamps.len() / windows;
    assert!(per > 0, "need at least one item per sub-window");
    let mut rates = Vec::with_capacity(windows);
    let mut begin = start;
    for w in 0..windows {
        let end = stamps[(w + 1) * per - 1];
        rates.push(per as f64 / (end - begin));
        begin = end;
    }
    median(&rates)
}

/// Total length covered by `intervals` (half-open `(start, end)`),
/// counting overlapped stretches once.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// A span's self time: its duration minus the part its children cover.
/// Children are clipped to the parent and overlapping children (two
/// writer threads inside one persist) are counted once.
pub fn self_time(parent: (u64, u64), children: impl IntoIterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .into_iter()
        .map(|(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|(s, e)| e > s)
        .collect();
    (parent.1 - parent.0) - union_len(&mut clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(150), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(p, 95.0);
        assert!((x - 189.05).abs() < 1e-9);
    }

    #[test]
    fn overlapping_writer_spans_count_once() {
        // Two writers overlap inside a 100-unit persist; a third span
        // pokes out of the parent and is clipped.
        let parent = (100, 200);
        let children = [(110, 150), (130, 170), (190, 260), (10, 20)];
        assert_eq!(union_len(&mut children.to_vec()), 40 + 20 + 70 + 10);
        assert_eq!(self_time(parent, children), 100 - (60 + 10));
        assert_eq!(self_time(parent, []), 100);
    }

    #[test]
    fn sub_window_median_ignores_one_slow_stretch() {
        // 10 items, 5 windows of 2. Four windows run at 2 items/s; the
        // middle one stalls for 10 s.
        let stamps = [1.0, 2.0, 3.0, 4.0, 9.0, 14.0, 15.0, 16.0, 17.0, 18.0];
        let r = window_rate_median(0.0, &stamps, 5);
        assert!((r - 1.0).abs() < 1e-12, "{r}");
        // The plain average would have been 10/18.
        assert!(r > 10.0 / 18.0);
    }

    #[test]
    fn sub_windows_drop_the_remainder() {
        let stamps: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!((window_rate_median(0.0, &stamps, 5) - 1.0).abs() < 1e-12);
    }
}
