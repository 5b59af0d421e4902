//! The summarizer: nearest-rank percentiles over every attempted op,
//! where a failed op counts as missing any latency limit.

/// The tail percentile reported next to the median. p99 swung ±20 %
/// between identical `tcp-mixed` runs; p90 holds still.
pub(crate) const TAIL_PERCENTILE: f64 = 90.0;

/// A percentile is only reported when at least this many samples lie
/// beyond it.
pub(crate) const MIN_BEYOND: usize = 10;

/// One attempted op: its latency, or `None` when it failed, was refused
/// or returned a wrong answer.
pub(crate) type Sample = Option<u64>;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub(crate) fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Whether percentile `p` over `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub(crate) fn tail_supported(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest-rank percentile of sorted values (`None` when empty).
pub(crate) fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Median of unsorted values (lower middle for an even count, so the
/// result is always one of the measured values).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).unwrap_or(f64::NAN)
}

/// Tracing overhead: time of the traced ops over time of the same ops
/// untraced, minus one. `baseline_ns` covers a prefix of `traced_ns`.
pub(crate) fn overhead(baseline_ns: &[u64], traced_ns: &[u64]) -> f64 {
    let n = baseline_ns.len().min(traced_ns.len());
    let sum = |v: &[u64]| v[..n].iter().map(|&ns| ns as f64).sum::<f64>();
    sum(traced_ns) / sum(baseline_ns) - 1.0
}

/// What a run reports end to end.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Summary {
    /// Ops attempted.
    pub(crate) attempted: usize,
    /// Ops failed, refused or answered wrongly.
    pub(crate) failed: usize,
    /// Median latency in milliseconds; infinite when more than half failed.
    pub(crate) p50_ms: f64,
    /// [`TAIL_PERCENTILE`] latency in milliseconds, failures counted as
    /// infinitely late.
    pub(crate) p90_ms: f64,
    /// Completed (successful) ops per second of measured wall time.
    pub(crate) ops_per_s: f64,
}

impl Summary {
    /// Summarizes samples measured over `elapsed_s` seconds.
    ///
    /// # Errors
    ///
    /// When the tail percentile has fewer than [`MIN_BEYOND`] samples
    /// beyond it: such a run is too short to report a tail.
    pub(crate) fn of(samples: &[Sample], elapsed_s: f64) -> Result<Self, String> {
        let n = samples.len();
        if !tail_supported(n, TAIL_PERCENTILE) {
            return Err(format!(
                "{n} ops leave fewer than {MIN_BEYOND} samples beyond p{TAIL_PERCENTILE}"
            ));
        }
        let mut ms: Vec<f64> = samples
            .iter()
            .map(|s| s.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
            .collect();
        ms.sort_by(f64::total_cmp);
        let failed = samples.iter().filter(|s| s.is_none()).count();
        Ok(Self {
            attempted: n,
            failed,
            p50_ms: nearest_rank(&ms, 50.0).unwrap_or(f64::INFINITY),
            p90_ms: nearest_rank(&ms, TAIL_PERCENTILE).unwrap_or(f64::INFINITY),
            ops_per_s: (n - failed) as f64 / elapsed_s,
        })
    }
}

/// Failed ops over attempted ops (0 when nothing was attempted).
pub(crate) fn failed_ratio(failed: usize, attempted: usize) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok_ms(values: &[u64]) -> Vec<Sample> {
        values.iter().map(|&v| Some(v * 1_000_000)).collect()
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        let odd = [3.0, 7.0, 9.0];
        assert_eq!(nearest_rank(&odd, 50.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(median(&[5.0, 1.0, 4.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(99, 90.0));
        assert!(tail_supported(100, 90.0));
        assert!(tail_supported(106, 90.0));
        assert!(!tail_supported(0, 90.0));
        assert!(Summary::of(&ok_ms(&[1; 99]), 1.0).is_err());
        assert!(Summary::of(&ok_ms(&[1; 100]), 1.0).is_ok());
    }

    #[test]
    fn failures_count_in_ratio_and_miss_the_latency_limit() {
        // 100 ops of 1..=100 ms, then the 5 fastest fail.
        let mut samples = ok_ms(&(1..=100).collect::<Vec<_>>());
        for s in samples.iter_mut().take(5) {
            *s = None;
        }
        let s = Summary::of(&samples, 2.0).unwrap();
        assert_eq!((s.attempted, s.failed), (100, 5));
        assert!((failed_ratio(s.failed, s.attempted) - 0.05).abs() < 1e-12);
        // Failed ops sort as infinitely slow: the survivors 6..=100 fill
        // ranks 1..=95, so p50 and p90 move up by five ranks.
        assert_eq!(s.p50_ms, 55.0);
        assert_eq!(s.p90_ms, 95.0);
        assert!((s.ops_per_s - 47.5).abs() < 1e-12);
    }

    #[test]
    fn a_failed_tail_makes_the_tail_infinite() {
        let mut samples = ok_ms(&[1; 100]);
        for s in samples.iter_mut().take(11) {
            *s = None;
        }
        let s = Summary::of(&samples, 1.0).unwrap();
        assert_eq!(s.p50_ms, 1.0);
        assert!(s.p90_ms.is_infinite());
    }
}
