//! Latency recording and tail statistics.
//!
//! Lancet's defining feature is *accurate* tail reporting: it keeps enough
//! per-request samples to report order-statistics percentiles rather than
//! histogram approximations. We do the same — simulation runs are bounded,
//! so exact samples are affordable.

/// A collection of per-request latency samples (ns).
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_ns: u64) {
        self.samples.push(latency_ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency, ns (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
    }

    /// The exact `p`-th percentile (0 < p ≤ 100, in thousandths of a
    /// percent) by the nearest-rank method Lancet reports; `None` if
    /// empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        Some(self.samples[nearest_rank(p, self.samples.len()) - 1])
    }

    /// The 99th percentile (the paper's SLO metric), ns.
    pub fn p99(&mut self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Clears all samples (e.g. after warm-up).
    pub fn reset(&mut self) {
        self.samples.clear();
        self.sorted = false;
    }

    /// Moves the raw samples out (order unspecified), leaving the recorder
    /// empty. Used to merge recorders across client agents.
    pub fn take_samples(&mut self) -> Vec<u64> {
        self.sorted = false;
        std::mem::take(&mut self.samples)
    }
}

/// Per-second (or arbitrary-window) time series of throughput and tail
/// latency — the instrument behind the Figure 12 failover timeline.
#[derive(Clone, Debug)]
pub struct WindowedSeries {
    window_ns: u64,
    windows: Vec<LatencyRecorder>,
}

/// Summary of one time window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowSummary {
    /// Window start, ns.
    pub start_ns: u64,
    /// Completed requests in the window.
    pub count: usize,
    /// Throughput, requests/second.
    pub rps: f64,
    /// 99th-percentile latency in the window, ns (0 if empty).
    pub p99_ns: u64,
}

impl WindowedSeries {
    /// A series with the given window width.
    pub fn new(window_ns: u64) -> WindowedSeries {
        assert!(window_ns > 0);
        WindowedSeries {
            window_ns,
            windows: Vec::new(),
        }
    }

    /// Records a completion at absolute time `now_ns` with the given
    /// request latency.
    pub fn record(&mut self, now_ns: u64, latency_ns: u64) {
        let idx = (now_ns / self.window_ns) as usize;
        if idx >= self.windows.len() {
            self.windows.resize_with(idx + 1, LatencyRecorder::new);
        }
        self.windows[idx].record(latency_ns);
    }

    /// Summarizes every window.
    pub fn summarize(&mut self) -> Vec<WindowSummary> {
        let w = self.window_ns;
        self.windows
            .iter_mut()
            .enumerate()
            .map(|(i, rec)| WindowSummary {
                start_ns: i as u64 * w,
                count: rec.count(),
                rps: rec.count() as f64 / (w as f64 / 1e9),
                p99_ns: rec.p99().unwrap_or(0),
            })
            .collect()
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples,
/// `⌈p · n / 100⌉`, computed in integers: in floating point, `0.999 × n`
/// rounds up past an integer for p = 99.9 at n = 1000, 2000, … and picks
/// one sample too high.
///
/// # Panics
/// Panics unless 0 < p ≤ 100 and p is a whole number of thousandths.
fn nearest_rank(p: f64, n: usize) -> usize {
    let milli = (p * 1000.0).round();
    assert!(
        (1.0..=100_000.0).contains(&milli) && (p * 1000.0 - milli).abs() < 1e-6,
        "percentile {p} is not in (0, 100] in thousandths"
    );
    (milli as u128 * n as u128).div_ceil(100_000) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_9_of_a_thousand_is_the_999th_sample() {
        let mut r = LatencyRecorder::new();
        for v in 1..=1000u64 {
            r.record(v);
        }
        assert_eq!(r.percentile(99.9), Some(999));
        assert_eq!(r.percentile(99.0), Some(990));
    }

    #[test]
    fn nearest_rank_is_the_exact_rational_ceiling() {
        // p as a fraction of 1000 (tenths of a percent): the rank r is the
        // one integer with (r - 1) · 1000 < p · n ≤ r · 1000.
        for tenths in [500u64, 900, 990, 999] {
            let p = tenths as f64 / 10.0;
            for n in 1..=100_000u64 {
                let r = nearest_rank(p, n as usize) as u64;
                assert!(
                    (r - 1) * 1000 < tenths * n && tenths * n <= r * 1000,
                    "p{p} n={n}: rank {r}"
                );
            }
        }
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut r = LatencyRecorder::new();
        for v in 1..=100u64 {
            r.record(v);
        }
        assert_eq!(r.percentile(50.0), Some(50));
        assert_eq!(r.percentile(99.0), Some(99));
        assert_eq!(r.percentile(100.0), Some(100));
        assert_eq!(r.percentile(1.0), Some(1));
        assert_eq!(r.max(), Some(100));
        assert!((r.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_yields_none() {
        let mut r = LatencyRecorder::new();
        assert_eq!(r.p99(), None);
        assert_eq!(r.max(), None);
        assert_eq!(r.mean(), 0.0);
        assert!(r.is_empty());
    }

    #[test]
    fn recording_after_percentile_is_fine() {
        let mut r = LatencyRecorder::new();
        r.record(10);
        assert_eq!(r.p99(), Some(10));
        r.record(5);
        assert_eq!(r.percentile(50.0), Some(5));
    }

    #[test]
    fn p99_catches_the_tail() {
        let mut r = LatencyRecorder::new();
        for _ in 0..990 {
            r.record(100);
        }
        for _ in 0..10 {
            r.record(10_000);
        }
        assert_eq!(r.p99(), Some(100));
        assert_eq!(r.percentile(99.5), Some(10_000));
    }

    #[test]
    fn windowed_series_buckets_by_time() {
        let mut s = WindowedSeries::new(1_000_000_000); // 1s windows
        s.record(100, 10);
        s.record(999_999_999, 20);
        s.record(1_500_000_000, 30);
        s.record(3_200_000_000, 40);
        let sum = s.summarize();
        assert_eq!(sum.len(), 4);
        assert_eq!(sum[0].count, 2);
        assert_eq!(sum[1].count, 1);
        assert_eq!(sum[2].count, 0);
        assert_eq!(sum[3].count, 1);
        assert!((sum[0].rps - 2.0).abs() < 1e-9);
        assert_eq!(sum[1].p99_ns, 30);
    }

    #[test]
    fn reset_clears() {
        let mut r = LatencyRecorder::new();
        r.record(1);
        r.reset();
        assert!(r.is_empty());
    }
}
