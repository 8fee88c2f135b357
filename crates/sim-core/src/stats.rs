//! Streaming statistics and histograms for the benchmark harness.

use std::fmt;

/// Streaming summary statistics (Welford's algorithm for variance).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    /// Same as [`Summary::new`]: the min/max sentinels start at ±∞ so the
    /// first observation wins (a derived all-zero default would report
    /// `min = 0` for any positive-valued stream).
    fn default() -> Summary {
        Summary::new()
    }
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The summary of the observations recorded *after* `prefix` was
    /// captured, assuming `prefix` is an earlier snapshot of this same
    /// stream — the inverse of [`merge`](Summary::merge). Used to strip a
    /// shared warm-start prefix from forked-mission branches before
    /// re-merging them, so the prefix is not double-counted.
    ///
    /// `min`/`max` cannot be recovered by subtraction; the delta keeps
    /// this summary's observed range (a conservative superset).
    pub fn unmerge(&self, prefix: &Summary) -> Summary {
        if prefix.count == 0 {
            return self.clone();
        }
        let count = self.count.saturating_sub(prefix.count);
        if count == 0 {
            return Summary::new();
        }
        let total = self.count as f64;
        let mean = (self.mean * total - prefix.mean * prefix.count as f64) / count as f64;
        let delta = prefix.mean - mean;
        let m2 =
            self.m2 - prefix.m2 - delta * delta * prefix.count as f64 * count as f64 / total;
        Summary {
            count,
            mean,
            m2: m2.max(0.0),
            min: self.min,
            max: self.max,
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN),
        )
    }
}

/// A collection of all observations, supporting exact percentiles.
///
/// Used where the benchmark harness needs tail latencies rather than moments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The `p`-th percentile (0–100) by nearest-rank, or `None` if empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.values.is_empty() {
            return None;
        }
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.values.len() - 1) as f64).round() as usize;
        Some(self.values[rank])
    }

    /// Arithmetic mean, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// A read-only view of the raw values (insertion order not guaranteed
    /// after a percentile query).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples {
            values: iter.into_iter().collect(),
            sorted: false,
        }
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.values.extend(iter);
        self.sorted = false;
    }
}

/// A fixed-width histogram over `[lo, hi)` with overflow/underflow buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `n` equal buckets spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, n: usize) -> Histogram {
        assert!(n > 0, "histogram needs at least one bucket");
        assert!(lo < hi, "histogram range inverted");
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.buckets.len();
            let idx = ((x - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.buckets[idx.min(n - 1)] += 1;
        }
    }

    /// Bucket counts (excluding under/overflow).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Count of observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Count of observations at or above the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &data[..37] {
            a.record(x);
        }
        for &x in &data[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn summary_unmerge_inverts_merge() {
        let data: Vec<f64> = (0..80).map(|i| (i as f64).cos() * 5.0 + 7.0).collect();
        let mut prefix = Summary::new();
        for &x in &data[..30] {
            prefix.record(x);
        }
        let mut full = prefix.clone();
        let mut suffix = Summary::new();
        for &x in &data[30..] {
            full.record(x);
            suffix.record(x);
        }
        let delta = full.unmerge(&prefix);
        assert_eq!(delta.count(), suffix.count());
        assert!((delta.mean() - suffix.mean()).abs() < 1e-9);
        assert!((delta.variance() - suffix.variance()).abs() < 1e-9);
        // min/max stay the conservative full-stream range.
        assert_eq!(delta.min(), full.min());
        assert_eq!(delta.max(), full.max());
        // Unmerging an identical snapshot leaves nothing.
        assert_eq!(full.unmerge(&full.clone()).count(), 0);
        // Unmerging an empty prefix is the identity.
        assert_eq!(full.unmerge(&Summary::new()), full);
    }

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn percentiles() {
        let mut s: Samples = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(50.0), Some(51.0)); // nearest-rank on 0..99
        assert_eq!(s.len(), 100);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        h.record(-1.0);
        h.record(10.0);
        assert!(h.buckets().iter().all(|&c| c == 1));
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 12);
    }
}
