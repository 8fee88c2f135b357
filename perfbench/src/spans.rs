//! Span records and the arithmetic over them: self time, percentiles and
//! the unattributed share of the wall time.
//!
//! Spans are kept in memory while a run executes and are only reduced
//! to metrics after the timed part ends.

use std::time::Instant;

/// One recorded interval. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was timed (`"env.step_frames"`, `"quantum"`, ...).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`end >= start`).
    pub end: u64,
    /// Index of the span that caused this one, `None` for a root.
    pub parent: Option<usize>,
    /// The mission (or sweep) the span belongs to.
    pub mission: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// An interval recorded before it is linked into the span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Raw {
    /// What was timed.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// The run's time origin.
#[derive(Debug, Clone, Copy)]
pub struct Epoch(Instant);

impl Epoch {
    /// An epoch at the current instant.
    pub fn now() -> Epoch {
        Epoch(Instant::now())
    }

    /// Nanoseconds since the epoch.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Runs `f`, returning its result and its interval.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Raw) {
        let start = self.ns();
        let out = f();
        (
            out,
            Raw {
                name,
                start,
                end: self.ns(),
            },
        )
    }
}

/// Length of the union of `intervals` (sorted in place).
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span). Children that overlap —
/// the environment and RTL halves of a Parallel-mode quantum — are
/// subtracted once, not twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur() - union_len(kids))
        .collect()
}

/// Share of the root spans' wall time that no child span covers:
/// `(wall − attributed) ÷ wall`, where `wall` sums the roots' durations
/// and `attributed` is the part of each root covered by its children.
/// Without concurrent children, `attributed` equals the sum of the self
/// times of every span below the roots. 0 when there is no wall time.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut wall, mut unattributed) = (0u64, 0u64);
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            wall += s.dur();
            unattributed += own;
        }
    }
    if wall == 0 {
        0.0
    } else {
        unattributed as f64 / wall as f64
    }
}

/// A median and a tail percentile with the number of samples behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (nearest rank).
    pub p50: f64,
    /// 99th percentile (nearest rank); has ten samples beyond it only
    /// when `samples >= 1000`.
    pub p99: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Nearest-rank percentile `q` (0 < q <= 1) of sorted `values`.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and p99 of `values` (sorted in place); zeros when empty.
pub fn percentiles(values: &mut [f64]) -> Percentiles {
    values.sort_unstable_by(f64::total_cmp);
    Percentiles {
        p50: nearest_rank(values, 0.5),
        p99: nearest_rank(values, 0.99),
        samples: values.len(),
    }
}

/// Median of `values` (sorted in place): the mean of the middle two for
/// an even count; 0 when empty.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            mission: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut []), 0);
        assert_eq!(union_len(&mut [(0, 10)]), 10);
        assert_eq!(union_len(&mut [(5, 15), (0, 10)]), 15);
        assert_eq!(union_len(&mut [(0, 10), (20, 30)]), 20);
        assert_eq!(union_len(&mut [(0, 10), (2, 4), (10, 12)]), 12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // A Parallel-mode quantum: the env (10..60) and RTL (20..90)
        // children overlap; the union is 10..90 = 80, not 50 + 70.
        let spans = [
            span("quantum", 0, 100, None),
            span("env", 10, 60, Some(0)),
            span("rtl", 20, 90, Some(0)),
            span("cost", 30, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 50, 20]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [span("p", 10, 20, None), span("c", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn unattributed_share_is_root_time_no_child_covers() {
        // Two roots of 100 ns; children cover 90 and 60 of them.
        let spans = [
            span("m", 0, 100, None),
            span("build", 0, 40, Some(0)),
            span("run", 50, 100, Some(0)),
            span("m", 200, 300, None),
            span("env", 200, 250, Some(3)),
            span("rtl", 210, 260, Some(3)),
        ];
        let share = unattributed_share(&spans);
        assert!((share - (10.0 + 40.0) / 200.0).abs() < 1e-12, "{share}");
        // Without concurrency the same number is wall − Σ self times.
        let serial = &spans[..3];
        let sum_self: u64 = self_times(serial)[1..].iter().sum();
        assert!((unattributed_share(serial) - (100 - sum_self) as f64 / 100.0).abs() < 1e-12);
        assert_eq!(unattributed_share(&[]), 0.0);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_report_samples() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p = percentiles(&mut v);
        assert_eq!(
            p,
            Percentiles {
                p50: 500.0,
                p99: 990.0,
                samples: 1000
            }
        );
        let p = percentiles(&mut [7.0]);
        assert_eq!((p.p50, p.p99, p.samples), (7.0, 7.0, 1));
        let p = percentiles(&mut []);
        assert_eq!((p.p50, p.p99, p.samples), (0.0, 0.0, 0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }
}
