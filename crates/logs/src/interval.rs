//! A bucketed interval index for point-in-interval (stabbing) queries.
//!
//! The joint analysis repeatedly asks "which jobs were running at time t?".
//! With hundreds of thousands of jobs over 2001 days, a linear scan per
//! event is too slow; this index partitions the time axis into fixed-width
//! buckets and registers each interval in every bucket it overlaps, making
//! a stabbing query proportional to the number of concurrently-running
//! intervals.

use bgq_model::{Span, Timestamp};

/// Static index over `[start, end)` time intervals.
///
/// # Examples
///
/// ```
/// use bgq_logs::interval::IntervalIndex;
/// use bgq_model::{Span, Timestamp};
///
/// let t = Timestamp::from_secs;
/// let index = IntervalIndex::build(
///     vec![(t(0), t(100)), (t(50), t(150))],
///     Span::from_secs(60),
/// );
/// assert_eq!(index.stab(t(75)), vec![0, 1]);
/// assert_eq!(index.stab(t(120)), vec![1]);
/// assert!(index.stab(t(150)).is_empty()); // end-exclusive
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalIndex {
    intervals: Vec<(Timestamp, Timestamp)>,
    buckets: Vec<Vec<u32>>,
    origin: i64,
    width: i64,
}

impl IntervalIndex {
    /// Builds an index over `intervals` with the given bucket width.
    /// Intervals with `end <= start` are kept but never match.
    ///
    /// Accepts any iterator of `(start, end)` pairs, so callers can feed
    /// record fields straight in without materializing a temporary vector.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is not positive or more than `u32::MAX`
    /// intervals are supplied.
    #[must_use]
    pub fn build(
        intervals: impl IntoIterator<Item = (Timestamp, Timestamp)>,
        bucket_width: Span,
    ) -> Self {
        let intervals: Vec<(Timestamp, Timestamp)> = intervals.into_iter().collect();
        assert!(bucket_width.as_secs() > 0, "bucket width must be positive");
        assert!(
            intervals.len() <= u32::MAX as usize,
            "too many intervals for u32 ids"
        );
        let width = bucket_width.as_secs();
        // Degenerate and inverted intervals are kept but never registered,
        // so the geometry spans the valid (`end > start`) ones only.
        let valid = || intervals.iter().filter(|(s, e)| e > s);
        let origin = valid().map(|(s, _)| s.as_secs()).min().unwrap_or(0);
        let max_end = valid().map(|(_, e)| e.as_secs()).max().unwrap_or(origin);
        let n_buckets = ((max_end - origin) / width + 1).max(1) as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n_buckets];
        for (i, (s, e)) in intervals.iter().enumerate() {
            if e <= s {
                continue;
            }
            let first = ((s.as_secs() - origin) / width).max(0) as usize;
            // end-exclusive: the last covered second is end-1.
            let last = (((e.as_secs() - 1 - origin) / width).max(0) as usize).min(n_buckets - 1);
            for bucket in buckets.iter_mut().take(last + 1).skip(first) {
                bucket.push(i as u32);
            }
        }
        IntervalIndex {
            intervals,
            buckets,
            origin,
            width,
        }
    }

    /// Number of indexed intervals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// `true` if no intervals were supplied.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// Indices of all intervals containing `t` (start-inclusive,
    /// end-exclusive), in ascending index order.
    #[must_use]
    pub fn stab(&self, t: Timestamp) -> Vec<usize> {
        let mut out = Vec::new();
        self.stab_each(t, |i| out.push(i));
        out
    }

    /// Calls `hit` with each interval index containing `t`, in ascending
    /// index order, without allocating — the hot-loop form of [`stab`]
    /// (the join calls this once per RAS event).
    ///
    /// [`stab`]: IntervalIndex::stab
    pub fn stab_each(&self, t: Timestamp, mut hit: impl FnMut(usize)) {
        let secs = t.as_secs();
        if self.buckets.is_empty() || secs < self.origin {
            return;
        }
        let b = ((secs - self.origin) / self.width) as usize;
        let Some(bucket) = self.buckets.get(b) else {
            return;
        };
        for &i in bucket {
            let (s, e) = self.intervals[i as usize];
            if s <= t && t < e {
                hit(i as usize);
            }
        }
    }

    /// Indices of all intervals overlapping `[from, to)`.
    #[must_use]
    pub fn overlapping(&self, from: Timestamp, to: Timestamp) -> Vec<usize> {
        if to <= from || self.buckets.is_empty() {
            return Vec::new();
        }
        let lo = (((from.as_secs() - self.origin) / self.width).max(0) as usize)
            .min(self.buckets.len().saturating_sub(1));
        let hi = (((to.as_secs() - 1 - self.origin) / self.width).max(0) as usize)
            .min(self.buckets.len() - 1);
        // An interval spanning many buckets appears once per bucket, so
        // collect all matches and sort-dedup at the end: `O(k log k)` in
        // the number of matches, replacing a `seen.contains` linear scan
        // per candidate that made wide queries quadratic.
        let mut out = Vec::new();
        for bucket in &self.buckets[lo..=hi] {
            for &i in bucket {
                let (s, e) = self.intervals[i as usize];
                if s < to && from < e {
                    out.push(i as usize);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn stab_boundaries() {
        let idx = IntervalIndex::build(vec![(t(10), t(20))], Span::from_secs(5));
        assert!(idx.stab(t(9)).is_empty());
        assert_eq!(idx.stab(t(10)), vec![0]);
        assert_eq!(idx.stab(t(19)), vec![0]);
        assert!(idx.stab(t(20)).is_empty());
    }

    #[test]
    fn intervals_spanning_many_buckets() {
        let idx = IntervalIndex::build(
            vec![(t(0), t(1000)), (t(400), t(500)), (t(990), t(995))],
            Span::from_secs(7),
        );
        assert_eq!(idx.stab(t(450)), vec![0, 1]);
        assert_eq!(idx.stab(t(992)), vec![0, 2]);
        assert_eq!(idx.stab(t(700)), vec![0]);
    }

    #[test]
    fn empty_and_degenerate_intervals() {
        let idx = IntervalIndex::build(vec![(t(5), t(5)), (t(9), t(3))], Span::from_secs(10));
        assert!(idx.stab(t(5)).is_empty());
        assert!(idx.stab(t(4)).is_empty());
        assert_eq!(idx.len(), 2);

        let empty = IntervalIndex::build(vec![], Span::from_secs(10));
        assert!(empty.is_empty());
        assert!(empty.stab(t(0)).is_empty());
    }

    #[test]
    fn overlapping_range_query() {
        let idx = IntervalIndex::build(
            vec![(t(0), t(10)), (t(20), t(30)), (t(25), t(40))],
            Span::from_secs(8),
        );
        assert_eq!(idx.overlapping(t(5), t(26)), vec![0, 1, 2]);
        assert_eq!(idx.overlapping(t(10), t(20)), Vec::<usize>::new());
        assert_eq!(idx.overlapping(t(30), t(31)), vec![2]);
        assert!(idx.overlapping(t(5), t(5)).is_empty());
    }

    #[test]
    fn overlapping_boundary_queries() {
        let idx = IntervalIndex::build(
            vec![(t(100), t(200)), (t(150), t(1000)), (t(990), t(995))],
            Span::from_secs(7),
        );
        // `from` far before the index origin (t=100): clamps to bucket 0.
        assert_eq!(idx.overlapping(t(-5_000), t(160)), vec![0, 1]);
        // `to` far past the last bucket: clamps to the final bucket.
        assert_eq!(idx.overlapping(t(991), t(50_000)), vec![1, 2]);
        // Query window engulfing everything.
        assert_eq!(idx.overlapping(t(-1), t(100_000)), vec![0, 1, 2]);
        // An interval spanning many buckets is reported exactly once even
        // though it is registered in every bucket the query walks.
        let wide = idx.overlapping(t(150), t(1000));
        assert_eq!(wide, vec![0, 1, 2]);
        // Degenerate/inverted query windows.
        assert!(idx.overlapping(t(500), t(500)).is_empty());
        assert!(idx.overlapping(t(600), t(400)).is_empty());
    }

    #[test]
    fn overlapping_matches_brute_force() {
        let mut state = 987654321u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let intervals: Vec<(Timestamp, Timestamp)> = (0..200)
            .map(|_| {
                let s = next() % 10_000;
                let len = next() % 800 - 50; // some degenerate/inverted
                (t(s), t(s + len))
            })
            .collect();
        let idx = IntervalIndex::build(intervals.clone(), Span::from_secs(61));
        for k in 0..250 {
            let from = next() % 12_000 - 1_000;
            let len = next() % 3_000;
            let (from, to) = (t(from), t(from + len));
            let brute: Vec<usize> = intervals
                .iter()
                .enumerate()
                .filter(|(_, (s, e))| *s < to && from < *e && e > s)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(idx.overlapping(from, to), brute, "query {k}: [{from:?}, {to:?})");
        }
    }

    #[test]
    fn matches_brute_force() {
        // Deterministic pseudo-random intervals.
        let mut state = 12345u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let intervals: Vec<(Timestamp, Timestamp)> = (0..300)
            .map(|_| {
                let s = next() % 10_000;
                let len = next() % 500;
                (t(s), t(s + len))
            })
            .collect();
        let idx = IntervalIndex::build(intervals.clone(), Span::from_secs(97));
        for q in (0..10_500).step_by(13) {
            let brute: Vec<usize> = intervals
                .iter()
                .enumerate()
                .filter(|(_, (s, e))| *s <= t(q) && t(q) < *e)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(idx.stab(t(q)), brute, "query at {q}");
        }
    }
}
