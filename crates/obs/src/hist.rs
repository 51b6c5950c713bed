//! Log-bucketed mergeable histograms.
//!
//! The paper's method is distributional — percentiles, not averages —
//! so the telemetry layer needs the same: a [`Histogram`] records
//! `u64` values into logarithmic buckets while keeping the **exact**
//! count and sum, and answers p50/p90/p99 queries with a documented,
//! bounded relative error.
//!
//! # Bucket layout
//!
//! Values below [`EXACT_LIMIT`] (32) each get their own bucket, so small
//! counts are exact. Above that, every power-of-two octave is split into
//! [`SUBBUCKETS`] (16) equal-width sub-buckets, the classic
//! HdrHistogram-style layout: the bucket containing `v` has width
//! `2^(floor(log2 v) - 4)`, so its **relative width never exceeds
//! 1/16 = 6.25%**. A quantile query returns the inclusive upper bound of
//! the bucket holding the nearest-rank order statistic, which therefore
//! *overestimates* that statistic by at most 6.25% (and is exact below
//! 32). `tests/obs.rs` cross-checks this bound against `bgq-oracle`'s
//! sort-based type-7 quantiles.
//!
//! # Determinism
//!
//! Bucket counts are integers and [`Histogram::merge`] is a bucket-wise
//! sum, so merging per-chunk histograms from `bgq-par` workers yields
//! the same histogram in any merge order — recorded *data* histograms
//! are schedule-independent, exactly like the counters. (Span *duration*
//! histograms record wall time and are deterministic only in shape:
//! their counts are schedule-independent, their sums are not.)
//!
//! Hot loops should record into a **local** `Histogram` and publish once
//! via [`crate::hist_merge`]; the global collector lock is then taken
//! once per stage, not once per record.

/// Values below this are their own (exact) bucket.
pub const EXACT_LIMIT: u64 = 32;

/// Sub-buckets per power-of-two octave above [`EXACT_LIMIT`].
pub const SUBBUCKETS: u64 = 16;

/// Maximum relative error of a quantile answer: one sub-bucket width.
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / SUBBUCKETS as f64;

/// Bucket index for `v` (at most 976 buckets across the `u64` range, so
/// a dense counter array stays under 8 KiB even for the widest data).
#[must_use]
pub fn bucket_index(v: u64) -> u16 {
    if v < EXACT_LIMIT {
        return v as u16;
    }
    // 2^msb <= v < 2^(msb+1), msb >= 5 here.
    let msb = 63 - v.leading_zeros() as u64;
    // Top 4 bits below the leading 1 select the sub-bucket.
    let sub = (v >> (msb - 4)) & (SUBBUCKETS - 1);
    (EXACT_LIMIT + (msb - 5) * SUBBUCKETS + sub) as u16
}

/// Inclusive `[lo, hi]` value range of bucket `idx`.
#[must_use]
pub fn bucket_bounds(idx: u16) -> (u64, u64) {
    let idx = idx as u64;
    if idx < EXACT_LIMIT {
        return (idx, idx);
    }
    let octave = 5 + (idx - EXACT_LIMIT) / SUBBUCKETS;
    let sub = (idx - EXACT_LIMIT) % SUBBUCKETS;
    let step = 1u64 << (octave - 4);
    let lo = (SUBBUCKETS + sub) << (octave - 4);
    // `lo + (step - 1)`, not `lo + step - 1`: the top bucket ends at
    // exactly `u64::MAX`, so the intermediate `lo + step` would overflow.
    (lo, lo + (step - 1))
}

/// A mergeable log-bucketed histogram of `u64` values with exact count
/// and sum. See the module docs for the accuracy contract.
///
/// Buckets are a dense counter array indexed by [`bucket_index`]
/// (recording is one bounds check and an add — cheap enough for
/// per-record hot loops), trimmed so the last slot is always occupied;
/// that invariant makes the derived equality structural.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Exact number of recorded values.
    count: u64,
    /// Exact (saturating) sum of recorded values.
    sum: u64,
    /// Dense per-bucket counts; empty, or ends at the highest occupied
    /// bucket (`buckets.last() != Some(&0)`).
    buckets: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    fn slot(&mut self, idx: u16) -> &mut u64 {
        let idx = idx as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        &mut self.buckets[idx]
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        *self.slot(bucket_index(v)) += 1;
    }

    /// Folds `other` into `self` (bucket-wise sum; order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
    }

    /// Exact number of recorded values.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact (saturating) sum of recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact arithmetic mean, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The occupied buckets as `(index, count)` pairs in index order.
    pub fn buckets(&self) -> impl Iterator<Item = (u16, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i as u16, n))
    }

    /// Reconstructs a histogram from its serialized parts (used by the
    /// manifest JSON round-trip). `count`/`sum` are trusted as recorded.
    #[must_use]
    pub fn from_parts(count: u64, sum: u64, buckets: impl IntoIterator<Item = (u16, u64)>) -> Self {
        let mut h = Histogram {
            count,
            sum,
            buckets: Vec::new(),
        };
        for (idx, n) in buckets {
            if n > 0 {
                *h.slot(idx) += n;
            }
        }
        h
    }

    /// Nearest-rank quantile for `q` in `[0, 1]`: the inclusive upper
    /// bound of the bucket holding the `ceil(q·count)`-th smallest value
    /// (the smallest recorded value for `q = 0`). `None` when empty.
    ///
    /// Overestimates the true order statistic by at most
    /// [`MAX_RELATIVE_ERROR`]; exact for values below [`EXACT_LIMIT`].
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_bounds(idx as u16).1);
            }
        }
        // Unreachable when the count/bucket invariant holds; fall back
        // to the largest occupied bucket rather than panicking.
        (!self.buckets.is_empty()).then(|| bucket_bounds((self.buckets.len() - 1) as u16).1)
    }

    /// Median (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile (see [`Histogram::quantile`]).
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The histogram of values recorded since `earlier` (bucket-wise
    /// saturating subtraction, dropping emptied buckets). Meaningful
    /// only when `earlier` is a prefix of `self`'s history, which the
    /// cumulative collector guarantees.
    #[must_use]
    pub fn saturating_sub(&self, earlier: &Histogram) -> Histogram {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(idx, &n)| n.saturating_sub(earlier.buckets.get(idx).copied().unwrap_or(0)))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        Histogram {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..EXACT_LIMIT {
            h.record(v);
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v), "value {v}");
        }
        assert_eq!(h.count(), EXACT_LIMIT);
        assert_eq!(h.sum(), (0..EXACT_LIMIT).sum::<u64>());
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's range starts right after the previous one's.
        let mut expected_lo = 0u64;
        let mut last_idx = None;
        for idx in 0..bucket_index(u64::MAX) {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(lo, expected_lo, "gap/overlap at bucket {idx}");
            assert!(hi >= lo);
            expected_lo = hi + 1;
            last_idx = Some(idx);
        }
        assert!(last_idx.is_some());
        // And indexing round-trips: v lands in a bucket that contains it.
        for v in [
            0,
            1,
            31,
            32,
            33,
            100,
            1023,
            1024,
            1_000_000,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [32u64, 100, 12345, 1 << 20, (1 << 40) + 7] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            let width = (hi - lo + 1) as f64;
            assert!(
                width / lo as f64 <= MAX_RELATIVE_ERROR + 1e-12,
                "bucket [{lo},{hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn quantiles_track_order_statistics() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).map(|i| i * 37 % 9001).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let stat = sorted[rank - 1];
            let got = h.quantile(q).unwrap();
            assert!(got >= stat, "q={q}: {got} < order stat {stat}");
            assert!(
                got as f64 <= stat as f64 * (1.0 + MAX_RELATIVE_ERROR) + 1.0,
                "q={q}: {got} overestimates {stat} beyond the bound"
            );
        }
    }

    #[test]
    fn merge_is_order_independent_and_exact() {
        let vals_a = [3u64, 50, 7_000, 0, 31];
        let vals_b = [999u64, 32, 1 << 30];
        let mut all = Histogram::new();
        for v in vals_a.iter().chain(&vals_b) {
            all.record(*v);
        }
        let (mut a, mut b) = (Histogram::new(), Histogram::new());
        vals_a.iter().for_each(|&v| a.record(v));
        vals_b.iter().for_each(|&v| b.record(v));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
        assert_eq!(ab.count(), 8);
        assert_eq!(ab.sum(), vals_a.iter().chain(&vals_b).sum::<u64>());
    }

    #[test]
    fn saturating_sub_recovers_the_delta() {
        let mut early = Histogram::new();
        early.record(5);
        early.record(1000);
        let mut late = early.clone();
        late.record(5);
        late.record(77);
        let d = late.saturating_sub(&early);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 82);
        let mut want = Histogram::new();
        want.record(5);
        want.record(77);
        assert_eq!(d, want);
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(-0.1), None);
        let mut one = Histogram::new();
        one.record(42);
        assert_eq!(one.quantile(1.5), None);
    }

    #[test]
    fn from_parts_round_trips() {
        let mut h = Histogram::new();
        for v in [1u64, 64, 64, 10_000] {
            h.record(v);
        }
        let rebuilt = Histogram::from_parts(h.count(), h.sum(), h.buckets());
        assert_eq!(rebuilt, h);
    }
}
