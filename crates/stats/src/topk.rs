//! Streaming heavy-hitters via the space-saving sketch.
//!
//! Finding the top-k users of a million-user log exactly requires one
//! counter per distinct user. The space-saving summary (Metwally,
//! Agrawal, El Abbadi 2005) keeps only `m = ⌈1/ε⌉` counters and still
//! guarantees, for a stream of total weight `W`:
//!
//! * every reported estimate over-counts: `true ≤ est ≤ true + εW`;
//! * each counter carries its own `overestimate` bound, so
//!   `est − overestimate ≤ true ≤ est` per entry;
//! * any key with true weight `> εW` is present in the summary.
//!
//! Everything here is integer arithmetic with total tie-breaking, so a
//! sketch is a pure function of its update sequence, and [`merge`] of
//! two sketches is a pure function of the pair — the same inputs give
//! the same bytes on every thread layout.
//!
//! [`merge`]: SpaceSaving::merge

use std::collections::{BTreeMap, BTreeSet};

/// One reported heavy hitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The tracked key (an entity id).
    pub key: u64,
    /// Estimated total weight; never below the true weight.
    pub count: u64,
    /// Upper bound on the over-count: `count − overestimate` is a
    /// certain lower bound on the true weight. Zero means exact.
    pub overestimate: u64,
}

impl HeavyHitter {
    /// Guaranteed lower bound on the key's true weight.
    #[must_use]
    pub fn guaranteed(&self) -> u64 {
        self.count - self.overestimate
    }
}

/// Per-key counter state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counter {
    count: u64,
    over: u64,
}

/// The space-saving summary: at most `capacity` counters, weighted
/// updates, deterministic eviction and merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSaving {
    capacity: usize,
    counts: BTreeMap<u64, Counter>,
    /// Eviction index ordered by `(count, key)`: the first element is
    /// the unique minimum, making eviction deterministic under ties.
    order: BTreeSet<(u64, u64)>,
    total_weight: u64,
}

impl SpaceSaving {
    /// A sketch with room for `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "a space-saving sketch needs at least one counter"
        );
        Self {
            capacity,
            counts: BTreeMap::new(),
            order: BTreeSet::new(),
            total_weight: 0,
        }
    }

    /// A sketch sized for relative error `epsilon`: `⌈1/ε⌉` counters.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < epsilon ≤ 1`.
    #[must_use]
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(
            epsilon > 0.0 && epsilon <= 1.0,
            "epsilon must be in (0, 1], got {epsilon}"
        );
        Self::with_capacity(epsilon.recip().ceil() as usize)
    }

    /// Number of counters the sketch may hold.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total weight observed so far (including merged-in streams).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// The additive error bound `⌊W / m⌋`: no estimate over-counts by
    /// more than this.
    #[must_use]
    pub fn error_bound(&self) -> u64 {
        self.total_weight / self.capacity as u64
    }

    /// Number of keys currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when nothing has been tracked.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Adds `weight` to `key`'s estimate. Zero weights still register
    /// the key (they may evict) but add nothing to the totals.
    pub fn update(&mut self, key: u64, weight: u64) {
        self.total_weight += weight;
        if let Some(c) = self.counts.get_mut(&key) {
            self.order.remove(&(c.count, key));
            c.count += weight;
            self.order.insert((c.count, key));
        } else if self.counts.len() < self.capacity {
            self.counts.insert(
                key,
                Counter {
                    count: weight,
                    over: 0,
                },
            );
            self.order.insert((weight, key));
        } else {
            // Evict the minimum counter — ties resolved by smallest key
            // — and charge its count as the newcomer's overestimate.
            let &(min_count, min_key) = self.order.iter().next().expect("capacity > 0");
            self.order.remove(&(min_count, min_key));
            self.counts.remove(&min_key);
            let count = min_count + weight;
            self.counts.insert(
                key,
                Counter {
                    count,
                    over: min_count,
                },
            );
            self.order.insert((count, key));
        }
    }

    /// Merges another sketch into this one.
    ///
    /// For a key in only one summary the other side may have seen it
    /// and evicted it, so its floor (the other side's minimum counter,
    /// zero while under capacity) is added to both the estimate and the
    /// overestimate. The union is then cut back to `capacity` keys by
    /// `(count desc, key asc)` — a total order, so merging is
    /// deterministic. The combined error bound is the sum of the two
    /// inputs' bounds.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ; summaries are only comparable
    /// at the same resolution.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "cannot merge sketches of different capacity"
        );
        let floor_self = self.floor();
        let floor_other = other.floor();
        let mut union: BTreeMap<u64, Counter> = BTreeMap::new();
        for (&key, &c) in &self.counts {
            let o = other.counts.get(&key);
            union.insert(
                key,
                Counter {
                    count: c.count + o.map_or(floor_other, |o| o.count),
                    over: c.over + o.map_or(floor_other, |o| o.over),
                },
            );
        }
        for (&key, &c) in &other.counts {
            union.entry(key).or_insert(Counter {
                count: c.count + floor_self,
                over: c.over + floor_self,
            });
        }
        let mut ranked: Vec<(u64, Counter)> = union.into_iter().collect();
        ranked.sort_by(|a, b| b.1.count.cmp(&a.1.count).then(a.0.cmp(&b.0)));
        ranked.truncate(self.capacity);
        self.counts = ranked.iter().copied().collect();
        self.order = ranked.iter().map(|&(key, c)| (c.count, key)).collect();
        self.total_weight += other.total_weight;
    }

    /// The implicit estimate for keys not in the summary: the minimum
    /// counter once full, zero before that (nothing was ever evicted).
    fn floor(&self) -> u64 {
        if self.counts.len() < self.capacity {
            0
        } else {
            self.order.iter().next().map_or(0, |&(count, _)| count)
        }
    }

    /// The top `k` keys by estimated weight, descending (ties by
    /// ascending key).
    #[must_use]
    pub fn top(&self, k: usize) -> Vec<HeavyHitter> {
        let mut v: Vec<HeavyHitter> = self
            .counts
            .iter()
            .map(|(&key, c)| HeavyHitter {
                key,
                count: c.count,
                overestimate: c.over,
            })
            .collect();
        v.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — keeps the tests free of the rand dev-dependency.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A skewed synthetic stream: key `i % 1000`, weight heavy for the
    /// first few keys — small keys dominate like Zipf users do.
    fn stream(n: usize, seed: u64) -> Vec<(u64, u64)> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                let r = mix(&mut s);
                let key = (r % 1_000).min(mix(&mut s) % 1_000); // skew low
                (key, 1 + r % 5)
            })
            .collect()
    }

    fn exact(updates: &[(u64, u64)]) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for &(k, w) in updates {
            *m.entry(k).or_insert(0u64) += w;
        }
        m
    }

    #[test]
    fn exact_under_capacity() {
        let mut sk = SpaceSaving::with_capacity(64);
        let updates: Vec<(u64, u64)> = (0..50u64).map(|k| (k, k + 1)).collect();
        for &(k, w) in &updates {
            sk.update(k, w);
        }
        let truth = exact(&updates);
        assert_eq!(sk.len(), truth.len());
        for h in sk.top(usize::MAX) {
            assert_eq!(h.count, truth[&h.key]);
            assert_eq!(h.overestimate, 0, "no eviction ever happened");
        }
    }

    #[test]
    fn epsilon_guarantee_over_a_skewed_stream() {
        let updates = stream(20_000, 7);
        let truth = exact(&updates);
        let mut sk = SpaceSaving::with_epsilon(0.01);
        for &(k, w) in &updates {
            sk.update(k, w);
        }
        let w: u64 = updates.iter().map(|u| u.1).sum();
        assert_eq!(sk.total_weight(), w);
        let bound = sk.error_bound();
        for h in sk.top(usize::MAX) {
            let t = truth.get(&h.key).copied().unwrap_or(0);
            assert!(h.count >= t, "space-saving never undercounts");
            assert!(
                h.count - t <= bound,
                "over-count {} > εW {bound}",
                h.count - t
            );
            assert!(h.guaranteed() <= t, "guaranteed floor must hold");
        }
        // Completeness: every true heavy hitter above εW is tracked.
        for (&k, &t) in &truth {
            if t > bound {
                assert!(
                    sk.top(usize::MAX).iter().any(|h| h.key == k),
                    "missing heavy key {k}"
                );
            }
        }
    }

    #[test]
    fn eviction_ties_break_by_smallest_key() {
        let mut sk = SpaceSaving::with_capacity(2);
        sk.update(10, 5);
        sk.update(20, 5); // full; both counters equal
        sk.update(30, 1); // must evict key 10, the smaller of the tie
        let top = sk.top(usize::MAX);
        assert!(top.iter().any(|h| h.key == 20));
        let newcomer = top.iter().find(|h| h.key == 30).expect("inserted");
        assert_eq!((newcomer.count, newcomer.overestimate), (6, 5));
        assert!(!top.iter().any(|h| h.key == 10));
    }

    #[test]
    fn merge_is_deterministic_and_bounded() {
        let updates = stream(30_000, 11);
        let truth = exact(&updates);
        let parts: Vec<&[(u64, u64)]> = updates.chunks(7_501).collect();
        let sketch_of = |part: &[(u64, u64)]| {
            let mut sk = SpaceSaving::with_capacity(100);
            for &(k, w) in part {
                sk.update(k, w);
            }
            sk
        };
        let mut merged = sketch_of(parts[0]);
        for part in &parts[1..] {
            merged.merge(&sketch_of(part));
        }
        // Same inputs, same merge order → identical sketch, twice.
        let mut again = sketch_of(parts[0]);
        for part in &parts[1..] {
            again.merge(&sketch_of(part));
        }
        assert_eq!(merged, again);
        // Each input contributes at most its own εW of error.
        let bound: u64 = parts
            .iter()
            .map(|p| p.iter().map(|u| u.1).sum::<u64>() / 100)
            .sum::<u64>()
            + parts.len() as u64; // flooring slack, one per part
        for h in merged.top(usize::MAX) {
            let t = truth.get(&h.key).copied().unwrap_or(0);
            assert!(h.count >= t, "merged sketch must not undercount");
            assert!(
                h.count - t <= bound,
                "merged over-count {} > {bound}",
                h.count - t
            );
        }
        assert_eq!(
            merged.total_weight(),
            updates.iter().map(|u| u.1).sum::<u64>()
        );
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut sk = SpaceSaving::with_capacity(8);
        for k in 0..5u64 {
            sk.update(k, k + 1);
        }
        let before = sk.clone();
        sk.merge(&SpaceSaving::with_capacity(8));
        assert_eq!(sk, before);
        let mut empty = SpaceSaving::with_capacity(8);
        empty.merge(&before);
        assert_eq!(empty.top(usize::MAX), before.top(usize::MAX));
    }

    #[test]
    #[should_panic(expected = "different capacity")]
    fn merging_mismatched_capacities_panics() {
        SpaceSaving::with_capacity(4).merge(&SpaceSaving::with_capacity(8));
    }

    #[test]
    fn epsilon_sizing() {
        assert_eq!(SpaceSaving::with_epsilon(0.01).capacity(), 100);
        assert_eq!(SpaceSaving::with_epsilon(1.0).capacity(), 1);
        assert_eq!(SpaceSaving::with_epsilon(0.003).capacity(), 334);
    }
}
