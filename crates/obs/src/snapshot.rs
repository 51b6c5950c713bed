//! Immutable views of the collector's state.

use std::collections::BTreeMap;

use crate::hist::Histogram;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of times the span was entered.
    pub calls: u64,
    /// Total wall time across all calls (and all threads), nanoseconds.
    /// Each call contributes at least 1 ns, so a recorded stage can
    /// never report zero.
    pub wall_ns: u64,
}

impl SpanStat {
    /// Total wall time in milliseconds.
    #[must_use]
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    fn saturating_sub(self, earlier: SpanStat) -> SpanStat {
        SpanStat {
            calls: self.calls.saturating_sub(earlier.calls),
            wall_ns: self.wall_ns.saturating_sub(earlier.wall_ns),
        }
    }
}

/// A point-in-time copy of every metric the collector holds.
///
/// Keys are `(name, label)` pairs; unlabeled metrics use an empty
/// label. All maps are ordered, so iteration (and therefore rendering)
/// is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<(String, String), u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<(String, String), u64>,
    /// Span aggregates keyed by span name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Data histograms (`hist_record`/`hist_merge`). Like the counters,
    /// these hold record-flow *data* values and are schedule-independent.
    pub hists: BTreeMap<(String, String), Histogram>,
    /// Per-invocation span durations in nanoseconds, keyed by span name.
    /// Counts are schedule-independent; sums (wall time) are not.
    pub span_ns: BTreeMap<String, Histogram>,
}

impl Snapshot {
    /// The change since `earlier`: counters and spans subtract
    /// (saturating, dropping entries that end up empty), gauges keep
    /// their current values (a gauge is a level, not a flow).
    #[must_use]
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.spans.get(k).copied().unwrap_or_default());
                (d.calls > 0 || d.wall_ns > 0).then(|| (k.clone(), d))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .filter_map(|(k, v)| {
                let d = match earlier.hists.get(k) {
                    Some(e) => v.saturating_sub(e),
                    None => v.clone(),
                };
                (!d.is_empty()).then(|| (k.clone(), d))
            })
            .collect();
        let span_ns = self
            .span_ns
            .iter()
            .filter_map(|(k, v)| {
                let d = match earlier.span_ns.get(k) {
                    Some(e) => v.saturating_sub(e),
                    None => v.clone(),
                };
                (!d.is_empty()).then(|| (k.clone(), d))
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            spans,
            hists,
            span_ns,
        }
    }

    /// Value of counter `name` under `label` (0 when absent).
    #[must_use]
    pub fn counter(&self, name: &str, label: &str) -> u64 {
        self.counters
            .get(&(name.to_owned(), label.to_owned()))
            .copied()
            .unwrap_or(0)
    }

    /// Sum of counter `name` across all labels.
    #[must_use]
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Total wall nanoseconds recorded under span `name` (0 if absent).
    #[must_use]
    pub fn span_wall_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.wall_ns)
    }

    /// The data histogram `name` under `label`, if recorded.
    #[must_use]
    pub fn hist(&self, name: &str, label: &str) -> Option<&Histogram> {
        self.hists.get(&(name.to_owned(), label.to_owned()))
    }

    /// The per-invocation duration histogram of span `name`, if any.
    #[must_use]
    pub fn span_hist(&self, name: &str) -> Option<&Histogram> {
        self.span_ns.get(name)
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.spans.is_empty()
            && self.hists.is_empty()
            && self.span_ns.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_subtracts_and_drops_empty() {
        let mut early = Snapshot::default();
        early.counters.insert(("a".into(), String::new()), 5);
        early.spans.insert(
            "s".into(),
            SpanStat {
                calls: 1,
                wall_ns: 100,
            },
        );
        let mut late = early.clone();
        *late
            .counters
            .get_mut(&("a".to_owned(), String::new()))
            .unwrap() = 9;
        late.counters.insert(("b".into(), "x".into()), 3);
        late.gauges.insert(("g".into(), String::new()), 7);
        let d = late.since(&early);
        assert_eq!(d.counter("a", ""), 4);
        assert_eq!(d.counter("b", "x"), 3);
        assert_eq!(d.gauges[&("g".to_owned(), String::new())], 7);
        assert!(
            d.spans.is_empty(),
            "unchanged span must drop out of the diff"
        );
        assert_eq!(d.counter_total("a") + d.counter_total("b"), 7);
    }

    #[test]
    fn since_subtracts_histograms() {
        let mut early = Snapshot::default();
        let mut h = Histogram::new();
        h.record(10);
        early
            .hists
            .insert(("rows".into(), "jobs".into()), h.clone());
        early.span_ns.insert("stage".into(), h.clone());
        let mut late = early.clone();
        late.hists
            .get_mut(&("rows".to_owned(), "jobs".to_owned()))
            .unwrap()
            .record(500);
        late.hists
            .insert(("fresh".into(), String::new()), h.clone());
        let d = late.since(&early);
        let rows = d.hist("rows", "jobs").expect("changed hist kept");
        assert_eq!((rows.count(), rows.sum()), (1, 500));
        assert_eq!(d.hist("fresh", "").unwrap().count(), 1);
        assert!(
            d.span_hist("stage").is_none(),
            "unchanged span hist must drop out"
        );
        assert!(!d.is_empty());
    }

    #[test]
    fn empty_snapshot_reports_zeroes() {
        let s = Snapshot::default();
        assert!(s.is_empty());
        assert_eq!(s.counter("nope", ""), 0);
        assert_eq!(s.span_wall_ns("nope"), 0);
    }
}
