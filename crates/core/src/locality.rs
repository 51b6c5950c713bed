//! Spatial locality of fatal events (experiment E10).
//!
//! The abstract: RAS events "have a strong locality feature". This module
//! aggregates fatal events per hardware element at several granularities,
//! quantifies concentration (top-k share, Gini), and flags *hot* elements
//! — which the integration tests check against the simulator's lemon
//! boards.

use std::collections::BTreeMap;

use bgq_model::ras::Severity;
use bgq_model::Location;
use bgq_stats::summary::gini;

/// Aggregation granularity for the locality analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Per rack.
    Rack,
    /// Per midplane.
    Midplane,
    /// Per node board.
    Board,
}

/// Per-element fatal-event counts at one granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityMap {
    /// Aggregation level.
    pub level: Level,
    /// Counts per element, descending.
    pub counts: Vec<(Location, usize)>,
    /// Total events aggregated (events coarser than `level` are counted
    /// against their coarsest containing element when possible).
    pub total: usize,
}

impl LocalityMap {
    /// Share of events on the `k` hottest elements (`0` if no events).
    pub fn top_k_share(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let top: usize = self.counts.iter().take(k).map(|&(_, c)| c).sum();
        top as f64 / self.total as f64
    }

    /// Gini coefficient of the per-element counts (including elements with
    /// zero events is the caller's choice; this uses observed elements
    /// only).
    pub fn gini(&self) -> Option<f64> {
        gini(&self.counts.iter().map(|&(_, c)| c as f64).collect::<Vec<_>>())
    }

    /// Elements whose count is at least `factor ×` the mean count — the
    /// "hot" elements.
    pub fn hot_elements(&self, factor: f64) -> Vec<Location> {
        if self.counts.is_empty() {
            return Vec::new();
        }
        let mean = self.total as f64 / self.counts.len() as f64;
        self.counts
            .iter()
            .filter(|&&(_, c)| c as f64 >= factor * mean)
            .map(|&(loc, _)| loc)
            .collect()
    }
}

/// Truncates `loc` to `level`; `None` when the event is coarser than the
/// requested level (e.g. a rack event has no single board).
fn truncate(loc: &Location, level: Level) -> Option<Location> {
    match level {
        Level::Rack => Some(loc.rack_location()),
        Level::Midplane => loc.midplane_location(),
        Level::Board => loc.board_location(),
    }
}

/// Aggregates events of at least `min_severity` per element at `level`.
///
/// Walks only the severity partitions of a [`DatasetIndex`] at or above
/// `min_severity` instead of scanning (and severity-testing) the whole
/// RAS log per granularity level.
///
/// [`DatasetIndex`]: crate::index::DatasetIndex
#[must_use]
pub fn locality_map_indexed(
    idx: &crate::index::DatasetIndex<'_>,
    min_severity: Severity,
    level: Level,
) -> LocalityMap {
    let mut map: BTreeMap<Location, usize> = BTreeMap::new();
    let mut total = 0usize;
    idx.each_event_at_least(min_severity, |i| {
        if let Some(elem) = truncate(&idx.ras[i].location, level) {
            *map.entry(elem).or_insert(0) += 1;
            total += 1;
        }
    });
    // Sort descending by count, break ties by location.
    let mut counts: Vec<(Location, usize)> = map.into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    LocalityMap {
        level,
        counts,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DatasetIndex;
    use bgq_logs::store::Dataset;
    use bgq_model::ids::RecId;
    use bgq_model::ras::{Category, Component, MsgId, MsgText};
    use bgq_model::{RasRecord, Timestamp};

    fn event(t: i64, loc: &str, sev: Severity) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(t as u64),
            msg_id: MsgId::new(1),
            severity: sev,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: loc.parse::<Location>().unwrap(),
            message: MsgText::default(),
            count: 1,
        }
    }

    /// [`locality_map_indexed`] over a dataset holding only `ras`.
    fn map_of(ras: Vec<RasRecord>, min_severity: Severity, level: Level) -> LocalityMap {
        let ds = Dataset {
            ras,
            ..Dataset::new()
        };
        locality_map_indexed(&DatasetIndex::build(&ds), min_severity, level)
    }

    #[test]
    fn board_map_counts_by_board() {
        let ras = vec![
            event(1, "R00-M0-N03-J05", Severity::Fatal),
            event(2, "R00-M0-N03-J09-C02", Severity::Fatal),
            event(3, "R00-M0-N04", Severity::Fatal),
            event(4, "R17", Severity::Fatal), // coarser than board: dropped
            event(5, "R00-M0-N03", Severity::Info), // below severity
        ];
        let m = map_of(ras, Severity::Fatal, Level::Board);
        assert_eq!(m.total, 3);
        assert_eq!(m.counts[0].0.to_string(), "R00-M0-N03");
        assert_eq!(m.counts[0].1, 2);
        assert!((m.top_k_share(1) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rack_map_keeps_coarse_events() {
        let ras = vec![
            event(1, "R17", Severity::Fatal),
            event(2, "R17-M0-N00", Severity::Fatal),
            event(3, "R00", Severity::Fatal),
        ];
        let m = map_of(ras, Severity::Fatal, Level::Rack);
        assert_eq!(m.total, 3);
        assert_eq!(m.counts[0].1, 2); // R17
    }

    #[test]
    fn hot_elements_threshold() {
        let mut ras = Vec::new();
        for i in 0..20 {
            ras.push(event(i, "R00-M0-N00", Severity::Fatal));
        }
        ras.push(event(100, "R01-M0-N00", Severity::Fatal));
        ras.push(event(101, "R02-M0-N00", Severity::Fatal));
        let m = map_of(ras, Severity::Fatal, Level::Board);
        let hot = m.hot_elements(2.0);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].to_string(), "R00-M0-N00");
        assert!(m.gini().unwrap() > 0.5);
    }

    #[test]
    fn empty_input() {
        let m = map_of(Vec::new(), Severity::Fatal, Level::Board);
        assert_eq!(m.total, 0);
        assert_eq!(m.top_k_share(5), 0.0);
        assert!(m.hot_elements(1.0).is_empty());
        assert!(m.gini().is_none());
    }
}
