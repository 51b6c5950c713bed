//! Epoch-swapped query views.
//!
//! An [`Epoch`] is one immutable, fully-owned, consistent view of the
//! dataset: only the values the query protocol answers from. Building
//! one runs over the whole history: the index merge, per-user rows, rate
//! by scale, MTTI and the three RAS↔job joins behind `AFFECTED` (costs in
//! [`crate::ingest`]). The [`EpochStore`] publishes epochs by swapping an
//! `Arc` behind an `RwLock`; readers hold the lock only long enough to
//! clone the `Arc`, so a query in flight keeps its epoch alive while
//! ingestion publishes the next one, and the old epoch is freed the
//! moment its last reader drops.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bgq_core::failure_rates::{by_scale, RateCurve};
use bgq_core::filtering::{interruption_stats_indexed, InterruptionStats};
use bgq_core::index::IndexBuilder;
use bgq_core::jobstats::{per_user, EntityActivity};
use bgq_core::ras_analysis::affected_jobs_indexed;
use bgq_logs::snapshot::{PartitionMap, SegmentQuarantine};
use bgq_logs::store::{Dataset, SourceAvailability};
use bgq_model::Severity;

/// The four tables, in the snapshot's canonical order — used for the
/// degraded-banner ordering in `STATS`.
const TABLES: [&str; 4] = ["jobs", "ras", "tasks", "io"];

/// One quarantined live segment, as surfaced in `STATS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedSegment {
    /// Table the segment belongs to.
    pub table: &'static str,
    /// Partition day of the segment.
    pub day: i64,
    /// Why the load dropped it.
    pub reason: SegmentQuarantine,
}

/// One immutable, consistent, queryable view of the dataset.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Monotonic epoch number (0 is the empty pre-ingest epoch).
    pub epoch: u64,
    /// Partition days the view covers, ascending.
    pub days: Vec<i64>,
    /// Row counts per table (jobs, ras, tasks, io).
    pub rows: [usize; 4],
    /// Table availability as recorded by the live manifest.
    pub availability: SourceAvailability,
    /// Per-user rows, descending by job count (the `TOPK` order).
    pub(crate) per_user: Vec<EntityActivity>,
    /// Raw user id → position of its row in `per_user`.
    user_rows: HashMap<u32, usize>,
    /// Job-log interruption statistics (`MTTI`, and the span of `MTTI <severity>`).
    pub interruptions: InterruptionStats,
    /// Failure rate by job scale (`RATE-BY-SCALE`).
    pub rate_by_scale: RateCurve,
    /// `(affected jobs, attributed events)` per minimum severity, in
    /// [`Severity::ALL`] order (INFO, WARN, FATAL).
    pub affected: [(usize, usize); 3],
    /// RAS record counts at or above each severity, same order.
    pub events_at_least: [usize; 3],
    /// Segments quarantined by live ingestion, in canonical
    /// (table, day) order — live accumulation and a cold batch load
    /// discover them in different orders, and `STATS` must render
    /// identically from both.
    pub quarantined: Vec<QuarantinedSegment>,
}

impl Epoch {
    /// The empty pre-ingest epoch (number 0, no days, no rows).
    #[must_use]
    pub fn empty() -> Epoch {
        Epoch::build(
            0,
            &Dataset::new(),
            &PartitionMap::default(),
            &[],
            &SourceAvailability::ALL,
            &mut IndexBuilder::new(),
            Vec::new(),
        )
    }

    /// Builds a consistent view over `ds`.
    ///
    /// Each served value comes from the stage function the batch analysis
    /// runs over the day-partitioned index. [`IndexBuilder::build_with_stats`]
    /// differs from `DatasetIndex::build_partitioned` only in reusing the
    /// days `builder` has cached (both merge through the same code), so a
    /// live epoch answers bit-identically to a batch run over the same prefix.
    ///
    /// `days` is the manifest's day list (it can exceed
    /// `parts.days` when a day holds only I/O rows, or when every
    /// segment of a day was quarantined).
    #[must_use]
    pub fn build(
        epoch: u64,
        ds: &Dataset,
        parts: &PartitionMap,
        days: &[i64],
        avail: &SourceAvailability,
        builder: &mut IndexBuilder,
        mut quarantined: Vec<QuarantinedSegment>,
    ) -> Epoch {
        let _span = bgq_obs::span!("serve.epoch.build");
        quarantined.sort_by_key(|q| {
            (
                TABLES.iter().position(|t| *t == q.table).unwrap_or(TABLES.len()),
                q.day,
            )
        });
        let (idx, _stats) = builder.build_with_stats(ds, parts);
        let per_user = per_user(idx.jobs);
        let user_rows = per_user
            .iter()
            .enumerate()
            .map(|(pos, row)| (row.id, pos))
            .collect();
        Epoch {
            epoch,
            days: days.to_vec(),
            rows: [ds.jobs.len(), ds.ras.len(), ds.tasks.len(), ds.io.len()],
            availability: *avail,
            per_user,
            user_rows,
            interruptions: interruption_stats_indexed(&idx),
            rate_by_scale: by_scale(idx.jobs),
            affected: Severity::ALL.map(|s| affected_jobs_indexed(&idx, s)),
            events_at_least: Severity::ALL.map(|s| idx.events_at_least(s)),
            quarantined,
        }
    }

    /// The row of raw user id `id`, if that user has jobs in this view.
    #[must_use]
    pub(crate) fn user(&self, id: u32) -> Option<&EntityActivity> {
        self.user_rows.get(&id).map(|&pos| &self.per_user[pos])
    }

    /// Tables that are degraded in this view — marked unavailable by the
    /// manifest or carrying at least one quarantined segment — in
    /// canonical table order.
    #[must_use]
    pub fn degraded_tables(&self) -> Vec<&'static str> {
        TABLES
            .into_iter()
            .filter(|t| {
                !self.availability.available(t)
                    || self.quarantined.iter().any(|q| q.table == *t)
            })
            .collect()
    }

    /// Position of `severity` within [`Severity::ALL`] — the index into
    /// [`Epoch::affected`] / [`Epoch::events_at_least`].
    #[must_use]
    pub fn severity_slot(severity: Severity) -> usize {
        Severity::ALL
            .iter()
            .position(|s| *s == severity)
            .expect("severity in ALL")
    }
}

/// Publisher/reader handoff for the current epoch.
///
/// `publish` is O(1): build the next epoch entirely off-lock, then swap
/// the `Arc` under a momentary write lock. `current` is a momentary
/// read lock + `Arc` clone, so queries never wait on an epoch build.
#[derive(Debug)]
pub struct EpochStore {
    current: RwLock<Arc<Epoch>>,
    swaps: AtomicU64,
}

impl EpochStore {
    /// A store holding the empty pre-ingest epoch.
    #[must_use]
    pub fn new() -> EpochStore {
        EpochStore {
            current: RwLock::new(Arc::new(Epoch::empty())),
            swaps: AtomicU64::new(0),
        }
    }

    /// The current epoch. The returned `Arc` keeps the view alive for
    /// as long as the caller holds it, independent of later swaps.
    #[must_use]
    pub fn current(&self) -> Arc<Epoch> {
        self.current.read().expect("epoch lock poisoned").clone()
    }

    /// Publishes `epoch` as the new current view.
    pub fn publish(&self, epoch: Epoch) {
        bgq_obs::gauge_set("serve.epoch", epoch.epoch);
        *self.current.write().expect("epoch lock poisoned") = Arc::new(epoch);
        self.swaps.fetch_add(1, Ordering::Relaxed);
        bgq_obs::add("serve.epoch_swaps", 1);
    }

    /// Number of publishes since construction.
    #[must_use]
    pub fn swaps(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

impl Default for EpochStore {
    fn default() -> Self {
        EpochStore::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{respond, Query};
    use bgq_core::analysis::Analysis;
    use bgq_core::filtering::FilterConfig;
    use bgq_core::index::DatasetIndex;
    use bgq_sim::{generate, SimConfig};

    /// The live view and the batch analysis agree value for value: the
    /// served fields come from the same stage functions over the same
    /// partitioned index, so a reply rendered from an epoch is a reply
    /// about the batch result. (`tests/serve.rs` cannot show this: its
    /// oracle is `Epoch::build` itself.)
    #[test]
    fn served_values_equal_the_batch_analysis() {
        let config = SimConfig::small(10)
            .with_seed(33)
            .with_users(25, 3)
            .with_retries(0.2);
        let ds = generate(&config).dataset;
        let parts = PartitionMap::of_dataset(&ds);
        let days: Vec<i64> = parts.days.iter().map(|p| p.day).collect();
        assert!(days.len() > 1, "the trace must span several days");
        assert!(
            ds.jobs.iter().any(|j| j.resubmit_of.is_some()),
            "no retries"
        );
        let e = Epoch::build(
            1,
            &ds,
            &parts,
            &days,
            &SourceAvailability::ALL,
            &mut IndexBuilder::new(),
            Vec::new(),
        );

        let idx = DatasetIndex::build_partitioned(&ds, &parts, &FilterConfig::default());
        let batch = Analysis::run_indexed(&idx);
        assert!(
            batch.per_user.len() > 1,
            "the trace must have several users"
        );
        assert!(batch.interruptions.interrupted_jobs > 0, "no interruptions");
        assert_eq!(e.per_user, batch.per_user);
        assert_eq!(e.interruptions, batch.interruptions);
        assert_eq!(e.rate_by_scale, batch.rate_by_scale);
        assert_eq!(
            e.affected,
            Severity::ALL.map(|s| affected_jobs_indexed(&idx, s))
        );
        assert_eq!(
            e.events_at_least,
            Severity::ALL.map(|s| ds.ras.iter().filter(|r| r.severity >= s).count())
        );

        for row in &e.per_user {
            assert_eq!(
                e.user(row.id),
                Some(row),
                "user {} resolves elsewhere",
                row.id
            );
        }
        let absent = e.per_user.iter().map(|r| r.id).max().unwrap() + 1;
        assert_eq!(e.user(absent), None);
        assert_eq!(
            respond(&e, &Query::User(absent)),
            format!("OK 1 1\nuser {absent} jobs 0 failed 0 node-seconds 0 core-hours 0.000\n")
        );
    }

    #[test]
    fn empty_epoch_answers_without_rows() {
        let e = Epoch::empty();
        assert_eq!(e.epoch, 0);
        assert_eq!(e.rows, [0, 0, 0, 0]);
        assert!(e.days.is_empty());
        assert!(e.degraded_tables().is_empty());
        assert_eq!(e.affected, [(0, 0); 3]);
    }

    #[test]
    fn store_swaps_and_frees_old_epochs() {
        let store = EpochStore::new();
        let e0 = store.current();
        assert_eq!(e0.epoch, 0);
        let mut next = Epoch::empty();
        next.epoch = 1;
        store.publish(next);
        assert_eq!(store.current().epoch, 1);
        assert_eq!(store.swaps(), 1);
        // The store released its reference to epoch 0: we are the only
        // holder left, so dropping `e0` frees it.
        assert_eq!(Arc::strong_count(&e0), 1);
    }

    #[test]
    fn severity_slots_cover_all() {
        assert_eq!(Epoch::severity_slot(Severity::Info), 0);
        assert_eq!(Epoch::severity_slot(Severity::Warn), 1);
        assert_eq!(Epoch::severity_slot(Severity::Fatal), 2);
    }
}
