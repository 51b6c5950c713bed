//! Epoch-swapped query views.
//!
//! An [`Epoch`] is one immutable, fully-owned, consistent view of the
//! dataset: only the values the query protocol answers from. Each is
//! rendered from a `Tally`, the served fields kept as running per-day
//! partials: a live tick folds in only the newly committed days
//! ([`crate::ingest`]), a cold start folds its backlog a chunk of days
//! at a time and renders one epoch after the last, so it holds one
//! chunk's rows instead of the whole history's, and [`Epoch::build`]
//! folds a whole dataset in one batch, all through the same code. A
//! traced `live_tail` tick spends 1.2 ms here at ~465 days of history,
//! and a traced `archive` tick 4.2–6.8 ms at ~2000 days
//! (`epoch.build_ms`, two cores). The
//! [`EpochStore`] publishes epochs by swapping an `Arc` behind an
//! `RwLock`; readers hold the lock only long enough to clone the `Arc`,
//! so a query in flight keeps its epoch alive while ingestion publishes
//! the next one, and the old epoch is freed the moment its last reader
//! drops.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use bgq_core::columnar::EntityTally;
use bgq_core::exitcode::ExitClass;
use bgq_core::failure_rates::{RateCurve, RateTally};
use bgq_core::filtering::InterruptionStats;
use bgq_core::index::IndexBuilder;
use bgq_core::jobstats::EntityActivity;
use bgq_logs::join::attribute_events;
use bgq_logs::snapshot::{day_start, PartitionMap, SegmentQuarantine, TABLES};
use bgq_logs::store::{Dataset, SourceAvailability};
use bgq_model::{JobRecord, Severity, Timestamp};

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
        Tally::default().advance(
            0,
            &Dataset::new(),
            &[],
            &SourceAvailability::ALL,
            Vec::new(),
        )
    }

    /// Builds a consistent view over `ds`: a fresh `Tally` folding the
    /// whole dataset in one batch. A live [`crate::Ingestor`] folds the
    /// same rows a day at a time, or a backlog a chunk of days at a time,
    /// through the same code, so the two answer bit-identically.
    ///
    /// `days` is the manifest's day list (it can exceed the days holding
    /// rows when a day holds only I/O rows, or when every segment of a day
    /// was quarantined). `_parts` and `_builder` are unused: the fold
    /// needs neither a partition map nor an index.
    #[must_use]
    pub fn build(
        epoch: u64,
        ds: &Dataset,
        _parts: &PartitionMap,
        days: &[i64],
        avail: &SourceAvailability,
        _builder: &mut IndexBuilder,
        quarantined: Vec<QuarantinedSegment>,
    ) -> Epoch {
        Tally::default().advance(epoch, ds, days, avail, quarantined)
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
                !self.availability.available(t) || self.quarantined.iter().any(|q| q.table == *t)
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

/// Every served field as a running partial over the days folded so far.
///
/// Each partial comes from the bgq-core code the batch analysis uses for
/// that field: per-user integers from the columnar engine, `(jobs,
/// failed)` per distinct node count from the failure-rate tally, and the
/// interruption statistics from their one constructor. `AFFECTED` is
/// boundary-local: a new day's events can hit only the new day's jobs
/// and the jobs still running at the end of the last folded day, so one
/// INFO join covers exactly those and the rest of the history is never
/// touched again. Besides the per-user and per-value counts, the only
/// per-job state kept is the rate tally's `(node-count slot, failed)`
/// column and the still-running jobs.
#[derive(Debug)]
pub(crate) struct Tally {
    /// Row counts per table (jobs, ras, tasks, io).
    rows: [usize; 4],
    /// Per-user integers (`USER`, `TOPK`, the `STATS` user count).
    users: EntityTally,
    /// Failure rate by job scale (`RATE-BY-SCALE`).
    scale: RateTally,
    /// System-kill end times, ascending (`MTTI`).
    kills: Vec<Timestamp>,
    /// First job start and last job end (the `MTTI` span).
    first_start: Option<Timestamp>,
    last_end: Option<Timestamp>,
    /// RAS events at or above each severity, in [`Severity::ALL`] order.
    events_at_least: [usize; 3],
    /// `(affected jobs, attributed events)` per minimum severity.
    affected: [(usize, usize); 3],
    /// Jobs ending after the last folded day, which a later day's event
    /// can still hit...
    open: Vec<JobRecord>,
    /// ...and, per open job, how many severity slots it already counts
    /// as affected at (0: not hit yet), so a job hit on two days counts
    /// once.
    open_hits: Vec<u8>,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            rows: [0; 4],
            users: EntityTally::default(),
            scale: RateTally::by_scale(),
            kills: Vec::new(),
            first_start: None,
            last_end: None,
            events_at_least: [0; 3],
            affected: [(0, 0); 3],
            open: Vec::new(),
            open_hits: Vec::new(),
        }
    }
}

impl Tally {
    /// Folds in `fresh`, the rows of the days after those already folded,
    /// and renders the resulting epoch. `days` is every day folded so
    /// far, `fresh`'s included.
    pub(crate) fn advance(
        &mut self,
        epoch: u64,
        fresh: &Dataset,
        days: &[i64],
        avail: &SourceAvailability,
        mut quarantined: Vec<QuarantinedSegment>,
    ) -> Epoch {
        let _span = bgq_obs::span!("serve.epoch.build");
        self.fold(fresh, days.last().copied());
        quarantined.sort_by_key(|q| {
            (
                TABLES
                    .iter()
                    .position(|t| *t == q.table)
                    .unwrap_or(TABLES.len()),
                q.day,
            )
        });
        let per_user = self.users.rows();
        let user_rows = per_user
            .iter()
            .enumerate()
            .map(|(pos, row)| (row.id, pos))
            .collect();
        Epoch {
            epoch,
            days: days.to_vec(),
            rows: self.rows,
            availability: *avail,
            per_user,
            user_rows,
            interruptions: InterruptionStats::from_kills(
                &self.kills,
                self.first_start,
                self.last_end,
            ),
            rate_by_scale: self.scale.curve(),
            affected: self.affected,
            events_at_least: self.events_at_least,
            quarantined,
        }
    }

    /// Adds `fresh`'s rows to every partial without rendering an epoch:
    /// a poll's backlog folds all but its last chunk this way. `last_day`
    /// is the last day folded so far; jobs ending after it stay open for
    /// later events.
    pub(crate) fn fold(&mut self, fresh: &Dataset, last_day: Option<i64>) {
        let lens = [
            fresh.jobs.len(),
            fresh.ras.len(),
            fresh.tasks.len(),
            fresh.io.len(),
        ];
        for (total, n) in self.rows.iter_mut().zip(lens) {
            *total += n;
        }
        self.users.add(&fresh.jobs, |j| j.user.raw());
        self.scale.add(&fresh.jobs);
        let kill = |j: &&JobRecord| ExitClass::from_exit_code(j.exit_code) == ExitClass::SystemKill;
        let before = self.kills.len();
        self.kills
            .extend(fresh.jobs.iter().filter(kill).map(|j| j.ended_at));
        if self.kills.len() > before {
            self.kills.sort_unstable();
        }
        let starts = fresh.jobs.iter().map(|j| j.started_at);
        self.first_start = self.first_start.into_iter().chain(starts).min();
        let ends = fresh.jobs.iter().map(|j| j.ended_at);
        self.last_end = self.last_end.into_iter().chain(ends).max();
        for r in &fresh.ras {
            for n in &mut self.events_at_least[..=Epoch::severity_slot(r.severity)] {
                *n += 1;
            }
        }
        self.attribute(fresh, last_day.map(|d| day_start(d + 1)));
    }

    /// The `AFFECTED` partial: joins `fresh`'s events against the open
    /// jobs and `fresh`'s jobs, then keeps open the jobs ending after
    /// `boundary` (none when it is `None`).
    fn attribute(&mut self, fresh: &Dataset, boundary: Option<Timestamp>) {
        let jobs: Cow<'_, [JobRecord]> = if self.open.is_empty() {
            Cow::Borrowed(&fresh.jobs)
        } else {
            let mut jobs = std::mem::take(&mut self.open);
            jobs.extend_from_slice(&fresh.jobs);
            Cow::Owned(jobs)
        };
        let mut hits = std::mem::take(&mut self.open_hits);
        hits.resize(jobs.len(), 0);
        for pair in attribute_events(&jobs, &fresh.ras, Severity::Info).pairs {
            let slot = Epoch::severity_slot(fresh.ras[pair.event_idx].severity);
            for counts in &mut self.affected[..=slot] {
                counts.1 += 1;
            }
            let hit = &mut hits[pair.job_idx];
            if usize::from(*hit) <= slot {
                for counts in &mut self.affected[usize::from(*hit)..=slot] {
                    counts.0 += 1;
                }
                *hit = slot as u8 + 1;
            }
        }
        if let Some(boundary) = boundary {
            for (job, hit) in jobs.iter().zip(hits) {
                if job.ended_at > boundary {
                    self.open.push(job.clone());
                    self.open_hits.push(hit);
                }
            }
        }
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
    use bgq_core::index::DatasetIndex;
    use bgq_core::ras_analysis::affected_jobs_indexed;
    use bgq_logs::snapshot::{split_days, DayRows};
    use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::{Category, Component, MsgId, MsgText};
    use bgq_model::{Block, Location, RasRecord};
    use bgq_sim::{generate, SimConfig};

    /// One partition day's rows as a dataset of their own.
    fn day_rows(rows: DayRows<'_>) -> Dataset {
        Dataset {
            jobs: rows.jobs.to_vec(),
            ras: rows.ras.to_vec(),
            tasks: rows.tasks.to_vec(),
            io: rows.io,
        }
    }

    /// Appends `more`'s rows to `ds` (a later day's, so the order stays
    /// canonical).
    fn append(ds: &mut Dataset, more: &Dataset) {
        ds.jobs.extend_from_slice(&more.jobs);
        ds.ras.extend_from_slice(&more.ras);
        ds.tasks.extend_from_slice(&more.tasks);
        ds.io.extend_from_slice(&more.io);
    }

    /// The live view and the batch analysis agree value for value after
    /// every day of a day-at-a-time fold: each served field comes from
    /// the bgq-core code the batch stage uses, so a reply rendered from a
    /// live epoch is a reply about the batch result over the same prefix.
    /// (`tests/serve.rs` cannot show this: its oracle is `Epoch::build`,
    /// the same fold in one batch.)
    #[test]
    fn served_values_equal_the_batch_analysis() {
        let config = SimConfig::small(10)
            .with_seed(33)
            .with_users(25, 3)
            .with_retries(0.2);
        let ds = generate(&config).dataset;
        let parts = split_days(&ds);
        assert!(parts.len() > 1, "the trace must span several days");
        assert!(
            ds.jobs.iter().any(|j| j.resubmit_of.is_some()),
            "no retries"
        );
        let mut tally = Tally::default();
        let mut prefix = Dataset::new();
        let mut days = Vec::new();
        let mut e = Epoch::empty();
        for part in &parts {
            let fresh = day_rows(part.rows(&ds));
            append(&mut prefix, &fresh);
            prefix.io.sort_by_key(|r| r.job_id);
            days.push(part.span.day);
            e = tally.advance(1, &fresh, &days, &SourceAvailability::ALL, Vec::new());

            let idx = DatasetIndex::build(&prefix);
            let batch = Analysis::run_indexed(&idx);
            let at = part.span.day;
            assert_eq!(e.per_user, batch.per_user, "day {at}");
            assert_eq!(e.interruptions, batch.interruptions, "day {at}");
            assert_eq!(e.rate_by_scale, batch.rate_by_scale, "day {at}");
            assert_eq!(
                e.affected,
                Severity::ALL.map(|s| affected_jobs_indexed(&idx, s)),
                "day {at}"
            );
            assert_eq!(
                e.events_at_least,
                Severity::ALL.map(|s| prefix.ras.iter().filter(|r| r.severity >= s).count()),
                "day {at}"
            );
            assert_eq!(
                e.rows,
                [
                    prefix.jobs.len(),
                    prefix.ras.len(),
                    prefix.tasks.len(),
                    prefix.io.len()
                ],
                "day {at}"
            );
        }
        assert!(e.per_user.len() > 1, "the trace must have several users");
        assert!(e.interruptions.interrupted_jobs > 1, "no interruption gaps");
        assert!(e.interruptions.mean_gap_days.is_some());
        assert!(
            e.affected.iter().all(|&(jobs, _)| jobs > 0),
            "{:?}",
            e.affected
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

    /// Day 15804 at 00:00 UTC, the first of the three hand-built days.
    const D: i64 = 15_804 * 86_400;
    const H: i64 = 3_600;

    fn job(id: u64, start: i64, end: i64, block: Block) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(id as u32),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes: block.nodes(),
            mode: Mode::default(),
            requested_walltime_s: 86_400 * 3,
            queued_at: Timestamp::from_secs(start - 60),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(end),
            block,
            exit_code: 0,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    fn event(id: u64, t: i64, loc: &str, severity: Severity) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(id),
            msg_id: MsgId::new(1),
            severity,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: loc.parse::<Location>().unwrap(),
            message: MsgText::default(),
            count: 1,
        }
    }

    /// Three days that exercise every boundary of the `AFFECTED` fold.
    fn three_days() -> Vec<(i64, Dataset)> {
        let block = |first, len| Block::new(first, len).unwrap();
        let day = |jobs, ras| Dataset {
            jobs,
            ras,
            ..Dataset::new()
        };
        vec![
            (
                15_804,
                day(
                    vec![
                        // B: hit at its start, not at its end.
                        job(2, D + H, D + 3 * H, block(2, 2)),
                        // A: runs across both midnights.
                        job(1, D + 20 * H, D + 2 * 86_400 + 5 * H, block(0, 2)),
                        // C: ends exactly at midnight.
                        job(3, D + 22 * H, D + 86_400, block(4, 2)),
                    ],
                    vec![
                        event(1, D + H, "R01-M0", Severity::Warn),
                        event(2, D + 3 * H, "R01-M0", Severity::Fatal),
                        event(3, D + 21 * H, "R00-M1", Severity::Info),
                    ],
                ),
            ),
            (
                // No jobs segment: A stays open through it.
                15_805,
                day(
                    Vec::new(),
                    vec![
                        event(4, D + 86_400, "R02-M0", Severity::Fatal),
                        event(5, D + 86_400 + 5 * H, "R17-M0", Severity::Warn),
                    ],
                ),
            ),
            (
                15_806,
                day(
                    vec![job(
                        4,
                        D + 2 * 86_400 + H,
                        D + 2 * 86_400 + 2 * H,
                        block(0, 1),
                    )],
                    vec![event(
                        6,
                        D + 2 * 86_400 + 90 * 60,
                        "R00-M0-N01",
                        Severity::Fatal,
                    )],
                ),
            ),
        ]
    }

    /// Folds `days` in polls of `polls[i]` days each; the last epoch.
    fn fold_polls(days: &[(i64, Dataset)], polls: &[usize]) -> Epoch {
        assert_eq!(polls.iter().sum::<usize>(), days.len());
        let mut tally = Tally::default();
        let mut seen = Vec::new();
        let mut e = Epoch::empty();
        let mut rest = days;
        for &n in polls {
            let (now, later) = rest.split_at(n);
            let mut fresh = Dataset::new();
            for (day, rows) in now {
                append(&mut fresh, rows);
                seen.push(*day);
            }
            e = tally.advance(1, &fresh, &seen, &SourceAvailability::ALL, Vec::new());
            rest = later;
        }
        e
    }

    /// One-day ticks, multi-day polls and the cold build all equal the
    /// batch join over the three hand-built days: A is hit on the first
    /// and third days and counts once, the event at B's end and the one
    /// at C's midnight end are not attributed (end-exclusive), and A
    /// stays open through the day without jobs. A fold that joined new
    /// events with new jobs only would miss the third day's hit on A.
    #[test]
    fn affected_fold_matches_the_batch_join_across_day_boundaries() {
        let days = three_days();
        let mut all = Dataset::new();
        for (_, rows) in &days {
            append(&mut all, rows);
        }
        all.normalize();
        let idx = DatasetIndex::build(&all);
        let batch = Severity::ALL.map(|s| affected_jobs_indexed(&idx, s));
        assert_eq!(batch, [(3, 4), (3, 3), (2, 2)]);

        let day_list: Vec<i64> = days.iter().map(|(d, _)| *d).collect();
        let cold = Epoch::build(
            1,
            &all,
            &PartitionMap::default(),
            &day_list,
            &SourceAvailability::ALL,
            &mut IndexBuilder::new(),
            Vec::new(),
        );
        for (name, e) in [
            ("one-day ticks", fold_polls(&days, &[1, 1, 1])),
            ("two-day poll first", fold_polls(&days, &[2, 1])),
            ("two-day poll last", fold_polls(&days, &[1, 2])),
            ("cold build", cold),
        ] {
            assert_eq!(e.affected, batch, "{name}");
            assert_eq!(e.rows, [4, 6, 0, 0], "{name}");
            assert_eq!(e.events_at_least, [6, 5, 3], "{name}");
        }
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
