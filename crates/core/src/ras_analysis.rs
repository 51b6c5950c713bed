//! RAS log characterization and its correlation with the workload
//! (experiments E8 and E9).

use std::collections::BTreeMap;

use bgq_logs::join::JoinResult;
use bgq_model::ras::{Category, Component, MsgId, Severity};
use bgq_model::{JobRecord, RasRecord};
use bgq_stats::correlation::{pearson, spearman};

use crate::index::DatasetIndex;

/// Severity / category / component breakdowns of the RAS log (E8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RasBreakdown {
    /// Record counts per severity.
    pub by_severity: BTreeMap<Severity, usize>,
    /// Record counts per category.
    pub by_category: BTreeMap<Category, usize>,
    /// Record counts per component.
    pub by_component: BTreeMap<Component, usize>,
    /// The most frequent message ids, descending, with counts.
    pub top_messages: Vec<(MsgId, usize)>,
}

/// Computes the E8 breakdown; `top_k` bounds the message-id list.
pub fn breakdown(ras: &[RasRecord], top_k: usize) -> RasBreakdown {
    let _span = bgq_obs::span!("ras.breakdown");
    let mut by_severity = BTreeMap::new();
    let mut by_category = BTreeMap::new();
    let mut by_component = BTreeMap::new();
    let mut by_msg: BTreeMap<MsgId, usize> = BTreeMap::new();
    for r in ras {
        *by_severity.entry(r.severity).or_insert(0) += 1;
        *by_category.entry(r.category).or_insert(0) += 1;
        *by_component.entry(r.component).or_insert(0) += 1;
        *by_msg.entry(r.msg_id).or_insert(0) += 1;
    }
    let mut top_messages: Vec<(MsgId, usize)> = by_msg.into_iter().collect();
    top_messages.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    top_messages.truncate(top_k);
    RasBreakdown {
        by_severity,
        by_category,
        by_component,
        top_messages,
    }
}

/// Per-user pairing of workload volume and job-affecting events (E9).
#[derive(Debug, Clone, PartialEq)]
pub struct UserEventCorrelation {
    /// Pearson correlation of per-user core-hours vs. attributed events.
    pub pearson_core_hours: Option<f64>,
    /// Spearman correlation of the same pairing.
    pub spearman_core_hours: Option<f64>,
    /// Pearson correlation of per-user job count vs. attributed events.
    pub pearson_jobs: Option<f64>,
    /// The per-user rows: `(user_raw_id, core_hours, jobs, events)`.
    pub rows: Vec<(u32, f64, usize, usize)>,
}

/// Joins events (of at least `min_severity`) to jobs and correlates the
/// per-user attributed-event counts with the user's core-hours and job
/// count — the abstract's "high correlation with users and core-hours".
///
/// Reads the memoized join of a [`DatasetIndex`], so
/// [`affected_jobs_indexed`] at the same severity shares it instead of
/// re-running the attribution.
#[must_use]
pub fn user_event_correlation_indexed(
    idx: &DatasetIndex<'_>,
    min_severity: Severity,
) -> UserEventCorrelation {
    correlation_from(idx.jobs, idx.join(min_severity))
}

/// Correlation core over an already-computed join.
fn correlation_from(jobs: &[JobRecord], join: &JoinResult) -> UserEventCorrelation {
    let _span = bgq_obs::span!("ras.correlation");
    let mut per_user: BTreeMap<u32, (f64, usize, usize)> = BTreeMap::new();
    for j in jobs {
        let e = per_user.entry(j.user.raw()).or_default();
        e.0 += j.core_hours();
        e.1 += 1;
    }
    for pair in &join.pairs {
        let user = jobs[pair.job_idx].user.raw();
        per_user.entry(user).or_default().2 += 1;
    }
    let rows: Vec<(u32, f64, usize, usize)> = per_user
        .into_iter()
        .map(|(u, (ch, jobs, events))| (u, ch, jobs, events))
        .collect();
    let ch: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let nj: Vec<f64> = rows.iter().map(|r| r.2 as f64).collect();
    let ev: Vec<f64> = rows.iter().map(|r| r.3 as f64).collect();
    UserEventCorrelation {
        pearson_core_hours: pearson(&ch, &ev),
        spearman_core_hours: spearman(&ch, &ev),
        pearson_jobs: pearson(&nj, &ev),
        rows,
    }
}

/// Jobs affected by at least one event of the given severity, with the
/// total number of attribution pairs. Shares the memoized join of a
/// [`DatasetIndex`] with every other stage at this severity.
#[must_use]
pub fn affected_jobs_indexed(idx: &DatasetIndex<'_>, min_severity: Severity) -> (usize, usize) {
    let join = idx.join(min_severity);
    (join.affected_jobs().len(), join.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_logs::join::attribute_events;
    use bgq_logs::store::Dataset;
    use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::MsgText;
    use bgq_model::{Block, Location, Timestamp};

    fn job(id: u64, user: u32, block: Block, start: i64, end: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(user),
            project: ProjectId::new(0),
            queue: Queue::Production,
            nodes: block.nodes(),
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(start),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(end),
            block,
            exit_code: 0,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    fn event(id: u64, t: i64, loc: &str, sev: Severity, msg: u32) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(id),
            msg_id: MsgId::new(msg),
            severity: sev,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: loc.parse::<Location>().unwrap(),
            message: MsgText::default(),
            count: 1,
        }
    }

    #[test]
    fn breakdown_counts_and_top_messages() {
        let ras = vec![
            event(1, 0, "R00", Severity::Info, 7),
            event(2, 1, "R00", Severity::Info, 7),
            event(3, 2, "R00", Severity::Fatal, 9),
        ];
        let b = breakdown(&ras, 1);
        assert_eq!(b.by_severity[&Severity::Info], 2);
        assert_eq!(b.by_severity[&Severity::Fatal], 1);
        assert_eq!(b.by_category[&Category::Ddr], 3);
        assert_eq!(b.top_messages, vec![(MsgId::new(7), 2)]);
    }

    #[test]
    fn correlation_tracks_usage() {
        // User 1 runs 10× the work of user 2 and accrues events in
        // proportion.
        let mut ds = Dataset::new();
        let (jobs, ras) = (&mut ds.jobs, &mut ds.ras);
        let mut rec = 0;
        for u in 1..=4u32 {
            let n_jobs = u as usize * 3;
            for k in 0..n_jobs {
                let start = (u as i64) * 100_000 + k as i64 * 2_000;
                let block = Block::new((u as u16 - 1) * 4, 2).unwrap();
                jobs.push(job(u64::from(u) * 100 + k as u64, u, block, start, start + 1_000));
                // One event per job, inside the block and window.
                rec += 1;
                let mid = block.midplanes().next().unwrap();
                ras.push(event(rec, start + 500, &mid.to_string(), Severity::Warn, 1));
            }
        }
        let c = user_event_correlation_indexed(&DatasetIndex::build(&ds), Severity::Warn);
        assert!(c.pearson_core_hours.unwrap() > 0.95, "{c:?}");
        assert!(c.pearson_jobs.unwrap() > 0.95);
        assert_eq!(c.rows.len(), 4);
    }

    #[test]
    fn affected_jobs_counts_unique_jobs() {
        let block = Block::new(0, 2).unwrap();
        let ds = Dataset {
            jobs: vec![job(1, 1, block, 0, 1_000)],
            ras: vec![
                event(1, 100, "R00-M0", Severity::Fatal, 1),
                event(2, 200, "R00-M0", Severity::Fatal, 1),
                event(3, 5_000, "R00-M0", Severity::Fatal, 1), // after end
            ],
            ..Dataset::new()
        };
        let (jobs_hit, pairs) = affected_jobs_indexed(&DatasetIndex::build(&ds), Severity::Fatal);
        assert_eq!(jobs_hit, 1);
        assert_eq!(pairs, 2);
    }

    #[test]
    fn indexed_callers_share_one_memoized_join() {
        // Same layout as `correlation_tracks_usage`, but driven through
        // the index: the correlation and the affected-job count at the
        // same severity must read one JoinResult, computed once.
        let mut ds = Dataset::new();
        let mut rec = 0;
        for u in 1..=4u32 {
            for k in 0..(u as usize * 3) {
                let start = (u as i64) * 100_000 + k as i64 * 2_000;
                let block = Block::new((u as u16 - 1) * 4, 2).unwrap();
                ds.jobs
                    .push(job(u64::from(u) * 100 + k as u64, u, block, start, start + 1_000));
                rec += 1;
                let mid = block.midplanes().next().unwrap();
                ds.ras
                    .push(event(rec, start + 500, &mid.to_string(), Severity::Warn, 1));
            }
        }
        let idx = DatasetIndex::build(&ds);
        assert!(idx.join_cached(Severity::Warn).is_none());
        let c = user_event_correlation_indexed(&idx, Severity::Warn);
        let first = idx.join_cached(Severity::Warn).expect("memoized");
        let (jobs_hit, pairs) = affected_jobs_indexed(&idx, Severity::Warn);
        assert!(
            std::ptr::eq(first, idx.join_cached(Severity::Warn).unwrap()),
            "second caller must reuse the first caller's join"
        );
        // Both indexed results agree with the unindexed join.
        let direct = attribute_events(&ds.jobs, &ds.ras, Severity::Warn);
        assert_eq!(c, correlation_from(&ds.jobs, &direct));
        assert_eq!(
            (jobs_hit, pairs),
            (direct.affected_jobs().len(), direct.len())
        );
    }

    #[test]
    fn empty_logs_are_harmless() {
        let c =
            user_event_correlation_indexed(&DatasetIndex::build(&Dataset::new()), Severity::Info);
        assert!(c.rows.is_empty());
        assert!(c.pearson_core_hours.is_none());
        let b = breakdown(&[], 5);
        assert!(b.by_severity.is_empty());
    }
}
