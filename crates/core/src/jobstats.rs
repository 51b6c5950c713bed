//! Workload characterization (experiments E1–E3, E13).
//!
//! Dataset-level totals, the job-size mix, per-user/per-project
//! concentration, and temporal submission/failure profiles.

use std::collections::BTreeMap;

use bgq_model::ids::{ProjectId, UserId};
use bgq_model::{JobRecord, Timestamp};
use bgq_stats::summary::{gini, top_k_share};

use crate::exitcode::ExitClass;

/// Dataset-level totals (experiment E1).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetTotals {
    /// Number of jobs.
    pub jobs: usize,
    /// Number of failed jobs (non-zero exit).
    pub failed_jobs: usize,
    /// Distinct users.
    pub users: usize,
    /// Distinct projects.
    pub projects: usize,
    /// Total core-hours consumed.
    pub core_hours: f64,
    /// First job start.
    pub span_start: Timestamp,
    /// Last job end.
    pub span_end: Timestamp,
}

impl DatasetTotals {
    /// Computes totals over the job log.
    ///
    /// Returns `None` for an empty log.
    pub fn compute(jobs: &[JobRecord]) -> Option<Self> {
        if jobs.is_empty() {
            return None;
        }
        let mut users: Vec<UserId> = jobs.iter().map(|j| j.user).collect();
        users.sort_unstable();
        users.dedup();
        let mut projects: Vec<ProjectId> = jobs.iter().map(|j| j.project).collect();
        projects.sort_unstable();
        projects.dedup();
        Some(DatasetTotals {
            jobs: jobs.len(),
            failed_jobs: jobs.iter().filter(|j| j.exit_code != 0).count(),
            users: users.len(),
            projects: projects.len(),
            core_hours: jobs.iter().map(|j| j.core_hours()).sum(),
            span_start: jobs.iter().map(|j| j.started_at).min().expect("nonempty"),
            span_end: jobs.iter().map(|j| j.ended_at).max().expect("nonempty"),
        })
    }

    /// Observation span in days.
    pub fn span_days(&self) -> f64 {
        (self.span_end - self.span_start).as_days()
    }
}

/// One row of the job-size mix table (experiment E2).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeMixRow {
    /// Job size in nodes (power-of-two class, or the full machine).
    pub nodes: u32,
    /// Number of jobs of this size.
    pub jobs: usize,
    /// Share of all jobs.
    pub job_share: f64,
    /// Core-hours consumed by this size.
    pub core_hours: f64,
    /// Share of all core-hours.
    pub core_hour_share: f64,
}

/// The job-size mix: how many jobs of each scale, and how much of the
/// machine they consumed. Sorted by size ascending.
pub fn size_mix(jobs: &[JobRecord]) -> Vec<SizeMixRow> {
    // Sizes are power-of-two node classes bounded by the machine, so the
    // distinct-size count is known up front: a pre-sized vector with a
    // linear probe beats a tree of a dozen entries, and accumulation
    // stays in job order (float sums are byte-stable vs the old map).
    let size_classes = usize::BITS as usize + 1;
    let mut by_size: Vec<(u32, (usize, f64))> = Vec::with_capacity(size_classes);
    let mut total_ch = 0.0;
    for j in jobs {
        let e = match by_size.iter_mut().find(|(nodes, _)| *nodes == j.nodes) {
            Some((_, e)) => e,
            None => {
                by_size.push((j.nodes, (0, 0.0)));
                &mut by_size.last_mut().expect("just pushed").1
            }
        };
        e.0 += 1;
        e.1 += j.core_hours();
        total_ch += j.core_hours();
    }
    by_size.sort_unstable_by_key(|&(nodes, _)| nodes);
    let n = jobs.len().max(1) as f64;
    by_size
        .into_iter()
        .map(|(nodes, (count, ch))| SizeMixRow {
            nodes,
            jobs: count,
            job_share: count as f64 / n,
            core_hours: ch,
            core_hour_share: if total_ch > 0.0 { ch / total_ch } else { 0.0 },
        })
        .collect()
}

/// Per-entity (user or project) activity aggregate (experiment E3).
#[derive(Debug, Clone, PartialEq)]
pub struct EntityActivity {
    /// Raw entity id (user or project).
    pub id: u32,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs failed.
    pub failed: usize,
    /// Exact node-seconds consumed (the integer the columnar engine
    /// accumulates; layout- and thread-invariant).
    pub node_seconds: u64,
    /// Core-hours consumed, derived once from `node_seconds`.
    pub core_hours: f64,
}

impl EntityActivity {
    /// Failure rate of this entity's jobs.
    pub fn failure_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.failed as f64 / self.jobs as f64
        }
    }
}

/// Concentration statistics over a per-entity metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Concentration {
    /// Gini coefficient of the metric.
    pub gini: f64,
    /// Share of the total held by the top 5 entities.
    pub top5_share: f64,
    /// Share held by the top 10% of entities.
    pub top_decile_share: f64,
}

impl Concentration {
    /// Computes concentration over the given values; `None` if degenerate.
    pub fn compute(values: &[f64]) -> Option<Self> {
        let g = gini(values)?;
        let top5 = top_k_share(values, 5)?;
        let decile = top_k_share(values, (values.len() / 10).max(1))?;
        Some(Concentration {
            gini: g,
            top5_share: top5,
            top_decile_share: decile,
        })
    }
}

/// Aggregates jobs per user, sorted by descending job count.
///
/// Runs on the partitioned columnar engine ([`crate::columnar`]): sorted
/// per-chunk fold plus ordered merge, bit-identical across thread counts
/// and partition layouts, memory proportional to distinct users per
/// chunk rather than one whole-dataset map.
pub fn per_user(jobs: &[JobRecord]) -> Vec<EntityActivity> {
    crate::columnar::per_user_columnar(jobs)
}

/// Aggregates jobs per project, sorted by descending job count.
pub fn per_project(jobs: &[JobRecord]) -> Vec<EntityActivity> {
    crate::columnar::per_project_columnar(jobs)
}

/// Hour-of-day and day-of-week profiles (experiment E13): `hourly[h]` and
/// `weekly[d]` are event counts in that bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalProfile {
    /// Counts per UTC hour of day, indices `0..24`.
    pub hourly: [u64; 24],
    /// Counts per day of week, `0 = Monday`.
    pub weekly: [u64; 7],
}

impl TemporalProfile {
    /// Profiles an iterator of timestamps.
    pub fn compute(times: impl Iterator<Item = Timestamp>) -> Self {
        let mut hourly = [0u64; 24];
        let mut weekly = [0u64; 7];
        for t in times {
            hourly[t.hour_of_day() as usize] += 1;
            weekly[t.day_of_week() as usize] += 1;
        }
        TemporalProfile { hourly, weekly }
    }

    /// Total events profiled.
    pub fn total(&self) -> u64 {
        self.hourly.iter().sum()
    }

    /// Ratio of the busiest to the quietest hour (∞-safe: `None` when any
    /// hour is empty).
    pub fn peak_to_trough(&self) -> Option<f64> {
        let max = *self.hourly.iter().max().expect("24 entries");
        let min = *self.hourly.iter().min().expect("24 entries");
        (min > 0).then(|| max as f64 / min as f64)
    }
}

/// Failure-class breakdown (experiment E4): counts the memoized per-job
/// classes of a [`DatasetIndex`] per [`ExitClass`].
///
/// Counts into a fixed array indexed by class discriminant — no
/// per-class tree lookups — and materializes only the classes present,
/// matching the historical map-insertion behavior exactly.
///
/// [`DatasetIndex`]: crate::index::DatasetIndex
#[must_use]
pub fn class_breakdown_indexed(idx: &crate::index::DatasetIndex<'_>) -> BTreeMap<ExitClass, usize> {
    let mut counts = [0usize; ExitClass::ALL.len()];
    for &class in &idx.exit_classes {
        counts[class as usize] += 1;
    }
    ExitClass::ALL
        .into_iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// The user-attributed share of failures (the paper's 99.4% headline),
/// over the memoized classes of a [`DatasetIndex`].
///
/// Returns `None` when there are no failures.
///
/// [`DatasetIndex`]: crate::index::DatasetIndex
#[must_use]
pub fn user_caused_share_indexed(idx: &crate::index::DatasetIndex<'_>) -> Option<f64> {
    let mut user = 0usize;
    let mut total = 0usize;
    for class in &idx.exit_classes {
        if let Some(attr) = class.attribution() {
            total += 1;
            user += usize::from(attr == crate::exitcode::Attribution::User);
        }
    }
    (total > 0).then(|| user as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DatasetIndex;
    use bgq_logs::store::Dataset;
    use bgq_model::ids::JobId;
    use bgq_model::job::{Mode, Queue};
    use bgq_model::Block;

    fn job(
        id: u64,
        user: u32,
        project: u32,
        nodes: u32,
        exit: i32,
        start: i64,
        len: i64,
    ) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(user),
            project: ProjectId::new(project),
            queue: Queue::Production,
            nodes,
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(start - 5),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(start + len),
            block: Block::new(0, (nodes / 512).max(1) as u16).unwrap(),
            exit_code: exit,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    /// Runs `f` over the index of a dataset holding only `jobs`.
    fn with_index<T>(jobs: Vec<JobRecord>, f: impl FnOnce(&DatasetIndex<'_>) -> T) -> T {
        let ds = Dataset {
            jobs,
            ..Dataset::new()
        };
        f(&DatasetIndex::build(&ds))
    }

    #[test]
    fn totals_cover_everything() {
        let jobs = vec![
            job(1, 1, 1, 512, 0, 0, 3600),
            job(2, 2, 1, 1024, 139, 100, 3600),
            job(3, 1, 2, 512, 0, 7200, 1800),
        ];
        let t = DatasetTotals::compute(&jobs).unwrap();
        assert_eq!(t.jobs, 3);
        assert_eq!(t.failed_jobs, 1);
        assert_eq!(t.users, 2);
        assert_eq!(t.projects, 2);
        let expected_ch = (512.0 + 1024.0) * 16.0 + 512.0 * 16.0 * 0.5;
        assert!((t.core_hours - expected_ch).abs() < 1e-9);
        assert_eq!(t.span_start.as_secs(), 0);
        assert_eq!(t.span_end.as_secs(), 9000);
        assert!(DatasetTotals::compute(&[]).is_none());
    }

    #[test]
    fn size_mix_shares_sum_to_one() {
        let jobs = vec![
            job(1, 1, 1, 512, 0, 0, 3600),
            job(2, 1, 1, 512, 0, 0, 3600),
            job(3, 1, 1, 2048, 0, 0, 3600),
        ];
        let mix = size_mix(&jobs);
        assert_eq!(mix.len(), 2);
        assert_eq!(mix[0].nodes, 512);
        assert_eq!(mix[0].jobs, 2);
        let job_share: f64 = mix.iter().map(|r| r.job_share).sum();
        let ch_share: f64 = mix.iter().map(|r| r.core_hour_share).sum();
        assert!((job_share - 1.0).abs() < 1e-12);
        assert!((ch_share - 1.0).abs() < 1e-12);
        // Larger jobs dominate core-hours even with fewer jobs.
        assert!(mix[1].core_hour_share > mix[1].job_share);
    }

    #[test]
    fn per_user_aggregation_and_rates() {
        let jobs = vec![
            job(1, 7, 1, 512, 0, 0, 100),
            job(2, 7, 1, 512, 139, 0, 100),
            job(3, 8, 1, 512, 0, 0, 100),
        ];
        let users = per_user(&jobs);
        assert_eq!(users.len(), 2);
        assert_eq!(users[0].id, 7);
        assert_eq!(users[0].jobs, 2);
        assert_eq!(users[0].failed, 1);
        assert!((users[0].failure_rate() - 0.5).abs() < 1e-12);
        assert_eq!(users[1].failure_rate(), 0.0);
    }

    #[test]
    fn user_caused_share_headline() {
        let mut jobs = vec![job(1, 1, 1, 512, 75, 0, 100)];
        for i in 0..99 {
            jobs.push(job(2 + i, 1, 1, 512, 139, 0, 100));
        }
        let share = with_index(jobs, user_caused_share_indexed).unwrap();
        assert!((share - 0.99).abs() < 1e-12);
        let success = vec![job(1, 1, 1, 512, 0, 0, 100)];
        assert!(with_index(success, user_caused_share_indexed).is_none());
    }

    #[test]
    fn class_breakdown_counts() {
        let jobs = vec![
            job(1, 1, 1, 512, 0, 0, 100),
            job(2, 1, 1, 512, 139, 0, 100),
            job(3, 1, 1, 512, 139, 0, 100),
            job(4, 1, 1, 512, 75, 0, 100),
        ];
        let b = with_index(jobs, class_breakdown_indexed);
        assert_eq!(b[&ExitClass::Success], 1);
        assert_eq!(b[&ExitClass::Segfault], 2);
        assert_eq!(b[&ExitClass::SystemKill], 1);
    }

    #[test]
    fn temporal_profile_buckets() {
        // Two events at 03:xx UTC on a Tuesday, one at 15:xx Saturday.
        let tue_3am = Timestamp::from_ymd_hms(2013, 4, 9, 3, 30, 0);
        let tue_3am2 = Timestamp::from_ymd_hms(2013, 4, 9, 3, 59, 59);
        let sat_3pm = Timestamp::from_ymd_hms(2013, 4, 13, 15, 0, 0);
        let p = TemporalProfile::compute([tue_3am, tue_3am2, sat_3pm].into_iter());
        assert_eq!(p.hourly[3], 2);
        assert_eq!(p.hourly[15], 1);
        assert_eq!(p.weekly[1], 2);
        assert_eq!(p.weekly[5], 1);
        assert_eq!(p.total(), 3);
        assert!(p.peak_to_trough().is_none());
    }

    #[test]
    fn concentration_on_skewed_data() {
        let values = vec![100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let c = Concentration::compute(&values).unwrap();
        assert!(c.gini > 0.5);
        assert!(c.top5_share > 0.9);
        assert!((c.top_decile_share - 100.0 / 109.0).abs() < 1e-9);
    }
}
