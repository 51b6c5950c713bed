//! System-lifetime evolution (experiment E15).
//!
//! A 2001-day study is long enough for the machine itself to change: the
//! paper examines how failure behavior evolves over Mira's life. This
//! module cuts the trace into fixed windows and tracks job failure rate,
//! fatal-event volume, interruptions, and MTBF per window; the hazard
//! trend over windows exposes infant mortality (improving reliability) or
//! wear-out.

use bgq_model::ras::Severity;
use bgq_model::{JobRecord, RasRecord, Span, Timestamp};

use crate::exitcode::ExitClass;

/// Per-window reliability metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeWindow {
    /// Window start.
    pub start: Timestamp,
    /// Window length.
    pub length: Span,
    /// Jobs that *ended* in the window.
    pub jobs: usize,
    /// Failed jobs among them.
    pub failed: usize,
    /// System-killed jobs among them.
    pub system_kills: usize,
    /// Raw FATAL records in the window.
    pub fatal_records: usize,
}

impl LifetimeWindow {
    /// Failure rate in the window (`0` when empty).
    pub fn failure_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.failed as f64 / self.jobs as f64
        }
    }

    /// MTBF estimate from system interruptions in the window, in days.
    pub fn mtbf_days(&self) -> Option<f64> {
        (self.system_kills > 0).then(|| self.length.as_days() / self.system_kills as f64)
    }
}

/// The lifetime series plus its trend summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSeries {
    /// Consecutive windows covering the observation span.
    pub windows: Vec<LifetimeWindow>,
    /// Ratio of fatal-record volume in the first third of windows to the
    /// last third (`> 1` ⇒ reliability improved over the system's life).
    pub early_to_late_fatal_ratio: Option<f64>,
}

/// Computes the lifetime series with windows of `window_days`.
///
/// # Panics
///
/// Panics if `window_days == 0`.
#[must_use]
pub fn lifetime_series(jobs: &[JobRecord], ras: &[RasRecord], window_days: u32) -> LifetimeSeries {
    series_impl(jobs, ras, window_days, |i| {
        ExitClass::from_exit_code(jobs[i].exit_code)
    })
}

/// [`lifetime_series`] over a prebuilt [`DatasetIndex`]: reuses the
/// memoized per-job exit classes instead of reclassifying every job.
///
/// # Panics
///
/// Panics if `window_days == 0`.
///
/// [`DatasetIndex`]: crate::index::DatasetIndex
#[must_use]
pub fn lifetime_series_indexed(
    idx: &crate::index::DatasetIndex<'_>,
    window_days: u32,
) -> LifetimeSeries {
    series_impl(idx.jobs, idx.ras, window_days, |i| idx.exit_class(i))
}

/// Per-window integer counters accumulated by the job scatter.
#[derive(Clone, Copy, Default)]
struct JobCounts {
    jobs: usize,
    failed: usize,
    system_kills: usize,
}

/// The scatter core. Both scatters run as chunked parallel folds whose
/// per-window counters merge by integer addition in chunk order, so the
/// totals are identical to the sequential pass.
fn series_impl(
    jobs: &[JobRecord],
    ras: &[RasRecord],
    window_days: u32,
    class_at: impl Fn(usize) -> ExitClass + Sync,
) -> LifetimeSeries {
    assert!(window_days > 0, "window must be positive");
    let (Some(start), Some(end)) = (
        jobs.iter()
            .map(|j| j.started_at)
            .chain(ras.iter().map(|r| r.event_time))
            .min(),
        jobs.iter()
            .map(|j| j.ended_at)
            .chain(ras.iter().map(|r| r.event_time))
            .max(),
    ) else {
        return LifetimeSeries {
            windows: Vec::new(),
            early_to_late_fatal_ratio: None,
        };
    };
    let window = Span::from_days(i64::from(window_days));
    let n_windows = (((end - start).as_secs() / window.as_secs()) + 1).max(1) as usize;
    let index_of = move |t: Timestamp| -> usize {
        ((((t - start).as_secs().max(0)) / window.as_secs()) as usize).min(n_windows - 1)
    };

    let add = |mut a: Vec<JobCounts>, b: Vec<JobCounts>| {
        for (x, y) in a.iter_mut().zip(b) {
            x.jobs += y.jobs;
            x.failed += y.failed;
            x.system_kills += y.system_kills;
        }
        a
    };
    let (job_counts, fatal_counts) = bgq_par::join(
        || {
            bgq_obs::time("lifetime.jobs_scatter", || {
                bgq_par::par_chunk_fold(
                    jobs,
                    || vec![JobCounts::default(); n_windows],
                    |base, chunk| {
                        let mut counts = vec![JobCounts::default(); n_windows];
                        for (off, j) in chunk.iter().enumerate() {
                            let w = &mut counts[index_of(j.ended_at)];
                            w.jobs += 1;
                            let class = class_at(base + off);
                            w.failed += usize::from(class.is_failure());
                            w.system_kills += usize::from(class == ExitClass::SystemKill);
                        }
                        counts
                    },
                    add,
                )
            })
        },
        || {
            bgq_obs::time("lifetime.ras_scatter", || {
                bgq_par::par_chunk_fold(
                    ras,
                    || vec![0usize; n_windows],
                    |_base, chunk| {
                        let mut counts = vec![0usize; n_windows];
                        for r in chunk {
                            if r.severity == Severity::Fatal {
                                counts[index_of(r.event_time)] += 1;
                            }
                        }
                        counts
                    },
                    |mut a, b| {
                        for (x, y) in a.iter_mut().zip(b) {
                            *x += y;
                        }
                        a
                    },
                )
            })
        },
    );

    let windows: Vec<LifetimeWindow> = (0..n_windows)
        .map(|i| LifetimeWindow {
            start: start + Span::from_secs(window.as_secs() * i as i64),
            length: window,
            jobs: job_counts[i].jobs,
            failed: job_counts[i].failed,
            system_kills: job_counts[i].system_kills,
            fatal_records: fatal_counts[i],
        })
        .collect();

    let third = (windows.len() / 3).max(1);
    let early: usize = windows.iter().take(third).map(|w| w.fatal_records).sum();
    let late: usize = windows
        .iter()
        .rev()
        .take(third)
        .map(|w| w.fatal_records)
        .sum();
    LifetimeSeries {
        early_to_late_fatal_ratio: (late > 0).then(|| early as f64 / late as f64),
        windows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::{Category, Component, MsgId, MsgText};
    use bgq_model::{Block, Location};

    fn job(end_day: i64, exit: i32) -> JobRecord {
        let end = Timestamp::from_secs(end_day * 86_400 + 100);
        JobRecord {
            job_id: JobId::new(end_day as u64),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes: 512,
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: end - Span::from_secs(200),
            started_at: end - Span::from_secs(100),
            ended_at: end,
            block: Block::new(0, 1).unwrap(),
            exit_code: exit,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    fn fatal(day: i64) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(day as u64),
            msg_id: MsgId::new(1),
            severity: Severity::Fatal,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(day * 86_400 + 50),
            location: Location::rack(0),
            message: MsgText::default(),
            count: 1,
        }
    }

    #[test]
    fn windows_partition_jobs_and_events() {
        let jobs = vec![job(1, 0), job(2, 139), job(35, 75), job(65, 0)];
        let ras = vec![fatal(1), fatal(2), fatal(40)];
        let series = lifetime_series(&jobs, &ras, 30);
        assert_eq!(series.windows.len(), 3);
        let w0 = &series.windows[0];
        assert_eq!(w0.jobs, 2);
        assert_eq!(w0.failed, 1);
        assert_eq!(w0.fatal_records, 2);
        let w1 = &series.windows[1];
        assert_eq!(w1.system_kills, 1);
        assert_eq!(w1.fatal_records, 1);
        assert!((w1.mtbf_days().unwrap() - 30.0).abs() < 1e-9);
        assert_eq!(series.windows[2].jobs, 1);
        // Total conservation.
        let total: usize = series.windows.iter().map(|w| w.jobs).sum();
        assert_eq!(total, jobs.len());
    }

    #[test]
    fn early_late_ratio_detects_improvement() {
        let jobs: Vec<JobRecord> = (0..90).map(|d| job(d, 0)).collect();
        // 10 fatal records early, 2 late.
        let mut ras: Vec<RasRecord> = (0..10).map(|i| fatal(i / 2)).collect();
        ras.push(fatal(85));
        ras.push(fatal(86));
        let series = lifetime_series(&jobs, &ras, 10);
        assert!(series.early_to_late_fatal_ratio.unwrap() > 2.0);
    }

    #[test]
    fn empty_input_is_safe() {
        let series = lifetime_series(&[], &[], 30);
        assert!(series.windows.is_empty());
        assert!(series.early_to_late_fatal_ratio.is_none());
    }

    #[test]
    fn integration_with_simulated_infant_mortality() {
        use bgq_sim::{generate, SimConfig};
        let cfg = SimConfig {
            early_life_factor: 4.0,
            ..SimConfig::small(240)
                .with_seed(5)
                .with_incident_gap_days(1.0)
        };
        let out = generate(&cfg);
        let series = lifetime_series(&out.dataset.jobs, &out.dataset.ras, 30);
        assert!(
            series.early_to_late_fatal_ratio.unwrap() > 1.3,
            "infant mortality not visible: {:?}",
            series.early_to_late_fatal_ratio
        );
    }
}
