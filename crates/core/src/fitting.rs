//! Distribution fitting of failure times (experiments E7 and E13).
//!
//! The abstract: "The best-fitting distributions of a failed job's
//! execution length (or interruption interval) include Weibull, Pareto,
//! inverse Gaussian, and Erlang/exponential, depending on the types of
//! errors (i.e., exit codes)." This module groups failed jobs by exit
//! class, fits the paper's candidate set to each group's execution
//! lengths, and ranks families by the Kolmogorov–Smirnov statistic.

use bgq_stats::dist::DistKind;
use bgq_stats::gof::{select_best, GofResult, ModelSelection};

use crate::exitcode::ExitClass;

/// Best-fit result for one exit class (one row of the E7 table).
#[derive(Debug, Clone)]
pub struct ClassFit {
    /// The exit class fitted.
    pub class: ExitClass,
    /// Sample size (failed jobs in the class).
    pub n: usize,
    /// Ranked fits, best first (empty if every family failed to fit).
    pub ranked: Vec<GofResult>,
}

impl ClassFit {
    /// The winning fit, if any.
    pub fn best(&self) -> Option<&GofResult> {
        self.ranked.first()
    }
}

/// Execution lengths (seconds) of failed jobs in `class`, using the
/// memoized classes of a [`DatasetIndex`].
///
/// Jobs that ran to (at least) 95% of their requested wall time are
/// excluded: their length is right-censored by the scheduler, not an
/// observation of the failure law, and including them biases every fit
/// toward lighter tails.
///
/// [`DatasetIndex`]: crate::index::DatasetIndex
#[must_use]
pub fn failure_lengths_indexed(idx: &crate::index::DatasetIndex<'_>, class: ExitClass) -> Vec<f64> {
    idx.jobs
        .iter()
        .enumerate()
        .filter(|&(i, _)| idx.exit_class(i) == class)
        .map(|(_, j)| j)
        .filter(|j| (j.runtime().as_secs() as f64) < 0.95 * f64::from(j.requested_walltime_s))
        .map(|j| j.runtime().as_secs() as f64)
        .filter(|&x| x > 0.0)
        .collect()
}

/// Fits every class in [`ExitClass::FITTED_USER_CLASSES`] (experiment E7).
///
/// Classes with fewer than `min_samples` failed jobs are skipped — fitting
/// a two-parameter family to a handful of points is noise, and the paper
/// only reports classes with substantial mass.
///
/// The per-class maximum-likelihood fits are independent, so they run
/// concurrently; the result order follows
/// [`ExitClass::FITTED_USER_CLASSES`] either way.
#[must_use]
pub fn fit_by_class_indexed(
    idx: &crate::index::DatasetIndex<'_>,
    min_samples: usize,
) -> Vec<ClassFit> {
    bgq_par::par_map(&ExitClass::FITTED_USER_CLASSES, |&class| {
        let lengths = failure_lengths_indexed(idx, class);
        bgq_obs::add_labeled("fit.samples", class.label(), lengths.len() as u64);
        if lengths.len() < min_samples {
            return None;
        }
        let selection = bgq_obs::time("fit.select_best", || {
            select_best(&lengths, &DistKind::PAPER_CANDIDATES)
        });
        Some(ClassFit {
            class,
            n: lengths.len(),
            ranked: selection.ranked,
        })
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Interruption intervals: gaps (in seconds) between consecutive failure
/// *events* (failed-job end times), the other quantity the abstract fits.
/// The failed end times come out of the index's end ordering pre-sorted.
#[must_use]
pub fn interruption_intervals_indexed(idx: &crate::index::DatasetIndex<'_>) -> Vec<f64> {
    idx.end_times_where(|c| c.is_failure())
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs() as f64)
        .filter(|&g| g > 0.0)
        .collect()
}

/// Fits the paper's candidate set to the interruption intervals
/// (experiment E13's fit panel).
#[must_use]
pub fn fit_interruption_intervals_indexed(
    idx: &crate::index::DatasetIndex<'_>,
) -> Option<ModelSelection> {
    let gaps = interruption_intervals_indexed(idx);
    if gaps.len() < 20 {
        return None;
    }
    Some(select_best(&gaps, &DistKind::PAPER_CANDIDATES))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DatasetIndex;
    use bgq_logs::store::Dataset;
    use bgq_model::ids::{JobId, ProjectId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::{Block, JobRecord, Timestamp};
    use bgq_stats::dist::Dist;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn job_with(exit: i32, start: i64, runtime: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(1),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes: 512,
            mode: Mode::default(),
            requested_walltime_s: 86_400,
            queued_at: Timestamp::from_secs(start),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(start + runtime),
            block: Block::new(0, 1).unwrap(),
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
    fn recovers_planted_family_per_class() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut jobs = Vec::new();
        // Segfaults ~ Weibull(0.7, 1500); setup errors ~ Exp(1/900).
        let weib = Dist::weibull(0.7, 1500.0).unwrap();
        let expo = Dist::exponential(1.0 / 900.0).unwrap();
        for i in 0..2500 {
            jobs.push(job_with(
                139,
                i * 100,
                weib.sample(&mut rng).max(1.0) as i64,
            ));
            jobs.push(job_with(1, i * 100, expo.sample(&mut rng).max(1.0) as i64));
        }
        let fits = with_index(jobs, |idx| fit_by_class_indexed(idx, 100));
        assert_eq!(fits.len(), 2);
        let seg = fits
            .iter()
            .find(|f| f.class == ExitClass::Segfault)
            .unwrap();
        assert_eq!(seg.best().unwrap().dist.kind(), DistKind::Weibull);
        let setup = fits
            .iter()
            .find(|f| f.class == ExitClass::SetupError)
            .unwrap();
        // Exponential and Erlang(k=1) coincide; accept either name.
        let kind = setup.best().unwrap().dist.kind();
        assert!(
            kind == DistKind::Exponential || kind == DistKind::Erlang,
            "got {kind}"
        );
    }

    #[test]
    fn small_classes_are_skipped() {
        let jobs = vec![job_with(139, 0, 100), job_with(139, 200, 150)];
        assert!(with_index(jobs, |idx| fit_by_class_indexed(idx, 100)).is_empty());
    }

    #[test]
    fn interruption_intervals_are_positive_gaps() {
        let jobs = vec![
            job_with(139, 0, 100),     // ends 100
            job_with(0, 0, 50),        // success: ignored
            job_with(1, 1_000, 500),   // ends 1500
            job_with(134, 9_000, 100), // ends 9100
        ];
        let gaps = with_index(jobs, interruption_intervals_indexed);
        assert_eq!(gaps, vec![1400.0, 7600.0]);
    }

    #[test]
    fn interval_fit_needs_enough_data() {
        let jobs = vec![job_with(139, 0, 100), job_with(1, 1000, 100)];
        assert!(with_index(jobs, fit_interruption_intervals_indexed).is_none());
    }

    #[test]
    fn exponential_intervals_are_recovered() {
        // Failure ends forming (approximately) a Poisson process give
        // exponential gaps.
        let mut rng = StdRng::seed_from_u64(3);
        let gap = Dist::exponential(1.0 / 3600.0).unwrap();
        let mut t = 0i64;
        let mut jobs = Vec::new();
        for _ in 0..2000 {
            t += gap.sample(&mut rng).max(1.0) as i64;
            jobs.push(job_with(139, t - 10, 10)); // ends exactly at t
        }
        let sel = with_index(jobs, fit_interruption_intervals_indexed).unwrap();
        let kind = sel.best().unwrap().dist.kind();
        // Second-to-integer rounding perturbs the sample slightly, so any
        // of the exponential-like families (shape ≈ 1) may win; a heavy
        // tail or lognormal would indicate a real bug.
        assert!(
            matches!(
                kind,
                DistKind::Exponential | DistKind::Erlang | DistKind::Weibull | DistKind::Gamma
            ),
            "unexpected family {kind}"
        );
        // And the fitted mean must be near the generating 3600 s.
        let mean = sel.best().unwrap().dist.mean();
        assert!((mean - 3600.0).abs() < 300.0, "mean {mean}");
    }
}
