//! The one-call facade: run every analysis of the paper over a dataset.

use bgq_logs::snapshot::TABLES;
use bgq_logs::store::{Dataset, SourceAvailability};
use bgq_model::ras::Severity;

use crate::failure_rates::{by_consumed_core_hours, by_core_hours, by_scale, by_tasks, RateCurve};
use crate::filtering::{interruption_stats_indexed, FilterOutcome, InterruptionStats};
use crate::fitting::{fit_by_class_indexed, fit_interruption_intervals_indexed, ClassFit};
use crate::index::DatasetIndex;
use crate::io_analysis::{io_outcome_stats, IoOutcomeStats};
use crate::jobstats::{
    class_breakdown_indexed, per_project, per_user, size_mix, user_caused_share_indexed,
    DatasetTotals, EntityActivity, SizeMixRow, TemporalProfile,
};
use crate::lifetime::{lifetime_series_indexed, LifetimeSeries};
use crate::locality::{locality_map_indexed, Level, LocalityMap};
use crate::prediction::{predict_and_evaluate, PredictionReport, PredictorConfig};
use crate::queueing::{mean_utilization, waits_by_queue, waits_by_size, WaitRow};
use crate::ras_analysis::{
    breakdown, user_event_correlation_indexed, RasBreakdown, UserEventCorrelation,
};

/// Minimum failed jobs in an exit class before the class is fitted.
pub const MIN_FIT_SAMPLES: usize = 30;

/// Which log sources each [`Analysis`] stage (result field) consumes.
///
/// This is the contract behind degraded-mode reporting: when a source
/// was quarantined at load time, every stage listed against it gets an
/// explicit [`DegradedStage`] marker instead of silently reporting
/// zeros. The `tasks` table appears nowhere — no current stage reads
/// it (`rate_by_tasks` uses the per-job `num_tasks` field), so losing
/// it degrades nothing.
pub const STAGE_SOURCES: &[(&str, &[&str])] = &[
    ("totals", &["jobs"]),
    ("size_mix", &["jobs"]),
    ("per_user", &["jobs"]),
    ("per_project", &["jobs"]),
    ("class_breakdown", &["jobs"]),
    ("user_caused_share", &["jobs"]),
    ("rate_by_scale", &["jobs"]),
    ("rate_by_tasks", &["jobs"]),
    ("rate_by_core_hours", &["jobs"]),
    ("rate_by_consumed_core_hours", &["jobs"]),
    ("class_fits", &["jobs"]),
    ("ras", &["ras"]),
    ("user_events", &["jobs", "ras"]),
    ("locality_boards", &["jobs", "ras"]),
    ("locality_racks", &["jobs", "ras"]),
    ("filter", &["jobs", "ras"]),
    ("interruptions", &["jobs", "ras"]),
    ("submissions_profile", &["jobs"]),
    ("failures_profile", &["jobs"]),
    ("interval_fit", &["jobs", "ras"]),
    ("io", &["jobs", "io"]),
    ("lifetime", &["jobs", "ras"]),
    ("prediction", &["jobs", "ras"]),
    ("waits_by_size", &["jobs"]),
    ("waits_by_queue", &["jobs"]),
    ("mean_utilization", &["jobs"]),
];

/// The tables some stage reads — the union of [`STAGE_SOURCES`], in the
/// snapshot's canonical table order. A load that feeds only the analysis
/// need decode no other table.
#[must_use]
pub fn stage_tables() -> Vec<&'static str> {
    TABLES
        .into_iter()
        .filter(|t| STAGE_SOURCES.iter().any(|(_, sources)| sources.contains(t)))
        .collect()
}

/// A stage whose inputs were partly unavailable: its result is computed
/// over what survived, but must not be read as a statement about the
/// full trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedStage {
    /// The [`Analysis`] field name (see [`STAGE_SOURCES`]).
    pub stage: &'static str,
    /// The quarantined sources the stage would have consumed.
    pub missing: Vec<&'static str>,
}

impl std::fmt::Display for DegradedStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (missing: {})", self.stage, self.missing.join(", "))
    }
}

/// The stages degraded by the given availability, in [`STAGE_SOURCES`]
/// order. Empty when every source is present.
///
/// Each degraded stage is also counted once under
/// `analysis.degraded{stage}`, so every command that reports the stages
/// leaves the same counters in its run manifest.
#[must_use]
pub fn degraded_stages(avail: &SourceAvailability) -> Vec<DegradedStage> {
    let degraded: Vec<DegradedStage> = STAGE_SOURCES
        .iter()
        .filter_map(|&(stage, sources)| {
            let missing: Vec<&'static str> = sources
                .iter()
                .copied()
                .filter(|s| !avail.available(s))
                .collect();
            (!missing.is_empty()).then_some(DegradedStage { stage, missing })
        })
        .collect();
    for d in &degraded {
        bgq_obs::add_labeled("analysis.degraded", d.stage, 1);
    }
    degraded
}

/// Everything the paper computes, in one struct.
///
/// # Examples
///
/// ```
/// use bgq_core::analysis::Analysis;
/// use bgq_sim::{generate, SimConfig};
///
/// let out = generate(&SimConfig::small(5).with_seed(2));
/// let analysis = Analysis::run(&out.dataset);
/// assert!(analysis.totals.as_ref().unwrap().jobs > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Analysis {
    /// E1: dataset totals.
    pub totals: Option<DatasetTotals>,
    /// E2: job-size mix.
    pub size_mix: Vec<SizeMixRow>,
    /// E3: per-user activity, descending by job count.
    pub per_user: Vec<EntityActivity>,
    /// E3: per-project activity.
    pub per_project: Vec<EntityActivity>,
    /// E4: failure-class breakdown.
    pub class_breakdown: std::collections::BTreeMap<crate::exitcode::ExitClass, usize>,
    /// E4: user-attributed share of failures.
    pub user_caused_share: Option<f64>,
    /// E5: failure rate by scale.
    pub rate_by_scale: RateCurve,
    /// E6: failure rate by task count.
    pub rate_by_tasks: RateCurve,
    /// E6: failure rate by *requested* core-hours.
    pub rate_by_core_hours: RateCurve,
    /// E6: failure rate by *consumed* core-hours (survivorship panel).
    pub rate_by_consumed_core_hours: RateCurve,
    /// E7: per-class distribution fits.
    pub class_fits: Vec<ClassFit>,
    /// E8: RAS breakdown.
    pub ras: RasBreakdown,
    /// E9: user/core-hour correlation of job-affecting events.
    pub user_events: UserEventCorrelation,
    /// E10: fatal locality at board granularity.
    pub locality_boards: LocalityMap,
    /// E10: fatal locality at rack granularity.
    pub locality_racks: LocalityMap,
    /// E11: the filtering funnel.
    pub filter: FilterOutcome,
    /// E12: interruption statistics.
    pub interruptions: InterruptionStats,
    /// E13: submission temporal profile.
    pub submissions_profile: TemporalProfile,
    /// E13: failure temporal profile.
    pub failures_profile: TemporalProfile,
    /// E13: interruption-interval fit.
    pub interval_fit: Option<bgq_stats::gof::ModelSelection>,
    /// I/O behavior by outcome.
    pub io: IoOutcomeStats,
    /// E15: reliability evolution over the system's life (90-day windows).
    pub lifetime: LifetimeSeries,
    /// E16: precursor-based prediction evaluated against the filtered
    /// incidents.
    pub prediction: PredictionReport,
    /// E17: queue waits by job size.
    pub waits_by_size: Vec<WaitRow>,
    /// E17: queue waits by queue class.
    pub waits_by_queue: Vec<WaitRow>,
    /// E17: mean machine utilization over the trace.
    pub mean_utilization: Option<f64>,
    /// Stages whose inputs were quarantined at load time (empty for a
    /// complete dataset). Populated by [`Analysis::mark_degraded`]; the
    /// run itself assumes all sources present.
    pub degraded: Vec<DegradedStage>,
}

impl Analysis {
    /// Runs every analysis with the default [`FilterConfig`]:
    /// [`Analysis::run_indexed`] over [`DatasetIndex::build`].
    ///
    /// [`FilterConfig`]: crate::filtering::FilterConfig
    #[must_use]
    pub fn run(ds: &Dataset) -> Self {
        Analysis::run_indexed(&DatasetIndex::build(ds))
    }

    /// Stamps the load-time quarantine markers onto a finished analysis:
    /// each stage whose sources were quarantined gets an explicit
    /// [`DegradedStage`] entry (and an `analysis.degraded` obs counter,
    /// from [`degraded_stages`]) instead of letting its zeros masquerade
    /// as measurements.
    ///
    /// Every stage still runs — a degraded stage's result covers the
    /// records that survived, which is the honest best-effort answer;
    /// the marker is what keeps it from being read as the full trace.
    /// The CLI's `report` and `profile` run
    /// `Analysis::run_indexed(&idx).mark_degraded(&avail)`.
    #[must_use]
    pub fn mark_degraded(mut self, avail: &SourceAvailability) -> Self {
        self.degraded = degraded_stages(avail);
        self
    }

    /// Runs every analysis over a prebuilt [`DatasetIndex`].
    ///
    /// The stages are grouped into four independent bundles that run
    /// concurrently on `bgq-par`'s scoped threads (distribution fitting,
    /// the RAS↔job join, the funnel consumers, and the per-job sweeps).
    /// Every stage is a pure function of the index, and the bundles
    /// exchange no state beyond the memoized index itself, so the result
    /// is field-for-field identical to the sequential path.
    #[must_use]
    pub fn run_indexed(idx: &DatasetIndex<'_>) -> Self {
        let _run = bgq_obs::span!("analysis.run");
        let jobs = idx.jobs;
        let (
            (class_fits, interval_fit, lifetime),
            (user_events, ras, io),
            (prediction, interruptions, locality_boards, locality_racks),
            (totals, size_mix_v, per_user_v, per_project_v, rates, waits, profiles),
        ) = bgq_par::join4(
            || {
                (
                    bgq_obs::time("analysis.fit.by_class", || {
                        fit_by_class_indexed(idx, MIN_FIT_SAMPLES)
                    }),
                    bgq_obs::time("analysis.fit.intervals", || {
                        fit_interruption_intervals_indexed(idx)
                    }),
                    bgq_obs::time("analysis.lifetime", || lifetime_series_indexed(idx, 90)),
                )
            },
            || {
                (
                    bgq_obs::time("analysis.ras.user_correlation", || {
                        user_event_correlation_indexed(idx, Severity::Warn)
                    }),
                    bgq_obs::time("analysis.ras.breakdown", || breakdown(idx.ras, 10)),
                    bgq_obs::time("analysis.io", || io_outcome_stats(jobs, idx.io)),
                )
            },
            || {
                (
                    bgq_obs::time("analysis.predict", || {
                        predict_and_evaluate(
                            idx.ras,
                            &idx.filter.incidents,
                            &PredictorConfig::default(),
                        )
                    }),
                    bgq_obs::time("analysis.interruptions", || interruption_stats_indexed(idx)),
                    bgq_obs::time("analysis.locality.boards", || {
                        locality_map_indexed(idx, Severity::Fatal, Level::Board)
                    }),
                    bgq_obs::time("analysis.locality.racks", || {
                        locality_map_indexed(idx, Severity::Fatal, Level::Rack)
                    }),
                )
            },
            || {
                (
                    bgq_obs::time("analysis.jobs.totals", || DatasetTotals::compute(jobs)),
                    bgq_obs::time("analysis.jobs.size_mix", || size_mix(jobs)),
                    bgq_obs::time("analysis.jobs.per_user", || per_user(jobs)),
                    bgq_obs::time("analysis.jobs.per_project", || per_project(jobs)),
                    bgq_obs::time("analysis.rates", || {
                        (
                            by_scale(jobs),
                            by_tasks(jobs),
                            by_core_hours(jobs),
                            by_consumed_core_hours(jobs),
                        )
                    }),
                    bgq_obs::time("analysis.queueing", || {
                        (
                            waits_by_size(jobs),
                            waits_by_queue(jobs),
                            mean_utilization(jobs, &bgq_model::Machine::MIRA),
                        )
                    }),
                    bgq_obs::time("analysis.temporal", || {
                        (
                            TemporalProfile::compute(jobs.iter().map(|j| j.queued_at)),
                            TemporalProfile::compute(
                                jobs.iter().filter(|j| j.exit_code != 0).map(|j| j.ended_at),
                            ),
                        )
                    }),
                )
            },
        );
        let (rate_by_scale, rate_by_tasks, rate_by_core_hours, rate_by_consumed_core_hours) = rates;
        let (waits_by_size_v, waits_by_queue_v, mean_utilization_v) = waits;
        let (submissions_profile, failures_profile) = profiles;
        Analysis {
            totals,
            size_mix: size_mix_v,
            per_user: per_user_v,
            per_project: per_project_v,
            class_breakdown: bgq_obs::time("analysis.class_breakdown", || {
                class_breakdown_indexed(idx)
            }),
            user_caused_share: bgq_obs::time("analysis.user_caused_share", || {
                user_caused_share_indexed(idx)
            }),
            rate_by_scale,
            rate_by_tasks,
            rate_by_core_hours,
            rate_by_consumed_core_hours,
            class_fits,
            ras,
            user_events,
            locality_boards,
            locality_racks,
            interruptions,
            submissions_profile,
            failures_profile,
            interval_fit,
            io,
            lifetime,
            prediction,
            filter: idx.filter.clone(),
            waits_by_size: waits_by_size_v,
            waits_by_queue: waits_by_queue_v,
            mean_utilization: mean_utilization_v,
            degraded: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_sim::{generate, SimConfig};

    #[test]
    fn facade_runs_on_a_small_dataset() {
        let out = generate(&SimConfig::small(10).with_seed(5));
        let a = Analysis::run(&out.dataset);
        let totals = a.totals.as_ref().unwrap();
        assert!(totals.jobs > 500);
        assert!(a.user_caused_share.unwrap() > 0.9);
        assert!(!a.size_mix.is_empty());
        assert!(!a.per_user.is_empty());
        assert!(a.filter.raw_fatal > 0);
        assert!(a.filter.after_similarity <= a.filter.after_spatial);
        assert!(a.submissions_profile.total() as usize == totals.jobs);
    }

    #[test]
    fn facade_is_safe_on_empty_dataset() {
        let a = Analysis::run(&Dataset::new());
        assert!(a.totals.is_none());
        assert!(a.size_mix.is_empty());
        assert!(a.class_fits.is_empty());
        assert_eq!(a.filter.raw_fatal, 0);
        assert!(a.interval_fit.is_none());
        assert!(a.degraded.is_empty());
    }

    #[test]
    fn stage_sources_cover_every_analysis_field() {
        // Every result field of Analysis must have a dependency entry,
        // so a new stage cannot silently dodge degraded accounting.
        // `degraded` itself is bookkeeping, not a stage.
        let a = Analysis::run(&Dataset::new());
        let debug = format!("{a:?}");
        for &(stage, sources) in STAGE_SOURCES {
            assert!(
                debug.contains(stage),
                "STAGE_SOURCES entry {stage} is not an Analysis field"
            );
            assert!(!sources.is_empty());
            for s in sources {
                assert!(
                    matches!(*s, "jobs" | "ras" | "tasks" | "io"),
                    "unknown source {s} for stage {stage}"
                );
            }
        }
        // Field count: 26 stages + the degraded marker itself.
        assert_eq!(STAGE_SOURCES.len(), 26);
    }

    #[test]
    fn stage_tables_are_the_three_tables_a_stage_reads() {
        // No stage reads `tasks`, so an analysis load skips it.
        assert_eq!(stage_tables(), ["jobs", "ras", "io"]);
    }

    #[test]
    fn mark_degraded_flags_ras_consumers_when_ras_is_missing() {
        let out = generate(&SimConfig::small(5).with_seed(2));
        let mut ds = out.dataset;
        ds.ras.clear();
        let avail = SourceAvailability {
            ras: false,
            ..SourceAvailability::ALL
        };
        let a = Analysis::run(&ds).mark_degraded(&avail);
        let stages: Vec<&str> = a.degraded.iter().map(|d| d.stage).collect();
        assert!(stages.contains(&"ras"));
        assert!(stages.contains(&"filter"));
        assert!(stages.contains(&"prediction"));
        assert!(!stages.contains(&"totals"), "jobs-only stages are intact");
        for d in &a.degraded {
            assert_eq!(d.missing, vec!["ras"]);
        }
        // Jobs-side results are still computed over what survived.
        assert!(a.totals.is_some());
    }

    #[test]
    fn mark_degraded_with_complete_sources_is_clean() {
        let out = generate(&SimConfig::small(5).with_seed(2));
        let a = Analysis::run(&out.dataset).mark_degraded(&SourceAvailability::ALL);
        assert!(a.degraded.is_empty());
    }

    #[test]
    fn missing_tasks_degrades_nothing() {
        // No analysis stage reads the tasks table; losing it must not
        // flag anything.
        let avail = SourceAvailability {
            tasks: false,
            ..SourceAvailability::ALL
        };
        assert!(degraded_stages(&avail).is_empty());
    }
}
