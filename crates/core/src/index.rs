//! The shared, memoized dataset index every analysis stage reads from.
//!
//! Before this module existed each analysis recomputed the same derived
//! artifacts from the raw logs: the per-job exit classification, the
//! job-span interval index, the RAS↔job attribution join, and the
//! three-stage incident funnel were each rebuilt by every caller that
//! needed them — the full pipeline classified every job five times and
//! ran the (expensive) join twice at the same severity. [`DatasetIndex`]
//! computes each artifact exactly once and hands out shared references,
//! so [`Analysis::run`] stages — which run concurrently on `bgq-par`'s
//! scoped threads — all read the same memoized state.
//!
//! There is one build: [`DatasetIndex::build`] computes every eager
//! artifact in one pass over the rows, with the jobs half and the RAS
//! half running concurrently under `bgq_par::join`.
//!
//! Everything here is deterministic: eager artifacts are built with
//! order-preserving combinators, and the lazily memoized joins are pure
//! functions of the dataset, so a [`std::sync::OnceLock`] race between
//! two stages settles on the same value either way.
//!
//! [`Analysis::run`]: crate::analysis::Analysis::run

use std::sync::OnceLock;

use bgq_logs::interval::IntervalIndex;
use bgq_logs::join::{attribute_events_with, job_span_index, JoinResult};
use bgq_logs::snapshot::PartitionMap;
use bgq_logs::store::Dataset;
use bgq_model::ras::Severity;
use bgq_model::{IoRecord, JobRecord, RasRecord, Timestamp};

use crate::exitcode::ExitClass;
use crate::filtering::{effective_incidents_with, filter_events, FilterConfig, FilterOutcome};

/// Rank of a severity, used to key the per-severity caches.
fn rank(severity: Severity) -> usize {
    match severity {
        Severity::Info => 0,
        Severity::Warn => 1,
        Severity::Fatal => 2,
    }
}

/// Stable metric label for a severity.
fn severity_label(severity: Severity) -> &'static str {
    match severity {
        Severity::Info => "info",
        Severity::Warn => "warn",
        Severity::Fatal => "fatal",
    }
}

/// Shared derived state over one [`Dataset`], computed once.
///
/// Cheap artifacts (exit classes, severity partition, job-span interval
/// index, the filtering funnel, time orderings) are built eagerly by
/// [`DatasetIndex::build`]; the RAS↔job join is memoized per
/// severity on first use, because most pipelines only ever join at one
/// or two severities.
///
/// # Examples
///
/// ```
/// use bgq_core::index::DatasetIndex;
/// use bgq_model::ras::Severity;
/// use bgq_sim::{generate, SimConfig};
///
/// let out = generate(&SimConfig::small(5).with_seed(1));
/// let idx = DatasetIndex::build(&out.dataset);
/// let join = idx.join(Severity::Warn); // computed now...
/// assert!(std::ptr::eq(join, idx.join(Severity::Warn))); // ...reused here
/// ```
pub struct DatasetIndex<'a> {
    /// The job log (time-sorted by the store's normalization).
    pub jobs: &'a [JobRecord],
    /// The RAS log (time-sorted).
    pub ras: &'a [RasRecord],
    /// The I/O log.
    pub io: &'a [IoRecord],
    /// `exit_classes[i]` classifies `jobs[i].exit_code`.
    pub exit_classes: Vec<ExitClass>,
    /// Job indices sorted by `(ended_at, index)` — the time ordering the
    /// interruption and interval analyses consume.
    pub jobs_by_end: Vec<usize>,
    /// The job-span interval index the join and incident checks stab.
    pub job_spans: IntervalIndex,
    /// The three-stage filtering funnel over the FATAL records.
    pub filter: FilterOutcome,
    /// RAS record indices partitioned by exact severity (`[rank]` is
    /// time-sorted because the RAS log is).
    by_severity: [Vec<usize>; 3],
    /// Memoized RAS↔job joins, one slot per minimum severity.
    joins: [OnceLock<JoinResult>; 3],
}

impl<'a> DatasetIndex<'a> {
    /// Builds the index with the default [`FilterConfig`].
    ///
    /// Jobs may come in any order; RAS records need only be sorted by
    /// time (the funnel's precondition).
    #[must_use]
    pub fn build(ds: &'a Dataset) -> Self {
        Self::one_pass(ds, &FilterConfig::default())
    }

    /// [`DatasetIndex::build`] with an explicit funnel config. `_parts`
    /// is unused: the build makes one pass over every row whatever the
    /// day partitioning.
    #[must_use]
    pub fn build_partitioned(
        ds: &'a Dataset,
        _parts: &PartitionMap,
        config: &FilterConfig,
    ) -> Self {
        Self::one_pass(ds, config)
    }

    /// The one build: the jobs half (exit classes, end ordering, job-span
    /// index) and the RAS half (severity views, funnel) run concurrently.
    fn one_pass(ds: &'a Dataset, config: &FilterConfig) -> Self {
        let _span = bgq_obs::span!("index.build");
        let (jobs, ras) = (ds.jobs.as_slice(), ds.ras.as_slice());
        let ((exit_classes, jobs_by_end, job_spans), (filter, by_severity)) = bgq_par::join(
            || {
                let classes = jobs
                    .iter()
                    .map(|j| ExitClass::from_exit_code(j.exit_code))
                    .collect();
                // The index breaks ties, so the keys are unique and an
                // unstable sort is exact.
                let mut by_end: Vec<usize> = (0..jobs.len()).collect();
                by_end.sort_unstable_by_key(|&i| (jobs[i].ended_at, i));
                (classes, by_end, job_span_index(jobs))
            },
            || {
                let mut views: [Vec<usize>; 3] = Default::default();
                for (i, r) in ras.iter().enumerate() {
                    views[rank(r.severity)].push(i);
                }
                (filter_events(ras, config), views)
            },
        );
        DatasetIndex {
            jobs,
            ras,
            io: &ds.io,
            exit_classes,
            jobs_by_end,
            job_spans,
            filter,
            by_severity,
            joins: Default::default(),
        }
    }

    /// Exit class of `jobs[i]`.
    #[must_use]
    pub fn exit_class(&self, i: usize) -> ExitClass {
        self.exit_classes[i]
    }

    /// RAS record indices of exactly this severity, in time order.
    #[must_use]
    pub fn events_with_severity(&self, severity: Severity) -> &[usize] {
        &self.by_severity[rank(severity)]
    }

    /// Calls `f` with each RAS record index of at least `min_severity`.
    ///
    /// Iterates the severity partitions in rank order, so the visit
    /// order is deterministic (but **not** global time order — use it
    /// for order-insensitive aggregation only).
    pub fn each_event_at_least(&self, min_severity: Severity, mut f: impl FnMut(usize)) {
        for view in &self.by_severity[rank(min_severity)..] {
            for &i in view {
                f(i);
            }
        }
    }

    /// The RAS↔job join at `min_severity`, computed on first use and
    /// shared by every later caller (the funnel's breakdown, the user
    /// correlation, and the affected-job count all read one join).
    ///
    /// Each call records one `index.join.memo_hit` or
    /// `index.join.memo_miss` count (labeled by severity), so a run
    /// manifest can prove the join was built once per severity.
    #[must_use]
    pub fn join(&self, min_severity: Severity) -> &JoinResult {
        let mut missed = false;
        let join = self.joins[rank(min_severity)].get_or_init(|| {
            missed = true;
            bgq_obs::time("index.join.build", || {
                attribute_events_with(self.jobs, self.ras, min_severity, &self.job_spans)
            })
        });
        let counter = if missed {
            "index.join.memo_miss"
        } else {
            "index.join.memo_hit"
        };
        bgq_obs::add_labeled(counter, severity_label(min_severity), 1);
        join
    }

    /// The memoized join at `min_severity`, if some caller already
    /// forced it (test hook for the memoization contract).
    #[must_use]
    pub fn join_cached(&self, min_severity: Severity) -> Option<&JoinResult> {
        self.joins[rank(min_severity)].get()
    }

    /// How many filtered incidents struck hardware that was running a
    /// job at the time, checking **every member event** of the incident
    /// against the shared job-span index.
    #[must_use]
    pub fn effective_incident_count(&self) -> usize {
        effective_incidents_with(self.jobs, self.ras, &self.filter.incidents, &self.job_spans)
    }

    /// End times of jobs whose exit class satisfies `keep`, ascending.
    #[must_use]
    pub fn end_times_where(&self, keep: impl Fn(ExitClass) -> bool) -> Vec<Timestamp> {
        let mut out = Vec::new();
        for &i in &self.jobs_by_end {
            if keep(self.exit_classes[i]) {
                out.push(self.jobs[i].ended_at);
            }
        }
        out
    }
}

/// An empty placeholder. No code builds an index through it any more:
/// it survives only as the type of `bgq_serve::Epoch::build`'s unused
/// `builder` argument, which the benchmark harness (`perfbench/`) still
/// passes.
#[derive(Debug, Default)]
pub struct IndexBuilder;

impl IndexBuilder {
    /// The placeholder.
    #[must_use]
    pub fn new() -> Self {
        IndexBuilder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_logs::join::attribute_events;
    use bgq_sim::{generate, SimConfig};

    fn dataset() -> Dataset {
        generate(&SimConfig::small(20).with_seed(11)).dataset
    }

    /// Every eager artifact of `DatasetIndex::build(ds)` and its join at
    /// every severity equal a direct computation over the rows.
    fn assert_matches_direct(ds: &Dataset) {
        let idx = DatasetIndex::build(ds);
        assert_eq!(idx.exit_classes.len(), ds.jobs.len());
        for (i, j) in ds.jobs.iter().enumerate() {
            assert_eq!(idx.exit_class(i), ExitClass::from_exit_code(j.exit_code));
        }
        // Each severity view holds exactly that severity's records, in
        // row order.
        for &s in &Severity::ALL {
            let want: Vec<usize> = (0..ds.ras.len())
                .filter(|&i| ds.ras[i].severity == s)
                .collect();
            assert_eq!(idx.events_with_severity(s), want, "{s:?} view");
        }
        // End ordering is strictly increasing in (ended_at, index) and a
        // permutation, so it is exactly the sort by that key.
        let key = |i: usize| (ds.jobs[i].ended_at, i);
        assert!(idx.jobs_by_end.windows(2).all(|w| key(w[0]) < key(w[1])));
        let mut perm = idx.jobs_by_end.clone();
        perm.sort_unstable();
        assert_eq!(perm, (0..ds.jobs.len()).collect::<Vec<_>>());
        assert_eq!(idx.job_spans, job_span_index(&ds.jobs));
        assert_eq!(idx.filter, filter_events(&ds.ras, &FilterConfig::default()));
        for &s in &Severity::ALL {
            let direct = attribute_events(&ds.jobs, &ds.ras, s);
            assert_eq!(idx.join(s).pairs, direct.pairs, "{s:?} join");
        }
    }

    #[test]
    fn eager_artifacts_match_direct_computation() {
        let ds = dataset();
        assert_matches_direct(&ds);

        // Rows out of canonical order: jobs in any order, and RAS records
        // that share a timestamp in any order (the funnel needs the RAS
        // log time-sorted).
        let mut shuffled = ds.clone();
        shuffled.jobs.reverse();
        let same_time = |a: &RasRecord, b: &RasRecord| a.event_time == b.event_time;
        for tie in shuffled.ras.chunk_by_mut(same_time) {
            tie.reverse();
        }
        assert!(!shuffled.jobs.is_sorted_by_key(|j| (j.started_at, j.job_id)));
        assert!(!shuffled.ras.is_sorted_by_key(|r| (r.event_time, r.rec_id)));
        assert_matches_direct(&shuffled);

        assert_matches_direct(&Dataset::new());
    }

    #[test]
    fn join_is_memoized_and_matches_unindexed_join() {
        let ds = dataset();
        let idx = DatasetIndex::build(&ds);
        assert!(idx.join_cached(Severity::Warn).is_none());
        let first = idx.join(Severity::Warn);
        // Same allocation handed to every caller: computed exactly once.
        assert!(std::ptr::eq(first, idx.join(Severity::Warn)));
        assert!(std::ptr::eq(
            first,
            idx.join_cached(Severity::Warn).unwrap()
        ));
        let direct = attribute_events(&ds.jobs, &ds.ras, Severity::Warn);
        assert_eq!(first.pairs, direct.pairs);
        // Other severities stay lazy until asked for.
        assert!(idx.join_cached(Severity::Fatal).is_none());
    }

    #[test]
    fn end_times_filter_by_class() {
        let ds = dataset();
        let idx = DatasetIndex::build(&ds);
        let failed = idx.end_times_where(|c| c.is_failure());
        let mut expect: Vec<Timestamp> = ds
            .jobs
            .iter()
            .filter(|j| ExitClass::from_exit_code(j.exit_code).is_failure())
            .map(|j| j.ended_at)
            .collect();
        expect.sort_unstable();
        assert_eq!(failed, expect);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let ds = Dataset::new();
        let idx = DatasetIndex::build(&ds);
        assert!(idx.exit_classes.is_empty());
        assert!(idx.join(Severity::Info).is_empty());
        assert_eq!(idx.effective_incident_count(), 0);
    }
}
