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
//! There is one build: per-day artifacts merged into the full index.
//! [`DatasetIndex::build_partitioned`] computes every day of a
//! [`PartitionMap`], and [`DatasetIndex::build`] treats the whole
//! dataset as one partition.
//!
//! Everything here is deterministic: eager artifacts are built with
//! order-preserving combinators, and the lazily memoized joins are pure
//! functions of the dataset, so a [`std::sync::OnceLock`] race between
//! two stages settles on the same value either way.
//!
//! [`Analysis::run`]: crate::analysis::Analysis::run

use std::ops::Range;
use std::sync::OnceLock;

use bgq_logs::interval::IntervalIndex;
use bgq_logs::join::{attribute_events_with, job_span_index_partitioned, JoinResult};
use bgq_logs::snapshot::{PartitionMap, PartitionSpan};
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
/// [`DatasetIndex::build_partitioned`]; the RAS↔job join is memoized per
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
    /// Builds the index with the default [`FilterConfig`], treating the
    /// whole dataset as one partition.
    ///
    /// Unlike [`PartitionMap::of_dataset`], one span over every row needs
    /// no canonical order: jobs may come in any order, and RAS records
    /// only need to be sorted by time (the funnel's precondition).
    #[must_use]
    pub fn build(ds: &'a Dataset) -> Self {
        let all = PartitionSpan {
            day: 0,
            jobs: 0..ds.jobs.len(),
            ras: 0..ds.ras.len(),
            tasks: 0..ds.tasks.len(),
        };
        let parts = PartitionMap { days: vec![all] };
        Self::build_partitioned(ds, &parts, &FilterConfig::default())
    }

    /// Builds the index one day-partition at a time and merges.
    ///
    /// Per-partition artifacts (exit classes, end ordering, severity
    /// views) are computed concurrently across partitions; the merge
    /// concatenates day-grouped artifacts, k-way merges the end
    /// ordering, and builds the span index with globally sized buckets,
    /// so the result does not depend on how the rows were partitioned.
    /// The filtering funnel is always computed globally, because
    /// temporal clusters span partition boundaries.
    ///
    /// `parts` must cover `ds` contiguously (see
    /// [`PartitionMap::of_dataset`]).
    #[must_use]
    pub fn build_partitioned(ds: &'a Dataset, parts: &PartitionMap, config: &FilterConfig) -> Self {
        let _span = bgq_obs::span!("index.build");
        let arts = bgq_par::par_map(&parts.days, |span| PartArtifacts::compute(ds, span));
        Self::merge(ds, config, &arts)
    }

    /// Assembles a full index from per-partition artifacts covering the
    /// dataset in day order.
    fn merge(ds: &'a Dataset, config: &FilterConfig, arts: &[PartArtifacts]) -> Self {
        let (jobs, ras) = (ds.jobs.as_slice(), ds.ras.as_slice());
        #[cfg(debug_assertions)]
        {
            let mut j = 0;
            for a in arts {
                assert_eq!(a.jobs.start, j, "job runs must be contiguous");
                j = a.jobs.end;
            }
            assert_eq!(j, jobs.len(), "job runs must cover the job log");
            let r: usize = arts.iter().flat_map(|a| &a.by_severity).map(Vec::len).sum();
            assert_eq!(r, ras.len(), "ras runs must cover the RAS log");
        }
        let ((exit_classes, jobs_by_end, job_spans), (filter, by_severity)) = bgq_par::join(
            || {
                bgq_obs::time("index.merge.jobs", || {
                    let mut classes = Vec::with_capacity(jobs.len());
                    for a in arts {
                        classes.extend_from_slice(&a.exit_classes);
                    }
                    let runs: Vec<Range<usize>> = arts.iter().map(|a| a.jobs.clone()).collect();
                    (classes, merge_by_end(jobs, arts), job_span_index_partitioned(jobs, &runs))
                })
            },
            || {
                bgq_obs::time("index.merge.ras", || {
                    // Clusters cross midnight, so the funnel is global.
                    let filter = filter_events(ras, config);
                    let mut views: [Vec<usize>; 3] = Default::default();
                    for a in arts {
                        for (view, part) in views.iter_mut().zip(&a.by_severity) {
                            view.extend_from_slice(part);
                        }
                    }
                    (filter, views)
                })
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

/// Eager index artifacts of one day partition, in **global** row indices
/// so merging is pure concatenation / k-way merging with no re-offsetting.
#[derive(Debug, Clone)]
struct PartArtifacts {
    /// Global job-row range this partition covers.
    jobs: Range<usize>,
    /// Exit classes of `jobs`, in row order.
    exit_classes: Vec<ExitClass>,
    /// Global job indices of this partition sorted by `(ended_at, index)`.
    by_end: Vec<usize>,
    /// Global RAS indices partitioned by exact severity, time-sorted.
    by_severity: [Vec<usize>; 3],
}

impl PartArtifacts {
    fn compute(ds: &Dataset, span: &PartitionSpan) -> PartArtifacts {
        let exit_classes = ds.jobs[span.jobs.clone()]
            .iter()
            .map(|j| ExitClass::from_exit_code(j.exit_code))
            .collect();
        let mut by_end: Vec<usize> = span.jobs.clone().collect();
        by_end.sort_by_key(|&i| (ds.jobs[i].ended_at, i));
        let mut by_severity: [Vec<usize>; 3] = Default::default();
        for i in span.ras.clone() {
            by_severity[rank(ds.ras[i].severity)].push(i);
        }
        PartArtifacts {
            jobs: span.jobs.clone(),
            exit_classes,
            by_end,
            by_severity,
        }
    }
}

/// Deterministic k-way merge of the per-partition end orderings by
/// `(ended_at, index)`. The keys are unique (the index breaks ties), so
/// the output is exactly the monolithic `sort_by_key` over all jobs.
fn merge_by_end(jobs: &[JobRecord], arts: &[PartArtifacts]) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // One run (`DatasetIndex::build`) is already in order.
    if let [only] = arts {
        return only.by_end.clone();
    }
    let total: usize = arts.iter().map(|a| a.by_end.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut heap = BinaryHeap::with_capacity(arts.len());
    for (run, a) in arts.iter().enumerate() {
        if let Some(&i) = a.by_end.first() {
            heap.push(Reverse((jobs[i].ended_at, i, run, 0usize)));
        }
    }
    while let Some(Reverse((_, i, run, pos))) = heap.pop() {
        out.push(i);
        if let Some(&j) = arts[run].by_end.get(pos + 1) {
            heap.push(Reverse((jobs[j].ended_at, j, run, pos + 1)));
        }
    }
    out
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
    use bgq_logs::join::{attribute_events, job_span_index};
    use bgq_sim::{generate, SimConfig};

    fn dataset() -> Dataset {
        generate(&SimConfig::small(20).with_seed(11)).dataset
    }

    #[test]
    fn eager_artifacts_match_direct_computation() {
        let ds = dataset();
        let idx = DatasetIndex::build(&ds);
        assert_eq!(idx.exit_classes.len(), ds.jobs.len());
        for (i, j) in ds.jobs.iter().enumerate() {
            assert_eq!(idx.exit_class(i), ExitClass::from_exit_code(j.exit_code));
        }
        // Severity partition covers the RAS log exactly once.
        let total: usize = Severity::ALL
            .iter()
            .map(|&s| idx.events_with_severity(s).len())
            .sum();
        assert_eq!(total, ds.ras.len());
        for &s in &Severity::ALL {
            for &i in idx.events_with_severity(s) {
                assert_eq!(ds.ras[i].severity, s);
            }
        }
        // End ordering is sorted and a permutation.
        assert!(idx
            .jobs_by_end
            .windows(2)
            .all(|w| ds.jobs[w[0]].ended_at <= ds.jobs[w[1]].ended_at));
        let mut perm = idx.jobs_by_end.clone();
        perm.sort_unstable();
        assert_eq!(perm, (0..ds.jobs.len()).collect::<Vec<_>>());
        // The funnel matches a direct run.
        assert_eq!(
            idx.filter,
            filter_events(&ds.ras, &FilterConfig::default())
        );
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

    /// The reference the partitioned and incremental builds are checked
    /// against: every eager artifact computed in one pass over the whole
    /// dataset, with no partitioning and no merge.
    fn monolithic(ds: &Dataset) -> DatasetIndex<'_> {
        let (jobs, ras) = (ds.jobs.as_slice(), ds.ras.as_slice());
        let mut jobs_by_end: Vec<usize> = (0..jobs.len()).collect();
        jobs_by_end.sort_by_key(|&i| (jobs[i].ended_at, i));
        let mut by_severity: [Vec<usize>; 3] = Default::default();
        for (i, r) in ras.iter().enumerate() {
            by_severity[rank(r.severity)].push(i);
        }
        let exit_classes = jobs.iter().map(|j| ExitClass::from_exit_code(j.exit_code));
        DatasetIndex {
            jobs,
            ras,
            io: &ds.io,
            exit_classes: exit_classes.collect(),
            jobs_by_end,
            job_spans: job_span_index(jobs),
            filter: filter_events(ras, &FilterConfig::default()),
            by_severity,
            joins: Default::default(),
        }
    }

    /// Every eager artifact of `got` equals `want`'s, bit for bit.
    fn assert_same_artifacts(got: &DatasetIndex<'_>, want: &DatasetIndex<'_>) {
        assert_eq!(got.exit_classes, want.exit_classes);
        assert_eq!(got.jobs_by_end, want.jobs_by_end);
        assert_eq!(got.job_spans, want.job_spans);
        assert_eq!(got.filter, want.filter);
        for &s in &Severity::ALL {
            assert_eq!(got.events_with_severity(s), want.events_with_severity(s));
        }
    }

    /// [`assert_same_artifacts`] plus the memoized join at every severity.
    fn assert_same_index(got: &DatasetIndex<'_>, want: &DatasetIndex<'_>) {
        assert_same_artifacts(got, want);
        for &s in &Severity::ALL {
            assert_eq!(got.join(s).pairs, want.join(s).pairs, "{s:?} join");
        }
    }

    #[test]
    fn partitioned_build_matches_monolithic() {
        let ds = dataset();
        let parts = PartitionMap::of_dataset(&ds);
        assert!(parts.days.len() > 1, "need several partitions to merge");
        let mono = monolithic(&ds);
        let part = DatasetIndex::build_partitioned(&ds, &parts, &FilterConfig::default());
        assert_same_index(&part, &mono);
        assert_same_index(&DatasetIndex::build(&ds), &mono);

        // `build` takes rows out of canonical order, which
        // `PartitionMap::of_dataset` would reject: jobs in any order, and
        // RAS records that share a timestamp in any order (the funnel
        // needs the RAS log time-sorted).
        let mut shuffled = ds.clone();
        shuffled.jobs.reverse();
        let same_time = |a: &RasRecord, b: &RasRecord| a.event_time == b.event_time;
        for tie in shuffled.ras.chunk_by_mut(same_time) {
            tie.reverse();
        }
        assert!(!shuffled.jobs.is_sorted_by_key(|j| (j.started_at, j.job_id)));
        assert!(!shuffled.ras.is_sorted_by_key(|r| (r.event_time, r.rec_id)));
        assert_same_index(&DatasetIndex::build(&shuffled), &monolithic(&shuffled));

        // Degenerate case: the empty dataset has zero partitions.
        let empty = Dataset::new();
        let idx = DatasetIndex::build_partitioned(
            &empty,
            &PartitionMap::of_dataset(&empty),
            &FilterConfig::default(),
        );
        assert!(idx.exit_classes.is_empty());
        assert!(idx.join(Severity::Info).is_empty());
    }
}
