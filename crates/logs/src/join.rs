//! The temporal–spatial join between RAS events and jobs.
//!
//! An event *affects* a job when it occurs while the job is executing
//! (start-inclusive, end-exclusive) **and** its hardware location lies
//! inside the job's block. This join is the backbone of the paper's
//! "impact of system events on job execution" analysis; attributing an
//! event wrongly (purely by time, or purely by place) badly over-counts
//! impact, which is why both predicates are required.
//!
//! [`job_span_index`] builds the job-span index in one pass over the job
//! log; `bgq_core`'s `DatasetIndex` builds it once per dataset and shares
//! it across severities through [`attribute_events_with`].

use bgq_model::{JobRecord, RasRecord, Severity, Span};

use crate::interval::IntervalIndex;

/// One attributed event: indices into the input slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Index of the event in the RAS slice passed to [`attribute_events`].
    pub event_idx: usize,
    /// Index of the affected job in the jobs slice.
    pub job_idx: usize,
}

/// Result of joining a RAS log against a job log.
#[derive(Debug, Clone, Default)]
pub struct JoinResult {
    /// All `(event, job)` attribution pairs, ordered by event index.
    pub pairs: Vec<Attribution>,
}

impl JoinResult {
    /// Jobs affected by at least one event, as sorted deduplicated indices.
    #[must_use]
    pub fn affected_jobs(&self) -> Vec<usize> {
        let mut v: Vec<usize> = Vec::with_capacity(self.pairs.len());
        v.extend(self.pairs.iter().map(|a| a.job_idx));
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Number of attribution pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` if no event hit any job.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The bucket width used for the job-span [`IntervalIndex`] (roughly the
/// median job runtime; keeps per-bucket membership lists short).
pub const JOB_SPAN_BUCKET: Span = Span::from_hours(6);

/// Builds the job-span interval index the join stabs against.
///
/// Exposed so callers joining repeatedly against the same job log (e.g.
/// at several severities) can build the index once and share it via
/// [`attribute_events_with`].
#[must_use]
pub fn job_span_index(jobs: &[JobRecord]) -> IntervalIndex {
    bgq_obs::time("join.span_index", || {
        IntervalIndex::build(
            jobs.iter().map(|j| (j.started_at, j.ended_at)),
            JOB_SPAN_BUCKET,
        )
    })
}

/// Joins `events` to `jobs`: an event is attributed to every job whose
/// execution window contains the event time and whose block contains the
/// event location.
///
/// `min_severity` filters events before the join (the paper's impact
/// analysis uses FATAL; pass [`Severity::Info`] to keep everything).
#[must_use]
pub fn attribute_events(
    jobs: &[JobRecord],
    events: &[RasRecord],
    min_severity: Severity,
) -> JoinResult {
    attribute_events_with(jobs, events, min_severity, &job_span_index(jobs))
}

/// [`attribute_events`] against a prebuilt job-span index.
///
/// The stab loop runs over contiguous event chunks on scoped threads;
/// chunk results are concatenated in input order, so the pair list is
/// identical to the sequential scan.
#[must_use]
pub fn attribute_events_with(
    jobs: &[JobRecord],
    events: &[RasRecord],
    min_severity: Severity,
    index: &IntervalIndex,
) -> JoinResult {
    debug_assert_eq!(index.len(), jobs.len(), "index must cover the job log");
    let _span = bgq_obs::span!("join.attribute");
    // The fold carries a per-chunk candidate count (stab callback
    // invocations, i.e. time-overlapping jobs before the block check)
    // and a per-event candidate histogram, so the telemetry costs a few
    // adds per chunk rather than one lock per record. Histogram merges
    // are bucket-wise sums, so the published distribution is identical
    // under any worker schedule.
    let (pairs, candidates, per_event) = bgq_par::par_chunk_fold(
        events,
        || (Vec::new(), 0u64, bgq_obs::Histogram::new()),
        |base, chunk| {
            let mut pairs = Vec::new();
            let mut candidates = 0u64;
            let mut per_event = bgq_obs::Histogram::new();
            for (off, ev) in chunk.iter().enumerate() {
                if ev.severity < min_severity {
                    continue;
                }
                let event_idx = base + off;
                let mut ev_candidates = 0u64;
                index.stab_each(ev.event_time, |job_idx| {
                    ev_candidates += 1;
                    if jobs[job_idx].block.contains(&ev.location) {
                        pairs.push(Attribution { event_idx, job_idx });
                    }
                });
                candidates += ev_candidates;
                if bgq_obs::enabled() {
                    per_event.record(ev_candidates);
                }
            }
            (pairs, candidates, per_event)
        },
        |(mut acc, n, mut hist), (part, m, part_hist)| {
            hist.merge(&part_hist);
            if acc.is_empty() {
                (part, n + m, hist)
            } else {
                acc.extend(part);
                (acc, n + m, hist)
            }
        },
    );
    bgq_obs::add("join.candidates", candidates);
    bgq_obs::add("join.emitted", pairs.len() as u64);
    bgq_obs::hist_merge("join.candidates_per_event", "", &per_event);
    JoinResult { pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::{Category, Component, MsgId, MsgText};
    use bgq_model::{Block, Location, Timestamp};

    fn job(id: u64, start: i64, end: i64, block: Block) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes: block.nodes(),
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(start - 10),
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

    #[test]
    fn requires_both_time_and_place() {
        let jobs = vec![
            job(1, 100, 200, Block::new(0, 2).unwrap()),  // R00
            job(2, 100, 200, Block::new(10, 2).unwrap()), // R05
        ];
        let events = vec![
            event(1, 150, "R00-M0-N03", Severity::Fatal), // hits job 1 only
            event(2, 250, "R00-M0", Severity::Fatal),     // right place, too late
            event(3, 150, "R20-M0", Severity::Fatal),     // right time, wrong place
        ];
        let join = attribute_events(&jobs, &events, Severity::Fatal);
        assert_eq!(
            join.pairs,
            vec![Attribution {
                event_idx: 0,
                job_idx: 0
            }]
        );
        assert_eq!(join.affected_jobs(), vec![0]);
    }

    #[test]
    fn severity_filter() {
        let jobs = vec![job(1, 0, 100, Block::new(0, 1).unwrap())];
        let events = vec![
            event(1, 50, "R00-M0", Severity::Info),
            event(2, 50, "R00-M0", Severity::Warn),
            event(3, 50, "R00-M0", Severity::Fatal),
        ];
        assert_eq!(attribute_events(&jobs, &events, Severity::Fatal).len(), 1);
        assert_eq!(attribute_events(&jobs, &events, Severity::Warn).len(), 2);
        assert_eq!(attribute_events(&jobs, &events, Severity::Info).len(), 3);
    }

    #[test]
    fn one_event_can_hit_many_jobs() {
        // A rack-level coolant event hits both jobs with midplanes in R00.
        let jobs = vec![
            job(1, 0, 100, Block::new(0, 1).unwrap()),
            job(2, 0, 100, Block::new(1, 1).unwrap()),
        ];
        let events = vec![event(1, 10, "R00", Severity::Fatal)];
        let join = attribute_events(&jobs, &events, Severity::Fatal);
        assert_eq!(join.len(), 2);
        assert_eq!(join.affected_jobs(), vec![0, 1]);
    }
}
