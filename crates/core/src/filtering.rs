//! Similarity-based event filtering and MTBF/MTTI (experiments E11, E12).
//!
//! A single hardware fault floods the RAS log with hundreds of FATAL
//! records (the storm problem). Counting raw records wildly underestimates
//! the MTBF, so the paper filters in stages; we implement the same
//! three-stage funnel:
//!
//! 1. **Temporal** — records closer than a gap threshold belong to the
//!    same cluster (the classic tupling filter).
//! 2. **Spatial** — a temporal cluster is split when it spans unrelated
//!    hardware (two racks failing in the same minute are two failures).
//! 3. **Message similarity** — consecutive clusters on the same hardware
//!    with similar message text within a longer window are the *same*
//!    recurring fault (flapping), and are merged.
//!
//! The filtered incidents give the system MTBF; joining them against the
//! job log (or counting system-killed jobs) gives the paper's headline
//! **mean time to interruption ≈ 3.5 days**.

use bgq_model::ras::{MsgText, Severity};
use bgq_model::{JobRecord, Location, RasRecord, Span, Timestamp};

use crate::exitcode::ExitClass;

/// Thresholds for the three filtering stages.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterConfig {
    /// Stage 1: maximum gap between records of one cluster.
    pub temporal_gap: Span,
    /// Stage 2: maximum topological proximity (see
    /// [`Location::proximity`]) for records to share a cluster
    /// (`2` = same rack).
    pub spatial_proximity: u8,
    /// Stage 3: how far apart two clusters may be and still be the same
    /// recurring fault.
    pub similarity_window: Span,
    /// Stage 3: minimum Jaccard similarity of representative messages
    /// (message-id family equality also suffices).
    pub similarity_threshold: f64,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            temporal_gap: Span::from_mins(20),
            spatial_proximity: 2,
            similarity_window: Span::from_hours(6),
            similarity_threshold: 0.5,
        }
    }
}

/// One filtered incident: a set of raw FATAL records deemed one failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FilteredIncident {
    /// Time of the first record.
    pub start: Timestamp,
    /// Time of the last record.
    pub end: Timestamp,
    /// Location of the first record (the root symptom).
    pub root: Location,
    /// Indices into the *RAS slice* passed to [`filter_events`].
    pub events: Vec<usize>,
    /// Representative message (first record's text, interned).
    pub message: MsgText,
    /// Message-id family of the first record.
    pub family: u16,
}

/// The filtering funnel: cluster counts after each stage.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterOutcome {
    /// Raw FATAL record count.
    pub raw_fatal: usize,
    /// Clusters after temporal tupling.
    pub after_temporal: usize,
    /// Clusters after the spatial split.
    pub after_spatial: usize,
    /// Incidents after the similarity merge.
    pub after_similarity: usize,
    /// The final incidents, in time order.
    pub incidents: Vec<FilteredIncident>,
    /// Observation span used for MTBF computations.
    pub span: Span,
}

impl FilterOutcome {
    /// MTBF in days for a given stage count (`None` when the count is 0).
    pub fn mtbf_days(&self, clusters: usize) -> Option<f64> {
        (clusters > 0).then(|| self.span.as_days() / clusters as f64)
    }
}

/// Tokenizes a message for Jaccard similarity: lowercase alphabetic words
/// only (numeric payloads differ between records of the same fault).
fn tokens(message: &str) -> Vec<String> {
    message
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty() && w.chars().any(|c| c.is_ascii_alphabetic()))
        .map(|w| w.to_ascii_lowercase())
        .collect()
}

/// Jaccard similarity of two token multisets (as sets).
fn jaccard(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let sa: std::collections::BTreeSet<&str> = a.iter().map(String::as_str).collect();
    let sb: std::collections::BTreeSet<&str> = b.iter().map(String::as_str).collect();
    let inter = sa.intersection(&sb).count();
    let union = sa.union(&sb).count();
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

struct Cluster {
    start: Timestamp,
    end: Timestamp,
    root: Location,
    events: Vec<usize>,
    message: MsgText,
    family: u16,
}

/// Runs the three-stage filter over the FATAL records of `ras` (which must
/// be sorted by `event_time`, as [`bgq_logs::store::Dataset::normalize`]
/// guarantees).
pub fn filter_events(ras: &[RasRecord], config: &FilterConfig) -> FilterOutcome {
    let _span = bgq_obs::span!("filter.funnel");
    debug_assert!(ras.windows(2).all(|w| w[0].event_time <= w[1].event_time));
    let fatal: Vec<usize> = ras
        .iter()
        .enumerate()
        .filter(|(_, r)| r.severity == Severity::Fatal)
        .map(|(i, _)| i)
        .collect();
    let raw_fatal = fatal.len();
    let span = if ras.len() >= 2 {
        ras[ras.len() - 1].event_time - ras[0].event_time
    } else {
        Span::ZERO
    };

    // Stage 1: temporal tupling.
    let temporal = bgq_obs::time("filter.funnel.temporal", || {
        let mut temporal: Vec<Vec<usize>> = Vec::new();
        for &idx in &fatal {
            let t = ras[idx].event_time;
            match temporal.last_mut() {
                Some(cluster)
                    if t - ras[*cluster.last().expect("nonempty")].event_time
                        <= config.temporal_gap =>
                {
                    cluster.push(idx);
                }
                _ => temporal.push(vec![idx]),
            }
        }
        temporal
    });
    let after_temporal = temporal.len();

    // Stage 2: split each temporal cluster into spatially coherent groups
    // (greedy assignment to the first group whose seed is close enough).
    let spatial = bgq_obs::time("filter.funnel.spatial", || {
        let mut spatial: Vec<Cluster> = Vec::new();
        for cluster in &temporal {
            let mut groups: Vec<Cluster> = Vec::new();
            for &idx in cluster {
                let rec = &ras[idx];
                match groups
                    .iter_mut()
                    .find(|g| g.root.proximity(&rec.location) <= config.spatial_proximity)
                {
                    Some(g) => {
                        g.events.push(idx);
                        g.end = rec.event_time;
                    }
                    None => groups.push(Cluster {
                        start: rec.event_time,
                        end: rec.event_time,
                        root: rec.location,
                        events: vec![idx],
                        message: rec.message,
                        family: rec.msg_id.family(),
                    }),
                }
            }
            spatial.extend(groups);
        }
        spatial.sort_by_key(|c| c.start);
        spatial
    });
    let after_spatial = spatial.len();

    // Stage 3: merge recurring faults — consecutive clusters on the same
    // hardware (same rack), close in time, with the same message family or
    // similar message text.
    let incidents = bgq_obs::time("filter.funnel.similarity", || {
        let mut merged: Vec<Cluster> = Vec::new();
        for cluster in spatial {
            let mergeable = merged.last().is_some_and(|prev| {
                cluster.start - prev.end <= config.similarity_window
                    && prev.root.proximity(&cluster.root) <= config.spatial_proximity
                    && (prev.family == cluster.family
                        // Interned-symbol equality means string equality,
                        // and identical strings have Jaccard 1.0, so the
                        // short-circuit is exact whenever a threshold of
                        // 1.0 would merge (it skips tokenizing the storm
                        // case of byte-identical messages).
                        || (prev.message == cluster.message
                            && config.similarity_threshold <= 1.0)
                        || jaccard(
                            &tokens(prev.message.as_str()),
                            &tokens(cluster.message.as_str()),
                        ) >= config.similarity_threshold)
            });
            if mergeable {
                let prev = merged.last_mut().expect("just checked");
                prev.end = cluster.end;
                prev.events.extend(cluster.events);
            } else {
                merged.push(cluster);
            }
        }
        merged
            .into_iter()
            .map(|c| FilteredIncident {
                start: c.start,
                end: c.end,
                root: c.root,
                events: c.events,
                message: c.message,
                family: c.family,
            })
            .collect::<Vec<FilteredIncident>>()
    });

    // Incident size distribution: how many raw FATAL events each final
    // incident absorbed (the paper's storm-compression measure). Local
    // accumulation + one merge keeps the collector lock off the loop.
    if bgq_obs::enabled() {
        let mut sizes = bgq_obs::Histogram::new();
        for incident in &incidents {
            sizes.record(incident.events.len() as u64);
        }
        bgq_obs::hist_merge("filter.cluster_size", "", &sizes);
    }

    // One add per stage (not per record), so the funnel counters are
    // exact copies of the outcome fields under any thread schedule.
    bgq_obs::add_labeled("filter.funnel", "raw_fatal", raw_fatal as u64);
    bgq_obs::add_labeled("filter.funnel", "after_temporal", after_temporal as u64);
    bgq_obs::add_labeled("filter.funnel", "after_spatial", after_spatial as u64);
    bgq_obs::add_labeled("filter.funnel", "after_similarity", incidents.len() as u64);

    FilterOutcome {
        raw_fatal,
        after_temporal,
        after_spatial,
        after_similarity: incidents.len(),
        incidents,
        span,
    }
}

/// Interruption statistics from the job perspective (experiment E12).
#[derive(Debug, Clone, PartialEq)]
pub struct InterruptionStats {
    /// Jobs killed by the system (exit class [`ExitClass::SystemKill`]).
    pub interrupted_jobs: usize,
    /// Observation span in days (first start to last end).
    pub span_days: f64,
    /// Mean time to interruption in days (`span / interruptions`).
    pub mtti_days: Option<f64>,
    /// Mean gap between consecutive interruptions, in days (requires ≥ 2).
    pub mean_gap_days: Option<f64>,
}

impl InterruptionStats {
    /// The statistics from the system-kill end times, ascending, and the
    /// job log's first start and last end (`None` for an empty log).
    #[must_use]
    pub fn from_kills(
        kills: &[Timestamp],
        first_start: Option<Timestamp>,
        last_end: Option<Timestamp>,
    ) -> InterruptionStats {
        let span_days = match (first_start, last_end) {
            (Some(a), Some(b)) => (b - a).as_days(),
            _ => 0.0,
        };
        let mtti_days =
            (!kills.is_empty() && span_days > 0.0).then(|| span_days / kills.len() as f64);
        let mean_gap_days = (kills.len() >= 2).then(|| {
            let total: f64 = kills.windows(2).map(|w| (w[1] - w[0]).as_days()).sum();
            total / (kills.len() - 1) as f64
        });
        InterruptionStats {
            interrupted_jobs: kills.len(),
            span_days,
            mtti_days,
            mean_gap_days,
        }
    }
}

/// Computes MTTI from the job log alone. The kill times come out of the
/// index's end-time ordering already classified and sorted.
#[must_use]
pub fn interruption_stats_indexed(idx: &crate::index::DatasetIndex<'_>) -> InterruptionStats {
    let jobs = idx.jobs;
    InterruptionStats::from_kills(
        &idx.end_times_where(|c| c == ExitClass::SystemKill),
        jobs.iter().map(|j| j.started_at).min(),
        jobs.iter().map(|j| j.ended_at).max(),
    )
}

/// Of the filtered incidents, how many struck hardware that was running a
/// job at the time (an *effective* incident)?
///
/// **Every member event** of an incident is checked against the job
/// spans: a long incident whose first record predates the victim job (or
/// whose root symptom is on a neighboring board) still counts when any
/// of its records lands on a running job's hardware. Incidents carrying
/// no member-event indices fall back to the representative
/// `(start, root)` check.
#[must_use]
pub fn effective_incidents(
    jobs: &[JobRecord],
    ras: &[RasRecord],
    incidents: &[FilteredIncident],
) -> usize {
    let index = bgq_logs::join::job_span_index(jobs);
    // End-INCLUSIVE window check: a system kill ends its victim at
    // exactly the strike time, so the join's usual end-exclusive stab
    // would be blind to precisely the jobs the incident interrupted. A
    // job ending exactly at `t` was running at `t - 1`, so a second stab
    // one second earlier recovers the victims.
    let strikes = |t: Timestamp, loc: &Location| {
        let mut hit = false;
        index.stab_each(t, |j| hit = hit || jobs[j].block.contains(loc));
        if !hit {
            index.stab_each(t - Span::from_secs(1), |j| {
                hit = hit || (jobs[j].ended_at == t && jobs[j].block.contains(loc));
            });
        }
        hit
    };
    bgq_par::par_chunk_fold(
        incidents,
        || 0usize,
        |_base, chunk| {
            chunk
                .iter()
                .filter(|inc| {
                    if inc.events.is_empty() {
                        strikes(inc.start, &inc.root)
                    } else {
                        inc.events
                            .iter()
                            .any(|&e| strikes(ras[e].event_time, &ras[e].location))
                    }
                })
                .count()
        },
        |a, b| a + b,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::RecId;
    use bgq_model::ras::{Category, Component, MsgId};

    fn event(t: i64, loc: &str, msg_id: u32, message: &str, sev: Severity) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(t as u64),
            msg_id: MsgId::new(msg_id),
            severity: sev,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: loc.parse::<Location>().unwrap(),
            message: message.into(),
            count: 1,
        }
    }

    fn fatal(t: i64, loc: &str, msg_id: u32, message: &str) -> RasRecord {
        event(t, loc, msg_id, message, Severity::Fatal)
    }

    #[test]
    fn storm_collapses_to_one_incident() {
        let mut ras = Vec::new();
        for i in 0..50 {
            ras.push(fatal(
                1_000 + i * 10,
                "R05-M0-N03",
                0x0008_0001,
                "DDR uncorrectable error on rank 3",
            ));
        }
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.raw_fatal, 50);
        assert_eq!(out.after_temporal, 1);
        assert_eq!(out.after_spatial, 1);
        assert_eq!(out.after_similarity, 1);
        assert_eq!(out.incidents[0].events.len(), 50);
    }

    #[test]
    fn distant_times_are_distinct_incidents() {
        let ras = vec![
            fatal(0, "R05-M0-N03", 1, "a b c"),
            fatal(100_000, "R05-M0-N03", 1, "a b c"),
        ];
        let cfg = FilterConfig {
            similarity_window: Span::from_hours(6),
            ..FilterConfig::default()
        };
        let out = filter_events(&ras, &cfg);
        assert_eq!(out.after_temporal, 2);
        // 100000 s ≈ 27.8 h > 6 h window: not merged by similarity either.
        assert_eq!(out.after_similarity, 2);
    }

    #[test]
    fn spatial_split_of_simultaneous_faults() {
        // Two racks fail within the same minute: one temporal cluster,
        // two spatial clusters.
        let ras = vec![
            fatal(100, "R05-M0-N03", 0x0008_0001, "ddr fail"),
            fatal(110, "R05-M0-N04", 0x0008_0001, "ddr fail"),
            fatal(120, "R20-M1-N00", 0x0010_0001, "link down"),
        ];
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.after_temporal, 1);
        assert_eq!(out.after_spatial, 2);
        assert_eq!(out.after_similarity, 2);
    }

    #[test]
    fn flapping_fault_merges_by_similarity() {
        // Same board, same family, 2 h apart (beyond the temporal gap but
        // inside the similarity window).
        let ras = vec![
            fatal(
                0,
                "R05-M0-N03",
                0x0008_0001,
                "DDR uncorrectable error on rank 1",
            ),
            fatal(
                7_200,
                "R05-M0-N03",
                0x0008_0002,
                "DDR uncorrectable error on rank 5",
            ),
        ];
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.after_temporal, 2);
        assert_eq!(out.after_spatial, 2);
        assert_eq!(out.after_similarity, 1, "flapping fault should merge");
    }

    #[test]
    fn different_hardware_never_merges() {
        let ras = vec![
            fatal(0, "R05-M0-N03", 0x0008_0001, "ddr error"),
            fatal(7_200, "R25-M0-N03", 0x0008_0001, "ddr error"),
        ];
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.after_similarity, 2);
    }

    #[test]
    fn info_and_warn_are_ignored() {
        let ras = vec![
            event(0, "R00", 1, "x", Severity::Info),
            event(10, "R00", 1, "x", Severity::Warn),
        ];
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.raw_fatal, 0);
        assert_eq!(out.after_similarity, 0);
        assert!(out.mtbf_days(0).is_none());
    }

    #[test]
    fn jaccard_and_tokens() {
        let a = tokens("DDR uncorrectable error on rank 3");
        let b = tokens("DDR uncorrectable error on rank 17");
        assert!(jaccard(&a, &b) > 0.99, "numeric payloads must not matter");
        let c = tokens("coolant flow below threshold");
        assert!(jaccard(&a, &c) < 0.2);
        assert_eq!(jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn mtbf_uses_span() {
        let ras = vec![
            fatal(0, "R00-M0-N00", 1, "a"),
            fatal(86_400 * 10, "R20-M0-N00", 2, "b"),
        ];
        let out = filter_events(&ras, &FilterConfig::default());
        assert_eq!(out.after_similarity, 2);
        assert!((out.mtbf_days(2).unwrap() - 5.0).abs() < 1e-9);
    }

    mod interruption {
        use super::*;
        use crate::index::DatasetIndex;
        use bgq_logs::store::Dataset;
        use bgq_model::ids::{JobId, ProjectId, UserId};
        use bgq_model::job::{Mode, Queue};
        use bgq_model::Block;

        fn job(exit: i32, start: i64, end: i64) -> JobRecord {
            JobRecord {
                job_id: JobId::new(start as u64),
                user: UserId::new(1),
                project: ProjectId::new(1),
                queue: Queue::Production,
                nodes: 512,
                mode: Mode::default(),
                requested_walltime_s: 3600,
                queued_at: Timestamp::from_secs(start),
                started_at: Timestamp::from_secs(start),
                ended_at: Timestamp::from_secs(end),
                block: Block::new(0, 1).unwrap(),
                exit_code: exit,
                num_tasks: 1,
                resubmit_of: None,
            }
        }

        #[test]
        fn mtti_from_system_kills() {
            let day = 86_400;
            let jobs = vec![
                job(0, 0, 10 * day),        // span anchor
                job(75, day, 2 * day),      // interruption 1
                job(75, 4 * day, 5 * day),  // interruption 2
                job(139, 6 * day, 7 * day), // user failure: not an interruption
            ];
            let ds = Dataset {
                jobs,
                ..Dataset::new()
            };
            let s = interruption_stats_indexed(&DatasetIndex::build(&ds));
            assert_eq!(s.interrupted_jobs, 2);
            assert!((s.span_days - 10.0).abs() < 1e-9);
            assert!((s.mtti_days.unwrap() - 5.0).abs() < 1e-9);
            assert!((s.mean_gap_days.unwrap() - 3.0).abs() < 1e-9);
        }

        #[test]
        fn no_kills_means_no_mtti() {
            let jobs = vec![job(0, 0, 100)];
            let ds = Dataset {
                jobs,
                ..Dataset::new()
            };
            let s = interruption_stats_indexed(&DatasetIndex::build(&ds));
            assert_eq!(s.interrupted_jobs, 0);
            assert!(s.mtti_days.is_none());
            assert!(s.mean_gap_days.is_none());
        }

        #[test]
        fn effective_incident_requires_running_job_on_hardware() {
            let jobs = vec![job(75, 0, 1_000)]; // block = midplane 0 (R00)
            let hit = FilteredIncident {
                start: Timestamp::from_secs(500),
                end: Timestamp::from_secs(600),
                root: "R00-M0-N01".parse::<Location>().unwrap(),
                events: vec![],
                message: MsgText::default(),
                family: 8,
            };
            let miss_time = FilteredIncident {
                start: Timestamp::from_secs(5_000),
                ..hit.clone()
            };
            let miss_place = FilteredIncident {
                root: "R20".parse::<Location>().unwrap(),
                ..hit.clone()
            };
            assert_eq!(effective_incidents(&jobs, &[], &[hit]), 1);
            assert_eq!(effective_incidents(&jobs, &[], &[miss_time, miss_place]), 0);
        }

        #[test]
        fn effective_incident_checks_every_member_event() {
            // The incident's *first* record hits empty hardware, but a
            // later member record lands on the running job: the per-event
            // check must count it, the old representative check did not.
            let jobs = vec![job(75, 0, 1_000)]; // block = midplane 0 (R00)
            let ras = vec![
                super::fatal(500, "R20-M0-N00", 1, "link down"),
                super::fatal(600, "R00-M0-N01", 1, "link down"),
            ];
            let inc = FilteredIncident {
                start: Timestamp::from_secs(500),
                end: Timestamp::from_secs(600),
                root: "R20-M0-N00".parse::<Location>().unwrap(),
                events: vec![0, 1],
                message: MsgText::default(),
                family: 1,
            };
            assert_eq!(
                effective_incidents(&jobs, &ras, std::slice::from_ref(&inc)),
                1
            );
            // With only the off-job record, it stays non-effective.
            let miss = FilteredIncident {
                events: vec![0],
                ..inc
            };
            assert_eq!(effective_incidents(&jobs, &ras, &[miss]), 0);
        }
    }
}
