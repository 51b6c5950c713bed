//! A Cobalt-like block scheduler.
//!
//! Allocation is midplane-granular and contiguous in the global midplane
//! order (a faithful simplification of BG/Q torus partitions). The policy
//! is FCFS with conservative backfill: any queued job may start if a
//! contiguous region is free, but once the queue head has starved longer
//! than the drain threshold, nothing may jump it until it starts — the
//! standard anti-starvation compromise, and the reason big capability jobs
//! see long queue waits (a correlation the paper measures).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use bgq_model::{Block, Span, Timestamp};

use crate::catalog::exit_code;
use crate::config::SimConfig;
use crate::incidents::Incident;
use crate::workload::{JobSpec, PlannedOutcome};

/// A job after scheduling and execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledJob {
    /// Index of the spec in the submitted slice (stable job-id source).
    pub spec_idx: usize,
    /// The submitted spec.
    pub spec: JobSpec,
    /// Dispatch time.
    pub started_at: Timestamp,
    /// Completion time.
    pub ended_at: Timestamp,
    /// Allocated block.
    pub block: Block,
    /// Final exit code (planned outcome, unless a system kill intervened).
    pub exit_code: i32,
    /// Index (into the incident list) of the incident that killed the job,
    /// if any.
    pub killed_by: Option<usize>,
}

/// Runs the scheduler over `specs` (sorted by submit time) against the
/// exogenous `incidents` (sorted by time).
///
/// Jobs that have not *finished* by the end of the horizon are dropped,
/// mirroring how a log extraction window only contains completed jobs.
///
/// # Panics
///
/// Panics (debug assertions) if `specs` or `incidents` are unsorted.
pub fn run_schedule(
    config: &SimConfig,
    specs: &[JobSpec],
    incidents: &[Incident],
) -> Vec<ScheduledJob> {
    debug_assert!(specs.windows(2).all(|w| w[0].queued_at <= w[1].queued_at));
    debug_assert!(incidents.windows(2).all(|w| w[0].time <= w[1].time));

    let total_midplanes = config.machine.total_midplanes();
    let horizon = config.horizon_end();
    let mut free = vec![true; total_midplanes];
    let mut pending: VecDeque<usize> = VecDeque::new();
    // Finish events: (time, spec_idx, block) — min-heap by time.
    let mut finishes: BinaryHeap<Reverse<(Timestamp, usize, Block)>> = BinaryHeap::new();
    let mut out: Vec<ScheduledJob> = Vec::with_capacity(specs.len());
    let mut next_arrival = 0usize;

    loop {
        // Next event time: earliest of next arrival and next finish.
        let arrival_t = specs.get(next_arrival).map(|s| s.queued_at);
        let finish_t = finishes.peek().map(|Reverse((t, _, _))| *t);
        let now = match (arrival_t, finish_t) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(f)) => f,
            (Some(a), Some(f)) => a.min(f),
        };

        // Release every block that finishes now.
        while let Some(Reverse((t, _, block))) = finishes.peek() {
            if *t > now {
                break;
            }
            let block = *block;
            finishes.pop();
            for i in block.start()..block.end() {
                debug_assert!(!free[i as usize], "double free of midplane {i}");
                free[i as usize] = true;
            }
        }

        // Enqueue every job submitted now.
        while next_arrival < specs.len() && specs[next_arrival].queued_at <= now {
            pending.push_back(next_arrival);
            next_arrival += 1;
        }

        // Start whatever fits.
        try_start(
            config,
            specs,
            incidents,
            now,
            &mut free,
            &mut pending,
            &mut finishes,
            &mut out,
        );
    }

    // Only completed jobs inside the horizon make it into the log.
    out.retain(|j| j.ended_at <= horizon);
    out.sort_by_key(|j| (j.started_at, j.spec.queued_at));
    out
}

#[allow(clippy::too_many_arguments)]
fn try_start(
    config: &SimConfig,
    specs: &[JobSpec],
    incidents: &[Incident],
    now: Timestamp,
    free: &mut [bool],
    pending: &mut VecDeque<usize>,
    finishes: &mut BinaryHeap<Reverse<(Timestamp, usize, Block)>>,
    out: &mut Vec<ScheduledJob>,
) {
    let start_job = |spec_idx: usize,
                     start: usize,
                     want: usize,
                     free: &mut [bool],
                     finishes: &mut BinaryHeap<Reverse<(Timestamp, usize, Block)>>,
                     out: &mut Vec<ScheduledJob>| {
        for slot in free.iter_mut().skip(start).take(want) {
            *slot = false;
        }
        let block =
            Block::new(start as u16, want as u16).expect("first-fit region is within the machine");
        let job = execute(config, spec_idx, &specs[spec_idx], incidents, now, block);
        finishes.push(Reverse((job.ended_at, spec_idx, block)));
        out.push(job);
    };

    // Phase 1: strict FCFS while the head fits.
    while let Some(&head) = pending.front() {
        let want = usize::from(specs[head].midplanes).min(free.len());
        match find_first_fit(free, want) {
            Some(start) => {
                start_job(head, start, want, free, finishes, out);
                pending.pop_front();
            }
            None => break,
        }
    }

    // Phase 2: EASY backfill. The blocked head gets a reservation at its
    // shadow time (the moment running jobs will have freed a large-enough
    // contiguous region); anything behind it may start now only if it fits
    // *and* its wall-time bound ends before the shadow, so the reservation
    // can never be delayed.
    let Some(&head) = pending.front() else { return };
    let head_want = usize::from(specs[head].midplanes).min(free.len());
    let shadow = compute_shadow(free, finishes, head_want);
    let mut i = 1;
    while i < pending.len() {
        let spec_idx = pending[i];
        let spec = &specs[spec_idx];
        let want = usize::from(spec.midplanes).min(free.len());
        let bound = now + Span::from_secs(i64::from(spec.walltime_s));
        if bound <= shadow {
            if let Some(start) = find_first_fit(free, want) {
                start_job(spec_idx, start, want, free, finishes, out);
                pending.remove(i);
                continue;
            }
        }
        i += 1;
    }
}

/// When will a contiguous region of `want` midplanes exist, given the
/// currently running jobs? Replays the finish events chronologically over
/// a scratch copy of the free map.
fn compute_shadow(
    free: &[bool],
    finishes: &BinaryHeap<Reverse<(Timestamp, usize, Block)>>,
    want: usize,
) -> Timestamp {
    let mut scratch = free.to_vec();
    let mut events: Vec<(Timestamp, Block)> =
        finishes.iter().map(|Reverse((t, _, b))| (*t, *b)).collect();
    events.sort_by_key(|&(t, _)| t);
    for (t, block) in events {
        for m in block.start()..block.end() {
            scratch[m as usize] = true;
        }
        if find_first_fit(&scratch, want).is_some() {
            return t;
        }
    }
    // No running jobs can ever satisfy it (want > machine): effectively
    // never; callers treat this as "no backfill window".
    Timestamp::from_secs(i64::MAX / 4)
}

fn find_first_fit(free: &[bool], want: usize) -> Option<usize> {
    if want == 0 || want > free.len() {
        return None;
    }
    let mut run = 0usize;
    for (i, &f) in free.iter().enumerate() {
        if f {
            run += 1;
            if run == want {
                return Some(i + 1 - want);
            }
        } else {
            run = 0;
        }
    }
    None
}

/// Computes the actual execution of `spec` started at `now` on `block`:
/// the planned outcome unless a fatal incident strikes the block first.
fn execute(
    config: &SimConfig,
    spec_idx: usize,
    spec: &JobSpec,
    incidents: &[Incident],
    now: Timestamp,
    block: Block,
) -> ScheduledJob {
    let _ = config;
    let planned_end = now + Span::from_secs(i64::from(spec.planned_runtime_s()));
    // First incident strictly after start and before planned end whose
    // root lies in the block.
    let first = incidents.partition_point(|inc| inc.time <= now);
    let mut killed_by = None;
    let mut ended_at = planned_end;
    for (offset, inc) in incidents[first..].iter().enumerate() {
        if inc.time >= planned_end {
            break;
        }
        if block.contains(&inc.root) {
            killed_by = Some(first + offset);
            ended_at = inc.time;
            break;
        }
    }
    let exit_code = match (killed_by, spec.outcome) {
        (Some(_), _) => exit_code::SYSTEM_KILL,
        (None, PlannedOutcome::Success { .. }) => exit_code::SUCCESS,
        (None, PlannedOutcome::UserFailure { code, .. }) => code,
    };
    ScheduledJob {
        spec_idx,
        spec: spec.clone(),
        started_at: now,
        ended_at,
        block,
        exit_code,
        killed_by,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incidents::IncidentScope;
    use crate::users::Population;
    use crate::workload::generate_arrivals;
    use bgq_model::ras::Category;
    use bgq_model::Location;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec(queued: i64, midplanes: u16, runtime: u32) -> JobSpec {
        JobSpec {
            queued_at: Timestamp::from_secs(queued),
            user_idx: 0,
            midplanes,
            mode: Default::default(),
            walltime_s: runtime.max(1800),
            num_tasks: 1,
            queue: Default::default(),
            outcome: PlannedOutcome::Success { runtime_s: runtime },
            arrival_seq: queued as u64,
            attempt: 0,
            resubmit_of: None,
        }
    }

    fn tiny_config(days: u32) -> SimConfig {
        SimConfig::small(days).with_seed(1)
    }

    #[test]
    fn single_job_runs_immediately() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(10)
        };
        let jobs = run_schedule(&cfg, &[spec(100, 2, 500)], &[]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].started_at.as_secs(), 100);
        assert_eq!(jobs[0].ended_at.as_secs(), 600);
        assert_eq!(jobs[0].block.len(), 2);
        assert_eq!(jobs[0].exit_code, 0);
    }

    #[test]
    fn full_machine_job_waits_for_drain() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(10)
        };
        // One long small job occupies a midplane; the full-machine job must
        // wait for it.
        let specs = vec![spec(0, 1, 10_000), spec(10, 96, 100)];
        let jobs = run_schedule(&cfg, &specs, &[]);
        assert_eq!(jobs.len(), 2);
        let big = jobs.iter().find(|j| j.spec.midplanes == 96).unwrap();
        assert_eq!(big.started_at.as_secs(), 10_000);
    }

    #[test]
    fn backfill_lets_small_jobs_pass_blocked_big_ones() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(10)
        };
        let specs = vec![
            spec(0, 90, 5_000), // occupies most of the machine
            spec(10, 96, 100),  // blocked (needs everything)
            spec(20, 2, 100),   // can backfill into the 6 free midplanes
        ];
        let jobs = run_schedule(&cfg, &specs, &[]);
        let small = jobs.iter().find(|j| j.spec.midplanes == 2).unwrap();
        assert_eq!(small.started_at.as_secs(), 20, "small job should backfill");
    }

    #[test]
    fn drain_prevents_starvation_of_the_head() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(30)
        };
        // A stream of small jobs that would otherwise starve the
        // full-machine job forever.
        let mut specs = vec![spec(0, 48, 30_000), spec(1, 96, 100)];
        for k in 0..200 {
            specs.push(spec(2 + k * 400, 8, 30_000));
        }
        specs.sort_by_key(|s| s.queued_at);
        let jobs = run_schedule(&cfg, &specs, &[]);
        let big = jobs.iter().find(|j| j.spec.midplanes == 96);
        assert!(big.is_some(), "capability job never ran");
    }

    #[test]
    fn no_midplane_is_double_allocated() {
        let cfg = SimConfig {
            origin: Timestamp::MIRA_EPOCH,
            ..tiny_config(20)
        };
        let mut rng = StdRng::seed_from_u64(2);
        let pop = Population::generate(&cfg, &mut rng);
        let specs = generate_arrivals(&cfg, &pop, &mut rng);
        let jobs = run_schedule(&cfg, &specs, &[]);
        assert!(!jobs.is_empty());
        // Sweep: at every start event, check against all overlapping jobs.
        for (i, a) in jobs.iter().enumerate() {
            for b in &jobs[i + 1..] {
                if b.started_at >= a.ended_at {
                    break; // jobs sorted by start; b cannot overlap a
                }
                let time_overlap = a.started_at < b.ended_at && b.started_at < a.ended_at;
                if time_overlap {
                    assert!(
                        !a.block.overlaps(&b.block),
                        "jobs {i} overlap in space and time: {:?} vs {:?}",
                        a.block,
                        b.block
                    );
                }
            }
        }
    }

    #[test]
    fn incident_kills_only_jobs_on_its_hardware() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(10)
        };
        let incidents = vec![Incident {
            time: Timestamp::from_secs(500),
            root: Location::node_board(0, 0, 3), // inside midplane 0
            category: Category::Ddr,
            on_lemon: false,
            scope: IncidentScope::Board,
            group: 0,
        }];
        let specs = vec![
            spec(0, 1, 2_000), // lands on midplane 0 → killed at t=500
            spec(1, 1, 2_000), // lands on midplane 1 → survives
        ];
        let jobs = run_schedule(&cfg, &specs, &incidents);
        let killed = &jobs[0];
        assert_eq!(killed.exit_code, exit_code::SYSTEM_KILL);
        assert_eq!(killed.ended_at.as_secs(), 500);
        assert_eq!(killed.killed_by, Some(0));
        let survivor = &jobs[1];
        assert_eq!(survivor.exit_code, 0);
        assert_eq!(survivor.ended_at.as_secs(), 2_001);
    }

    #[test]
    fn incident_after_job_end_is_harmless() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(10)
        };
        let incidents = vec![Incident {
            time: Timestamp::from_secs(5_000),
            root: Location::rack(0),
            category: Category::CoolantMonitor,
            on_lemon: false,
            scope: IncidentScope::Rack,
            group: 0,
        }];
        let jobs = run_schedule(&cfg, &[spec(0, 1, 1_000)], &incidents);
        assert_eq!(jobs[0].exit_code, 0);
        assert_eq!(jobs[0].killed_by, None);
    }

    #[test]
    fn jobs_past_horizon_are_dropped() {
        let cfg = SimConfig {
            origin: Timestamp::from_secs(0),
            ..tiny_config(1) // one-day horizon
        };
        let specs = vec![spec(0, 1, 500), spec(0, 1, 200_000)];
        let jobs = run_schedule(&cfg, &specs, &[]);
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].ended_at.as_secs(), 500);
    }

    #[test]
    fn first_fit_finds_smallest_offset() {
        let mut free = vec![true; 8];
        free[2] = false;
        assert_eq!(find_first_fit(&free, 2), Some(0));
        assert_eq!(find_first_fit(&free, 3), Some(3));
        assert_eq!(find_first_fit(&free, 6), None);
        assert_eq!(find_first_fit(&free, 0), None);
        assert_eq!(find_first_fit(&free, 9), None);
    }
}
