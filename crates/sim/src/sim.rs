//! Top-level generation: config in, four logs + ground truth out.

use std::path::Path;

use bgq_logs::snapshot::{self, SnapshotError, SnapshotWriteStats};
use bgq_logs::store::{Dataset, SourceAvailability};
use bgq_model::ids::{JobId, RecId, TaskId};
use bgq_model::{JobRecord, Span, TaskRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::catalog::failure_modes;
use crate::config::SimConfig;
use crate::incidents::{generate_incidents, pick_lemon_boards};
use crate::iogen::io_record;
use crate::rasgen::{background_records, job_records, storm_records};
use crate::scheduler::{run_schedule, ScheduledJob};
use crate::truth::GroundTruth;
use crate::users::Population;
use crate::workload::generate_arrivals;

/// A generated trace: the dataset the analysis sees, plus the ground truth
/// it should recover.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The four log tables, normalized (sorted) and internally consistent.
    pub dataset: Dataset,
    /// What the generator actually did.
    pub truth: GroundTruth,
}

/// Generates a complete synthetic Mira trace.
///
/// The trace is a pure function of the config (including the seed): equal
/// configs produce byte-identical datasets.
///
/// # Panics
///
/// Panics if the config fails [`SimConfig::validate`].
///
/// # Examples
///
/// ```
/// use bgq_sim::{generate, SimConfig};
///
/// let out = generate(&SimConfig::small(3).with_seed(1));
/// assert!(!out.dataset.jobs.is_empty());
/// assert_eq!(out.dataset.jobs.len(), out.dataset.jobs.iter().map(|j| j.job_id).collect::<std::collections::HashSet<_>>().len());
/// ```
pub fn generate(config: &SimConfig) -> SimOutput {
    if let Err(msg) = config.validate() {
        panic!("invalid SimConfig: {msg}");
    }
    let _span = bgq_obs::span!("sim.generate");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let population = bgq_obs::time("sim.population", || Population::generate(config, &mut rng));
    let (lemon_boards, incidents) = bgq_obs::time("sim.incidents", || {
        let lemon_boards = pick_lemon_boards(config, &mut rng);
        let incidents = generate_incidents(config, &lemon_boards, &mut rng);
        (lemon_boards, incidents)
    });
    let specs = bgq_obs::time("sim.arrivals", || {
        generate_arrivals(config, &population, &mut rng)
    });
    let scheduled = bgq_obs::time("sim.schedule", || run_schedule(config, &specs, &incidents));

    let mut dataset = Dataset::new();
    let mut truth_kills = Vec::new();
    let mut next_task_id: u64 = 1;

    // Lineage resolution: `resubmit_of` on a spec names the parent's
    // arrival_seq; the record needs the parent's JobId. A parent the
    // scheduler dropped (never finished inside the horizon) makes the
    // child a chain root. Ids follow sorted spec order, so a resolved
    // parent id is always smaller than the child's.
    let seq_to_id: std::collections::HashMap<u64, JobId> = scheduled
        .iter()
        .map(|job| (job.spec.arrival_seq, JobId::new(job.spec_idx as u64 + 1)))
        .collect();

    bgq_obs::time("sim.emit_jobs", || {
        for job in &scheduled {
            let job_id = JobId::new(job.spec_idx as u64 + 1);
            dataset
                .jobs
                .push(to_job_record(job_id, job, &population, &seq_to_id));
            emit_tasks(job_id, job, &mut next_task_id, &mut rng, &mut dataset.tasks);
            if let Some(rec) = io_record(config, job_id, job, &mut rng) {
                dataset.io.push(rec);
            }
            job_records(config, job, &mut rng, &mut dataset.ras);
            if let Some(incident_idx) = job.killed_by {
                truth_kills.push((job_id, incident_idx));
            }
        }
    });

    bgq_obs::time("sim.emit_ras", || {
        for incident in &incidents {
            storm_records(config, incident, &mut rng, &mut dataset.ras);
        }
        background_records(config, &mut rng, &mut dataset.ras);
    });

    bgq_obs::time("sim.normalize", || dataset.normalize());
    bgq_obs::add("sim.records.jobs", dataset.jobs.len() as u64);
    bgq_obs::add("sim.records.ras", dataset.ras.len() as u64);
    bgq_obs::add("sim.records.tasks", dataset.tasks.len() as u64);
    bgq_obs::add("sim.records.io", dataset.io.len() as u64);
    // Daily RAS volume distribution (storm days vs. quiet days). The
    // normalized log is time-sorted, so one pass over day boundaries
    // suffices; the histogram is seeded-deterministic like the counters.
    if bgq_obs::enabled() {
        let mut per_day = bgq_obs::Histogram::new();
        let mut current_day = None;
        let mut run = 0u64;
        for rec in &dataset.ras {
            let day = rec.event_time.day_number();
            if current_day == Some(day) {
                run += 1;
            } else {
                if run > 0 {
                    per_day.record(run);
                }
                current_day = Some(day);
                run = 1;
            }
        }
        if run > 0 {
            per_day.record(run);
        }
        bgq_obs::hist_merge("sim.records_per_day", "ras", &per_day);
    }
    // Record ids follow the (sorted) event order, as in a real archive.
    for (i, rec) in dataset.ras.iter_mut().enumerate() {
        rec.rec_id = RecId::new(i as u64 + 1);
    }

    let truth = GroundTruth {
        incidents,
        lemon_boards,
        mode_dists: failure_modes()
            .into_iter()
            .map(|m| (m.exit_code, m.length_dist))
            .collect(),
        system_kills: truth_kills,
        user_bug_rates: population.users().iter().map(|u| u.bug_rate).collect(),
    };

    SimOutput { dataset, truth }
}

/// Generates a trace and writes it **directly** as a partitioned columnar
/// snapshot — no CSV encode/parse round-trip in between. The generator
/// normalizes its output, so the write slices the dataset into day
/// segments without re-sorting.
///
/// Returns the generated output (for ground-truth checks) together with
/// the write statistics.
///
/// # Errors
///
/// Returns the underlying [`SnapshotError`] when the directory cannot be
/// written.
///
/// # Panics
///
/// Panics if the config fails [`SimConfig::validate`].
pub fn generate_to_snapshot(
    config: &SimConfig,
    dir: &Path,
) -> Result<(SimOutput, SnapshotWriteStats), SnapshotError> {
    let output = generate(config);
    let stats = snapshot::write_dir(&output.dataset, dir, &SourceAvailability::ALL)?;
    Ok((output, stats))
}

fn to_job_record(
    job_id: JobId,
    job: &ScheduledJob,
    population: &Population,
    seq_to_id: &std::collections::HashMap<u64, JobId>,
) -> JobRecord {
    let user = &population.users()[job.spec.user_idx];
    JobRecord {
        job_id,
        user: user.user,
        project: user.project,
        queue: job.spec.queue,
        nodes: job.spec.nodes(),
        mode: job.spec.mode,
        requested_walltime_s: job.spec.walltime_s,
        queued_at: job.spec.queued_at,
        started_at: job.started_at,
        ended_at: job.ended_at,
        block: job.block,
        exit_code: job.exit_code,
        num_tasks: job.spec.num_tasks,
        resubmit_of: job
            .spec
            .resubmit_of
            .and_then(|seq| seq_to_id.get(&seq).copied()),
    }
}

/// Splits the job's execution into `num_tasks` sequential `runjob` tasks;
/// the final task carries the job's exit code.
fn emit_tasks<R: Rng + ?Sized>(
    job_id: JobId,
    job: &ScheduledJob,
    next_task_id: &mut u64,
    rng: &mut R,
    out: &mut Vec<TaskRecord>,
) {
    let runtime = (job.ended_at - job.started_at).as_secs().max(1);
    let n = u64::from(job.spec.num_tasks).clamp(1, runtime as u64) as u32;
    // Random interior split points give unequal task lengths.
    let mut cuts: Vec<i64> = (0..n.saturating_sub(1))
        .map(|_| rng.gen_range(1..runtime))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut boundaries = vec![0i64];
    boundaries.extend(cuts);
    boundaries.push(runtime);
    let ranks = u64::from(job.spec.nodes()) * u64::from(job.spec.mode.ranks_per_node());
    let segments = boundaries.len() - 1;
    for (seq, w) in boundaries.windows(2).enumerate() {
        let is_last = seq == segments - 1;
        out.push(TaskRecord {
            task_id: TaskId::new(*next_task_id),
            job_id,
            seq: seq as u32,
            block: job.block,
            started_at: job.started_at + Span::from_secs(w[0]),
            ended_at: job.started_at + Span::from_secs(w[1]),
            ranks,
            exit_code: if is_last { job.exit_code } else { 0 },
        });
        *next_task_id += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::exit_code;
    use std::collections::HashMap;

    fn small_output() -> SimOutput {
        generate(&SimConfig::small(20).with_seed(11))
    }

    #[test]
    fn generate_to_snapshot_round_trips() {
        let dir = std::env::temp_dir().join(format!("bgq-sim-snap-{}", std::process::id()));
        let (out, stats) = generate_to_snapshot(&SimConfig::small(4).with_seed(8), &dir).unwrap();
        assert!(stats.days > 0 && stats.segments == stats.days * 4);
        let (loaded, parts) = bgq_logs::snapshot::read_dir(&dir).unwrap();
        assert_eq!(loaded, out.dataset);
        assert_eq!(parts.days.len(), stats.days);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn determinism_per_seed() {
        let a = generate(&SimConfig::small(5).with_seed(3));
        let b = generate(&SimConfig::small(5).with_seed(3));
        assert_eq!(a.dataset, b.dataset);
        let c = generate(&SimConfig::small(5).with_seed(4));
        assert_ne!(a.dataset, c.dataset);
    }

    #[test]
    fn job_ids_are_unique_and_tables_sorted() {
        let out = small_output();
        let ds = &out.dataset;
        let mut ids: Vec<_> = ds.jobs.iter().map(|j| j.job_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), ds.jobs.len());
        assert!(ds
            .jobs
            .windows(2)
            .all(|w| w[0].started_at <= w[1].started_at));
        assert!(ds
            .ras
            .windows(2)
            .all(|w| w[0].event_time <= w[1].event_time));
        // Record ids are 1..=n in order.
        for (i, r) in ds.ras.iter().enumerate() {
            assert_eq!(r.rec_id.raw(), i as u64 + 1);
        }
    }

    #[test]
    fn tasks_partition_their_job() {
        let out = small_output();
        let mut by_job: HashMap<_, Vec<_>> = HashMap::new();
        for t in &out.dataset.tasks {
            by_job.entry(t.job_id).or_default().push(t.clone());
        }
        let jobs: HashMap<_, _> = out.dataset.jobs.iter().map(|j| (j.job_id, j)).collect();
        assert_eq!(by_job.len(), jobs.len());
        for (job_id, mut tasks) in by_job {
            let job = jobs[&job_id];
            tasks.sort_by_key(|t| t.seq);
            assert_eq!(tasks[0].started_at, job.started_at);
            assert_eq!(tasks.last().unwrap().ended_at, job.ended_at);
            for w in tasks.windows(2) {
                assert_eq!(w[0].ended_at, w[1].started_at, "tasks must be contiguous");
            }
            // Only the last task carries the job's exit code.
            assert_eq!(tasks.last().unwrap().exit_code, job.exit_code);
            for t in &tasks[..tasks.len() - 1] {
                assert_eq!(t.exit_code, 0);
            }
            // Duplicate split points may merge segments, so the count is
            // bounded by, not equal to, the declared task count.
            assert!(!tasks.is_empty() && tasks.len() as u32 <= job.num_tasks.max(1));
        }
    }

    #[test]
    fn io_coverage_fraction_holds() {
        let out = small_output();
        let ratio = out.dataset.io.len() as f64 / out.dataset.jobs.len() as f64;
        assert!((ratio - 0.8).abs() < 0.06, "io coverage {ratio}");
        // Every I/O record references an existing job.
        let ids: std::collections::HashSet<_> = out.dataset.jobs.iter().map(|j| j.job_id).collect();
        assert!(out.dataset.io.iter().all(|r| ids.contains(&r.job_id)));
    }

    #[test]
    fn system_kills_match_truth_and_exit_code() {
        let out = small_output();
        let killed: Vec<_> = out
            .dataset
            .jobs
            .iter()
            .filter(|j| j.exit_code == exit_code::SYSTEM_KILL)
            .map(|j| j.job_id)
            .collect();
        let mut truth_ids: Vec<_> = out.truth.system_kills.iter().map(|&(id, _)| id).collect();
        truth_ids.sort();
        let mut killed_sorted = killed.clone();
        killed_sorted.sort();
        assert_eq!(killed_sorted, truth_ids);
    }

    #[test]
    fn per_job_invariants() {
        let out = small_output();
        for j in &out.dataset.jobs {
            assert!(j.started_at >= j.queued_at, "start before submit");
            assert!(j.ended_at > j.started_at, "non-positive runtime");
            assert!(j.runtime().as_secs() <= i64::from(j.requested_walltime_s) + 1);
            assert_eq!(u32::from(j.block.len()) * 512, j.nodes);
        }
    }

    #[test]
    fn failure_mix_contains_all_modes() {
        let out = generate(&SimConfig::small(60).with_seed(2));
        let mut seen: HashMap<i32, usize> = HashMap::new();
        for j in &out.dataset.jobs {
            *seen.entry(j.exit_code).or_default() += 1;
        }
        for mode in failure_modes() {
            assert!(
                seen.get(&mode.exit_code).copied().unwrap_or(0) > 0,
                "no jobs with exit code {} ({})",
                mode.exit_code,
                mode.label
            );
        }
        assert!(seen[&exit_code::SUCCESS] > 0);
    }
}
