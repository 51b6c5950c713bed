//! Population-scale job emission, bypassing the scheduler.
//!
//! The event-driven scheduler in [`crate::scheduler`] is capacity-bound
//! (Mira fits ~170 jobs/day) and its backfill pass is quadratic in the
//! pending queue, so millions of jobs cannot go through it. The per-user
//! analyses — concentration, retry chains, heavy hitters — do not need
//! placement fidelity, only the accounting log. This module emits
//! [`JobRecord`]s straight from the arrival list: every spec "runs" at
//! its planned length after a small queue wait, on a block sized to its
//! request, with lineage resolved to final job ids.
//!
//! Like [`crate::generate`], the output is a pure function of the config.

use std::collections::HashMap;

use bgq_model::ids::JobId;
use bgq_model::{Block, JobRecord, Machine, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::users::Population;
use crate::workload::{generate_arrivals, JobSpec, PlannedOutcome};

/// Generates only the jobs table at population scale.
///
/// Returns the records sorted in the canonical `(started_at, job_id)`
/// order, exactly as a [`crate::generate`] dataset would present them.
///
/// # Panics
///
/// Panics if the config fails [`SimConfig::validate`].
#[must_use]
pub fn generate_jobs_only(config: &SimConfig) -> Vec<JobRecord> {
    if let Err(msg) = config.validate() {
        panic!("invalid SimConfig: {msg}");
    }
    let _span = bgq_obs::span!("sim.userscale");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let population = bgq_obs::time("sim.userscale.population", || {
        Population::generate(config, &mut rng)
    });
    let specs = bgq_obs::time("sim.userscale.arrivals", || {
        generate_arrivals(config, &population, &mut rng)
    });
    bgq_obs::time("sim.userscale.emit", || emit(&population, &specs, &mut rng))
}

fn emit(population: &Population, specs: &[JobSpec], rng: &mut StdRng) -> Vec<JobRecord> {
    // Ids follow sorted spec order (as in the scheduled path), so a
    // parent — queued strictly earlier — always gets the smaller id.
    let seq_to_id: HashMap<u64, JobId> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| (s.arrival_seq, JobId::new(i as u64 + 1)))
        .collect();
    let max_midplanes = Machine::MIRA.total_midplanes() as u16;
    let mut jobs = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let job_id = JobId::new(i as u64 + 1);
        let user = &population.users()[spec.user_idx];
        // Without a capacity model the queue wait is a short random
        // dispatch delay; runtimes come from the planned outcome.
        let wait = rng.gen_range(30..1_800i64);
        let started_at = spec.queued_at + Span::from_secs(wait);
        let runtime = i64::from(spec.planned_runtime_s()).max(1);
        let start = rng.gen_range(0..=(max_midplanes - spec.midplanes));
        let exit_code = match spec.outcome {
            PlannedOutcome::Success { .. } => 0,
            PlannedOutcome::UserFailure { code, .. } => code,
        };
        jobs.push(JobRecord {
            job_id,
            user: user.user,
            project: user.project,
            queue: spec.queue,
            nodes: spec.nodes(),
            mode: spec.mode,
            requested_walltime_s: spec.walltime_s,
            queued_at: spec.queued_at,
            started_at,
            ended_at: started_at + Span::from_secs(runtime),
            block: Block::new(start, spec.midplanes).expect("sized to the machine"),
            exit_code,
            num_tasks: spec.num_tasks,
            resubmit_of: spec
                .resubmit_of
                .and_then(|seq| seq_to_id.get(&seq).copied()),
        });
    }
    jobs.sort_by_key(|j| (j.started_at, j.job_id));
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::small(3)
            .with_seed(5)
            .with_users(5_000, 500)
            .with_jobs_per_day(20_000.0)
            .with_retries(0.6)
    }

    #[test]
    fn emits_at_rate_with_canonical_order_and_lineage() {
        let jobs = generate_jobs_only(&cfg());
        let fresh = 3.0 * 20_000.0;
        let got = jobs.len() as f64;
        // Fresh arrivals plus a retry tail (chains add roughly a third
        // at this failure rate and persistence).
        assert!(
            got > fresh * 0.85 && got < fresh * 2.0,
            "{got} jobs for ≈{fresh} fresh arrivals plus retries"
        );
        assert!(jobs
            .windows(2)
            .all(|w| (w[0].started_at, w[0].job_id) <= (w[1].started_at, w[1].job_id)));
        let ids: std::collections::HashSet<JobId> = jobs.iter().map(|j| j.job_id).collect();
        assert_eq!(ids.len(), jobs.len());
        let mut linked = 0usize;
        for j in &jobs {
            if let Some(parent) = j.resubmit_of {
                linked += 1;
                assert!(
                    parent.raw() < j.job_id.raw(),
                    "lineage must point backwards"
                );
                assert!(ids.contains(&parent), "parent must exist");
            }
        }
        assert!(linked > 0, "retries must survive emission");
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(generate_jobs_only(&cfg()), generate_jobs_only(&cfg()));
    }

    #[test]
    fn distinct_users_scale_with_population() {
        let jobs = generate_jobs_only(&cfg());
        let users: std::collections::HashSet<_> = jobs.iter().map(|j| j.user).collect();
        assert!(users.len() > 1_000, "{} distinct users", users.len());
    }
}
