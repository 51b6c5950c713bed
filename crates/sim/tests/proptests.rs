//! Property tests for the simulator: scheduler safety (no double
//! allocation, causality) and generator invariants under arbitrary small
//! configurations.

use bgq_sim::{generate, SimConfig};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = SimConfig> {
    (
        1u32..8,        // days
        0u64..1_000,    // seed
        20.0f64..300.0, // jobs per day
        0.2f64..3.0,    // incident gap (days)
        1.0f64..4.0,    // early-life factor
        0.0f64..1.0,    // io coverage
        0.2f64..2.0,    // failure scale
    )
        .prop_map(|(days, seed, jpd, gap, early, io, scale)| SimConfig {
            jobs_per_day: jpd,
            early_life_factor: early,
            io_coverage: io,
            failure_scale: scale,
            ..SimConfig::small(days)
                .with_seed(seed)
                .with_incident_gap_days(gap)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_traces_satisfy_invariants(cfg in arb_config()) {
        let out = generate(&cfg);
        let ds = &out.dataset;

        // Jobs: causal timestamps, runtime within walltime, block/nodes agree.
        for j in &ds.jobs {
            prop_assert!(j.queued_at <= j.started_at);
            prop_assert!(j.started_at < j.ended_at);
            prop_assert!(j.ended_at <= cfg.horizon_end());
            prop_assert!(j.runtime().as_secs() <= i64::from(j.requested_walltime_s) + 1);
            prop_assert_eq!(u32::from(j.block.len()) * 512, j.nodes);
        }

        // No two concurrent jobs share a midplane.
        for (i, a) in ds.jobs.iter().enumerate() {
            for b in &ds.jobs[i + 1..] {
                if b.started_at >= a.ended_at {
                    break; // sorted by start time
                }
                if a.started_at < b.ended_at && b.started_at < a.ended_at {
                    prop_assert!(
                        !a.block.overlaps(&b.block),
                        "space-time overlap between {:?} and {:?}",
                        a.job_id,
                        b.job_id
                    );
                }
            }
        }

        // RAS records sorted with contiguous record ids.
        for (i, w) in ds.ras.windows(2).enumerate() {
            prop_assert!(w[0].event_time <= w[1].event_time, "unsorted at {i}");
        }
        for (i, r) in ds.ras.iter().enumerate() {
            prop_assert_eq!(r.rec_id.raw(), i as u64 + 1);
        }

        // Tasks tile their jobs exactly.
        let mut tasks_by_job: std::collections::HashMap<_, Vec<_>> = Default::default();
        for t in &ds.tasks {
            tasks_by_job.entry(t.job_id).or_default().push(t);
        }
        for j in &ds.jobs {
            let tasks = tasks_by_job.get(&j.job_id).expect("every job has tasks");
            let mut sorted = tasks.clone();
            sorted.sort_by_key(|t| t.seq);
            prop_assert_eq!(sorted[0].started_at, j.started_at);
            prop_assert_eq!(sorted.last().expect("nonempty").ended_at, j.ended_at);
            for w in sorted.windows(2) {
                prop_assert_eq!(w[0].ended_at, w[1].started_at);
            }
        }

        // Ground truth bookkeeping is self-consistent.
        prop_assert!(out.truth.logical_incident_count() <= out.truth.incidents.len());
        for &(job_id, incident_idx) in &out.truth.system_kills {
            prop_assert!(incident_idx < out.truth.incidents.len());
            let job = ds.jobs.iter().find(|j| j.job_id == job_id).expect("killed job exists");
            prop_assert_eq!(job.exit_code, 75);
            prop_assert_eq!(job.ended_at, out.truth.incidents[incident_idx].time);
        }
    }

    #[test]
    fn determinism_is_total(cfg in arb_config()) {
        let a = generate(&cfg);
        let b = generate(&cfg);
        prop_assert_eq!(a.dataset, b.dataset);
    }
}
