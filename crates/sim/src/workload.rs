//! Job arrival and job attribute generation.
//!
//! Arrivals follow a nonhomogeneous Poisson process with diurnal and
//! weekly modulation. Each arrival samples its owner from the Zipf
//! population and derives size, mode, wall time, task count, and — key for
//! the reproduction — a *planned outcome*: success with some fraction of
//! the request used, or a user failure whose time-to-failure is drawn from
//! the exit code's ground-truth law.

use bgq_model::job::{Mode, Queue};
use bgq_model::time::{Span, Timestamp, SECS_PER_HOUR};
use rand::Rng;

use crate::catalog::{exit_code, failure_modes, FailureMode};
use crate::config::SimConfig;
use crate::users::{Population, UserProfile};

/// What a job will do once started (system kills override this later).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedOutcome {
    /// Runs for `runtime_s`, exits 0.
    Success {
        /// Planned execution length in seconds.
        runtime_s: u32,
    },
    /// Fails with `code` after `runtime_s` (walltime kills included).
    UserFailure {
        /// Exit code from the failure-mode catalog.
        code: i32,
        /// Planned execution length in seconds.
        runtime_s: u32,
    },
}

/// A job as submitted (before scheduling).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Submission time.
    pub queued_at: Timestamp,
    /// Index of the submitting user in the population.
    pub user_idx: usize,
    /// Requested size in midplanes (power of two, clamped to the machine).
    pub midplanes: u16,
    /// Ranks-per-node mode.
    pub mode: Mode,
    /// Requested wall time in seconds.
    pub walltime_s: u32,
    /// Number of `runjob` tasks the script will launch.
    pub num_tasks: u32,
    /// Queue (derived from size and wall time).
    pub queue: Queue,
    /// Planned outcome.
    pub outcome: PlannedOutcome,
    /// Generation-order id, unique across the arrival list and stable
    /// under the submit-time sort. Lineage links refer to this.
    pub arrival_seq: u64,
    /// Retry depth: `0` for fresh submissions, `k` for the k-th resubmit.
    pub attempt: u32,
    /// The `arrival_seq` of the failed submission this spec retries,
    /// or `None` for fresh submissions.
    pub resubmit_of: Option<u64>,
}

impl JobSpec {
    /// The planned execution length in seconds (ignoring system kills).
    pub fn planned_runtime_s(&self) -> u32 {
        match self.outcome {
            PlannedOutcome::Success { runtime_s }
            | PlannedOutcome::UserFailure { runtime_s, .. } => runtime_s,
        }
    }

    /// Nodes requested (midplanes × 512).
    pub fn nodes(&self) -> u32 {
        u32::from(self.midplanes) * 512
    }
}

/// Hourly arrival-rate multiplier (UTC hour): quiet nights, afternoon peak.
pub fn diurnal_factor(hour: u32) -> f64 {
    const TABLE: [f64; 24] = [
        0.65, 0.60, 0.55, 0.55, 0.60, 0.65, 0.75, 0.90, 1.10, 1.25, 1.35, 1.40, 1.40, 1.45, 1.45,
        1.40, 1.30, 1.20, 1.10, 1.00, 0.90, 0.85, 0.75, 0.70,
    ];
    TABLE[hour as usize % 24]
}

/// Day-of-week arrival multiplier (`0 = Monday`): weekends are quieter.
pub fn weekly_factor(dow: u32) -> f64 {
    const TABLE: [f64; 7] = [1.10, 1.12, 1.12, 1.10, 1.05, 0.78, 0.73];
    TABLE[dow as usize % 7]
}

/// Common Cobalt wall-time requests (seconds) with their base weights.
const WALLTIMES: [(u32, f64); 8] = [
    (1_800, 0.06),
    (3_600, 0.22),
    (7_200, 0.22),
    (10_800, 0.16),
    (14_400, 0.12),
    (21_600, 0.12),
    (43_200, 0.07),
    (86_400, 0.03),
];

fn sample_weighted<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Largest mean handed to Knuth's method directly. Above it,
/// `exp(-mean)` loses precision (and underflows to zero near 745),
/// which would send the rejection loop to its iteration cap.
const POISSON_CHUNK_MEAN: f64 = 500.0;

fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u32 {
    if mean > POISSON_CHUNK_MEAN {
        // Poisson additivity: a draw with a large mean is the sum of
        // independent draws whose means stay in Knuth territory. Means
        // at or below the chunk size take the exact historical path.
        let chunks = (mean / POISSON_CHUNK_MEAN) as u32;
        let rem = mean - f64::from(chunks) * POISSON_CHUNK_MEAN;
        let mut total = 0u32;
        for _ in 0..chunks {
            total = total.saturating_add(sample_poisson_knuth(rng, POISSON_CHUNK_MEAN));
        }
        if rem > 0.0 {
            total = total.saturating_add(sample_poisson_knuth(rng, rem));
        }
        return total;
    }
    sample_poisson_knuth(rng, mean)
}

fn sample_poisson_knuth<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u32 {
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 10_000 {
            return k;
        }
    }
}

/// Generates the full arrival list for the horizon, sorted by submit time.
pub fn generate_arrivals<R: Rng + ?Sized>(
    config: &SimConfig,
    population: &Population,
    rng: &mut R,
) -> Vec<JobSpec> {
    let modes = failure_modes();
    let hourly_base = config.jobs_per_day / 24.0;
    let mut specs = Vec::new();
    for day in 0..config.days {
        let day_start = config.origin + Span::from_days(i64::from(day));
        let dow = day_start.day_of_week();
        for hour in 0..24u32 {
            let rate = hourly_base * diurnal_factor(hour) * weekly_factor(dow);
            let n = sample_poisson(rng, rate);
            for _ in 0..n {
                let offset = rng.gen_range(0..SECS_PER_HOUR);
                let queued_at =
                    day_start + Span::from_secs(i64::from(hour) * SECS_PER_HOUR + offset);
                let user = population.sample(rng);
                let user_idx = user.user.raw() as usize;
                let seq = specs.len() as u64;
                specs.push(make_spec(
                    config, user, user_idx, queued_at, seq, &modes, rng,
                ));
            }
        }
    }
    if config.retry_prob > 0.0 {
        generate_retries(config, population, &modes, &mut specs, rng);
    }
    specs.sort_by_key(|s| s.queued_at);
    specs
}

/// Appends linked resubmissions of failed specs (including failed
/// retries, so chains grow until the user succeeds or gives up).
///
/// Walks `specs` by index while pushing to the end, so children are
/// themselves revisited. Only called when `retry_prob > 0`; the retries-
/// off configuration draws no random numbers here by construction.
fn generate_retries<R: Rng + ?Sized>(
    config: &SimConfig,
    population: &Population,
    modes: &[FailureMode],
    specs: &mut Vec<JobSpec>,
    rng: &mut R,
) {
    let mut i = 0;
    while i < specs.len() {
        let parent = specs[i].clone();
        i += 1;
        if !matches!(parent.outcome, PlannedOutcome::UserFailure { .. }) {
            continue;
        }
        if parent.attempt >= config.retry_max {
            continue;
        }
        let p = config.retry_prob * config.retry_decay.powi(parent.attempt as i32);
        if rng.gen::<f64>() >= p {
            continue;
        }
        // Think-time gap after the failure becomes visible (the planned
        // end, approximating queue wait as small): exponential with the
        // configured mean, floored at one minute.
        let gap = (-config.retry_gap_mean_s * (1.0 - rng.gen::<f64>()).ln()).max(60.0) as i64;
        let queued_at =
            parent.queued_at + Span::from_secs(i64::from(parent.planned_runtime_s()) + gap);
        if queued_at >= config.horizon_end() {
            continue;
        }
        // A retry resubmits the same script: size, mode, wall time, task
        // count, and queue carry over; only the outcome is re-drawn.
        let user = &population.users()[parent.user_idx];
        let size_class = u32::from(parent.midplanes).ilog2();
        let outcome = draw_outcome(
            config,
            user,
            size_class,
            parent.walltime_s,
            parent.num_tasks,
            modes,
            rng,
        );
        let seq = specs.len() as u64;
        specs.push(JobSpec {
            queued_at,
            arrival_seq: seq,
            attempt: parent.attempt + 1,
            resubmit_of: Some(parent.arrival_seq),
            outcome,
            ..parent
        });
    }
}

/// Builds one fresh (non-retry) job spec for `user` submitted at
/// `queued_at`, with generation-order id `arrival_seq`.
pub fn make_spec<R: Rng + ?Sized>(
    config: &SimConfig,
    user: &UserProfile,
    user_idx: usize,
    queued_at: Timestamp,
    arrival_seq: u64,
    modes: &[FailureMode],
    rng: &mut R,
) -> JobSpec {
    let max_midplanes = config.machine.total_midplanes() as u16;
    // Size class: global weights shifted by the user's preference.
    let class = sample_weighted(rng, &config.size_weights) as i32 + user.size_shift;
    let mut class = class.clamp(0, (config.size_weights.len() - 1) as i32) as u32;
    // Full-machine runs are special occasions even for capability users;
    // damp the shift-induced pile-up at the top class.
    if class == (config.size_weights.len() - 1) as u32 && rng.gen::<f64>() < 0.7 {
        class -= 1;
    }
    let midplanes = (1u32 << class).min(u32::from(max_midplanes)) as u16;

    let mode = *[
        Mode::new(8).expect("static"),
        Mode::new(16).expect("static"),
        Mode::new(16).expect("static"),
        Mode::new(32).expect("static"),
        Mode::new(64).expect("static"),
    ]
    .get(rng.gen_range(0..5usize))
    .expect("in range");

    let (base_wt, _) = WALLTIMES[sample_weighted(rng, &WALLTIMES.map(|(_, w)| w))];
    let walltime_s =
        ((base_wt as f64 * user.walltime_mult) as u32).clamp(1_800, 86_400) / 900 * 900; // round down to 15-minute granularity

    let num_tasks = 1 + sample_poisson(rng, 1.0);

    let queue = if midplanes >= 16 {
        Queue::Capability
    } else if walltime_s <= 3_600 && midplanes <= 2 && rng.gen::<f64>() < 0.3 {
        Queue::Debug
    } else {
        Queue::Production
    };

    let outcome = draw_outcome(config, user, class, walltime_s, num_tasks, modes, rng);

    JobSpec {
        queued_at,
        user_idx,
        midplanes,
        mode,
        walltime_s,
        num_tasks,
        queue,
        outcome,
        arrival_seq,
        attempt: 0,
        resubmit_of: None,
    }
}

/// Draws a planned outcome for one submission of `user` at the given
/// size class. Shared by fresh arrivals and retries — a retry re-rolls
/// the same dice, so transient failures eventually succeed while a
/// deterministic bug keeps failing down the whole chain.
fn draw_outcome<R: Rng + ?Sized>(
    config: &SimConfig,
    user: &UserProfile,
    size_class: u32,
    walltime_s: u32,
    num_tasks: u32,
    modes: &[FailureMode],
    rng: &mut R,
) -> PlannedOutcome {
    // Failure decision: intrinsic rate × scale boost × task boost.
    let scale_mult = 1.0 + 0.13 * f64::from(size_class);
    let task_mult = 1.0 + 0.08 * f64::from(num_tasks - 1);
    let p_fail = (user.bug_rate * scale_mult * task_mult * config.failure_scale).min(0.9);

    if rng.gen::<f64>() < p_fail {
        let mode_idx = sample_weighted(rng, &user.mode_mix);
        let mode_entry = &modes[mode_idx];
        match &mode_entry.length_dist {
            None => PlannedOutcome::UserFailure {
                code: exit_code::WALLTIME,
                runtime_s: walltime_s,
            },
            Some(dist) => {
                let len = dist.sample(rng).max(1.0) as u32;
                if len >= walltime_s {
                    // Ran into the walltime limit before the bug could
                    // manifest: the scheduler's SIGTERM wins.
                    PlannedOutcome::UserFailure {
                        code: exit_code::WALLTIME,
                        runtime_s: walltime_s,
                    }
                } else {
                    PlannedOutcome::UserFailure {
                        code: mode_entry.exit_code,
                        runtime_s: len,
                    }
                }
            }
        }
    } else {
        let frac = 0.55 + 0.40 * rng.gen::<f64>();
        PlannedOutcome::Success {
            runtime_s: ((walltime_s as f64 * frac) as u32).max(60),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (SimConfig, Population, StdRng) {
        let cfg = SimConfig::small(14);
        let mut rng = StdRng::seed_from_u64(3);
        let pop = Population::generate(&cfg, &mut rng);
        (cfg, pop, rng)
    }

    #[test]
    fn arrivals_are_sorted_and_in_horizon() {
        let (cfg, pop, mut rng) = setup();
        let specs = generate_arrivals(&cfg, &pop, &mut rng);
        assert!(!specs.is_empty());
        assert!(specs.windows(2).all(|w| w[0].queued_at <= w[1].queued_at));
        for s in &specs {
            assert!(s.queued_at >= cfg.origin && s.queued_at < cfg.horizon_end());
        }
    }

    #[test]
    fn arrival_volume_matches_rate() {
        let (cfg, pop, mut rng) = setup();
        let specs = generate_arrivals(&cfg, &pop, &mut rng);
        let expected = cfg.jobs_per_day * f64::from(cfg.days);
        let got = specs.len() as f64;
        // Diurnal/weekly factors average near 1; Poisson noise is small at
        // this volume.
        assert!(
            (got - expected).abs() < expected * 0.15,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn sizes_are_powers_of_two_within_machine() {
        let (cfg, pop, mut rng) = setup();
        for s in generate_arrivals(&cfg, &pop, &mut rng) {
            assert!(s.midplanes.is_power_of_two() || s.midplanes == 96);
            assert!(s.midplanes as usize <= cfg.machine.total_midplanes());
            assert_eq!(s.nodes(), u32::from(s.midplanes) * 512);
        }
    }

    #[test]
    fn walltimes_are_bounded_and_quantized() {
        let (cfg, pop, mut rng) = setup();
        for s in generate_arrivals(&cfg, &pop, &mut rng) {
            assert!((1_800..=86_400).contains(&s.walltime_s));
            assert_eq!(s.walltime_s % 900, 0);
            assert!(s.planned_runtime_s() <= s.walltime_s);
        }
    }

    #[test]
    fn failure_fraction_is_near_calibration() {
        let (cfg, pop, mut rng) = setup();
        let specs = generate_arrivals(&cfg, &pop, &mut rng);
        let failures = specs
            .iter()
            .filter(|s| matches!(s.outcome, PlannedOutcome::UserFailure { .. }))
            .count();
        let rate = failures as f64 / specs.len() as f64;
        assert!(
            (0.18..0.42).contains(&rate),
            "user-failure rate {rate} out of calibration band"
        );
    }

    #[test]
    fn walltime_failures_run_exactly_the_request() {
        let (cfg, pop, mut rng) = setup();
        for s in generate_arrivals(&cfg, &pop, &mut rng) {
            if let PlannedOutcome::UserFailure { code, runtime_s } = s.outcome {
                if code == exit_code::WALLTIME {
                    assert_eq!(runtime_s, s.walltime_s);
                } else {
                    assert!(runtime_s < s.walltime_s);
                }
            }
        }
    }

    #[test]
    fn retries_off_produces_no_lineage() {
        let (cfg, pop, mut rng) = setup();
        assert_eq!(cfg.retry_prob, 0.0);
        for s in generate_arrivals(&cfg, &pop, &mut rng) {
            assert_eq!(s.attempt, 0);
            assert_eq!(s.resubmit_of, None);
        }
    }

    #[test]
    fn arrival_seqs_are_unique_and_stable_under_sort() {
        let (cfg, pop, mut rng) = setup();
        let specs = generate_arrivals(&cfg.with_retries(0.8), &pop, &mut rng);
        let mut seqs: Vec<u64> = specs.iter().map(|s| s.arrival_seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), specs.len(), "arrival_seq must be unique");
    }

    #[test]
    fn retry_chains_link_backwards_to_failed_parents() {
        let (cfg, pop, mut rng) = setup();
        let cfg = cfg.with_retries(0.9);
        let specs = generate_arrivals(&cfg, &pop, &mut rng);
        let by_seq: std::collections::HashMap<u64, &JobSpec> =
            specs.iter().map(|s| (s.arrival_seq, s)).collect();
        let retries = specs.iter().filter(|s| s.resubmit_of.is_some()).count();
        assert!(retries > 0, "0.9 retry probability must produce retries");
        for s in &specs {
            assert!(s.attempt <= cfg.retry_max);
            match s.resubmit_of {
                None => assert_eq!(s.attempt, 0),
                Some(parent_seq) => {
                    let parent = by_seq[&parent_seq];
                    assert!(
                        matches!(parent.outcome, PlannedOutcome::UserFailure { .. }),
                        "only failures are retried"
                    );
                    assert!(
                        parent.queued_at < s.queued_at,
                        "parent must precede its retry"
                    );
                    assert_eq!(parent.attempt + 1, s.attempt);
                    assert_eq!(parent.user_idx, s.user_idx, "retries keep the owner");
                    assert_eq!(parent.midplanes, s.midplanes, "retries keep the size");
                    assert_eq!(parent.walltime_s, s.walltime_s, "retries keep the request");
                    assert!(s.queued_at < cfg.horizon_end());
                }
            }
        }
    }

    #[test]
    fn large_mean_poisson_is_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        // exp(-5000) underflows to 0, which the chunked path must survive;
        // 5σ ≈ 354 around the mean is a generous band for one draw.
        let draw = f64::from(sample_poisson(&mut rng, 5_000.0));
        assert!((draw - 5_000.0).abs() < 400.0, "draw {draw}");
        // Small means keep the historical single-shot path.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            sample_poisson(&mut a, 12.5),
            sample_poisson_knuth(&mut b, 12.5)
        );
    }

    #[test]
    fn diurnal_and_weekly_factors_average_near_one() {
        let d: f64 = (0..24).map(diurnal_factor).sum::<f64>() / 24.0;
        let w: f64 = (0..7).map(weekly_factor).sum::<f64>() / 7.0;
        assert!((d - 1.0).abs() < 0.05, "diurnal mean {d}");
        assert!((w - 1.0).abs() < 0.05, "weekly mean {w}");
    }
}
