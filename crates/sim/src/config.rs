//! Simulation configuration.

use bgq_model::{Machine, Timestamp};

/// Full configuration of a synthetic Mira trace.
///
/// Defaults are calibrated so that [`SimConfig::mira_2k_days`] reproduces
/// the abstract's headline numbers (≈380 k jobs, ≈99 k failures with ≈99.4 %
/// user-caused, ≈31 B core-hours, MTTI of a few days). Use the builder
/// methods to scale down for tests and examples.
///
/// # Examples
///
/// ```
/// use bgq_sim::config::SimConfig;
///
/// let cfg = SimConfig::small(30).with_seed(7);
/// assert_eq!(cfg.days, 30);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed; the whole trace is a pure function of the config.
    pub seed: u64,
    /// Number of simulated days.
    pub days: u32,
    /// Trace start time.
    pub origin: Timestamp,
    /// Machine description (always Mira-shaped; analyses never assume more).
    pub machine: Machine,
    /// Number of users in the population.
    pub n_users: u32,
    /// Number of projects (allocations).
    pub n_projects: u32,
    /// Mean job arrivals per day (before diurnal/weekly modulation).
    pub jobs_per_day: f64,
    /// Weights of job sizes in midplanes: entry `i` is the weight of
    /// `2^i` midplanes (512 × 2^i nodes). Truncated to the machine size.
    pub size_weights: Vec<f64>,
    /// Mean gap between fatal hardware incidents, in days (the *mature*
    /// rate; see [`SimConfig::early_life_factor`]).
    pub incident_gap_days: f64,
    /// Infant-mortality multiplier: the incident rate starts at
    /// `early_life_factor ×` the mature rate and decays exponentially over
    /// the first months of the system's life (the bathtub's left wall,
    /// which the paper's lifetime-evolution analysis observes on Mira).
    /// `1.0` disables the effect.
    pub early_life_factor: f64,
    /// Number of "lemon" node boards with elevated fault probability.
    pub n_lemon_boards: usize,
    /// Probability that an incident strikes a lemon board.
    pub lemon_bias: f64,
    /// Mean number of FATAL records per incident storm.
    pub storm_mean_events: f64,
    /// Machine-wide background INFO events per day.
    pub background_info_per_day: f64,
    /// Machine-wide background WARN events per day.
    pub background_warn_per_day: f64,
    /// Mean job-linked INFO events per 1000 node-hours.
    pub job_events_per_knh: f64,
    /// Fraction of jobs instrumented with the I/O profiler.
    pub io_coverage: f64,
    /// Base per-job user-failure probability multiplier (scales every
    /// user's intrinsic rate; 1.0 = calibrated default).
    pub failure_scale: f64,
    /// Probability that a user-failed job is resubmitted as a linked
    /// retry (chain lineage via `resubmit_of`). `0.0` — the default —
    /// disables retry generation entirely and draws **no** extra random
    /// numbers, so fixed-seed traces predating retries are unchanged.
    pub retry_prob: f64,
    /// Multiplier applied to the resubmit probability at each successive
    /// attempt: attempt `k` retries with probability
    /// `retry_prob × retry_decay^k` (persistence decays, users give up).
    pub retry_decay: f64,
    /// Hard cap on resubmissions per chain.
    pub retry_max: u32,
    /// Mean think-time gap between a failure and its resubmission, in
    /// seconds (exponentially distributed, floored at one minute).
    pub retry_gap_mean_s: f64,
}

impl SimConfig {
    /// The full 2001-day Mira reproduction configuration.
    pub fn mira_2k_days() -> Self {
        SimConfig {
            seed: 0x4d49_5241, // "MIRA"
            days: 2001,
            origin: Timestamp::MIRA_EPOCH,
            machine: Machine::MIRA,
            n_users: 900,
            n_projects: 350,
            jobs_per_day: 170.0,
            size_weights: vec![0.50, 0.25, 0.13, 0.07, 0.032, 0.012, 0.005, 0.001],
            incident_gap_days: 5.5,
            early_life_factor: 2.0,
            n_lemon_boards: 14,
            lemon_bias: 0.65,
            storm_mean_events: 25.0,
            background_info_per_day: 400.0,
            background_warn_per_day: 40.0,
            job_events_per_knh: 0.4,
            io_coverage: 0.8,
            failure_scale: 1.0,
            retry_prob: 0.0,
            retry_decay: 0.6,
            retry_max: 5,
            retry_gap_mean_s: 1_800.0,
        }
    }

    /// A scaled-down configuration for tests and examples: same stochastic
    /// structure, `days` long, with a proportional incident rate.
    pub fn small(days: u32) -> Self {
        SimConfig {
            days,
            n_users: 120,
            n_projects: 40,
            jobs_per_day: 150.0,
            incident_gap_days: 1.5,
            early_life_factor: 1.0,
            ..SimConfig::mira_2k_days()
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the arrival rate.
    pub fn with_jobs_per_day(mut self, rate: f64) -> Self {
        self.jobs_per_day = rate;
        self
    }

    /// Replaces the mean incident gap (days).
    pub fn with_incident_gap_days(mut self, gap: f64) -> Self {
        self.incident_gap_days = gap;
        self
    }

    /// Replaces the global failure-rate multiplier.
    pub fn with_failure_scale(mut self, scale: f64) -> Self {
        self.failure_scale = scale;
        self
    }

    /// Replaces the population size (users and projects).
    pub fn with_users(mut self, users: u32, projects: u32) -> Self {
        self.n_users = users;
        self.n_projects = projects;
        self
    }

    /// Enables retry-chain generation with the given base resubmit
    /// probability (decay, cap, and gap keep their defaults).
    pub fn with_retries(mut self, prob: f64) -> Self {
        self.retry_prob = prob;
        self
    }

    /// End of the simulated horizon.
    pub fn horizon_end(&self) -> Timestamp {
        self.origin + bgq_model::Span::from_days(i64::from(self.days))
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("days must be positive".into());
        }
        if self.n_users == 0 || self.n_projects == 0 {
            return Err("need at least one user and one project".into());
        }
        if self.n_projects > self.n_users {
            return Err("cannot have more projects than users".into());
        }
        if !self.jobs_per_day.is_finite() || self.jobs_per_day <= 0.0 {
            return Err("jobs_per_day must be positive".into());
        }
        if self.size_weights.is_empty() || self.size_weights.iter().any(|w| *w < 0.0) {
            return Err("size_weights must be non-empty and non-negative".into());
        }
        if self.size_weights.iter().sum::<f64>() <= 0.0 {
            return Err("size_weights must have positive mass".into());
        }
        if !self.incident_gap_days.is_finite() || self.incident_gap_days <= 0.0 {
            return Err("incident_gap_days must be positive".into());
        }
        if !self.early_life_factor.is_finite() || self.early_life_factor < 1.0 {
            return Err("early_life_factor must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.lemon_bias) {
            return Err("lemon_bias must be within [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.io_coverage) {
            return Err("io_coverage must be within [0, 1]".into());
        }
        if !self.failure_scale.is_finite() || self.failure_scale < 0.0 {
            return Err("failure_scale must be non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.retry_prob) {
            return Err("retry_prob must be within [0, 1]".into());
        }
        if !self.retry_decay.is_finite() || !(0.0..=1.0).contains(&self.retry_decay) {
            return Err("retry_decay must be within [0, 1]".into());
        }
        if !self.retry_gap_mean_s.is_finite() || self.retry_gap_mean_s <= 0.0 {
            return Err("retry_gap_mean_s must be positive".into());
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::mira_2k_days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SimConfig::mira_2k_days().validate().unwrap();
        SimConfig::small(10).validate().unwrap();
    }

    #[test]
    fn horizon_end_matches_days() {
        let cfg = SimConfig::small(10);
        assert_eq!((cfg.horizon_end() - cfg.origin).as_days(), 10.0);
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(SimConfig {
            days: 0,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            n_users: 0,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            n_projects: 500,
            n_users: 10,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            jobs_per_day: 0.0,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            size_weights: vec![],
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            lemon_bias: 1.5,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            early_life_factor: 0.5,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            io_coverage: -0.1,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            retry_prob: 1.5,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            retry_decay: -0.1,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            retry_gap_mean_s: 0.0,
            ..SimConfig::small(1)
        }
        .validate()
        .is_err());
    }

    #[test]
    fn builders_replace_fields() {
        let cfg = SimConfig::small(5)
            .with_seed(1)
            .with_jobs_per_day(10.0)
            .with_incident_gap_days(0.5)
            .with_failure_scale(2.0)
            .with_users(1_000, 100)
            .with_retries(0.5);
        assert_eq!(cfg.seed, 1);
        assert_eq!(cfg.jobs_per_day, 10.0);
        assert_eq!(cfg.incident_gap_days, 0.5);
        assert_eq!(cfg.failure_scale, 2.0);
        assert_eq!(cfg.n_users, 1_000);
        assert_eq!(cfg.n_projects, 100);
        assert_eq!(cfg.retry_prob, 0.5);
        cfg.validate().unwrap();
    }

    #[test]
    fn retries_default_off() {
        assert_eq!(SimConfig::mira_2k_days().retry_prob, 0.0);
        assert_eq!(SimConfig::small(5).retry_prob, 0.0);
    }
}
