//! Seeded adversarial case generation.
//!
//! Uniform random inputs almost never land on the seams where fast
//! paths break: values *exactly* on decimal and decade boundaries, jobs
//! of zero duration sitting on day boundaries, events timestamped before
//! any job started, NaN and infinite attribute values, samples that are
//! one giant tie. This module generates cases that oversample exactly those
//! seams, deterministically from a seed, so the differential suite can
//! pin a fixed corpus in CI and reproduce any divergence by number.

use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
use bgq_model::job::{Mode, Queue};
use bgq_model::ras::{Category, Component, MsgId, MsgText};
use bgq_model::{Block, JobRecord, Location, Machine, RasRecord, Severity, Timestamp};

/// SplitMix64: tiny, seedable, and good enough for case generation.
/// Kept private to this crate so the oracle depends on nothing but
/// `bgq-model` and the standard library.
pub struct CaseRng(u64);

impl CaseRng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        CaseRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        self.next_u64() % n
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One bundle of adversarial inputs for every differential pairing.
#[derive(Debug, Clone)]
pub struct AdversarialCase {
    /// The seed that regenerates this case exactly.
    pub seed: u64,
    /// Float samples peppered with exact tenths, powers of ten, ties, NaN,
    /// and ±∞.
    pub samples: Vec<f64>,
    /// Jobs including zero-duration and day-boundary-aligned runs.
    pub jobs: Vec<JobRecord>,
    /// Jobs carrying `resubmit_of` lineage: real backward chains mixed
    /// with dangling, self-referential, and forward links. Fed only to
    /// the chain-mining pairing — the persistence layers *reject* the
    /// corrupt shapes by design, so these never round-trip.
    pub lineage_jobs: Vec<JobRecord>,
    /// Events including pre-origin, post-end, and boundary timestamps.
    pub events: Vec<RasRecord>,
    /// Intervals (job spans plus degenerate and inverted extras).
    pub intervals: Vec<(Timestamp, Timestamp)>,
}

/// A plain production job over `[start, end)` seconds on `block`.
#[must_use]
pub fn test_job(id: u64, start: i64, end: i64, block: Block) -> JobRecord {
    JobRecord {
        job_id: JobId::new(id),
        user: UserId::new((id % 7) as u32),
        project: ProjectId::new((id % 3) as u32),
        queue: Queue::Production,
        nodes: block.nodes(),
        mode: Mode::default(),
        requested_walltime_s: 3_600,
        queued_at: Timestamp::from_secs(start - 60),
        started_at: Timestamp::from_secs(start),
        ended_at: Timestamp::from_secs(end),
        block,
        exit_code: (id % 2) as i32,
        num_tasks: 1 + (id % 4) as u32,
        resubmit_of: None,
    }
}

/// An event at time `t` located on the first midplane of `block`.
#[must_use]
pub fn test_event(id: u64, t: i64, block: Block, severity: Severity) -> RasRecord {
    let rack = (block.start() / 2) as u8;
    let midplane = (block.start() % 2) as u8;
    RasRecord {
        rec_id: RecId::new(id),
        msg_id: MsgId::new(1),
        severity,
        category: Category::Ddr,
        component: Component::Mc,
        event_time: Timestamp::from_secs(t),
        location: Location::midplane(rack, midplane),
        message: MsgText::default(),
        count: 1,
    }
}

const DAY: i64 = 86_400;

/// Generates the adversarial case for `seed`.
///
/// Time ranges are kept within a few days so even the quadratic
/// references stay cheap.
#[must_use]
pub fn generate(seed: u64) -> AdversarialCase {
    let mut rng = CaseRng::new(seed);
    AdversarialCase {
        seed,
        samples: gen_samples(&mut rng),
        jobs: gen_jobs(&mut rng),
        lineage_jobs: gen_lineage_jobs(&mut rng),
        events: gen_events(&mut rng),
        intervals: gen_intervals(&mut rng),
    }
}

fn gen_samples(rng: &mut CaseRng) -> Vec<f64> {
    let mut out = Vec::new();
    let n = 8 + rng.below(24) as usize;
    for _ in 0..n {
        let v = match rng.below(10) {
            // Tenths of [0, 1], computed both ways: k/10 (correctly
            // rounded) and k·0.1 (the drifted form), so near-ties that
            // differ only in the last bit reach the rank and quantile
            // pairings.
            0 => rng.below(11) as f64 / 10.0,
            1 => rng.below(11) as f64 * 0.1,
            // Powers of ten: one value per decade from 1e-3 to 1e3.
            2 => 10f64.powi(rng.below(7) as i32 - 3),
            // Heavy ties: a tiny value pool.
            3 | 4 => f64::from(u32::try_from(rng.below(3)).expect("small")),
            // Non-finite pollution.
            5 => f64::NAN,
            6 => {
                if rng.below(2) == 0 {
                    f64::INFINITY
                } else {
                    f64::NEG_INFINITY
                }
            }
            // Negatives.
            7 => -rng.unit() * 10.0,
            // Plain uniform filler.
            _ => rng.unit() * 12.0 - 1.0,
        };
        out.push(v);
    }
    out
}

fn gen_jobs(rng: &mut CaseRng) -> Vec<JobRecord> {
    let max_mp = Machine::MIRA.total_midplanes() as u64;
    let n = 3 + rng.below(6);
    (0..n)
        .map(|i| {
            let len = 1 + rng.below(3) as u16;
            let start_mp = rng.below(max_mp - u64::from(len)) as u16;
            let block = Block::new(start_mp, len).expect("in range");
            let start = match rng.below(4) {
                // Aligned to a day boundary (including the origin).
                0 => DAY * rng.below(3) as i64,
                // One second shy of / past a boundary.
                1 => DAY * (1 + rng.below(2) as i64) - 1,
                2 => DAY * rng.below(2) as i64 + 1,
                _ => rng.below(2 * DAY as u64) as i64,
            };
            let end = match rng.below(4) {
                // Zero duration — the instant-failure shape.
                0 => start,
                // Ends exactly on the next boundary.
                1 => ((start / DAY) + 1) * DAY,
                _ => start + 1 + rng.below(DAY as u64) as i64,
            };
            test_job(i + 1, start, end, block)
        })
        .collect()
}

/// Jobs whose `resubmit_of` links oversample every lineage seam: honest
/// backward chains (retrying the previous failure), links into the
/// middle of other chains, duplicate parents (two jobs claiming the
/// same predecessor), and the corrupt shapes — dangling ids, self
/// links, forward links.
fn gen_lineage_jobs(rng: &mut CaseRng) -> Vec<JobRecord> {
    let n = 6 + rng.below(20);
    (0..n)
        .map(|i| {
            let id = i + 1;
            let start = i as i64 * 500 + rng.below(400) as i64;
            let len = rng.below(600) as i64; // zero-duration included
            let mut j = test_job(id, start, start + len, Block::new(0, 1).expect("in range"));
            j.exit_code = if rng.below(3) == 0 { 0 } else { 139 };
            j.resubmit_of = match rng.below(8) {
                // Chain onto the immediately preceding job.
                0 | 1 if id > 1 => Some(JobId::new(id - 1)),
                // Link anywhere backwards (mid-chain, duplicate parents).
                2 | 3 if id > 1 => Some(JobId::new(1 + rng.below(id - 1))),
                // Dangling: an id the log never contains.
                4 => Some(JobId::new(id + 1_000)),
                // Self link.
                5 => Some(JobId::new(id)),
                // Forward link.
                6 => Some(JobId::new(id + 1 + rng.below(3))),
                // Chain root.
                _ => None,
            };
            j
        })
        .collect()
}

fn gen_events(rng: &mut CaseRng) -> Vec<RasRecord> {
    let max_mp = Machine::MIRA.total_midplanes() as u64;
    let n = 4 + rng.below(12);
    (0..n)
        .map(|i| {
            let t = match rng.below(5) {
                // Before any job can have started (pre-origin stab).
                0 => -(1 + rng.below(2 * DAY as u64) as i64),
                // Day and job boundaries.
                1 => DAY * rng.below(4) as i64,
                // Far past the last job.
                2 => 10 * DAY + rng.below(DAY as u64) as i64,
                _ => rng.below(3 * DAY as u64) as i64,
            };
            let block = Block::new(rng.below(max_mp) as u16, 1).expect("in range");
            let severity = Severity::ALL[rng.below(3) as usize];
            test_event(i + 1, t, block, severity)
        })
        .collect()
}

fn gen_intervals(rng: &mut CaseRng) -> Vec<(Timestamp, Timestamp)> {
    let n = 4 + rng.below(16);
    (0..n)
        .map(|_| {
            let s = rng.below(10_000) as i64 - 1_000;
            let len = match rng.below(5) {
                0 => 0,                               // degenerate
                1 => -(rng.below(500) as i64),        // inverted
                2 => 5_000 + rng.below(5_000) as i64, // spans many buckets
                _ => 1 + rng.below(800) as i64,
            };
            (Timestamp::from_secs(s), Timestamp::from_secs(s + len))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate(42);
        let b = generate(42);
        // Compare sample bits so NaN ≠ NaN cannot trip the check.
        let bits = |c: &AdversarialCase| c.samples.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(a.intervals, b.intervals);
        assert_eq!(a.jobs.len(), b.jobs.len());
        assert_eq!(a.events.len(), b.events.len());
        let c = generate(43);
        assert_ne!(bits(&a), bits(&c), "different seeds should differ");
    }

    #[test]
    fn corpus_covers_the_adversarial_shapes() {
        let mut nan = false;
        let mut zero_dur = false;
        let mut pre_origin = false;
        let mut inverted = false;
        let mut chained = false;
        let mut dangling = false;
        let mut self_link = false;
        let mut forward = false;
        for seed in 0..32 {
            let case = generate(seed);
            nan |= case.samples.iter().any(|v| v.is_nan());
            zero_dur |= case.jobs.iter().any(|j| j.started_at == j.ended_at);
            pre_origin |= case
                .events
                .iter()
                .any(|e| e.event_time < Timestamp::from_secs(0));
            inverted |= case.intervals.iter().any(|(s, e)| e < s);
            let ids: Vec<u64> = case.lineage_jobs.iter().map(|j| j.job_id.raw()).collect();
            for j in &case.lineage_jobs {
                let Some(p) = j.resubmit_of else { continue };
                chained |= p.raw() < j.job_id.raw() && ids.contains(&p.raw());
                dangling |= !ids.contains(&p.raw());
                self_link |= p == j.job_id;
                forward |= p.raw() > j.job_id.raw();
            }
        }
        assert!(nan && zero_dur && pre_origin && inverted);
        assert!(
            chained && dangling && self_link && forward,
            "lineage corpus must cover valid chains and every corrupt link shape"
        );
    }
}
