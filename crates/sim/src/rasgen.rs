//! RAS record generation.
//!
//! Four event populations, matching the structure the paper's filtering
//! pipeline has to disentangle:
//!
//! 1. **Incident storms** — each hardware incident emits a burst of
//!    correlated FATAL records (same message family, nearby locations,
//!    seconds apart), plus WARN precursors in the preceding hours.
//! 2. **Job-linked events** — INFO chatter proportional to a job's
//!    node-hours (this is what makes event counts correlate with
//!    core-hours and users), plus WARN diagnostics when a job dies of a
//!    user bug.
//! 3. **Background monitoring** — machine-wide INFO/WARN noise at uniform
//!    random locations.

use bgq_model::ids::RecId;
use bgq_model::ras::RasRecord;
use bgq_model::{Location, Machine, Span, Timestamp};
use bgq_stats::dist::Dist;
use rand::Rng;

use crate::catalog::{CatalogEntry, INFO_BACKGROUND, INFO_JOB, WARN_HARDWARE, WARN_PROCESS};
use crate::config::SimConfig;
use crate::incidents::Incident;
use crate::scheduler::ScheduledJob;

fn poisson<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> u32 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 64.0 {
        // Normal approximation for large means.
        let d = Dist::Normal {
            mu: mean,
            sigma: mean.sqrt(),
        };
        return d.sample(rng).round().max(0.0) as u32;
    }
    let l = (-mean).exp();
    let mut k = 0u32;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

fn record(
    entry: &CatalogEntry,
    time: Timestamp,
    location: Location,
    payload: u32,
    count: u32,
) -> RasRecord {
    RasRecord {
        rec_id: RecId::new(0), // assigned after the global sort
        msg_id: entry.msg_id,
        severity: entry.severity,
        category: entry.category,
        component: entry.component,
        event_time: time,
        location,
        message: entry.template.replace("{}", &payload.to_string()).into(),
        count,
    }
}

/// A uniformly random location within `root`, refined one or two levels
/// down (storms name specific cards/cores under the faulty element).
fn refine<R: Rng + ?Sized>(root: &Location, machine: &Machine, rng: &mut R) -> Location {
    let rack = root.rack_index();
    match root.granularity() {
        bgq_model::Granularity::Rack => {
            let mid = rng.gen_range(0..machine.midplanes_per_rack()) as u8;
            if rng.gen::<f64>() < 0.4 {
                Location::midplane(rack, mid)
            } else {
                Location::node_board(
                    rack,
                    mid,
                    rng.gen_range(0..machine.boards_per_midplane()) as u8,
                )
            }
        }
        bgq_model::Granularity::Midplane => {
            let mid = root.midplane_index().expect("midplane granularity");
            if rng.gen::<f64>() < 0.3 {
                *root
            } else {
                Location::node_board(
                    rack,
                    mid,
                    rng.gen_range(0..machine.boards_per_midplane()) as u8,
                )
            }
        }
        _ => {
            let mid = root.midplane_index().expect("board granularity or finer");
            let board = root.board_index().expect("board granularity or finer");
            match rng.gen_range(0..3) {
                0 => *root,
                1 => Location::compute_card(
                    rack,
                    mid,
                    board,
                    rng.gen_range(0..machine.cards_per_board()) as u8,
                ),
                _ => Location::core(
                    rack,
                    mid,
                    board,
                    rng.gen_range(0..machine.cards_per_board()) as u8,
                    rng.gen_range(0..machine.cores_per_card()) as u8,
                ),
            }
        }
    }
}

/// A uniformly random location anywhere in the machine, at mixed
/// granularity (for background noise).
fn random_location<R: Rng + ?Sized>(machine: &Machine, rng: &mut R) -> Location {
    let rack = rng.gen_range(0..machine.racks()) as u8;
    let mid = rng.gen_range(0..machine.midplanes_per_rack()) as u8;
    let board = rng.gen_range(0..machine.boards_per_midplane()) as u8;
    match rng.gen_range(0..4) {
        0 => Location::rack(rack),
        1 => Location::midplane(rack, mid),
        2 => Location::node_board(rack, mid, board),
        _ => Location::compute_card(
            rack,
            mid,
            board,
            rng.gen_range(0..machine.cards_per_board()) as u8,
        ),
    }
}

/// A random location within a job's block (for job-linked events).
fn location_in_block<R: Rng + ?Sized>(
    job: &ScheduledJob,
    machine: &Machine,
    rng: &mut R,
) -> Location {
    let linear = rng.gen_range(job.block.start()..job.block.end());
    let mid = machine.midplane_from_linear(linear);
    let rack = mid.rack_index();
    let m = mid.midplane_index().expect("midplane location");
    let board = rng.gen_range(0..machine.boards_per_midplane()) as u8;
    if rng.gen::<f64>() < 0.5 {
        Location::node_board(rack, m, board)
    } else {
        Location::compute_card(
            rack,
            m,
            board,
            rng.gen_range(0..machine.cards_per_board()) as u8,
        )
    }
}

/// Emits the storm (and precursors) for one incident.
pub fn storm_records<R: Rng + ?Sized>(
    config: &SimConfig,
    incident: &Incident,
    rng: &mut R,
    out: &mut Vec<RasRecord>,
) {
    let machine = &config.machine;
    let family = incident.message_family();
    // Storm size: lognormal with the configured mean, capped.
    let size_dist = Dist::lognormal((config.storm_mean_events.max(1.5)).ln() - 0.5, 1.0)
        .expect("valid storm-size parameters");
    let n = (size_dist.sample(rng).round() as u32).clamp(1, 400);
    // The primary symptom dominates the storm; secondaries mix in.
    let primary = rng.gen_range(0..family.len());
    let mut t = incident.time;
    for i in 0..n {
        let entry = if rng.gen::<f64>() < 0.7 {
            &family[primary]
        } else {
            &family[rng.gen_range(0..family.len())]
        };
        let loc = if i == 0 {
            incident.root
        } else {
            refine(&incident.root, machine, rng)
        };
        out.push(record(
            entry,
            t,
            loc,
            rng.gen_range(0..64),
            1 + poisson(rng, 0.3),
        ));
        // Exponential inter-record gaps, mean 20 s: a storm spans seconds
        // to a few minutes.
        let gap = (-rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * 20.0).ceil() as i64;
        t += Span::from_secs(gap.max(1));
    }
    // Precursor warnings in the preceding two hours (half the incidents).
    if rng.gen::<f64>() < 0.5 {
        let k = 1 + poisson(rng, 3.0);
        let warn = WARN_HARDWARE
            .iter()
            .find(|e| e.category == incident.category)
            .unwrap_or(&WARN_HARDWARE[0]);
        for _ in 0..k {
            let back = rng.gen_range(60..7_200);
            out.push(record(
                warn,
                incident.time - Span::from_secs(back),
                refine(&incident.root, machine, rng),
                rng.gen_range(0..64),
                1 + poisson(rng, 1.0),
            ));
        }
    }
}

/// Emits the job-linked events for one scheduled job.
pub fn job_records<R: Rng + ?Sized>(
    config: &SimConfig,
    job: &ScheduledJob,
    rng: &mut R,
    out: &mut Vec<RasRecord>,
) {
    let machine = &config.machine;
    let runtime_s = (job.ended_at - job.started_at).as_secs().max(1);
    let node_hours = f64::from(job.spec.nodes()) * runtime_s as f64 / 3_600.0;
    let mean_events = (config.job_events_per_knh * node_hours / 1_000.0).min(60.0);
    let n = poisson(rng, mean_events);
    for _ in 0..n {
        let entry = &INFO_JOB[rng.gen_range(0..INFO_JOB.len())];
        let offset = rng.gen_range(0..runtime_s);
        out.push(record(
            entry,
            job.started_at + Span::from_secs(offset),
            location_in_block(job, machine, rng),
            rng.gen_range(0..1024),
            1,
        ));
    }
    // Abnormal user exits leave a short diagnostic trail at end time.
    let user_bug = job.exit_code != 0
        && job.exit_code != crate::catalog::exit_code::SYSTEM_KILL
        && job.exit_code != crate::catalog::exit_code::WALLTIME;
    if user_bug {
        let k = 2 + poisson(rng, 2.0);
        let signal = (job.exit_code - 128).clamp(1, 31) as u32;
        for _ in 0..k {
            let entry = &WARN_PROCESS[rng.gen_range(0..WARN_PROCESS.len())];
            let jitter = rng.gen_range(0..30);
            out.push(record(
                entry,
                job.ended_at + Span::from_secs(jitter),
                location_in_block(job, machine, rng),
                signal,
                1,
            ));
        }
    }
}

/// Emits machine-wide background monitoring noise for the whole horizon.
pub fn background_records<R: Rng + ?Sized>(
    config: &SimConfig,
    rng: &mut R,
    out: &mut Vec<RasRecord>,
) {
    let machine = &config.machine;
    let horizon_s = i64::from(config.days) * 86_400;
    let n_info = poisson(rng, config.background_info_per_day * f64::from(config.days));
    for _ in 0..n_info {
        let entry = &INFO_BACKGROUND[rng.gen_range(0..INFO_BACKGROUND.len())];
        out.push(record(
            entry,
            config.origin + Span::from_secs(rng.gen_range(0..horizon_s)),
            random_location(machine, rng),
            rng.gen_range(0..256),
            1,
        ));
    }
    let n_warn = poisson(rng, config.background_warn_per_day * f64::from(config.days));
    for _ in 0..n_warn {
        let entry = &WARN_HARDWARE[rng.gen_range(0..WARN_HARDWARE.len())];
        out.push(record(
            entry,
            config.origin + Span::from_secs(rng.gen_range(0..horizon_s)),
            random_location(machine, rng),
            rng.gen_range(0..64),
            1 + poisson(rng, 0.5),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ras::{Category, Severity};
    use bgq_model::Block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::incidents::IncidentScope;

    use crate::workload::{JobSpec, PlannedOutcome};

    fn test_job(exit_code: i32) -> ScheduledJob {
        ScheduledJob {
            spec_idx: 0,
            spec: JobSpec {
                queued_at: Timestamp::from_secs(0),
                user_idx: 0,
                midplanes: 4,
                mode: Default::default(),
                walltime_s: 7_200,
                num_tasks: 1,
                arrival_seq: 0,
                attempt: 0,
                resubmit_of: None,
                queue: Default::default(),
                outcome: PlannedOutcome::Success { runtime_s: 3_600 },
            },
            started_at: Timestamp::from_secs(1_000),
            ended_at: Timestamp::from_secs(4_600),
            block: Block::new(8, 4).unwrap(),
            exit_code,
            killed_by: None,
        }
    }

    #[test]
    fn storm_stays_on_incident_hardware() {
        let cfg = SimConfig::small(10);
        let mut rng = StdRng::seed_from_u64(1);
        let inc = Incident {
            time: Timestamp::from_secs(5_000),
            root: Location::node_board(3, 1, 7),
            category: Category::Ddr,
            on_lemon: true,
            scope: IncidentScope::Board,
            group: 0,
        };
        let mut out = Vec::new();
        storm_records(&cfg, &inc, &mut rng, &mut out);
        assert!(!out.is_empty());
        let fatals: Vec<_> = out
            .iter()
            .filter(|r| r.severity == Severity::Fatal)
            .collect();
        assert!(!fatals.is_empty());
        // First fatal is at the incident time and root.
        assert_eq!(fatals[0].event_time, inc.time);
        assert_eq!(fatals[0].location, inc.root);
        for f in &fatals {
            assert!(
                inc.root.contains(&f.location),
                "storm record escaped the root: {}",
                f.location
            );
            assert_eq!(f.category, Category::Ddr);
            assert!(f.event_time >= inc.time);
        }
        // Precursors (if any) are WARN and strictly before.
        for w in out.iter().filter(|r| r.severity == Severity::Warn) {
            assert!(w.event_time < inc.time);
        }
    }

    #[test]
    fn job_events_stay_in_block_and_window() {
        let cfg = SimConfig::small(10);
        let mut rng = StdRng::seed_from_u64(2);
        let job = test_job(0);
        let mut out = Vec::new();
        job_records(&cfg, &job, &mut rng, &mut out);
        for r in &out {
            assert!(job.block.contains(&r.location), "event off-block");
            assert!(
                r.event_time >= job.started_at && r.event_time < job.ended_at + Span::from_secs(31)
            );
        }
    }

    #[test]
    fn user_bug_jobs_leave_warn_diagnostics() {
        let cfg = SimConfig::small(10);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = Vec::new();
        job_records(&cfg, &test_job(139), &mut rng, &mut out);
        let warns = out.iter().filter(|r| r.severity == Severity::Warn).count();
        assert!(warns >= 2, "expected diagnostics, got {warns}");

        let mut out_ok = Vec::new();
        job_records(&cfg, &test_job(0), &mut rng, &mut out_ok);
        assert!(out_ok.iter().all(|r| r.severity == Severity::Info));
    }

    #[test]
    fn background_volume_tracks_config() {
        let cfg = SimConfig::small(30);
        let mut rng = StdRng::seed_from_u64(4);
        let mut out = Vec::new();
        background_records(&cfg, &mut rng, &mut out);
        let expected = (cfg.background_info_per_day + cfg.background_warn_per_day) * 30.0;
        let got = out.len() as f64;
        assert!(
            (got - expected).abs() < expected * 0.1,
            "got {got}, want ≈ {expected}"
        );
        assert!(out.iter().all(|r| r.severity != Severity::Fatal));
    }

    #[test]
    fn poisson_mean_is_right() {
        let mut rng = StdRng::seed_from_u64(5);
        for &mean in &[0.5f64, 3.0, 30.0, 100.0] {
            let n = 3_000;
            let total: f64 = (0..n).map(|_| f64::from(poisson(&mut rng, mean))).sum();
            let got = total / n as f64;
            assert!(
                (got - mean).abs() < mean * 0.1 + 0.1,
                "mean {mean}: got {got}"
            );
        }
        assert_eq!(poisson(&mut rng, 0.0), 0);
    }
}
