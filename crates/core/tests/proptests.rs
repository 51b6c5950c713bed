//! Property tests for the analysis toolkit: conservation laws and
//! monotonicity of the filtering funnel under arbitrary event streams.

use bgq_core::exitcode::ExitClass;
use bgq_core::failure_rates::{
    by_consumed_core_hours, by_core_hours, by_scale, by_tasks, RateCurve,
};
use bgq_core::filtering::{filter_events, FilterConfig};
use bgq_core::index::DatasetIndex;
use bgq_core::jobstats::class_breakdown_indexed;
use bgq_core::locality::{locality_map_indexed, Level};
use bgq_logs::store::Dataset;
use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
use bgq_model::job::{Mode, Queue};
use bgq_model::ras::{Category, Component, MsgId, Severity};
use bgq_model::{Block, JobRecord, Location, RasRecord, Span, Timestamp};
use bgq_stats::correlation::spearman;
use proptest::prelude::*;

fn arb_severity() -> impl Strategy<Value = Severity> {
    prop_oneof![
        Just(Severity::Info),
        Just(Severity::Warn),
        Just(Severity::Fatal),
    ]
}

fn arb_location() -> impl Strategy<Value = Location> {
    (0u8..48, 0u8..2, 0u8..16, 0u8..4).prop_map(|(r, m, n, g)| match g {
        0 => Location::rack(r),
        1 => Location::midplane(r, m),
        _ => Location::node_board(r, m, n),
    })
}

prop_compose! {
    fn arb_ras()(
        t in 0i64..2_000_000,
        sev in arb_severity(),
        loc in arb_location(),
        msg in 0u32..8,
        word in 0usize..4,
    ) -> RasRecord {
        const WORDS: [&str; 4] = [
            "ddr uncorrectable error",
            "link retrain limit exceeded",
            "coolant flow low",
            "machine check",
        ];
        RasRecord {
            rec_id: RecId::new(t as u64),
            msg_id: MsgId::new(msg << 16 | 1),
            severity: sev,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: loc,
            message: WORDS[word].into(),
            count: 1,
        }
    }
}

prop_compose! {
    fn arb_job()(
        id in 1u64..100_000,
        user in 0u32..40,
        start in 0i64..1_000_000,
        runtime in 1i64..100_000,
        midplanes_pow in 0u32..5,
        first in 0u16..80,
        exit_pick in 0usize..9,
        tasks in 1u32..10,
    ) -> JobRecord {
        const EXITS: [i32; 9] = [0, 0, 0, 1, 2, 134, 137, 139, 75];
        let len = (1u16 << midplanes_pow).min(96 - first);
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(user),
            project: ProjectId::new(user % 7),
            queue: Queue::Production,
            nodes: u32::from(len) * 512,
            mode: Mode::default(),
            requested_walltime_s: (runtime as u32).max(1_800),
            queued_at: Timestamp::from_secs(start - 10),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(start + runtime),
            block: Block::new(first, len).expect("within machine"),
            exit_code: EXITS[exit_pick],
            num_tasks: tasks,
            resubmit_of: None,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filter_funnel_invariants(mut ras in proptest::collection::vec(arb_ras(), 0..200)) {
        ras.sort_by_key(|r| (r.event_time, r.rec_id));
        let out = filter_events(&ras, &FilterConfig::default());
        let fatal = ras.iter().filter(|r| r.severity == Severity::Fatal).count();
        prop_assert_eq!(out.raw_fatal, fatal);
        prop_assert!(out.after_temporal <= out.raw_fatal.max(1));
        prop_assert!(out.after_spatial >= out.after_temporal);
        prop_assert!(out.after_similarity <= out.after_spatial);
        prop_assert_eq!(out.after_similarity, out.incidents.len());

        // Every fatal record lands in exactly one incident.
        let mut assigned: Vec<usize> = out
            .incidents
            .iter()
            .flat_map(|i| i.events.iter().copied())
            .collect();
        assigned.sort_unstable();
        let expected: Vec<usize> = ras
            .iter()
            .enumerate()
            .filter(|(_, r)| r.severity == Severity::Fatal)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(assigned, expected);

        // Incident time bounds are consistent.
        for inc in &out.incidents {
            prop_assert!(inc.start <= inc.end);
        }
    }

    #[test]
    fn widening_the_temporal_gap_never_increases_clusters(
        mut ras in proptest::collection::vec(arb_ras(), 0..150),
        gap_a in 1i64..60,
        gap_b in 1i64..60,
    ) {
        ras.sort_by_key(|r| (r.event_time, r.rec_id));
        let (narrow, wide) = if gap_a <= gap_b { (gap_a, gap_b) } else { (gap_b, gap_a) };
        let mk = |mins: i64| FilterConfig {
            temporal_gap: Span::from_mins(mins),
            ..FilterConfig::default()
        };
        let n = filter_events(&ras, &mk(narrow)).after_temporal;
        let w = filter_events(&ras, &mk(wide)).after_temporal;
        prop_assert!(w <= n, "gap {narrow} -> {n}, gap {wide} -> {w}");
    }

    #[test]
    fn class_breakdown_conserves_jobs(jobs in proptest::collection::vec(arb_job(), 0..100)) {
        let ds = Dataset { jobs, ..Dataset::new() };
        let breakdown = class_breakdown_indexed(&DatasetIndex::build(&ds));
        let total: usize = breakdown.values().sum();
        prop_assert_eq!(total, ds.jobs.len());
        // Every class is consistent with its exit codes.
        for j in &ds.jobs {
            let class = ExitClass::from_exit_code(j.exit_code);
            prop_assert!(breakdown[&class] >= 1);
        }
    }

    #[test]
    fn rate_curves_conserve_jobs_and_failures(
        mut jobs in proptest::collection::vec(arb_job(), 0..100),
        ties in 0usize..3,
    ) {
        tie_attributes(&mut jobs, ties);
        check_rate_curves(&jobs);
        check_rate_curves(&[]);
    }

    #[test]
    fn locality_shares_are_monotone_in_k(mut ras in proptest::collection::vec(arb_ras(), 0..150)) {
        ras.sort_by_key(|r| (r.event_time, r.rec_id));
        let ds = Dataset { ras, ..Dataset::new() };
        let map = locality_map_indexed(&DatasetIndex::build(&ds), Severity::Fatal, Level::Rack);
        let mut prev = 0.0;
        for k in 1..=10 {
            let share = map.top_k_share(k);
            prop_assert!(share + 1e-12 >= prev);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&share));
            prev = share;
        }
        let total: usize = map.counts.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(total, map.total);
    }
}

/// Collapses the curve attributes of `jobs`: `ties` 0 keeps them, 1
/// leaves two values of each (heavy ties), 2 makes each one constant.
fn tie_attributes(jobs: &mut [JobRecord], ties: usize) {
    for j in jobs.iter_mut() {
        let pick = match ties {
            0 => return,
            1 => u32::from(j.job_id.raw() % 2 == 0),
            _ => 0,
        };
        j.nodes = 512 << pick;
        j.num_tasks = 1 + 4 * pick;
        j.requested_walltime_s = 1_800 << pick;
        j.ended_at = j.started_at + Span::from_secs(3_000 << pick);
    }
}

/// A curve's per-job attribute and bucket label, recomputed here.
type Oracle = (fn(&JobRecord) -> f64, fn(f64) -> String);

fn decade(x: f64) -> String {
    format!("1e{}", x.log10().floor() as i32)
}

/// Checks the four rate curves over `jobs` against a per-job recount:
/// every bucket's counts, and ρ bit for bit against
/// [`spearman`] over the per-job `(attribute, failed)` vectors.
fn check_rate_curves(jobs: &[JobRecord]) {
    let curves: [(&str, RateCurve, Oracle); 4] = [
        (
            "scale",
            by_scale(jobs),
            (
                |j| f64::from(j.nodes),
                |x| (x as u64).max(1).next_power_of_two().to_string(),
            ),
        ),
        (
            "tasks",
            by_tasks(jobs),
            (
                |j| f64::from(j.num_tasks),
                |x| match x as u64 {
                    0 | 1 => "1".into(),
                    2 => "2".into(),
                    3 => "3".into(),
                    4..=7 => "4-7".into(),
                    _ => "8+".into(),
                },
            ),
        ),
        (
            "core-hours",
            by_core_hours(jobs),
            (
                |j| {
                    (f64::from(j.nodes) * 16.0 * f64::from(j.requested_walltime_s) / 3_600.0)
                        .max(1.0)
                },
                decade,
            ),
        ),
        (
            "consumed",
            by_consumed_core_hours(jobs),
            (|j| j.core_hours().max(1.0), decade),
        ),
    ];
    for (name, curve, (attribute, label)) in curves {
        let xs: Vec<f64> = jobs.iter().map(attribute).collect();
        let ys: Vec<f64> = jobs
            .iter()
            .map(|j| f64::from(u8::from(j.exit_code != 0)))
            .collect();
        prop_assert_eq!(
            curve.spearman_rho.map(f64::to_bits),
            spearman(&xs, &ys).map(f64::to_bits),
            "{} rho {:?}",
            name,
            curve.spearman_rho
        );
        let mut recount: std::collections::BTreeMap<String, (usize, usize)> = Default::default();
        for (x, j) in xs.iter().zip(jobs) {
            let e = recount.entry(label(*x)).or_default();
            e.0 += 1;
            e.1 += usize::from(j.exit_code != 0);
        }
        prop_assert_eq!(curve.buckets.len(), recount.len(), "{} buckets", name);
        for b in &curve.buckets {
            prop_assert_eq!(
                Some(&(b.jobs, b.failed)),
                recount.get(&b.label),
                "{} {}",
                name,
                &b.label
            );
            prop_assert!((0.0..=1.0).contains(&b.rate()));
        }
        prop_assert!(
            curve.buckets.windows(2).all(|w| w[0].lo < w[1].lo),
            "{} order",
            name
        );
    }
}
