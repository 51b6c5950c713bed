//! Property tests for the analysis toolkit: conservation laws and
//! monotonicity of the filtering funnel under arbitrary event streams.

use bgq_core::exitcode::ExitClass;
use bgq_core::failure_rates::{by_scale, by_tasks};
use bgq_core::filtering::{filter_events, FilterConfig};
use bgq_core::index::DatasetIndex;
use bgq_core::jobstats::class_breakdown_indexed;
use bgq_core::locality::{locality_map_indexed, Level};
use bgq_logs::store::Dataset;
use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
use bgq_model::job::{Mode, Queue};
use bgq_model::ras::{Category, Component, MsgId, Severity};
use bgq_model::{Block, JobRecord, Location, RasRecord, Span, Timestamp};
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
    fn rate_curves_conserve_jobs_and_failures(jobs in proptest::collection::vec(arb_job(), 0..100)) {
        for curve in [by_scale(&jobs), by_tasks(&jobs)] {
            let total: usize = curve.buckets.iter().map(|b| b.jobs).sum();
            let failed: usize = curve.buckets.iter().map(|b| b.failed).sum();
            prop_assert_eq!(total, jobs.len());
            prop_assert_eq!(failed, jobs.iter().filter(|j| j.exit_code != 0).count());
            for b in &curve.buckets {
                prop_assert!(b.failed <= b.jobs);
                prop_assert!((0.0..=1.0).contains(&b.rate()));
            }
        }
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
