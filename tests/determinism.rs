//! Parallel/sequential determinism regression.
//!
//! `bgq-par`'s one hard promise: running the full analysis on many
//! threads produces **bit-identical** results to the sequential path.
//! `bgq_par::with_max_threads(1, ..)` forces every combinator inline, so
//! one binary can compare both code paths directly — no tolerance, field
//! by field.

use bgq_core::analysis::Analysis;
use bgq_core::index::DatasetIndex;
use bgq_model::Severity;
use bgq_sim::{generate, SimConfig};

#[test]
fn parallel_analysis_is_bit_identical_to_sequential() {
    let out = generate(&SimConfig::small(10).with_seed(7));
    // Force 8 workers so the comparison is meaningful even on hosts with
    // few cores (the combinators honor the override beyond the hardware
    // count).
    let par = bgq_par::with_max_threads(8, || Analysis::run(&out.dataset));
    let seq = bgq_par::with_max_threads(1, || Analysis::run(&out.dataset));

    // Field-by-field, zero tolerance. PartialEq fields compare directly;
    // the few structs without Eq/PartialEq compare via their Debug
    // rendering, which prints every f64 bit-exactly.
    assert_eq!(par.totals, seq.totals);
    assert_eq!(par.size_mix, seq.size_mix);
    assert_eq!(par.per_user, seq.per_user);
    assert_eq!(par.per_project, seq.per_project);
    assert_eq!(par.class_breakdown, seq.class_breakdown);
    assert_eq!(par.user_caused_share, seq.user_caused_share);
    assert_eq!(par.rate_by_scale, seq.rate_by_scale);
    assert_eq!(par.rate_by_tasks, seq.rate_by_tasks);
    assert_eq!(par.rate_by_core_hours, seq.rate_by_core_hours);
    assert_eq!(
        par.rate_by_consumed_core_hours,
        seq.rate_by_consumed_core_hours
    );
    assert_eq!(
        format!("{:?}", par.class_fits),
        format!("{:?}", seq.class_fits)
    );
    assert_eq!(par.ras, seq.ras);
    assert_eq!(par.user_events, seq.user_events);
    assert_eq!(par.locality_boards, seq.locality_boards);
    assert_eq!(par.locality_racks, seq.locality_racks);
    assert_eq!(par.filter, seq.filter);
    assert_eq!(par.interruptions, seq.interruptions);
    assert_eq!(par.submissions_profile, seq.submissions_profile);
    assert_eq!(par.failures_profile, seq.failures_profile);
    assert_eq!(
        format!("{:?}", par.interval_fit),
        format!("{:?}", seq.interval_fit)
    );
    assert_eq!(format!("{:?}", par.io), format!("{:?}", seq.io));
    assert_eq!(par.lifetime, seq.lifetime);
    assert_eq!(
        format!("{:?}", par.prediction),
        format!("{:?}", seq.prediction)
    );
    assert_eq!(
        format!("{:?}", par.waits_by_size),
        format!("{:?}", seq.waits_by_size)
    );
    assert_eq!(
        format!("{:?}", par.waits_by_queue),
        format!("{:?}", seq.waits_by_queue)
    );
    assert_eq!(par.mean_utilization, seq.mean_utilization);

    // And the whole struct at once, in case a field is ever added
    // without extending the list above.
    assert_eq!(format!("{par:?}"), format!("{seq:?}"));
}

/// The million-user layer's promise: columnar per-user aggregation and
/// retry-chain mining are bit-identical across thread counts *and*
/// across partition layouts. The input is a lineage-bearing log from the
/// population-scale emitter, so real retry chains are on the table.
#[test]
fn columnar_and_chain_mining_are_bit_identical() {
    use bgq_core::chains::mine_chains;
    use bgq_core::columnar::{per_entity_columnar, DEFAULT_CHUNK_ROWS};

    let jobs = bgq_sim::generate_jobs_only(
        &SimConfig::small(3)
            .with_seed(11)
            .with_users(2_000, 200)
            .with_jobs_per_day(5_000.0)
            .with_retries(0.5),
    );
    assert!(
        jobs.iter().any(|j| j.resubmit_of.is_some()),
        "need real chains"
    );

    let par = bgq_par::with_max_threads(8, || {
        (
            per_entity_columnar(&jobs, |j| j.user.raw(), DEFAULT_CHUNK_ROWS),
            per_entity_columnar(&jobs, |j| j.project.raw(), DEFAULT_CHUNK_ROWS),
            mine_chains(&jobs),
        )
    });
    let seq = bgq_par::with_max_threads(1, || {
        (
            per_entity_columnar(&jobs, |j| j.user.raw(), DEFAULT_CHUNK_ROWS),
            per_entity_columnar(&jobs, |j| j.project.raw(), DEFAULT_CHUNK_ROWS),
            mine_chains(&jobs),
        )
    });
    assert_eq!(
        par.0, seq.0,
        "per-user columnar diverged across thread counts"
    );
    assert_eq!(
        par.1, seq.1,
        "per-project columnar diverged across thread counts"
    );
    assert_eq!(par.2, seq.2, "chain mining diverged across thread counts");

    // Partition layout must not leak into results either — including
    // f64 bits, which `PartialEq` on the row type compares directly.
    for chunk_rows in [97, 1_000, 16_384] {
        let alt = bgq_par::with_max_threads(8, || {
            per_entity_columnar(&jobs, |j| j.user.raw(), chunk_rows)
        });
        assert_eq!(
            alt, seq.0,
            "chunk layout {chunk_rows} changed the aggregate"
        );
    }
}

#[test]
fn parallel_join_is_bit_identical_to_sequential() {
    let out = generate(&SimConfig::small(20).with_seed(3));
    let idx = DatasetIndex::build(&out.dataset);
    let seq_idx = DatasetIndex::build(&out.dataset);
    for sev in Severity::ALL {
        let par = idx.join(sev).pairs.clone();
        let seq = bgq_par::with_max_threads(1, || seq_idx.join(sev).pairs.clone());
        assert_eq!(par, seq, "join at {sev} diverged");
    }
}

#[test]
fn parallel_bootstrap_is_bit_identical_to_sequential() {
    use bgq_stats::bootstrap::bootstrap_ci;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data: Vec<f64> = (0..500).map(|i| f64::from(i % 37) * 1.25).collect();
    let mean = |d: &[f64]| d.iter().sum::<f64>() / d.len() as f64;
    let par = {
        let mut rng = StdRng::seed_from_u64(99);
        bootstrap_ci(&data, mean, 400, 0.95, &mut rng).unwrap()
    };
    let seq = bgq_par::with_max_threads(1, || {
        let mut rng = StdRng::seed_from_u64(99);
        bootstrap_ci(&data, mean, 400, 0.95, &mut rng).unwrap()
    });
    assert_eq!(par, seq, "bootstrap CI depends on thread schedule");
}
