//! End-to-end validation: the analysis pipeline, fed only the generated
//! logs, must recover the simulator's ground truth — user-caused share,
//! per-exit-code distribution families, incident count and MTBF, lemon
//! boards, and the MTTI headline. This closes the loop that justifies the
//! synthetic-substrate substitution.

use bgq_core::analysis::Analysis;
use bgq_core::exitcode::ExitClass;
use bgq_core::filtering::effective_incidents;
use bgq_core::index::DatasetIndex;
use bgq_core::locality::{locality_map_indexed, Level};
use bgq_model::Severity;
use bgq_sim::{generate, SimConfig, SimOutput};
use bgq_stats::dist::DistKind;

/// One shared 300-day full-machine trace for all tests in this file.
fn trace() -> &'static (SimOutput, Analysis) {
    use std::sync::OnceLock;
    static CELL: OnceLock<(SimOutput, Analysis)> = OnceLock::new();
    CELL.get_or_init(|| {
        // A 300-day slice of the full configuration. One knob is scaled
        // for the shorter horizon: fewer lemon boards, so each lemon
        // accumulates enough strikes to be detectable (the full 2001-day
        // run gives all 14 of them enough). 300 days also gives the
        // hardest family discrimination (inverse Gaussian vs lognormal)
        // a four-digit sample.
        let cfg = SimConfig {
            days: 300,
            n_lemon_boards: 4,
            ..SimConfig::mira_2k_days()
        };
        let out = generate(&cfg);
        let analysis = Analysis::run(&out.dataset);
        (out, analysis)
    })
}

#[test]
fn user_caused_share_matches_the_papers_headline() {
    let (_, a) = trace();
    let share = a.user_caused_share.expect("failures exist");
    assert!(
        share > 0.985,
        "user-caused share {share}, paper reports 99.4%"
    );
}

#[test]
fn distribution_families_recovered_per_exit_class() {
    let (out, a) = trace();
    // Ground-truth family per exit code.
    let truth: std::collections::HashMap<i32, DistKind> = out
        .truth
        .mode_dists
        .iter()
        .filter_map(|(code, d)| d.as_ref().map(|d| (*code, d.kind())))
        .collect();
    let mut checked = 0;
    for fit in &a.class_fits {
        if fit.n < 500 {
            continue; // small classes are noisy; the paper also reports only major codes
        }
        let code = match fit.class {
            ExitClass::SetupError => 1,
            ExitClass::ConfigError => 2,
            ExitClass::Abort => 134,
            ExitClass::OomKill => 137,
            ExitClass::Segfault => 139,
            other => panic!("unexpected fitted class {other}"),
        };
        let want = truth[&code];
        let got = fit.best().expect("candidates fitted").dist.kind();
        // Exponential ≡ Erlang(1) ≡ Gamma(1): accept the equivalence class.
        let exp_like = [DistKind::Exponential, DistKind::Erlang, DistKind::Gamma];
        let ok = got == want || (exp_like.contains(&want) && exp_like.contains(&got));
        assert!(
            ok,
            "class {}: recovered {got}, ground truth {want} (n={})",
            fit.class, fit.n
        );
        checked += 1;
    }
    assert!(checked >= 4, "only {checked} classes had enough samples");
}

#[test]
fn filtering_recovers_the_incident_process() {
    let (out, a) = trace();
    let truth_n = out.truth.logical_incident_count();
    let got = a.filter.after_similarity;
    assert!(truth_n > 10, "degenerate trace: {truth_n} incidents");
    // The funnel must compress storms dramatically...
    assert!(a.filter.raw_fatal as f64 > 3.0 * truth_n as f64);
    // ...and land near the true incident count.
    let ratio = got as f64 / truth_n as f64;
    assert!(
        (0.7..1.3).contains(&ratio),
        "filtered {got} vs true {truth_n} incidents"
    );
    // Stage counts are monotone in the right directions.
    assert!(a.filter.after_temporal <= a.filter.raw_fatal);
    assert!(a.filter.after_spatial >= a.filter.after_temporal);
    assert!(a.filter.after_similarity <= a.filter.after_spatial);
}

#[test]
fn filtered_mtbf_matches_true_incident_gap() {
    let (out, a) = trace();
    let truth_mtbf = out
        .truth
        .logical_incident_mtbf_days()
        .expect("many incidents");
    let got = a
        .filter
        .mtbf_days(a.filter.after_similarity)
        .expect("incidents found");
    assert!(
        (got / truth_mtbf - 1.0).abs() < 0.35,
        "filtered MTBF {got:.2} d vs true {truth_mtbf:.2} d"
    );
}

#[test]
fn mtti_counts_system_kills_exactly() {
    let (out, a) = trace();
    assert_eq!(
        a.interruptions.interrupted_jobs,
        out.truth.system_kills.len()
    );
    let mtti = a.interruptions.mtti_days.expect("interruptions exist");
    // 300 days at the calibrated incident gap with ~90% utilization lands
    // in low single-digit days — the paper reports ≈3.5 on 2001 days.
    assert!((1.0..8.0).contains(&mtti), "MTTI {mtti} days");
}

#[test]
fn effective_incidents_are_consistent_with_kills() {
    let (out, a) = trace();
    let effective = effective_incidents(&out.dataset.jobs, &out.dataset.ras, &a.filter.incidents);
    // Every system kill implies a logical failure that hit a running job;
    // the filtered incident set must show at least (roughly) that many
    // effective incidents. (Groups, not raw strikes: the filter merges
    // aftershocks by design.)
    let killing_groups = out.truth.effective_logical_incidents();
    assert!(
        effective as f64 >= killing_groups as f64 * 0.7,
        "effective {effective} vs killing groups {killing_groups}"
    );
}

#[test]
fn locality_analysis_finds_the_lemon_boards() {
    let (out, _) = trace();
    let idx = DatasetIndex::build(&out.dataset);
    let map = locality_map_indexed(&idx, Severity::Fatal, Level::Board);
    let hot = map.hot_elements(3.0);
    let lemons = &out.truth.lemon_boards;
    let found = lemons.iter().filter(|l| hot.contains(l)).count();
    assert!(
        found * 2 >= lemons.len(),
        "only {found}/{} lemon boards flagged hot (hot set: {})",
        lemons.len(),
        hot.len()
    );
    // And the fatal events are strongly concentrated overall.
    assert!(map.top_k_share(lemons.len()) > 0.3, "top-k share too low");
}

#[test]
fn failure_rate_increases_with_scale_and_tasks() {
    let (_, a) = trace();
    assert!(a.rate_by_scale.spearman_rho.expect("defined") > 0.05);
    assert!(a.rate_by_tasks.spearman_rho.expect("defined") > 0.0);
    // The bucket curves themselves trend upward end-to-end (a more stable
    // check than the point-biserial-style rank correlation).
    let b = &a.rate_by_scale.buckets;
    assert!(b.last().expect("buckets").rate() > b.first().expect("buckets").rate());
    let t = &a.rate_by_tasks.buckets;
    let rate_of = |label: &str| {
        t.iter()
            .find(|x| x.label == label)
            .map(|x| x.rate())
            .expect("bucket present")
    };
    assert!(
        rate_of("4-7") > rate_of("1"),
        "many-task jobs should fail more: {} vs {}",
        rate_of("4-7"),
        rate_of("1")
    );
}

#[test]
fn job_affecting_events_correlate_with_core_hours() {
    let (_, a) = trace();
    let r = a.user_events.pearson_core_hours.expect("defined");
    assert!(r > 0.5, "Pearson r = {r}, abstract claims high correlation");
}

#[test]
fn dataset_roundtrips_through_disk() {
    let (out, _) = trace();
    let dir = std::env::temp_dir().join(format!("mira-roundtrip-{}", std::process::id()));
    // Persist a slice to keep the test fast.
    let mut small = out.dataset.clone();
    small.jobs.truncate(2_000);
    small.ras.truncate(20_000);
    small.tasks.truncate(4_000);
    small.io.truncate(1_500);
    small.save_dir(&dir).expect("save");
    let loaded = bgq_logs::store::Dataset::load_dir(&dir).expect("load");
    assert_eq!(loaded, small);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
