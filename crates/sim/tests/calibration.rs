//! Calibration tests: a 120-day slice of the full Mira configuration must
//! land in the statistical bands the abstract reports (scaled to the
//! shorter horizon). These are the tests that keep the substitution honest
//! — if the generator drifts, the headline numbers drift with it.

use bgq_sim::catalog::exit_code;
use bgq_sim::{generate, SimConfig, SimOutput};

fn slice() -> SimOutput {
    let cfg = SimConfig {
        days: 120,
        ..SimConfig::mira_2k_days()
    };
    generate(&cfg)
}

#[test]
fn headline_calibration_bands() {
    let out = slice();
    let ds = &out.dataset;
    let days = 120.0;

    // Job volume: ≈170/day (paper: "hundreds of thousands" over 2001 days).
    let jobs_per_day = ds.jobs.len() as f64 / days;
    assert!(
        (140.0..200.0).contains(&jobs_per_day),
        "jobs/day = {jobs_per_day}"
    );

    // Failure rate: ≈26% (99,245 failures; we calibrate to ≈30% to land
    // near the paper's absolute count at the paper's job volume).
    let failures = ds.jobs.iter().filter(|j| j.exit_code != 0).count();
    let rate = failures as f64 / ds.jobs.len() as f64;
    assert!((0.20..0.40).contains(&rate), "failure rate = {rate}");

    // User-caused share of failures: ≈99.4%.
    let system = ds
        .jobs
        .iter()
        .filter(|j| j.exit_code == exit_code::SYSTEM_KILL)
        .count();
    let user_share = 1.0 - system as f64 / failures as f64;
    assert!(
        (0.985..1.0).contains(&user_share),
        "user-caused share = {user_share} ({system} system kills / {failures} failures)"
    );

    // Core-hours: paper's 32.44B over 2001 days ⇒ ≈16.2M/day; allow a wide
    // band since utilization depends on queue dynamics.
    let core_hours: f64 = ds.jobs.iter().map(|j| j.core_hours()).sum();
    let per_day = core_hours / days;
    assert!(
        (10.0e6..18.9e6).contains(&per_day),
        "core-hours/day = {per_day:.3e}"
    );

    // MTTI from the job perspective (time between system kills): ≈3.5 days.
    assert!(system >= 2, "need at least two interruptions in 120 days");
    let mtti = days / system as f64;
    assert!((1.5..7.0).contains(&mtti), "MTTI = {mtti} days");
}

#[test]
fn ras_volume_and_mix() {
    use bgq_model::Severity;
    let out = slice();
    let ras = &out.dataset.ras;
    let info = ras.iter().filter(|r| r.severity == Severity::Info).count();
    let warn = ras.iter().filter(|r| r.severity == Severity::Warn).count();
    let fatal = ras.iter().filter(|r| r.severity == Severity::Fatal).count();
    // INFO ≫ WARN ≫ FATAL, and fatal records come in storms (far more
    // records than incidents).
    assert!(
        info > warn && warn > fatal,
        "mix info={info} warn={warn} fatal={fatal}"
    );
    assert!(fatal as f64 > out.truth.incidents.len() as f64 * 3.0);
}

#[test]
fn failure_rate_grows_with_scale() {
    let out = slice();
    let mut small = (0usize, 0usize); // (failed, total) for <= 1k nodes
    let mut large = (0usize, 0usize); // for >= 8k nodes
    for j in &out.dataset.jobs {
        if j.nodes <= 1024 {
            small.1 += 1;
            small.0 += usize::from(j.exit_code != 0);
        } else if j.nodes >= 8192 {
            large.1 += 1;
            large.0 += usize::from(j.exit_code != 0);
        }
    }
    let rs = small.0 as f64 / small.1 as f64;
    let rl = large.0 as f64 / large.1 as f64;
    assert!(
        rl > rs,
        "failure rate should grow with scale: small {rs}, large {rl}"
    );
}
