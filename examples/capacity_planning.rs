//! Scenario: reliability what-if analysis.
//!
//! A facility deciding whether to invest in better hardware screening
//! (fewer faults) or user training (fewer bugs) can sweep the two levers
//! and compare the wasted core-hours. This example runs the simulator at
//! several settings of each lever and characterizes the outcomes with the
//! same analysis pipeline the paper uses.
//!
//! ```text
//! cargo run --release --example capacity_planning
//! ```

use mira_failures::core::analysis::Analysis;
use mira_failures::core::exitcode::ExitClass;
use mira_failures::core::report::{percent, Align, Table};
use mira_failures::sim::{generate, SimConfig};

/// Wasted core-hours: everything consumed by jobs that did not succeed.
fn wasted_core_hours(ds: &mira_failures::logs::store::Dataset) -> f64 {
    ds.jobs
        .iter()
        .filter(|j| j.exit_code != 0)
        .map(|j| j.core_hours())
        .sum()
}

fn main() {
    const DAYS: u32 = 45;
    let mut table = Table::new(
        vec![
            "scenario".into(),
            "failure rate".into(),
            "wasted core-h".into(),
            "waste share".into(),
            "MTTI (days)".into(),
            "system kills".into(),
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );

    let scenarios: Vec<(String, SimConfig)> = vec![
        ("baseline".into(), SimConfig::small(DAYS).with_seed(5)),
        (
            "user training (-30% bugs)".into(),
            SimConfig::small(DAYS).with_seed(5).with_failure_scale(0.7),
        ),
        (
            "user training (-60% bugs)".into(),
            SimConfig::small(DAYS).with_seed(5).with_failure_scale(0.4),
        ),
        (
            "hw screening (2x MTBF)".into(),
            SimConfig::small(DAYS)
                .with_seed(5)
                .with_incident_gap_days(3.0),
        ),
        (
            "worse hw (0.5x MTBF)".into(),
            SimConfig::small(DAYS)
                .with_seed(5)
                .with_incident_gap_days(0.75),
        ),
    ];

    for (name, cfg) in scenarios {
        let out = generate(&cfg);
        let a = Analysis::run(&out.dataset);
        let totals = a.totals.as_ref().expect("nonempty");
        let wasted = wasted_core_hours(&out.dataset);
        let kills = a
            .class_breakdown
            .get(&ExitClass::SystemKill)
            .copied()
            .unwrap_or(0);
        table.row(vec![
            name,
            percent(totals.failed_jobs as f64 / totals.jobs as f64),
            format!("{wasted:.2e}"),
            percent(wasted / totals.core_hours),
            a.interruptions
                .mtti_days
                .map(|d| format!("{d:.1}"))
                .unwrap_or_else(|| "-".into()),
            kills.to_string(),
        ]);
    }

    println!("Reliability what-if sweep ({DAYS}-day traces, same seed)");
    println!();
    print!("{}", table.render());
    println!();
    println!(
        "Reading: user-behavior levers move the waste share far more than \
         hardware levers — the paper's 99.4%-user-caused finding in action."
    );
}
