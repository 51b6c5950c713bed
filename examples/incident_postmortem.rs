//! Scenario: incident post-mortem.
//!
//! After a fatal hardware event, an administrator wants the full picture:
//! the raw record storm, the filtered incident boundary, the hardware
//! element at fault, and the jobs that were killed. This example picks the
//! largest filtered incident in a trace and reconstructs exactly that.
//!
//! ```text
//! cargo run --release --example incident_postmortem
//! ```

use mira_failures::core::filtering::{filter_events, FilterConfig};
use mira_failures::logs::interval::IntervalIndex;
use mira_failures::model::{Severity, Span};
use mira_failures::sim::{generate, SimConfig};

fn main() {
    let out = generate(&SimConfig::small(60).with_seed(99));
    let ds = &out.dataset;

    let outcome = filter_events(&ds.ras, &FilterConfig::default());
    println!(
        "filter funnel: {} raw FATAL -> {} temporal -> {} spatial -> {} incidents",
        outcome.raw_fatal, outcome.after_temporal, outcome.after_spatial, outcome.after_similarity
    );
    if let Some(mtbf) = outcome.mtbf_days(outcome.after_similarity) {
        println!("filtered system MTBF: {mtbf:.2} days");
    }

    let Some(incident) = outcome.incidents.iter().max_by_key(|i| i.events.len()) else {
        println!("no fatal incidents in this trace");
        return;
    };

    println!();
    println!("== largest incident ======================================");
    println!("root element : {}", incident.root);
    println!("first record : {}", incident.start);
    println!("last record  : {}", incident.end);
    println!("storm size   : {} FATAL records", incident.events.len());
    println!("signature    : {}", incident.message);

    println!();
    println!("sample of the storm (first 8 records):");
    for &idx in incident.events.iter().take(8) {
        let r = &ds.ras[idx];
        println!(
            "  {} {} {:9} {} :: {}",
            r.event_time,
            r.msg_id,
            r.severity.name(),
            r.location,
            r.message
        );
    }

    // Which jobs were running on the failed hardware?
    let index = IntervalIndex::build(
        ds.jobs.iter().map(|j| (j.started_at, j.ended_at)),
        Span::from_hours(6),
    );
    let victims: Vec<_> = index
        .stab(incident.start)
        .into_iter()
        .filter(|&j| ds.jobs[j].block.contains(&incident.root))
        .collect();
    println!();
    if victims.is_empty() {
        println!(
            "no job was running on {} — the block was idle.",
            incident.root
        );
    } else {
        println!("jobs running on the failed hardware when the incident began:");
        for j in victims {
            let job = &ds.jobs[j];
            println!(
                "  {} user u{} on {} ({} nodes), exit code {} after {}",
                job.job_id,
                job.user.raw(),
                job.block,
                job.nodes,
                job.exit_code,
                job.runtime()
            );
        }
    }

    // Were there precursors?
    let warn_before = ds
        .ras
        .iter()
        .filter(|r| {
            r.severity == Severity::Warn
                && r.event_time < incident.start
                && incident.start - r.event_time <= Span::from_hours(2)
                && r.location.rack_location() == incident.root.rack_location()
        })
        .count();
    println!();
    println!(
        "precursor check: {warn_before} WARN records on the same rack in the \
         2 hours before the incident"
    );
}
