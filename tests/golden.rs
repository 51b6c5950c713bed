//! Golden snapshot of the headline analysis numbers.
//!
//! A fixed-seed 30-day simulated trace must reproduce the committed
//! fixture *byte for byte* in debug and release builds alike. Any drift
//! — a changed constant, a reordered reduction, a float reassociation —
//! fails this test before it can silently shift the paper-facing numbers.
//!
//! When a change is *meant* to move the numbers, regenerate with:
//!
//! ```text
//! BGQ_UPDATE_GOLDEN=1 cargo test --test golden
//! ```
//!
//! and commit the fixture diff alongside the code that caused it.

use std::fmt::Write as _;

use bgq_core::analysis::Analysis;
use bgq_sim::{generate, SimConfig};

const DAYS: u32 = 30;
const SEED: u64 = 1;
const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_analysis.json"
);

/// An `f64` as a JSON number. Rust's shortest-roundtrip `Display` is
/// deterministic for identical bits, so byte equality here *is* bit
/// equality of the underlying float.
fn num(x: f64) -> String {
    x.to_string()
}

fn opt_num(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_owned(), num)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the headline fields of the fixed-seed analysis as pretty,
/// key-ordered JSON. Only *headline* fields: the scalar totals and the
/// small tables a reader would quote from the paper, not every nested
/// vector (those are covered by the oracle and chaos harnesses).
fn snapshot() -> String {
    let ds = generate(&SimConfig::small(DAYS).with_seed(SEED)).dataset;
    let a = Analysis::run(&ds);
    let t = a
        .totals
        .as_ref()
        .expect("fixed-seed trace must be non-empty");

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"config\": {{\"days\": {DAYS}, \"seed\": {SEED}}},");

    let _ = writeln!(
        s,
        "  \"totals\": {{\"jobs\": {}, \"failed_jobs\": {}, \"users\": {}, \"projects\": {}, \
         \"core_hours\": {}, \"span_start_s\": {}, \"span_end_s\": {}}},",
        t.jobs,
        t.failed_jobs,
        t.users,
        t.projects,
        num(t.core_hours),
        t.span_start.as_secs(),
        t.span_end.as_secs(),
    );

    s.push_str("  \"class_breakdown\": {");
    let mut first = true;
    for (class, count) in &a.class_breakdown {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "{}: {count}", json_str(&class.to_string()));
    }
    s.push_str("},\n");
    let _ = writeln!(
        s,
        "  \"user_caused_share\": {},",
        opt_num(a.user_caused_share)
    );

    s.push_str("  \"rate_by_scale\": [\n");
    for (i, b) in a.rate_by_scale.buckets.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"label\": {}, \"jobs\": {}, \"failed\": {}}}{}",
            json_str(&b.label),
            b.jobs,
            b.failed,
            if i + 1 < a.rate_by_scale.buckets.len() {
                ","
            } else {
                ""
            },
        );
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"scale_spearman_rho\": {},",
        opt_num(a.rate_by_scale.spearman_rho)
    );

    s.push_str("  \"ras_by_severity\": {");
    let mut first = true;
    for (sev, count) in &a.ras.by_severity {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(s, "{}: {count}", json_str(&format!("{sev:?}")));
    }
    s.push_str("},\n");

    let _ = writeln!(
        s,
        "  \"filter\": {{\"raw_fatal\": {}, \"after_temporal\": {}, \"after_spatial\": {}, \
         \"after_similarity\": {}}},",
        a.filter.raw_fatal,
        a.filter.after_temporal,
        a.filter.after_spatial,
        a.filter.after_similarity,
    );
    let _ = writeln!(
        s,
        "  \"interruptions\": {{\"interrupted_jobs\": {}, \"mtti_days\": {}}},",
        a.interruptions.interrupted_jobs,
        opt_num(a.interruptions.mtti_days),
    );
    let _ = writeln!(
        s,
        "  \"prediction\": {{\"alarms\": {}, \"true_alarms\": {}, \"predicted_incidents\": {}, \
         \"total_incidents\": {}, \"mean_lead_s\": {}}},",
        a.prediction.alarms.len(),
        a.prediction.true_alarms,
        a.prediction.predicted_incidents,
        a.prediction.total_incidents,
        opt_num(a.prediction.mean_lead_s),
    );
    let _ = writeln!(s, "  \"mean_utilization\": {}", opt_num(a.mean_utilization));
    s.push_str("}\n");
    s
}

#[test]
fn golden_headline_fields_match_the_committed_fixture() {
    let got = snapshot();
    if std::env::var_os("BGQ_UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(FIXTURE);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, &got).unwrap();
        bgq_obs::info!("golden fixture rewritten: {FIXTURE}");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {FIXTURE}: {e}\n\
             regenerate with: BGQ_UPDATE_GOLDEN=1 cargo test --test golden"
        )
    });
    if got != want {
        let diff_line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || "line counts differ".to_owned(),
                |i| {
                    format!(
                        "first difference at line {}:\n  fixture: {}\n  actual:  {}",
                        i + 1,
                        want.lines().nth(i).unwrap_or(""),
                        got.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "golden analysis snapshot drifted from {FIXTURE}\n{diff_line}\n\
             if the change is intentional, regenerate with:\n  \
             BGQ_UPDATE_GOLDEN=1 cargo test --test golden\n\
             and commit the fixture diff with the code change"
        );
    }
}

#[test]
fn golden_snapshot_is_deterministic_within_a_process() {
    assert_eq!(snapshot(), snapshot());
}
