//! `archive`: the analyst's batch pass. The full trace is written as a
//! CSV archive, imported into a snapshot (`setup_s`), and then `analyze`
//! and `users` run over the snapshot, alternating, each cold in its own
//! process as a user pays it.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::{children_peak_rss_mb, flush_to_disk, ms, Ctx, Outcome, SETUP_REPEATS};

/// One cold `mira-mine` invocation: its wall time and stdout, or why it
/// failed.
fn mira(ctx: &Ctx, args: &[&str], dir: &[&Path]) -> Result<(Duration, String), String> {
    let started = Instant::now();
    let out = Command::new(&ctx.mira)
        .arg("--quiet")
        .args(args)
        .args(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn mira-mine {args:?}: {e}"))?;
    let elapsed = started.elapsed();
    if !out.status.success() {
        return Err(format!("mira-mine {args:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout)
        .map(|s| (elapsed, s))
        .map_err(|_| format!("mira-mine {args:?} printed non-UTF-8"))
}

/// Writes the seed's trace as a CSV archive under `dir`.
fn write_csv_archive(ctx: &Ctx, dir: &Path) -> Result<(), String> {
    let output = bgq_sim::generate(&ctx.config(ctx.scale.archive_days()));
    output
        .dataset
        .save_dir(dir)
        .map_err(|e| format!("write CSV archive: {e}"))
}

/// Records `run`'s result under `outcome` and returns its stdout.
fn checked(
    outcome: &mut Outcome,
    run: Result<(Duration, String), String>,
    times: &mut Vec<f64>,
) -> Option<String> {
    match run {
        Ok((t, out)) => {
            outcome.op(true, String::new);
            times.push(ms(t));
            Some(out)
        }
        Err(e) => {
            outcome.op(false, || e);
            None
        }
    }
}

/// Counts one output check: every output in `outs` equals the first.
fn all_equal(outcome: &mut Outcome, what: &str, outs: &[String]) {
    let ok = !outs.is_empty() && outs.iter().all(|o| *o == outs[0]);
    outcome.op(ok, || format!("{what}: outputs differ across invocations"));
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut outcome = Outcome::default();
    let csv = ctx.work.join("csv");
    let snap = ctx.work.join("snapshot");
    if let Err(e) = write_csv_archive(ctx, &csv) {
        outcome.op(false, || e);
        return outcome;
    }
    flush_to_disk();

    let mut setup = Vec::new();
    let mut imports = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let _ = std::fs::remove_dir_all(&snap);
        let run = mira(ctx, &["import"], &[&csv, &snap]);
        imports.extend(checked(&mut outcome, run, &mut setup));
        flush_to_disk();
    }
    all_equal(&mut outcome, "import", &imports);

    let (mut analyze_ms, mut users_ms) = (Vec::new(), Vec::new());
    let (mut analyses, mut users) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.seconds;
    while Instant::now() < deadline || analyses.len() < 3 {
        let run = mira(ctx, &["analyze"], &[&snap]);
        analyses.extend(checked(&mut outcome, run, &mut analyze_ms));
        let run = mira(ctx, &["users"], &[&snap]);
        users.extend(checked(&mut outcome, run, &mut users_ms));
        if outcome.failed > 0 {
            break;
        }
    }
    all_equal(&mut outcome, "analyze", &analyses);
    all_equal(&mut outcome, "users", &users);
    let mut csv_ms = Vec::new();
    let run = mira(ctx, &["analyze"], &[&csv]);
    if let Some(from_csv) = checked(&mut outcome, run, &mut csv_ms) {
        let same = analyses.first() == Some(&from_csv);
        outcome.op(same, || {
            "analyze over the snapshot differs from analyze over the CSV archive".into()
        });
    }

    let setup_s: Vec<f64> = setup.iter().map(|ms| ms / 1e3).collect();
    outcome.quantile_metric("setup_s", &setup_s, 0.5, "s");
    outcome.quantile_metric("result_p50_ms", &analyze_ms, 0.5, "ms");
    outcome.quantile_metric("result_p90_ms", &analyze_ms, 0.9, "ms");
    outcome.quantile_metric("followup_p50_ms", &users_ms, 0.5, "ms");
    outcome.metric(
        "peak_rss_mb",
        children_peak_rss_mb(),
        "MB",
        outcome.attempted as usize,
    );
    outcome
}
