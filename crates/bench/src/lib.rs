//! Experiment harness: one function per table/figure of the paper.
//!
//! Each experiment renders the rows/series the paper reports, prefixed
//! with the claim it reproduces (anchored to the abstract — the body of
//! the paper is not public; see DESIGN.md). `cargo run -p bgq-bench --bin
//! experiments -- --all` regenerates everything; EXPERIMENTS.md records a
//! full run.

use std::fmt::Write as _;

use bgq_core::analysis::Analysis;
use bgq_core::exitcode::ExitClass;
use bgq_core::jobstats::Concentration;
use bgq_core::report::{group_thousands, percent, Align, Table};
use bgq_core::takeaways::takeaways;
use bgq_model::Severity;
use bgq_sim::{generate, SimConfig, SimOutput};

/// A generated trace plus its completed analysis: the input every
/// experiment consumes.
#[derive(Debug)]
pub struct ExperimentCtx {
    /// The generated trace (dataset + ground truth).
    pub output: SimOutput,
    /// The full analysis over the dataset.
    pub analysis: Analysis,
    /// The config that produced the trace.
    pub config: SimConfig,
}

impl ExperimentCtx {
    /// Generates and analyzes a trace for the given config.
    pub fn new(config: SimConfig) -> Self {
        let output = generate(&config);
        let analysis = Analysis::run(&output.dataset);
        ExperimentCtx {
            output,
            analysis,
            config,
        }
    }

    /// The default harness context: a 180-day full-machine slice (fast
    /// enough for CI, large enough for every statistic to stabilize).
    pub fn standard() -> Self {
        ExperimentCtx::new(SimConfig {
            days: 180,
            ..SimConfig::mira_2k_days()
        })
    }
}

/// All experiment ids, in order. E1–E14 reproduce the paper's evaluation;
/// E15 (lifetime evolution) and E16 (precursor prediction) cover the
/// paper's lifetime discussion and future-work direction.
pub const EXPERIMENT_IDS: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17",
];

/// Runs one experiment by id, returning its rendered report.
///
/// # Errors
///
/// Returns the list of valid ids when `id` is unknown.
pub fn run_experiment(id: &str, ctx: &ExperimentCtx) -> Result<String, String> {
    match id {
        "e1" => Ok(e1_dataset_summary(ctx)),
        "e2" => Ok(e2_size_mix(ctx)),
        "e3" => Ok(e3_concentration(ctx)),
        "e4" => Ok(e4_exit_taxonomy(ctx)),
        "e5" => Ok(e5_failure_by_scale(ctx)),
        "e6" => Ok(e6_failure_by_structure(ctx)),
        "e7" => Ok(e7_distribution_fits(ctx)),
        "e8" => Ok(e8_ras_breakdown(ctx)),
        "e9" => Ok(e9_user_correlation(ctx)),
        "e10" => Ok(e10_locality(ctx)),
        "e11" => Ok(e11_filter_funnel(ctx)),
        "e12" => Ok(e12_mtti(ctx)),
        "e13" => Ok(e13_temporal(ctx)),
        "e14" => Ok(e14_takeaways(ctx)),
        "e15" => Ok(e15_lifetime(ctx)),
        "e16" => Ok(e16_prediction(ctx)),
        "e17" => Ok(e17_queueing(ctx)),
        other => Err(format!(
            "unknown experiment {other:?}; valid ids: {}",
            EXPERIMENT_IDS.join(", ")
        )),
    }
}

fn header(id: &str, title: &str, anchor: &str) -> String {
    format!(
        "==== {} — {} ====\nreproduces: {}\n\n",
        id.to_uppercase(),
        title,
        anchor
    )
}

/// E1: dataset summary table.
pub fn e1_dataset_summary(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e1",
        "dataset summary",
        "\"2001 days of observations with a total of over 32.44 billion core-hours\" \
         and \"hundreds of thousands of jobs\"",
    );
    let ds = &ctx.output.dataset;
    let t = match &ctx.analysis.totals {
        Some(t) => t,
        None => return out + "trace is empty\n",
    };
    let mut table = Table::new(
        vec!["metric".into(), "value".into()],
        vec![Align::Left, Align::Right],
    );
    table.row(vec!["days simulated".into(), ctx.config.days.to_string()]);
    table.row(vec![
        "observed span (days)".into(),
        format!("{:.1}", t.span_days()),
    ]);
    table.row(vec!["jobs".into(), group_thousands(t.jobs as u64)]);
    table.row(vec![
        "failed jobs".into(),
        group_thousands(t.failed_jobs as u64),
    ]);
    table.row(vec!["users".into(), t.users.to_string()]);
    table.row(vec!["projects".into(), t.projects.to_string()]);
    table.row(vec!["core-hours".into(), format!("{:.4e}", t.core_hours)]);
    table.row(vec![
        "core-hours/day".into(),
        format!("{:.4e}", t.core_hours / t.span_days()),
    ]);
    table.row(vec![
        "RAS records".into(),
        group_thousands(ds.ras.len() as u64),
    ]);
    table.row(vec![
        "task records".into(),
        group_thousands(ds.tasks.len() as u64),
    ]);
    table.row(vec![
        "I/O profiles".into(),
        group_thousands(ds.io.len() as u64),
    ]);
    out += &table.render();
    let _ = writeln!(
        out,
        "\npaper scale check: 32.44e9 core-hours / 2001 days = 1.62e7 per day; measured {:.3e} per day.",
        t.core_hours / t.span_days()
    );
    out
}

/// E2: job-size mix figure.
pub fn e2_size_mix(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e2",
        "job-size distribution and core-hour share",
        "\"job execution structure (number of tasks, scale, and core-hours)\"",
    );
    let mut table = Table::new(
        vec![
            "nodes".into(),
            "jobs".into(),
            "job share".into(),
            "core-hours".into(),
            "core-hour share".into(),
        ],
        vec![
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ],
    );
    for r in &ctx.analysis.size_mix {
        table.row(vec![
            r.nodes.to_string(),
            group_thousands(r.jobs as u64),
            percent(r.job_share),
            format!("{:.3e}", r.core_hours),
            percent(r.core_hour_share),
        ]);
    }
    out += &table.render();
    out += "\nexpected shape: job count decreasing in size; core-hour share shifted toward large jobs.\n";
    out
}

/// E3: per-user / per-project concentration figure.
pub fn e3_concentration(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e3",
        "jobs, failures, and core-hours per user/project",
        "\"job failures are correlated with multiple metrics and attributes, such as users/projects\"",
    );
    let a = &ctx.analysis;
    for (what, entities) in [("users", &a.per_user), ("projects", &a.per_project)] {
        let jobs: Vec<f64> = entities.iter().map(|e| e.jobs as f64).collect();
        let failed: Vec<f64> = entities.iter().map(|e| e.failed as f64).collect();
        let ch: Vec<f64> = entities.iter().map(|e| e.core_hours).collect();
        let mut table = Table::new(
            vec![
                "metric".into(),
                "gini".into(),
                "top-5 share".into(),
                "top-decile share".into(),
            ],
            vec![Align::Left, Align::Right, Align::Right, Align::Right],
        );
        for (name, values) in [("jobs", jobs), ("failures", failed), ("core-hours", ch)] {
            if let Some(c) = Concentration::compute(&values) {
                table.row(vec![
                    name.into(),
                    format!("{:.3}", c.gini),
                    percent(c.top5_share),
                    percent(c.top_decile_share),
                ]);
            }
        }
        let _ = writeln!(out, "concentration across {} ({}):", what, entities.len());
        out += &table.render();
        out.push('\n');
    }
    out += "expected shape: strong concentration (high Gini) for all three metrics, failures most concentrated.\n";
    out
}

/// E4: exit-status taxonomy table (the 99.4% headline).
pub fn e4_exit_taxonomy(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e4",
        "exit-status taxonomy and failure attribution",
        "\"99,245 job failures ... a large majority (99.4%) of which are due to user behavior\"",
    );
    let a = &ctx.analysis;
    let failures: usize = a
        .class_breakdown
        .iter()
        .filter(|(c, _)| c.is_failure())
        .map(|(_, n)| *n)
        .sum();
    let mut table = Table::new(
        vec![
            "class".into(),
            "exit code(s)".into(),
            "jobs".into(),
            "share of failures".into(),
            "attribution".into(),
        ],
        vec![
            Align::Left,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Left,
        ],
    );
    let code_hint = |c: &ExitClass| match c {
        ExitClass::Success => "0",
        ExitClass::SetupError => "1",
        ExitClass::ConfigError => "2",
        ExitClass::Abort => "134",
        ExitClass::OomKill => "137",
        ExitClass::Segfault => "139",
        ExitClass::Walltime => "143",
        ExitClass::SystemKill => "75",
        ExitClass::OtherUserFailure => "other",
    };
    for (class, count) in &a.class_breakdown {
        table.row(vec![
            class.to_string(),
            code_hint(class).into(),
            group_thousands(*count as u64),
            if class.is_failure() && failures > 0 {
                percent(*count as f64 / failures as f64)
            } else {
                "-".into()
            },
            class
                .attribution()
                .map(|x| x.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out += &table.render();
    if let Some(share) = a.user_caused_share {
        let _ = writeln!(
            out,
            "\nmeasured user-caused share: {} (paper: 99.4%)",
            percent(share)
        );
    }
    out
}

fn render_curve(curve: &bgq_core::failure_rates::RateCurve, label: &str) -> String {
    let mut table = Table::new(
        vec![
            label.into(),
            "jobs".into(),
            "failed".into(),
            "fail-rate".into(),
        ],
        vec![Align::Right, Align::Right, Align::Right, Align::Right],
    );
    for b in &curve.buckets {
        table.row(vec![
            b.label.clone(),
            group_thousands(b.jobs as u64),
            group_thousands(b.failed as u64),
            percent(b.rate()),
        ]);
    }
    let mut out = table.render();
    let _ = writeln!(
        out,
        "Spearman ρ({label}, failure) = {}",
        curve
            .spearman_rho
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "n/a".into())
    );
    out
}

/// E5: failure rate versus job scale.
pub fn e5_failure_by_scale(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e5",
        "failure rate vs. job scale",
        "\"job failures are correlated with ... scale\"",
    );
    out += &render_curve(&ctx.analysis.rate_by_scale, "nodes");
    out += "expected shape: rate increases with scale.\n";
    out
}

/// E6: failure rate versus task count and core-hours.
pub fn e6_failure_by_structure(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e6",
        "failure rate vs. number of tasks and core-hours",
        "\"job execution structure (number of tasks, scale, and core-hours)\"",
    );
    out += "by task count:\n";
    out += &render_curve(&ctx.analysis.rate_by_tasks, "tasks");
    out += "\nby requested core-hours (nodes x cores x walltime, decades):\n";
    out += &render_curve(&ctx.analysis.rate_by_core_hours, "req-ch");
    out += "\nby consumed core-hours (decades) — survivorship panel:\n";
    out += &render_curve(&ctx.analysis.rate_by_consumed_core_hours, "used-ch");
    out += "expected shape: tasks and requested core-hours increase; consumed\n\
            core-hours DECREASES because failures cut consumption short — the\n\
            classic pitfall the joint analysis avoids.\n";
    out
}

/// E7: the best-fit distribution table.
pub fn e7_distribution_fits(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e7",
        "best-fit distribution of failed-job execution length per exit code",
        "\"the best-fitting distributions ... include Weibull, Pareto, inverse Gaussian, and \
         Erlang/exponential, depending on the types of errors (i.e., exit codes)\"",
    );
    let mut table = Table::new(
        vec![
            "class".into(),
            "n".into(),
            "best fit".into(),
            "KS D".into(),
            "KS p".into(),
            "runner-up".into(),
            "ground truth".into(),
        ],
        vec![
            Align::Left,
            Align::Right,
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Left,
            Align::Left,
        ],
    );
    let truth_for = |class: &ExitClass| -> String {
        let code = match class {
            ExitClass::SetupError => 1,
            ExitClass::ConfigError => 2,
            ExitClass::Abort => 134,
            ExitClass::OomKill => 137,
            ExitClass::Segfault => 139,
            _ => return "-".into(),
        };
        ctx.output
            .truth
            .mode_dists
            .iter()
            .find(|(c, _)| *c == code)
            .and_then(|(_, d)| d.as_ref())
            .map(|d| d.kind().to_string())
            .unwrap_or_else(|| "-".into())
    };
    for fit in &ctx.analysis.class_fits {
        let Some(best) = fit.best() else { continue };
        table.row(vec![
            fit.class.to_string(),
            fit.n.to_string(),
            best.dist.to_string(),
            format!("{:.4}", best.ks_statistic),
            format!("{:.3}", best.ks_p_value),
            fit.ranked
                .get(1)
                .map(|r| r.dist.kind().to_string())
                .unwrap_or_else(|| "-".into()),
            truth_for(&fit.class),
        ]);
    }
    out += &table.render();
    out +=
        "\nexpected shape: the recovered family matches the ground-truth column for every class\n\
            (exponential/Erlang(1)/Gamma(1) are the same distribution).\n";
    out
}

/// E8: RAS severity/category/component breakdown.
pub fn e8_ras_breakdown(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e8",
        "RAS log breakdown",
        "\"the reliability, availability, and serviceability (RAS) log\" characterization",
    );
    let ras = &ctx.analysis.ras;
    let total: usize = ras.by_severity.values().sum();
    let mut sev = Table::new(
        vec!["severity".into(), "records".into(), "share".into()],
        vec![Align::Left, Align::Right, Align::Right],
    );
    for s in Severity::ALL {
        let n = ras.by_severity.get(&s).copied().unwrap_or(0);
        sev.row(vec![
            s.to_string(),
            group_thousands(n as u64),
            percent(n as f64 / total.max(1) as f64),
        ]);
    }
    out += &sev.render();
    out.push('\n');

    let mut cat = Table::new(
        vec!["category".into(), "records".into()],
        vec![Align::Left, Align::Right],
    );
    let mut cats: Vec<_> = ras.by_category.iter().collect();
    cats.sort_by(|a, b| b.1.cmp(a.1));
    for (c, n) in cats.into_iter().take(8) {
        cat.row(vec![c.to_string(), group_thousands(*n as u64)]);
    }
    out += "top categories:\n";
    out += &cat.render();
    out.push('\n');

    let mut msg = Table::new(
        vec!["msg id".into(), "records".into()],
        vec![Align::Left, Align::Right],
    );
    for (id, n) in ras.top_messages.iter().take(8) {
        msg.row(vec![id.to_string(), group_thousands(*n as u64)]);
    }
    out += "top message ids:\n";
    out += &msg.render();
    out += "\nexpected shape: INFO >> WARN >> FATAL; a few message ids dominate.\n";
    out
}

/// E9: correlation of job-affecting events with users and core-hours.
pub fn e9_user_correlation(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e9",
        "job-affecting RAS events vs. users and core-hours",
        "\"the RAS events affecting job executions exhibit a high correlation with users and core-hours\"",
    );
    let c = &ctx.analysis.user_events;
    let mut table = Table::new(
        vec!["pairing".into(), "coefficient".into()],
        vec![Align::Left, Align::Right],
    );
    let fmt = |x: Option<f64>| x.map(|v| format!("{v:.3}")).unwrap_or_else(|| "n/a".into());
    table.row(vec![
        "Pearson(core-hours, events)".into(),
        fmt(c.pearson_core_hours),
    ]);
    table.row(vec![
        "Spearman(core-hours, events)".into(),
        fmt(c.spearman_core_hours),
    ]);
    table.row(vec!["Pearson(jobs, events)".into(), fmt(c.pearson_jobs)]);
    out += &table.render();
    let mut top: Vec<_> = c.rows.iter().collect();
    top.sort_by_key(|r| std::cmp::Reverse(r.3));
    out += "\ntop users by attributed events (user, core-hours, jobs, events):\n";
    for (u, ch, jobs, events) in top.into_iter().take(5) {
        let _ = writeln!(out, "  u{u}: {ch:.2e} core-h, {jobs} jobs, {events} events");
    }
    out += "\nexpected shape: strongly positive correlations (the paper calls them \"high\").\n";
    out
}

/// E10: spatial locality of fatal events.
pub fn e10_locality(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e10",
        "spatial locality of fatal events",
        "\"[RAS events] have a strong locality feature\"",
    );
    let a = &ctx.analysis;
    let mut table = Table::new(
        vec![
            "granularity".into(),
            "elements hit".into(),
            "top-5 share".into(),
            "gini".into(),
        ],
        vec![Align::Left, Align::Right, Align::Right, Align::Right],
    );
    for map in [&a.locality_racks, &a.locality_boards] {
        table.row(vec![
            format!("{:?}", map.level).to_lowercase(),
            map.counts.len().to_string(),
            percent(map.top_k_share(5)),
            map.gini()
                .map(|g| format!("{g:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        ]);
    }
    out += &table.render();
    out += "\nhottest boards (fatal records) vs. ground-truth lemons:\n";
    let lemons = &ctx.output.truth.lemon_boards;
    for (loc, n) in ctx.analysis.locality_boards.counts.iter().take(8) {
        let mark = if lemons.contains(loc) { "LEMON" } else { "" };
        let _ = writeln!(out, "  {loc}: {n} {mark}");
    }
    let _ = writeln!(
        out,
        "\nexpected shape: a handful of boards (the lemons) carry most fatal records."
    );
    out
}

/// E11: the filtering funnel figure.
pub fn e11_filter_funnel(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e11",
        "similarity-based event filtering funnel",
        "\"our similarity-based event-filtering analysis\"",
    );
    let f = &ctx.analysis.filter;
    let mut table = Table::new(
        vec!["stage".into(), "clusters".into(), "MTBF (days)".into()],
        vec![Align::Left, Align::Right, Align::Right],
    );
    let fmt = |n: usize| {
        f.mtbf_days(n)
            .map(|d| format!("{d:.2}"))
            .unwrap_or_else(|| "-".into())
    };
    table.row(vec![
        "raw FATAL records".into(),
        group_thousands(f.raw_fatal as u64),
        fmt(f.raw_fatal),
    ]);
    table.row(vec![
        "after temporal".into(),
        f.after_temporal.to_string(),
        fmt(f.after_temporal),
    ]);
    table.row(vec![
        "after spatial".into(),
        f.after_spatial.to_string(),
        fmt(f.after_spatial),
    ]);
    table.row(vec![
        "after similarity".into(),
        f.after_similarity.to_string(),
        fmt(f.after_similarity),
    ]);
    out += &table.render();
    let truth = ctx.output.truth.logical_incident_count();
    let raw_truth = ctx.output.truth.incidents.len();
    let _ = writeln!(
        out,
        "\nground truth: {truth} logical failures ({raw_truth} strikes incl. aftershocks) ⇒ filtering error {}",
        if truth > 0 {
            format!(
                "{:+.1}%",
                (f.after_similarity as f64 / truth as f64 - 1.0) * 100.0
            )
        } else {
            "n/a".into()
        }
    );
    out += "expected shape: raw >> temporal; spatial splits coincident faults (count up);\n\
            similarity merges flapping faults (count down to ≈ logical ground truth).\n";
    out
}

/// E12: MTTI table (the 3.5-day headline).
pub fn e12_mtti(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e12",
        "mean time to interruption",
        "\"the mean time to interruption is about 3.5 days\"",
    );
    let s = &ctx.analysis.interruptions;
    let f = &ctx.analysis.filter;
    let mut table = Table::new(
        vec!["metric".into(), "value".into()],
        vec![Align::Left, Align::Right],
    );
    let fmt = |x: Option<f64>| x.map(|v| format!("{v:.2}")).unwrap_or_else(|| "n/a".into());
    table.row(vec![
        "observation span (days)".into(),
        format!("{:.1}", s.span_days),
    ]);
    table.row(vec![
        "system-interrupted jobs".into(),
        s.interrupted_jobs.to_string(),
    ]);
    table.row(vec!["MTTI (days)".into(), fmt(s.mtti_days)]);
    table.row(vec![
        "mean interruption gap (days)".into(),
        fmt(s.mean_gap_days),
    ]);
    table.row(vec![
        "filtered MTBF (days)".into(),
        fmt(f.mtbf_days(f.after_similarity)),
    ]);
    let effective = bgq_core::filtering::effective_incidents(
        &ctx.output.dataset.jobs,
        &ctx.output.dataset.ras,
        &f.incidents,
    );
    table.row(vec![
        "effective incidents (hit a job)".into(),
        effective.to_string(),
    ]);
    out += &table.render();
    out += "\npaper expectation: MTTI of a few days (≈3.5 on Mira's full 2001-day trace).\n";
    out
}

/// E13: temporal patterns and the interruption-interval fit.
pub fn e13_temporal(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e13",
        "temporal patterns and interruption-interval fit",
        "\"a failed job's execution length (or interruption interval)\"",
    );
    let a = &ctx.analysis;
    out += "submissions per hour of day (UTC):\n";
    out += &spark(&a.submissions_profile.hourly);
    out += "failure ends per hour of day (UTC):\n";
    out += &spark(&a.failures_profile.hourly);
    let days = ["mon", "tue", "wed", "thu", "fri", "sat", "sun"];
    out += "submissions per weekday: ";
    for (d, n) in days.iter().zip(a.submissions_profile.weekly.iter()) {
        let _ = write!(out, "{d}={n} ");
    }
    out.push('\n');
    if let Some(sel) = &a.interval_fit {
        if let Some(best) = sel.best() {
            let _ = writeln!(
                out,
                "\ninterruption-interval best fit: {} (KS D = {:.4})",
                best.dist, best.ks_statistic
            );
        }
    }
    out += "expected shape: diurnal submissions; failures echo the submission rhythm.\n";
    out
}

fn spark(counts: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = counts.iter().copied().max().unwrap_or(0).max(1);
    let mut line = String::from("  ");
    for &c in counts {
        let idx = ((c as f64 / max as f64) * 7.0).round() as usize;
        line.push(BARS[idx.min(7)]);
    }
    line.push('\n');
    line
}

/// E14: the 22 takeaways.
pub fn e14_takeaways(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e14",
        "the 22 takeaways, re-derived",
        "\"We present 22 valuable takeaways based on our in-depth analysis.\"",
    );
    for t in takeaways(&ctx.analysis) {
        let _ = writeln!(out, "[T{:02}] {}", t.id, t.statement);
    }
    out
}

/// E15: reliability evolution over the system's life.
pub fn e15_lifetime(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e15",
        "reliability evolution over the system's life",
        "\"the 2K-day life of IBM BlueGene/Q\" — per-window failure behavior across the lifetime",
    );
    let series = &ctx.analysis.lifetime;
    let mut table = Table::new(
        vec![
            "window start".into(),
            "jobs".into(),
            "fail-rate".into(),
            "system kills".into(),
            "MTBF (days)".into(),
            "fatal records".into(),
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
    for w in &series.windows {
        table.row(vec![
            w.start.to_string()[..10].to_owned(),
            group_thousands(w.jobs as u64),
            percent(w.failure_rate()),
            w.system_kills.to_string(),
            w.mtbf_days()
                .map(|d| format!("{d:.1}"))
                .unwrap_or_else(|| "-".into()),
            group_thousands(w.fatal_records as u64),
        ]);
    }
    out += &table.render();
    if let Some(r) = series.early_to_late_fatal_ratio {
        let _ = writeln!(
            out,
            "\nearly-to-late fatal-record ratio: {r:.2} (> 1 means the machine got more reliable)"
        );
    }
    out += "expected shape: elevated fatal volume in the first windows (infant mortality),\n\
            then a flat mature period — the bathtub's left half over the system's life.\n";
    out
}

/// E16: precursor-based fatal-incident prediction.
pub fn e16_prediction(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e16",
        "precursor-based fatal-incident prediction",
        "future-work direction: WARN precursors anticipate fatal events (proactive fault management)",
    );
    let p = &ctx.analysis.prediction;
    let mut table = Table::new(
        vec!["metric".into(), "value".into()],
        vec![Align::Left, Align::Right],
    );
    table.row(vec!["alarms raised".into(), p.alarms.len().to_string()]);
    table.row(vec!["true alarms".into(), p.true_alarms.to_string()]);
    table.row(vec!["incidents".into(), p.total_incidents.to_string()]);
    table.row(vec![
        "predicted incidents".into(),
        p.predicted_incidents.to_string(),
    ]);
    table.row(vec![
        "precision".into(),
        p.precision().map(percent).unwrap_or_else(|| "n/a".into()),
    ]);
    table.row(vec![
        "recall".into(),
        p.recall().map(percent).unwrap_or_else(|| "n/a".into()),
    ]);
    table.row(vec![
        "mean lead time".into(),
        p.mean_lead_s
            .map(|s| format!("{:.0} min", s / 60.0))
            .unwrap_or_else(|| "n/a".into()),
    ]);
    out += &table.render();
    out += "\nexpected shape: solid precision with partial recall — only faults that\n\
            telegraph themselves through correctable-error warnings are predictable.\n";
    out
}

/// E17: queue waits and machine utilization.
pub fn e17_queueing(ctx: &ExperimentCtx) -> String {
    let mut out = header(
        "e17",
        "queue waits and machine utilization",
        "scheduling context for the job-behavior analyses (capability jobs wait for drained regions)",
    );
    let a = &ctx.analysis;
    let mut table = Table::new(
        vec![
            "nodes".into(),
            "jobs".into(),
            "median wait (h)".into(),
            "p95 wait (h)".into(),
        ],
        vec![Align::Right, Align::Right, Align::Right, Align::Right],
    );
    for row in &a.waits_by_size {
        table.row(vec![
            row.label.clone(),
            group_thousands(row.jobs as u64),
            format!("{:.2}", row.wait_hours.median()),
            format!("{:.2}", row.wait_hours.p95()),
        ]);
    }
    out += &table.render();
    out.push('\n');
    let mut qtable = Table::new(
        vec!["queue".into(), "jobs".into(), "median wait (h)".into()],
        vec![Align::Left, Align::Right, Align::Right],
    );
    for row in &a.waits_by_queue {
        qtable.row(vec![
            row.label.clone(),
            group_thousands(row.jobs as u64),
            format!("{:.2}", row.wait_hours.median()),
        ]);
    }
    out += &qtable.render();
    if let Some(u) = a.mean_utilization {
        let _ = writeln!(out, "\nmean machine utilization: {}", percent(u));
    }
    out += "expected shape: waits grow steeply with job size; utilization in the 80-95% band\n\
            typical of a capability machine.\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn ctx() -> &'static ExperimentCtx {
        static CELL: OnceLock<ExperimentCtx> = OnceLock::new();
        CELL.get_or_init(|| ExperimentCtx::new(SimConfig::small(20).with_seed(8)))
    }

    #[test]
    fn every_experiment_renders() {
        for id in EXPERIMENT_IDS {
            let text = run_experiment(id, ctx()).unwrap();
            assert!(text.contains("reproduces:"), "{id} missing anchor");
            assert!(text.len() > 100, "{id} suspiciously short:\n{text}");
        }
    }

    #[test]
    fn unknown_id_lists_valid_ones() {
        let err = run_experiment("e99", ctx()).unwrap_err();
        assert!(err.contains("e16"));
    }

    #[test]
    fn e4_carries_the_user_share() {
        let text = run_experiment("e4", ctx()).unwrap();
        assert!(text.contains("user-caused share"), "{text}");
    }

    #[test]
    fn e14_has_22_items() {
        let text = run_experiment("e14", ctx()).unwrap();
        assert_eq!(text.matches("[T").count(), 22);
    }
}
