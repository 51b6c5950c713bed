//! The 22 takeaways (experiment E14).
//!
//! The paper condenses its characterization into 22 numbered takeaways.
//! This module re-derives each one *from the analysis results* — every
//! number in a statement is measured, not pasted — so the takeaway list
//! doubles as an end-to-end smoke test of the whole pipeline.

use bgq_model::Severity;

use crate::analysis::Analysis;
use crate::exitcode::ExitClass;
use crate::jobstats::Concentration;
use crate::report::percent;

/// One re-derived takeaway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Takeaway {
    /// 1-based takeaway number.
    pub id: u8,
    /// The measured statement.
    pub statement: String,
}

fn fmt_opt(x: Option<f64>, digits: usize) -> String {
    match x {
        Some(v) => format!("{v:.digits$}"),
        None => "n/a".to_owned(),
    }
}

/// Derives the 22 takeaways from a completed [`Analysis`].
pub fn takeaways(a: &Analysis) -> Vec<Takeaway> {
    let mut out = Vec::with_capacity(22);
    let mut push = |statement: String| {
        let id = out.len() as u8 + 1;
        out.push(Takeaway { id, statement });
    };

    // --- Workload shape (1–5).
    match &a.totals {
        Some(t) => push(format!(
            "The trace covers {} jobs over {:.0} days consuming {:.2e} core-hours.",
            t.jobs,
            t.span_days(),
            t.core_hours
        )),
        None => push("The trace is empty.".to_owned()),
    }
    let small_jobs: f64 = a
        .size_mix
        .iter()
        .filter(|r| r.nodes <= 1024)
        .map(|r| r.job_share)
        .sum();
    let small_ch: f64 = a
        .size_mix
        .iter()
        .filter(|r| r.nodes <= 1024)
        .map(|r| r.core_hour_share)
        .sum();
    push(format!(
        "Small jobs (≤1024 nodes) are {} of jobs but only {} of core-hours.",
        percent(small_jobs),
        percent(small_ch)
    ));
    let ch: Vec<f64> = a.per_user.iter().map(|u| u.core_hours).collect();
    let conc = Concentration::compute(&ch);
    push(format!(
        "Core-hours are highly concentrated across users (Gini {}).",
        fmt_opt(conc.as_ref().map(|c| c.gini), 2)
    ));
    push(format!(
        "The top 5 users hold {} of all core-hours.",
        conc.as_ref()
            .map(|c| percent(c.top5_share))
            .unwrap_or_else(|| "n/a".into())
    ));
    push(format!(
        "Submissions are diurnal: busiest hour has {}x the jobs of the quietest.",
        fmt_opt(a.submissions_profile.peak_to_trough(), 1)
    ));

    // --- Failures and their attribution (6–11).
    let (jobs, failed) = match &a.totals {
        Some(t) => (t.jobs, t.failed_jobs),
        None => (0, 0),
    };
    push(format!(
        "{failed} of {jobs} jobs failed ({}).",
        percent(if jobs > 0 {
            failed as f64 / jobs as f64
        } else {
            0.0
        })
    ));
    push(match a.user_caused_share {
        Some(share) => format!(
            "{} of job failures are caused by user behavior, not the system.",
            percent(share)
        ),
        None => "No failures occurred, so failure attribution is moot.".to_owned(),
    });
    let failures: Vec<f64> = a.per_user.iter().map(|u| u.failed as f64).collect();
    push(format!(
        "Failures concentrate on few users: top 5 users account for {} of failures.",
        Concentration::compute(&failures)
            .map(|c| percent(c.top5_share))
            .unwrap_or_else(|| "n/a".into())
    ));
    push(format!(
        "Failure probability grows with job scale (Spearman ρ = {}).",
        fmt_opt(a.rate_by_scale.spearman_rho, 3)
    ));
    push(format!(
        "Failure probability grows with the number of tasks (Spearman ρ = {}).",
        fmt_opt(a.rate_by_tasks.spearman_rho, 3)
    ));
    let walltime = a
        .class_breakdown
        .get(&ExitClass::Walltime)
        .copied()
        .unwrap_or(0);
    push(format!(
        "Wall-time limit kills account for {} of failures — bad estimates, still user behavior.",
        percent(if failed > 0 {
            walltime as f64 / failed as f64
        } else {
            0.0
        })
    ));

    // --- Distribution fitting (12–13).
    let fits: Vec<String> = a
        .class_fits
        .iter()
        .filter_map(|f| f.best().map(|b| format!("{}→{}", f.class, b.dist.kind())))
        .collect();
    push(format!(
        "The best-fitting execution-length family depends on the exit code: {}.",
        if fits.is_empty() {
            "n/a".to_owned()
        } else {
            fits.join(", ")
        }
    ));
    let interval_kind = a
        .interval_fit
        .as_ref()
        .and_then(|s| s.best().map(|b| b.dist.kind().to_string()));
    push(format!(
        "Interruption intervals between failures are best fit by {}.",
        interval_kind.unwrap_or_else(|| "n/a".to_owned())
    ));

    // --- RAS characterization (14–18).
    let info = a.ras.by_severity.get(&Severity::Info).copied().unwrap_or(0);
    let warn = a.ras.by_severity.get(&Severity::Warn).copied().unwrap_or(0);
    let fatal = a
        .ras
        .by_severity
        .get(&Severity::Fatal)
        .copied()
        .unwrap_or(0);
    let total_ras = (info + warn + fatal).max(1);
    push(format!(
        "RAS severities are wildly imbalanced: {} INFO, {} WARN, {} FATAL.",
        percent(info as f64 / total_ras as f64),
        percent(warn as f64 / total_ras as f64),
        percent(fatal as f64 / total_ras as f64)
    ));
    let top_msg_share: usize = a.ras.top_messages.iter().map(|&(_, c)| c).sum();
    push(format!(
        "The top {} message ids produce {} of all RAS records.",
        a.ras.top_messages.len(),
        percent(top_msg_share as f64 / total_ras as f64)
    ));
    push(format!(
        "Job-affecting events correlate strongly with per-user core-hours (Pearson r = {}).",
        fmt_opt(a.user_events.pearson_core_hours, 3)
    ));
    push(format!(
        "Fatal events are strongly local: the 5 hottest boards carry {} of them.",
        percent(a.locality_boards.top_k_share(5))
    ));
    push(format!(
        "Fatal-event counts per board are near-maximally unequal (Gini {}).",
        fmt_opt(a.locality_boards.gini(), 2)
    ));

    // --- Filtering and reliability (19–22).
    push(format!(
        "Raw FATAL records overcount failures {}x; filtering compresses {} records to {} incidents.",
        if a.filter.after_similarity > 0 {
            format!("{:.0}", a.filter.raw_fatal as f64 / a.filter.after_similarity as f64)
        } else {
            "n/a".to_owned()
        },
        a.filter.raw_fatal,
        a.filter.after_similarity
    ));
    push(format!(
        "Each filtering stage matters: {} raw → {} temporal → {} spatial → {} similarity.",
        a.filter.raw_fatal,
        a.filter.after_temporal,
        a.filter.after_spatial,
        a.filter.after_similarity
    ));
    push(format!(
        "The filtered system MTBF is {} days.",
        fmt_opt(a.filter.mtbf_days(a.filter.after_similarity), 2)
    ));
    push(format!(
        "From the jobs' perspective the mean time to interruption is {} days.",
        fmt_opt(a.interruptions.mtti_days, 2)
    ));

    debug_assert_eq!(out.len(), 22);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_logs::store::Dataset;
    use bgq_sim::{generate, SimConfig};

    #[test]
    fn exactly_twenty_two_takeaways() {
        let out = generate(&SimConfig::small(15).with_seed(9));
        let a = Analysis::run(&out.dataset);
        let t = takeaways(&a);
        assert_eq!(t.len(), 22);
        for (i, item) in t.iter().enumerate() {
            assert_eq!(item.id as usize, i + 1);
            assert!(!item.statement.is_empty());
        }
    }

    #[test]
    fn headline_takeaways_carry_measured_values() {
        let out = generate(&SimConfig::small(30).with_seed(9));
        let a = Analysis::run(&out.dataset);
        let t = takeaways(&a);
        // Takeaway 7 is the user-caused share; on this dataset it is a
        // measured high percentage, not a placeholder.
        assert!(t[6].statement.contains('%'));
        assert!(!t[6].statement.contains("n/a"));
        // Takeaway 12 names at least one distribution family.
        assert!(t[11].statement.contains('→'), "{}", t[11].statement);
    }

    #[test]
    fn empty_dataset_still_yields_22_statements() {
        let a = Analysis::run(&Dataset::new());
        let t = takeaways(&a);
        assert_eq!(t.len(), 22);
    }
}
