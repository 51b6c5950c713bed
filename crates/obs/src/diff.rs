//! Manifest diffing and regression gating.
//!
//! `mira-mine profile --baseline base.json --check [BUDGETS]` compares
//! the manifest of the run that just finished against a committed
//! baseline manifest and exits nonzero when the drift exceeds budget —
//! the same pattern CI perf gates use, built on the run manifests the
//! toolkit already emits.
//!
//! Three budget knobs, each settable to a number or `off`:
//!
//! * **`wall`** — maximum ratio of *total* span wall time to the
//!   baseline's (default 1.5). Total only: per-span wall time is far too
//!   noisy to gate without flaking, while a uniform 1.5× blowup of the
//!   whole pipeline is a real regression. Wall time is machine-dependent,
//!   so cross-machine gates (committed baselines in CI) should set
//!   `wall=off` and rely on the deterministic counters.
//! * **`counter`** — maximum relative drift of each counter (default 0:
//!   exact). Counters are totals of seeded, schedule-independent record
//!   flows, so on the same dataset any drift is a behavior change.
//! * **`alloc`** — like `counter` but for the `alloc.*` counters the
//!   `obs-alloc` feature records (default 0.25). Allocation counts wobble
//!   with thread scheduling and allocator internals, so they get a
//!   tolerance band instead of exactness, and are only compared when
//!   both manifests have them (a baseline written without `obs-alloc`
//!   gates nothing).
//!
//! Budget specs parse from `key=value` lists: `wall=2.0,counter=0.05`,
//! `wall=off`, or the empty string for all defaults.

use std::collections::BTreeSet;
use std::fmt;

use crate::manifest::RunManifest;

/// Prefix of counters recorded by the counting allocator.
pub const ALLOC_PREFIX: &str = "alloc.";

/// Regression budgets (see the module docs). `None` disables a gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Budgets {
    /// Max `current / baseline` total span wall-time ratio.
    pub wall: Option<f64>,
    /// Max relative drift per non-allocation counter.
    pub counter: Option<f64>,
    /// Max relative drift per `alloc.*` counter.
    pub alloc: Option<f64>,
}

impl Default for Budgets {
    fn default() -> Self {
        Budgets {
            wall: Some(1.5),
            counter: Some(0.0),
            alloc: Some(0.25),
        }
    }
}

impl Budgets {
    /// Parses a `key=value[,key=value...]` spec over the defaults.
    /// Values are non-negative numbers or `off`; the empty string keeps
    /// every default.
    ///
    /// # Errors
    ///
    /// Returns a message on unknown keys or unparseable values.
    pub fn parse(spec: &str) -> Result<Budgets, String> {
        let mut budgets = Budgets::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("budget {part:?} is not key=value"))?;
            let parsed = if value.eq_ignore_ascii_case("off") {
                None
            } else {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("budget value {value:?} is not a number or \"off\""))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("budget value {value:?} must be finite and >= 0"));
                }
                Some(v)
            };
            match key.trim() {
                "wall" => budgets.wall = parsed,
                "counter" => budgets.counter = parsed,
                "alloc" => budgets.alloc = parsed,
                other => {
                    return Err(format!(
                        "unknown budget {other:?} (expected wall, counter, or alloc)"
                    ))
                }
            }
        }
        Ok(budgets)
    }
}

/// One counter compared across the two manifests. Missing on either
/// side reads as 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Counter name.
    pub name: String,
    /// Counter label (empty for unlabeled).
    pub label: String,
    /// Baseline value.
    pub base: u64,
    /// Current value.
    pub cur: u64,
}

impl CounterDelta {
    /// Relative drift `|cur - base| / max(base, 1)`.
    #[must_use]
    pub fn drift(&self) -> f64 {
        self.cur.abs_diff(self.base) as f64 / self.base.max(1) as f64
    }

    /// `true` for `alloc.*` counters (gated by the `alloc` budget).
    #[must_use]
    pub fn is_alloc(&self) -> bool {
        self.name.starts_with(ALLOC_PREFIX)
    }

    fn key(&self) -> String {
        if self.label.is_empty() {
            self.name.clone()
        } else {
            format!("{}{{{}}}", self.name, self.label)
        }
    }
}

/// The comparison of a current manifest against a baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManifestDiff {
    /// Baseline total span wall time, nanoseconds.
    pub wall_base_ns: u64,
    /// Current total span wall time, nanoseconds.
    pub wall_cur_ns: u64,
    /// Every counter present in either manifest, in key order.
    pub counters: Vec<CounterDelta>,
}

impl ManifestDiff {
    /// `current / baseline` total wall ratio (`None` when the baseline
    /// recorded no wall time — nothing to gate against).
    #[must_use]
    pub fn wall_ratio(&self) -> Option<f64> {
        (self.wall_base_ns > 0).then(|| self.wall_cur_ns as f64 / self.wall_base_ns as f64)
    }

    /// Checks the diff against `budgets`, returning every violation
    /// (empty means the gate passes).
    #[must_use]
    pub fn check(&self, budgets: &Budgets) -> Vec<Violation> {
        // Tiny epsilon so a drift of exactly the budget passes despite
        // the division being inexact in f64.
        const EPS: f64 = 1e-9;
        let mut violations = Vec::new();
        if let (Some(max_ratio), Some(ratio)) = (budgets.wall, self.wall_ratio()) {
            if ratio > max_ratio + EPS {
                violations.push(Violation {
                    gate: "wall",
                    subject: "total span wall time".to_owned(),
                    detail: format!(
                        "{:.3} ms -> {:.3} ms (ratio {ratio:.2} > budget {max_ratio})",
                        self.wall_base_ns as f64 / 1e6,
                        self.wall_cur_ns as f64 / 1e6,
                    ),
                });
            }
        }
        for delta in &self.counters {
            let (gate, budget) = if delta.is_alloc() {
                // Only gate allocations both manifests measured: a
                // baseline without `obs-alloc` has nothing to compare.
                if delta.base == 0 || delta.cur == 0 {
                    continue;
                }
                ("alloc", budgets.alloc)
            } else {
                ("counter", budgets.counter)
            };
            let Some(max_drift) = budget else { continue };
            let drift = delta.drift();
            if drift > max_drift + EPS {
                violations.push(Violation {
                    gate,
                    subject: delta.key(),
                    detail: format!(
                        "{} -> {} (drift {:.1}% > budget {:.1}%)",
                        delta.base,
                        delta.cur,
                        drift * 100.0,
                        max_drift * 100.0,
                    ),
                });
            }
        }
        violations
    }

    /// Renders the diff as a human-readable report: the wall ratio and
    /// every counter whose value changed.
    #[must_use]
    pub fn report(&self) -> String {
        let mut out = String::from("baseline diff:\n");
        match self.wall_ratio() {
            Some(ratio) => out.push_str(&format!(
                "  wall: {:.3} ms -> {:.3} ms (ratio {ratio:.2})\n",
                self.wall_base_ns as f64 / 1e6,
                self.wall_cur_ns as f64 / 1e6,
            )),
            None => out.push_str("  wall: baseline recorded no span wall time\n"),
        }
        let changed: Vec<&CounterDelta> =
            self.counters.iter().filter(|d| d.base != d.cur).collect();
        out.push_str(&format!(
            "  counters: {} compared, {} changed\n",
            self.counters.len(),
            changed.len(),
        ));
        for delta in changed {
            out.push_str(&format!(
                "    {}: {} -> {} ({:+.1}%)\n",
                delta.key(),
                delta.base,
                delta.cur,
                (delta.cur as f64 - delta.base as f64) / delta.base.max(1) as f64 * 100.0,
            ));
        }
        out
    }
}

/// One budget violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which budget failed: `"wall"`, `"counter"`, or `"alloc"`.
    pub gate: &'static str,
    /// What drifted (a counter key or the wall-time aggregate).
    pub subject: String,
    /// Human-readable numbers behind the verdict.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.gate, self.subject, self.detail)
    }
}

impl RunManifest {
    /// Compares this run's metrics against `baseline` (see
    /// [`ManifestDiff`]). Gauges are levels (thread counts, dataset
    /// sizes), not flows, so they are reported nowhere and gated never.
    #[must_use]
    pub fn diff(&self, baseline: &RunManifest) -> ManifestDiff {
        let keys: BTreeSet<&(String, String)> = self
            .snapshot
            .counters
            .keys()
            .chain(baseline.snapshot.counters.keys())
            .collect();
        let counters = keys
            .into_iter()
            .map(|key| CounterDelta {
                name: key.0.clone(),
                label: key.1.clone(),
                base: baseline.snapshot.counters.get(key).copied().unwrap_or(0),
                cur: self.snapshot.counters.get(key).copied().unwrap_or(0),
            })
            .collect();
        ManifestDiff {
            wall_base_ns: baseline.snapshot.spans.values().map(|s| s.wall_ns).sum(),
            wall_cur_ns: self.snapshot.spans.values().map(|s| s.wall_ns).sum(),
            counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SpanStat};

    fn manifest(wall_ns: u64, counters: &[(&str, &str, u64)]) -> RunManifest {
        let mut snap = Snapshot::default();
        snap.spans
            .insert("analysis.run".into(), SpanStat { calls: 1, wall_ns });
        for &(name, label, value) in counters {
            snap.counters.insert((name.into(), label.into()), value);
        }
        RunManifest::new(snap)
    }

    #[test]
    fn budgets_parse_overrides_and_off() {
        assert_eq!(Budgets::parse("").unwrap(), Budgets::default());
        let b = Budgets::parse("wall=2.0, counter=0.05, alloc=off").unwrap();
        assert_eq!(b.wall, Some(2.0));
        assert_eq!(b.counter, Some(0.05));
        assert_eq!(b.alloc, None);
        assert!(Budgets::parse("wall").is_err());
        assert!(Budgets::parse("walls=1").is_err());
        assert!(Budgets::parse("wall=-1").is_err());
        assert!(Budgets::parse("wall=NaN").is_err());
    }

    #[test]
    fn identical_manifests_pass_every_gate() {
        let m = manifest(1_000_000, &[("filter.funnel", "fatal", 128)]);
        let diff = m.diff(&m.clone());
        assert_eq!(diff.wall_ratio(), Some(1.0));
        assert!(diff.check(&Budgets::default()).is_empty());
        assert!(diff.report().contains("1 compared, 0 changed"));
    }

    #[test]
    fn doubled_wall_time_trips_the_wall_gate_only() {
        let base = manifest(1_000_000, &[("rows", "", 10)]);
        let cur = manifest(2_000_000, &[("rows", "", 10)]);
        let violations = cur.diff(&base).check(&Budgets::default());
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert_eq!(violations[0].gate, "wall");
        assert!(violations[0].to_string().contains("ratio 2.00"));
        // wall=off waves the same regression through.
        let relaxed = Budgets::parse("wall=off").unwrap();
        assert!(cur.diff(&base).check(&relaxed).is_empty());
    }

    #[test]
    fn counter_drift_is_exact_by_default() {
        let base = manifest(1_000, &[("rows", "", 100)]);
        let cur = manifest(1_000, &[("rows", "", 101)]);
        let violations = cur.diff(&base).check(&Budgets::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].gate, "counter");
        assert_eq!(violations[0].subject, "rows");
        // A 1% tolerance lets it pass.
        let loose = Budgets::parse("counter=0.05").unwrap();
        assert!(cur.diff(&base).check(&loose).is_empty());
    }

    #[test]
    fn counters_missing_on_either_side_count_as_zero() {
        let base = manifest(1_000, &[("only.base", "", 5)]);
        let cur = manifest(1_000, &[("only.cur", "x", 7)]);
        let violations = cur.diff(&base).check(&Budgets::default());
        let subjects: Vec<&str> = violations.iter().map(|v| v.subject.as_str()).collect();
        assert_eq!(subjects, ["only.base", "only.cur{x}"]);
    }

    #[test]
    fn alloc_counters_use_the_alloc_band_and_skip_feature_mismatch() {
        let base = manifest(1_000, &[("alloc.bytes", "stage", 1_000)]);
        let within = manifest(1_000, &[("alloc.bytes", "stage", 1_200)]);
        assert!(within.diff(&base).check(&Budgets::default()).is_empty());
        let beyond = manifest(1_000, &[("alloc.bytes", "stage", 1_300)]);
        let violations = beyond.diff(&base).check(&Budgets::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].gate, "alloc");
        // Baseline without obs-alloc (no alloc counters): nothing gated.
        let no_alloc_base = manifest(1_000, &[]);
        assert!(beyond
            .diff(&no_alloc_base)
            .check(&Budgets::default())
            .is_empty());
    }

    #[test]
    fn report_lists_changed_counters_with_direction() {
        let base = manifest(1_000_000, &[("rows", "", 100), ("same", "", 4)]);
        let cur = manifest(1_500_000, &[("rows", "", 90), ("same", "", 4)]);
        let report = cur.diff(&base).report();
        assert!(report.contains("ratio 1.50"));
        assert!(report.contains("2 compared, 1 changed"));
        assert!(report.contains("rows: 100 -> 90 (-10.0%)"));
        assert!(!report.contains("same:"));
    }
}
