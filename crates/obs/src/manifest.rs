//! The run manifest: provenance metadata plus the collected metrics of
//! one pipeline run, serializable to JSON or a human-readable tree.

use std::collections::{BTreeMap, BTreeSet};

use crate::hist::Histogram;
use crate::json::{self, JsonValue, JsonWriter};
use crate::snapshot::{Snapshot, SpanStat};

/// Everything a run self-reports: a flat metadata map (dataset
/// fingerprint, feature flags, thread count, command line) and the
/// [`Snapshot`] of spans/counters/gauges the run produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunManifest {
    /// Provenance key/value pairs, rendered in key order.
    pub meta: BTreeMap<String, String>,
    /// The metrics this run collected (usually a snapshot diff).
    pub snapshot: Snapshot,
}

impl RunManifest {
    /// A manifest around an already-diffed snapshot.
    #[must_use]
    pub fn new(snapshot: Snapshot) -> Self {
        RunManifest {
            meta: BTreeMap::new(),
            snapshot,
        }
    }

    /// Adds one provenance entry (builder style).
    #[must_use]
    pub fn with_meta(mut self, key: &str, value: impl Into<String>) -> Self {
        self.meta.insert(key.to_owned(), value.into());
        self
    }

    /// Spans sorted hottest-first (total wall time descending, name
    /// ascending on ties — deterministic either way).
    #[must_use]
    pub fn hot_stages(&self) -> Vec<(&str, SpanStat)> {
        let mut v: Vec<(&str, SpanStat)> = self
            .snapshot
            .spans
            .iter()
            .map(|(n, &s)| (n.as_str(), s))
            .collect();
        v.sort_by(|a, b| b.1.wall_ns.cmp(&a.1.wall_ns).then(a.0.cmp(b.0)));
        v
    }

    /// Serializes the manifest as one JSON object:
    /// `{"meta": {...}, "spans": [...], "counters": [...], "gauges": [...],
    /// "hists": [...]}`. Spans carry per-invocation duration percentiles
    /// (`p50_ns`/`p90_ns`/`p99_ns`) when the collector recorded them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object(None);
        w.begin_object(Some("meta"));
        for (k, v) in &self.meta {
            w.string(k, v);
        }
        w.end_object();
        w.begin_array(Some("spans"));
        for (name, stat) in &self.snapshot.spans {
            w.begin_object(None);
            w.string("name", name);
            w.u64("calls", stat.calls);
            w.u64("wall_ns", stat.wall_ns);
            w.f64("wall_ms", stat.wall_ms());
            if let Some(h) = self.snapshot.span_ns.get(name) {
                if let (Some(p50), Some(p90), Some(p99)) = (h.p50(), h.p90(), h.p99()) {
                    w.u64("p50_ns", p50);
                    w.u64("p90_ns", p90);
                    w.u64("p99_ns", p99);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.begin_array(Some("counters"));
        for ((name, label), value) in &self.snapshot.counters {
            w.begin_object(None);
            w.string("name", name);
            if !label.is_empty() {
                w.string("label", label);
            }
            w.u64("value", *value);
            w.end_object();
        }
        w.end_array();
        w.begin_array(Some("gauges"));
        for ((name, label), value) in &self.snapshot.gauges {
            w.begin_object(None);
            w.string("name", name);
            if !label.is_empty() {
                w.string("label", label);
            }
            w.u64("value", *value);
            w.end_object();
        }
        w.end_array();
        w.begin_array(Some("hists"));
        for ((name, label), h) in &self.snapshot.hists {
            w.begin_object(None);
            w.string("name", name);
            if !label.is_empty() {
                w.string("label", label);
            }
            w.u64("count", h.count());
            w.u64("sum", h.sum());
            if let (Some(p50), Some(p90), Some(p99)) = (h.p50(), h.p90(), h.p99()) {
                w.u64("p50", p50);
                w.u64("p90", p90);
                w.u64("p99", p99);
            }
            w.begin_array(Some("buckets"));
            for (i, n) in h.buckets() {
                w.begin_object(None);
                w.u64("i", u64::from(i));
                w.u64("n", n);
                w.end_object();
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// Reconstructs a manifest from [`RunManifest::to_json`] output.
    ///
    /// Everything round-trips except span-duration histograms
    /// (`snapshot.span_ns`): only their percentile *summaries* are
    /// serialized, so the parsed manifest leaves that map empty. The
    /// baseline diffing in [`crate::diff`] gates on spans, counters, and
    /// data histograms, none of which need it.
    ///
    /// # Errors
    ///
    /// Returns a message when `text` is not valid JSON or a required
    /// field (`name`, `value`, ...) is missing or mistyped.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        fn name_label(entry: &JsonValue) -> Result<(String, String), String> {
            let name = entry
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("manifest entry missing \"name\"")?;
            let label = entry.get("label").and_then(JsonValue::as_str).unwrap_or("");
            Ok((name.to_owned(), label.to_owned()))
        }
        fn field(entry: &JsonValue, key: &str) -> Result<u64, String> {
            entry
                .get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("manifest entry missing integer {key:?}"))
        }

        let root = json::parse(text)?;
        let mut manifest = RunManifest::default();
        if let Some(JsonValue::Obj(members)) = root.get("meta") {
            for (k, v) in members {
                if let Some(s) = v.as_str() {
                    manifest.meta.insert(k.clone(), s.to_owned());
                }
            }
        }
        for span in root.get("spans").map(JsonValue::items).unwrap_or(&[]) {
            let name = span
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or("span entry missing \"name\"")?;
            manifest.snapshot.spans.insert(
                name.to_owned(),
                SpanStat {
                    calls: field(span, "calls")?,
                    wall_ns: field(span, "wall_ns")?,
                },
            );
        }
        for counter in root.get("counters").map(JsonValue::items).unwrap_or(&[]) {
            let key = name_label(counter)?;
            manifest
                .snapshot
                .counters
                .insert(key, field(counter, "value")?);
        }
        for gauge in root.get("gauges").map(JsonValue::items).unwrap_or(&[]) {
            let key = name_label(gauge)?;
            manifest.snapshot.gauges.insert(key, field(gauge, "value")?);
        }
        for hist in root.get("hists").map(JsonValue::items).unwrap_or(&[]) {
            let key = name_label(hist)?;
            let buckets = hist
                .get("buckets")
                .map(JsonValue::items)
                .unwrap_or(&[])
                .iter()
                .map(|b| {
                    let i = field(b, "i")?;
                    let i =
                        u16::try_from(i).map_err(|_| format!("bucket index {i} out of range"))?;
                    Ok((i, field(b, "n")?))
                })
                .collect::<Result<Vec<_>, String>>()?;
            manifest.snapshot.hists.insert(
                key,
                Histogram::from_parts(field(hist, "count")?, field(hist, "sum")?, buckets),
            );
        }
        Ok(manifest)
    }

    /// Renders the manifest as a human-readable stage tree: span names
    /// split on `.` into a hierarchy (implicit parents included), then
    /// counters and gauges as flat sorted lists.
    #[must_use]
    pub fn to_tree(&self) -> String {
        let mut out = String::new();
        if !self.meta.is_empty() {
            out.push_str("run:\n");
            for (k, v) in &self.meta {
                out.push_str(&format!("  {k}: {v}\n"));
            }
        }
        if !self.snapshot.spans.is_empty() {
            out.push_str("stages (wall time summed across threads):\n");
            // Every name plus every ancestor prefix, in sorted order —
            // '.' sorts before alphanumerics, so a parent always
            // precedes its children.
            let mut nodes: BTreeSet<String> = BTreeSet::new();
            for name in self.snapshot.spans.keys() {
                let mut prefix = String::new();
                for seg in name.split('.') {
                    if !prefix.is_empty() {
                        prefix.push('.');
                    }
                    prefix.push_str(seg);
                    nodes.insert(prefix.clone());
                }
            }
            let label_width = nodes
                .iter()
                .map(|n| {
                    let depth = n.matches('.').count();
                    2 * depth + n.rsplit('.').next().unwrap_or(n).len()
                })
                .max()
                .unwrap_or(0);
            for node in &nodes {
                let depth = node.matches('.').count();
                let leaf = node.rsplit('.').next().unwrap_or(node);
                let indent = "  ".repeat(depth);
                match self.snapshot.spans.get(node) {
                    Some(stat) => out.push_str(&format!(
                        "  {indent}{leaf:<width$}  ×{calls:<4} {ms:>10.3} ms\n",
                        width = label_width - 2 * depth,
                        calls = stat.calls,
                        ms = stat.wall_ms(),
                    )),
                    None => out.push_str(&format!("  {indent}{leaf}\n")),
                }
            }
        }
        if !self.snapshot.counters.is_empty() {
            out.push_str("counters:\n");
            for ((name, label), value) in &self.snapshot.counters {
                if label.is_empty() {
                    out.push_str(&format!("  {name} = {value}\n"));
                } else {
                    out.push_str(&format!("  {name}{{{label}}} = {value}\n"));
                }
            }
        }
        if !self.snapshot.gauges.is_empty() {
            out.push_str("gauges:\n");
            for ((name, label), value) in &self.snapshot.gauges {
                if label.is_empty() {
                    out.push_str(&format!("  {name} = {value}\n"));
                } else {
                    out.push_str(&format!("  {name}{{{label}}} = {value}\n"));
                }
            }
        }
        if !self.snapshot.hists.is_empty() {
            out.push_str("histograms (p50/p90/p99 within 6.25% above the true order statistic):\n");
            for ((name, label), h) in &self.snapshot.hists {
                let key = if label.is_empty() {
                    name.clone()
                } else {
                    format!("{name}{{{label}}}")
                };
                out.push_str(&format!(
                    "  {key}: n={} sum={} p50={} p90={} p99={}\n",
                    h.count(),
                    h.sum(),
                    h.p50().unwrap_or(0),
                    h.p90().unwrap_or(0),
                    h.p99().unwrap_or(0),
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no observability data collected — built without the `obs` feature?)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunManifest {
        let mut snap = Snapshot::default();
        snap.spans.insert(
            "analysis.run".into(),
            SpanStat {
                calls: 1,
                wall_ns: 2_500_000,
            },
        );
        snap.spans.insert(
            "analysis.fit.by_class".into(),
            SpanStat {
                calls: 1,
                wall_ns: 1_000_000,
            },
        );
        snap.counters
            .insert(("filter.funnel".into(), "raw_fatal".into()), 128);
        snap.gauges.insert(("run.threads".into(), String::new()), 8);
        RunManifest::new(snap)
            .with_meta("command", "profile --days 30")
            .with_meta("features", "obs,parallel")
    }

    #[test]
    fn json_has_all_sections() {
        let json = sample().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(
            json.contains(r#""meta":{"command":"profile --days 30","features":"obs,parallel"}"#)
        );
        assert!(json.contains(r#""name":"analysis.run","calls":1,"wall_ns":2500000"#));
        assert!(json.contains(r#""name":"filter.funnel","label":"raw_fatal","value":128"#));
        assert!(json.contains(r#""name":"run.threads","value":8"#));
    }

    #[test]
    fn tree_nests_span_names() {
        let tree = sample().to_tree();
        let analysis_pos = tree.find("analysis\n").expect("implicit parent");
        let fit_pos = tree.find("fit\n").expect("implicit fit parent");
        let by_class_pos = tree.find("by_class").expect("leaf");
        assert!(analysis_pos < fit_pos && fit_pos < by_class_pos);
        assert!(tree.contains("filter.funnel{raw_fatal} = 128"));
        assert!(tree.contains("run.threads = 8"));
        assert!(tree.contains("features: obs,parallel"));
    }

    #[test]
    fn hot_stages_sorts_by_wall_time() {
        let m = sample();
        let hot = m.hot_stages();
        assert_eq!(hot[0].0, "analysis.run");
        assert_eq!(hot[1].0, "analysis.fit.by_class");
    }

    #[test]
    fn empty_manifest_renders_placeholder() {
        let m = RunManifest::default();
        assert!(m.to_tree().contains("no observability data"));
        assert_eq!(
            m.to_json(),
            r#"{"meta":{},"spans":[],"counters":[],"gauges":[],"hists":[]}"#
        );
    }

    #[test]
    fn json_round_trips_through_from_json() {
        let mut m = sample();
        let mut h = Histogram::new();
        for v in [3u64, 700, 700, 65_536] {
            h.record(v);
        }
        m.snapshot
            .hists
            .insert(("store.row_bytes".into(), "jobs".into()), h);
        let mut dur = Histogram::new();
        dur.record(2_500_000);
        m.snapshot.span_ns.insert("analysis.run".into(), dur);

        let parsed = RunManifest::from_json(&m.to_json()).expect("round trip");
        assert_eq!(parsed.meta, m.meta);
        assert_eq!(parsed.snapshot.spans, m.snapshot.spans);
        assert_eq!(parsed.snapshot.counters, m.snapshot.counters);
        assert_eq!(parsed.snapshot.gauges, m.snapshot.gauges);
        assert_eq!(parsed.snapshot.hists, m.snapshot.hists);
        // Span-duration histograms do not round-trip (summaries only).
        assert!(parsed.snapshot.span_ns.is_empty());
        // But their percentiles are present in the serialized form.
        let p50 = m.snapshot.span_ns["analysis.run"].p50().unwrap();
        assert!(m.to_json().contains(&format!(r#""p50_ns":{p50}"#)));
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(RunManifest::from_json("not json").is_err());
        assert!(RunManifest::from_json(r#"{"spans":[{"calls":1}]}"#).is_err());
        assert!(RunManifest::from_json(r#"{"counters":[{"name":"x"}]}"#).is_err());
        let empty = RunManifest::from_json("{}").expect("missing sections are fine");
        assert!(empty.snapshot.is_empty());
    }
}
