//! The process-global collector behind every span, counter, gauge and
//! histogram call.
//!
//! One mutex-guarded state blob is plenty: instrumentation is coarse —
//! one span per pipeline stage, one counter add per aggregate — so the
//! lock is taken a few hundred times per full analysis run, far below
//! any contention threshold. Keys arrive as `&'static str` names plus a
//! short label, so the hot path allocates at most one small `String`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use crate::hist::Histogram;
use crate::snapshot::{Snapshot, SpanStat};

#[derive(Default)]
struct State {
    counters: BTreeMap<(&'static str, String), u64>,
    gauges: BTreeMap<(&'static str, String), u64>,
    spans: BTreeMap<&'static str, SpanStat>,
    /// Data histograms recorded via `hist_record`/`hist_merge`.
    hists: BTreeMap<(&'static str, String), Histogram>,
    /// Per-invocation span durations (ns), keyed by span name.
    span_ns: BTreeMap<&'static str, Histogram>,
}

static STATE: Mutex<State> = Mutex::new(State {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    spans: BTreeMap::new(),
    hists: BTreeMap::new(),
    span_ns: BTreeMap::new(),
});

fn locked() -> std::sync::MutexGuard<'static, State> {
    // A panic while holding the lock only poisons observability data;
    // keep collecting rather than cascading the panic.
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub(crate) fn record_span(name: &'static str, elapsed: Duration) {
    // Clamp to ≥ 1 ns so a recorded stage never reports zero wall time
    // even on a coarse clock.
    let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX).max(1);
    let mut st = locked();
    let stat = st.spans.entry(name).or_default();
    stat.calls += 1;
    stat.wall_ns = stat.wall_ns.saturating_add(ns);
    // Per-invocation duration distribution: tail behavior of a stage
    // that runs many times (one log bucket insert; same lock).
    st.span_ns.entry(name).or_default().record(ns);
}

pub(crate) fn record_hist(name: &'static str, label: &str, value: u64) {
    let mut st = locked();
    match st.hists.get_mut(&(name, label.to_owned())) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            st.hists.insert((name, label.to_owned()), h);
        }
    }
}

pub(crate) fn merge_hist(name: &'static str, label: &str, part: &Histogram) {
    if part.is_empty() {
        return;
    }
    let mut st = locked();
    match st.hists.get_mut(&(name, label.to_owned())) {
        Some(h) => h.merge(part),
        None => {
            st.hists.insert((name, label.to_owned()), part.clone());
        }
    }
}

pub(crate) fn add_counter(name: &'static str, label: &str, delta: u64) {
    if delta == 0 {
        return;
    }
    let mut st = locked();
    // Entry with a borrowed probe first would need a custom key type;
    // one short String per add is fine at stage granularity.
    let slot = st.counters.entry((name, label.to_owned())).or_insert(0);
    *slot = slot.saturating_add(delta);
}

pub(crate) fn set_gauge(name: &'static str, label: &str, value: u64) {
    locked().gauges.insert((name, label.to_owned()), value);
}

pub(crate) fn snapshot() -> Snapshot {
    let st = locked();
    Snapshot {
        counters: st
            .counters
            .iter()
            .map(|(&(n, ref l), &v)| ((n.to_owned(), l.clone()), v))
            .collect(),
        gauges: st
            .gauges
            .iter()
            .map(|(&(n, ref l), &v)| ((n.to_owned(), l.clone()), v))
            .collect(),
        spans: st.spans.iter().map(|(&n, &s)| (n.to_owned(), s)).collect(),
        hists: st
            .hists
            .iter()
            .map(|(&(n, ref l), h)| ((n.to_owned(), l.clone()), h.clone()))
            .collect(),
        span_ns: st
            .span_ns
            .iter()
            .map(|(&n, h)| (n.to_owned(), h.clone()))
            .collect(),
    }
}
