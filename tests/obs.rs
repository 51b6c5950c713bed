//! Observability feature-matrix regression.
//!
//! The `obs` feature's promises, checked end to end:
//!
//! * counter totals are **schedule-independent** — the same pipeline on
//!   8 worker threads and on 1 produces identical counter/gauge maps
//!   (wall times may differ; record-flow totals may not);
//! * the funnel counters mirror the `Analysis` result fields exactly —
//!   the side channel never drifts from the primary output;
//! * the memoized join is built once per severity and reused after;
//! * with `--no-default-features` every instrumentation call is a no-op
//!   and the collector stays empty.
//!
//! The collector is process-global, so the tests that diff snapshots
//! serialize on a mutex — they must not observe each other's writes.

use bgq_core::analysis::Analysis;
use bgq_core::index::DatasetIndex;
#[cfg(feature = "obs")]
use bgq_model::Severity;
use bgq_sim::{generate, SimConfig};

#[cfg(feature = "obs")]
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "obs")]
fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One instrumented pipeline pass; returns the snapshot delta it produced.
fn instrumented_run(threads: usize) -> (Analysis, bgq_obs::Snapshot) {
    let out = generate(&SimConfig::small(12).with_seed(41));
    let before = bgq_obs::snapshot();
    let analysis = bgq_par::with_max_threads(threads, || {
        let idx = DatasetIndex::build(&out.dataset);
        Analysis::run_indexed(&idx)
    });
    (analysis, bgq_obs::snapshot().since(&before))
}

#[test]
#[cfg(feature = "obs")]
fn counter_totals_are_schedule_independent() {
    let _l = lock();
    let (a8, d8) = instrumented_run(8);
    let (a1, d1) = instrumented_run(1);
    assert_eq!(
        format!("{a8:?}"),
        format!("{a1:?}"),
        "analysis itself diverged"
    );
    // Counters and gauges are added as per-stage totals, never per-record
    // atomics, so any bgq-par schedule must yield the same maps.
    assert_eq!(
        d8.counters, d1.counters,
        "counter totals depend on the schedule"
    );
    assert_eq!(d8.gauges, d1.gauges, "gauge values depend on the schedule");
    // Span *identities* agree too (wall times are allowed to differ).
    let names8: Vec<&String> = d8.spans.keys().collect();
    let names1: Vec<&String> = d1.spans.keys().collect();
    assert_eq!(names8, names1, "span sets depend on the schedule");
}

#[test]
#[cfg(feature = "obs")]
fn funnel_counters_match_analysis_fields_exactly() {
    let _l = lock();
    let (analysis, delta) = instrumented_run(8);
    let f = &analysis.filter;
    assert_eq!(
        delta.counter("filter.funnel", "raw_fatal"),
        f.raw_fatal as u64
    );
    assert_eq!(
        delta.counter("filter.funnel", "after_temporal"),
        f.after_temporal as u64
    );
    assert_eq!(
        delta.counter("filter.funnel", "after_spatial"),
        f.after_spatial as u64
    );
    assert_eq!(
        delta.counter("filter.funnel", "after_similarity"),
        f.after_similarity as u64
    );
    // The join side channel is consistent with itself: every attributed
    // pair was first a candidate.
    let candidates = delta.counter("join.candidates", "");
    let emitted = delta.counter("join.emitted", "");
    assert!(
        emitted <= candidates,
        "{emitted} attributed > {candidates} candidates"
    );
    assert!(
        candidates > 0,
        "the stab index produced no candidates at all"
    );
}

#[test]
#[cfg(feature = "obs")]
fn join_memo_is_built_once_per_severity() {
    let _l = lock();
    let out = generate(&SimConfig::small(12).with_seed(42));
    let idx = DatasetIndex::build(&out.dataset);
    let before = bgq_obs::snapshot();
    let _ = Analysis::run_indexed(&idx);
    let after_run = bgq_obs::snapshot().since(&before);
    // run_indexed consults the Warn join exactly once (user correlation):
    // one miss, no hits, and no other severity is ever materialized.
    assert_eq!(after_run.counter("index.join.memo_miss", "warn"), 1);
    assert_eq!(after_run.counter("index.join.memo_hit", "warn"), 0);
    assert_eq!(after_run.counter_total("index.join.memo_miss"), 1);

    // Two further consumers at the same severity reuse the memo.
    let _ = bgq_core::ras_analysis::affected_jobs_indexed(&idx, Severity::Warn);
    let _ = bgq_core::ras_analysis::user_event_correlation_indexed(&idx, Severity::Warn);
    let delta = bgq_obs::snapshot().since(&before);
    assert_eq!(
        delta.counter("index.join.memo_miss", "warn"),
        1,
        "join rebuilt"
    );
    assert_eq!(delta.counter("index.join.memo_hit", "warn"), 2);

    // A different severity is its own (single) build.
    let _ = bgq_core::ras_analysis::affected_jobs_indexed(&idx, Severity::Fatal);
    let _ = bgq_core::ras_analysis::affected_jobs_indexed(&idx, Severity::Fatal);
    let delta = bgq_obs::snapshot().since(&before);
    assert_eq!(delta.counter("index.join.memo_miss", "fatal"), 1);
    assert_eq!(delta.counter("index.join.memo_hit", "fatal"), 1);
}

#[test]
#[cfg(feature = "obs")]
fn every_analysis_stage_records_wall_time() {
    let _l = lock();
    let (_, delta) = instrumented_run(8);
    for stage in [
        "analysis.run",
        "analysis.fit.by_class",
        "analysis.fit.intervals",
        "analysis.lifetime",
        "analysis.ras.user_correlation",
        "analysis.ras.breakdown",
        "analysis.io",
        "analysis.predict",
        "analysis.interruptions",
        "analysis.locality.boards",
        "analysis.locality.racks",
        "analysis.jobs.totals",
        "analysis.jobs.size_mix",
        "analysis.jobs.per_user",
        "analysis.jobs.per_project",
        "analysis.rates",
        "analysis.queueing",
        "analysis.temporal",
        "analysis.class_breakdown",
        "analysis.user_caused_share",
        "index.build",
        "index.join.build",
        "filter.funnel",
        "join.attribute",
    ] {
        assert!(
            delta.span_wall_ns(stage) > 0,
            "stage {stage:?} recorded no wall time"
        );
    }
}

#[test]
#[cfg(feature = "obs")]
fn data_histograms_are_schedule_independent() {
    let _l = lock();
    let (_, d8) = instrumented_run(8);
    let (_, d1) = instrumented_run(1);
    // Data histograms are merged bucket-wise, so any worker schedule
    // yields byte-identical distributions …
    assert!(
        !d8.hists.is_empty(),
        "pipeline published no data histograms"
    );
    assert_eq!(d8.hists, d1.hists, "data histograms depend on the schedule");
    // … while span-duration histograms agree in *counts* only (the
    // durations themselves are wall-clock noise).
    let counts = |d: &bgq_obs::Snapshot| -> Vec<(String, u64)> {
        d.span_ns
            .iter()
            .map(|(k, h)| (k.clone(), h.count()))
            .collect()
    };
    assert_eq!(
        counts(&d8),
        counts(&d1),
        "span invocation counts depend on the schedule"
    );
    for name in ["join.candidates_per_event", "filter.cluster_size"] {
        assert!(
            d8.hist(name, "").is_some(),
            "pipeline should publish {name}"
        );
    }
}

/// Deterministic pseudo-random values spanning the exact region, several
/// octaves, and heavy tails.
#[cfg(feature = "obs")]
fn synthetic_values(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|i| match i % 4 {
            0 => next() % 32,             // exact buckets
            1 => next() % 4_096,          // a few octaves up
            2 => next() % 1_000_000,      // mid range
            _ => next() % 40_000_000_000, // far tail
        })
        .collect()
}

#[test]
#[cfg(feature = "obs")]
fn histogram_quantiles_track_the_oracle_within_bucket_error() {
    use bgq_obs::hist::MAX_RELATIVE_ERROR;
    // The histogram quantile is nearest-rank snapped to its bucket's
    // upper bound: it can sit above the true order statistic by at most
    // MAX_RELATIVE_ERROR (6.25%). The oracle's type-7 quantile
    // interpolates between the two order statistics adjacent to
    // (n-1)·q, so the histogram answer must land inside that bracket
    // widened by the bucket error.
    for seed in [7u64, 99, 12345] {
        for n in [1usize, 2, 17, 500, 4096] {
            let values = synthetic_values(seed, n);
            let mut h = bgq_obs::Histogram::new();
            let mut sorted = values.clone();
            for &v in &values {
                h.record(v);
            }
            sorted.sort_unstable();
            let as_f64: Vec<f64> = sorted.iter().map(|&v| v as f64).collect();
            for q in [0.5, 0.9, 0.99] {
                let got = h.quantile(q).unwrap() as f64;
                let t7 = bgq_oracle::ranking::quantile_type7(&as_f64, q).unwrap();
                let j = ((n - 1) as f64 * q).floor() as usize;
                let (lo, hi) = (as_f64[j], as_f64[(j + 1).min(n - 1)]);
                assert!(
                    (lo..=hi).contains(&t7),
                    "type-7 left its own bracket: {t7} not in [{lo}, {hi}]"
                );
                assert!(
                    got >= lo && got <= hi * (1.0 + MAX_RELATIVE_ERROR) + 1.0,
                    "hist q{q} = {got} outside oracle bracket [{lo}, {hi}] \
                     (seed {seed}, n {n}, type-7 {t7})"
                );
            }
        }
    }
}

#[test]
#[cfg(feature = "obs")]
fn histogram_merge_equals_single_pass_recording() {
    let values = synthetic_values(3, 10_000);
    let mut whole = bgq_obs::Histogram::new();
    for &v in &values {
        whole.record(v);
    }
    // Any chunking of the data merges back to the identical histogram —
    // the property the parallel pipeline relies on.
    for chunk_size in [1usize, 7, 1024, 10_000] {
        let mut merged = bgq_obs::Histogram::new();
        for chunk in values.chunks(chunk_size) {
            let mut part = bgq_obs::Histogram::new();
            for &v in chunk {
                part.record(v);
            }
            merged.merge(&part);
        }
        assert_eq!(merged, whole, "chunk size {chunk_size}");
    }
}

#[test]
#[cfg(feature = "obs")]
fn trace_event_counts_are_schedule_independent() {
    let _l = lock();
    use std::collections::BTreeMap;
    // The worker epilogue is what flushes scoped workers' buffers before
    // `std::thread::scope` returns; without it events would race TLS
    // destruction (see bgq_obs::trace docs).
    bgq_par::set_worker_epilogue(bgq_obs::trace::flush_thread);
    let mut runs: Vec<BTreeMap<(&str, bool), usize>> = Vec::new();
    for threads in [8usize, 1] {
        let _ = bgq_obs::trace::take();
        bgq_obs::trace::enable();
        let _ = instrumented_run(threads);
        bgq_obs::trace::disable();
        let events = bgq_obs::trace::take();
        let mut counts: BTreeMap<(&str, bool), usize> = BTreeMap::new();
        for ev in &events {
            *counts
                .entry((ev.name, ev.phase == bgq_obs::trace::Phase::Begin))
                .or_default() += 1;
        }
        assert!(!counts.is_empty(), "tracing collected nothing");
        // Begin/end events pair up exactly: spans are RAII guards.
        for (&(name, is_begin), &n) in &counts {
            if is_begin {
                assert_eq!(
                    counts.get(&(name, false)),
                    Some(&n),
                    "unbalanced begin/end for {name}"
                );
            }
        }
        runs.push(counts);
    }
    assert_eq!(
        runs[0], runs[1],
        "per-name trace-event counts depend on the schedule"
    );
}

#[test]
#[cfg(not(feature = "obs"))]
fn disabled_obs_collects_nothing() {
    let (_, delta) = instrumented_run(4);
    assert!(delta.is_empty(), "obs-off build still collected: {delta:?}");
    assert!(!bgq_obs::enabled());
    // The macros still compile and run as no-ops.
    let _g = bgq_obs::span!("noop.stage");
    bgq_obs::add("noop.counter", 1);
    assert!(bgq_obs::snapshot().is_empty());
}
