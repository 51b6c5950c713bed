//! Observability substrate for the Mira failure-mining toolkit.
//!
//! Production log-analysis systems treat per-stage counters and timings
//! as first-class output; this crate gives the workspace the same
//! capability with zero external dependencies (mirroring the `bgq-par`
//! approach of vendoring exactly the subset we need):
//!
//! * **Spans** — [`span!`] / [`time`] record monotonic wall time per
//!   named pipeline stage into a thread-safe in-memory collector that
//!   aggregates across `bgq-par` worker threads. Names form a
//!   dot-separated hierarchy (`"analysis.fit.by_class"`), so the
//!   collected set renders as a stage tree without any runtime
//!   parent-tracking — worker threads need no inherited context.
//! * **Counters and gauges** — [`add`] / [`add_labeled`] /
//!   [`gauge_set`] record record-flow totals (filter-funnel in/out,
//!   memo hits vs. misses, join candidate vs. emitted pairs, bootstrap
//!   resample counts). Counters are *totals added once per stage*, not
//!   per-record increments, so the hot paths stay hot and the totals
//!   are deterministic under any `bgq_par` schedule.
//! * **Run manifests** — [`manifest::RunManifest`] pairs a metadata map
//!   (dataset fingerprint, feature flags, thread count) with a
//!   [`Snapshot`] and serializes to JSON or a human-readable tree.
//! * **Logging** — [`warn!`] / [`info!`] route ad-hoc diagnostics to
//!   stderr under a global verbosity switch ([`set_verbosity`]), so a
//!   `--quiet` flag can make stderr machine-clean.
//!
//! Collection is a **side channel**: nothing read from the collector
//! feeds back into any analysis result, so enabling or disabling the
//! `obs` feature cannot perturb determinism guarantees. Building with
//! `--no-default-features` compiles every instrumentation call to a
//! no-op with zero runtime cost; the logging facility stays active in
//! both modes.
//!
//! # Examples
//!
//! ```
//! let before = bgq_obs::snapshot();
//! {
//!     let _guard = bgq_obs::span!("demo.stage");
//!     bgq_obs::add("demo.records", 42);
//! }
//! let delta = bgq_obs::snapshot().since(&before);
//! #[cfg(feature = "obs")]
//! {
//!     assert_eq!(delta.counter("demo.records", ""), 42);
//!     assert!(delta.span_wall_ns("demo.stage") > 0);
//! }
//! ```

pub mod alloc;
pub mod diff;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod manifest;
mod snapshot;
pub mod term;
pub mod trace;

#[cfg(feature = "obs")]
mod collect;

pub use hist::Histogram;
pub use snapshot::{Snapshot, SpanStat};
pub use term::{set_verbosity, verbosity, Verbosity};

/// `true` when the crate was built with the `obs` feature (collection
/// active); `false` when every instrumentation call is a no-op.
#[must_use]
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}

/// RAII guard returned by [`span()`]: records the elapsed wall time under
/// the span's name when dropped (plus a timeline begin/end event pair
/// when [`trace`] collection is on, and per-stage allocation deltas when
/// the `obs-alloc` feature is on).
#[must_use = "a span guard records nothing unless it is held to the end of the stage"]
pub struct SpanGuard {
    #[cfg(feature = "obs")]
    name: &'static str,
    #[cfg(feature = "obs")]
    start: std::time::Instant,
    /// Whether this guard emitted a Begin event (so the End stays
    /// balanced even if tracing is toggled mid-span).
    #[cfg(feature = "obs")]
    traced: bool,
    #[cfg(feature = "obs-alloc")]
    alloc_start: alloc::AllocStats,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        #[cfg(feature = "obs")]
        {
            collect::record_span(self.name, self.start.elapsed());
            if self.traced {
                trace::record(self.name, trace::Phase::End);
            }
        }
        #[cfg(feature = "obs-alloc")]
        {
            let now = alloc::stats();
            collect::add_counter(
                "alloc.allocs",
                self.name,
                now.allocs.saturating_sub(self.alloc_start.allocs),
            );
            collect::add_counter(
                "alloc.bytes",
                self.name,
                now.bytes.saturating_sub(self.alloc_start.bytes),
            );
        }
    }
}

/// Opens a span: the returned guard records wall time under `name` when
/// it goes out of scope. Prefer the [`span!`] macro at call sites.
pub fn span(name: &'static str) -> SpanGuard {
    let _ = name;
    #[cfg(feature = "obs")]
    let traced = trace::is_enabled();
    #[cfg(feature = "obs")]
    if traced {
        trace::record(name, trace::Phase::Begin);
    }
    SpanGuard {
        #[cfg(feature = "obs")]
        name,
        #[cfg(feature = "obs")]
        start: std::time::Instant::now(),
        #[cfg(feature = "obs")]
        traced,
        #[cfg(feature = "obs-alloc")]
        alloc_start: alloc::stats(),
    }
}

/// Opens a span for the given stage name (RAII guard form).
///
/// ```
/// let _guard = bgq_obs::span!("join.stab");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Runs `f` under a span named `name` and returns its result.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// Adds `delta` to the unlabeled counter `name`.
pub fn add(name: &'static str, delta: u64) {
    add_labeled(name, "", delta);
}

/// Adds `delta` to the counter `name` under `label` (e.g. a severity,
/// an exit class, or a funnel stage).
pub fn add_labeled(name: &'static str, label: &str, delta: u64) {
    #[cfg(feature = "obs")]
    collect::add_counter(name, label, delta);
    #[cfg(not(feature = "obs"))]
    {
        let _ = (name, label, delta);
    }
}

/// Sets the gauge `name` to `value` (last write wins).
pub fn gauge_set(name: &'static str, value: u64) {
    gauge_set_labeled(name, "", value);
}

/// Sets the gauge `name` under `label` to `value` (last write wins).
pub fn gauge_set_labeled(name: &'static str, label: &str, value: u64) {
    #[cfg(feature = "obs")]
    collect::set_gauge(name, label, value);
    #[cfg(not(feature = "obs"))]
    {
        let _ = (name, label, value);
    }
}

/// Records one value into the unlabeled histogram `name`.
///
/// For per-record hot paths, accumulate into a local [`Histogram`]
/// (guarded by [`enabled`]) and publish once with [`hist_merge`]
/// instead — this function takes the collector lock per call.
pub fn hist_record(name: &'static str, value: u64) {
    hist_record_labeled(name, "", value);
}

/// Records one value into the histogram `name` under `label`.
pub fn hist_record_labeled(name: &'static str, label: &str, value: u64) {
    #[cfg(feature = "obs")]
    collect::record_hist(name, label, value);
    #[cfg(not(feature = "obs"))]
    {
        let _ = (name, label, value);
    }
}

/// Folds a locally accumulated histogram into the global histogram
/// `name` under `label` (one lock acquisition per stage/chunk; merge
/// order never matters, so per-worker parts stay schedule-independent).
pub fn hist_merge(name: &'static str, label: &str, part: &Histogram) {
    #[cfg(feature = "obs")]
    collect::merge_hist(name, label, part);
    #[cfg(not(feature = "obs"))]
    {
        let _ = (name, label, part);
    }
}

/// Takes a consistent snapshot of every counter, gauge, and span
/// aggregate collected so far (empty when the `obs` feature is off).
///
/// The collector is cumulative and process-global; callers that want
/// per-run numbers snapshot before and after and use
/// [`Snapshot::since`].
#[must_use]
pub fn snapshot() -> Snapshot {
    #[cfg(feature = "obs")]
    {
        collect::snapshot()
    }
    #[cfg(not(feature = "obs"))]
    {
        Snapshot::default()
    }
}

/// Clears the collector (test hook; production callers should prefer
/// snapshot diffs, which tolerate concurrent instrumented work).
pub fn reset() {
    #[cfg(feature = "obs")]
    collect::reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; serialize the tests that assert
    // on absolute state so they cannot observe each other's writes.
    #[cfg(feature = "obs")]
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(feature = "obs")]
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    #[cfg(feature = "obs")]
    fn counters_accumulate_and_diff() {
        let _l = lock();
        let before = snapshot();
        add("test.counter.a", 3);
        add("test.counter.a", 4);
        add_labeled("test.counter.b", "warn", 2);
        let delta = snapshot().since(&before);
        assert_eq!(delta.counter("test.counter.a", ""), 7);
        assert_eq!(delta.counter("test.counter.b", "warn"), 2);
        assert_eq!(delta.counter("test.counter.b", "fatal"), 0);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn spans_record_nonzero_wall_time() {
        let _l = lock();
        let before = snapshot();
        {
            let _g = span!("test.span.outer");
        }
        time("test.span.timed", || std::hint::black_box(1 + 1));
        let delta = snapshot().since(&before);
        assert_eq!(delta.spans["test.span.outer"].calls, 1);
        assert!(
            delta.span_wall_ns("test.span.outer") > 0,
            "wall time clamps to ≥ 1 ns"
        );
        assert!(delta.span_wall_ns("test.span.timed") > 0);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn spans_aggregate_across_threads() {
        let _l = lock();
        let before = snapshot();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = span!("test.span.threads");
                    add("test.counter.threads", 5);
                });
            }
        });
        let delta = snapshot().since(&before);
        assert_eq!(delta.spans["test.span.threads"].calls, 4);
        assert_eq!(delta.counter("test.counter.threads", ""), 20);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn gauges_take_the_last_write() {
        let _l = lock();
        gauge_set("test.gauge.a", 10);
        gauge_set("test.gauge.a", 3);
        let snap = snapshot();
        assert_eq!(snap.gauges[&("test.gauge.a".to_owned(), String::new())], 3);
    }

    #[test]
    #[cfg(feature = "obs")]
    fn reset_clears_everything() {
        let _l = lock();
        add("test.counter.reset", 1);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.counter.reset", ""), 0);
    }

    #[test]
    #[cfg(not(feature = "obs"))]
    fn disabled_mode_is_a_no_op() {
        let _g = span!("test.noop");
        add("test.noop", 1);
        gauge_set("test.noop", 1);
        time("test.noop", || ());
        let snap = snapshot();
        assert!(snap.is_empty());
        assert!(!enabled());
    }
}
