//! Timeline tracing: per-thread begin/end events exported as Chrome
//! trace-event JSON (loadable in `chrome://tracing` or Perfetto).
//!
//! Tracing is **opt-in at runtime** (`--trace-out` flips it on): when
//! disabled, the only cost a span pays is one relaxed atomic load.
//! When enabled, every [`crate::span!`] guard records a `B` (begin)
//! event at creation and an `E` (end) event at drop into a
//! **thread-local** buffer — no lock on the hot path. Buffers flush
//! into a global store when a thread exits (a TLS destructor) or when
//! [`flush_thread`] is called explicitly. The explicit flush is the
//! load-bearing one: `bgq-par` invokes it through its worker-epilogue
//! hook because `std::thread::scope` can return *before* a scoped
//! worker's TLS destructors run — the destructor alone would lose
//! events to that race. (Plain `JoinHandle::join` does wait for TLS
//! destructors, so ordinary spawned threads are safe either way.)
//!
//! Thread ids are small integers assigned on each thread's first event
//! (the exporting/main thread usually gets 0). [`take`] drains the
//! store in the **canonical order** `(tid, seq)` — `seq` is a per-thread
//! event counter — so two exports of the same single-threaded run are
//! byte-identical, and multi-threaded runs are deterministic up to
//! worker/tid assignment (per-name event *counts* are fully
//! schedule-independent; `tests/obs.rs` asserts exactly that).
//!
//! # JSON schema
//!
//! ```json
//! {"displayTimeUnit": "ms",
//!  "traceEvents": [
//!    {"name": "analysis.run", "cat": "stage", "ph": "B",
//!     "pid": 1, "tid": 0, "ts": 12.345},
//!    {"name": "analysis.run", "cat": "stage", "ph": "E",
//!     "pid": 1, "tid": 0, "ts": 15.000}
//!  ]}
//! ```
//!
//! `ts` is microseconds (3 decimals, i.e. nanosecond resolution) from a
//! process-local monotonic epoch fixed at the first [`enable`]. `B`/`E`
//! events nest per `tid` because span guards are strictly scoped RAII.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Begin or end of one span invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span entered (`ph: "B"`).
    Begin,
    /// Span exited (`ph: "E"`).
    End,
}

/// One timeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span (stage) name.
    pub name: &'static str,
    /// Small per-thread id assigned on the thread's first event.
    pub tid: u32,
    /// Per-thread monotonic sequence number (canonical sort key).
    pub seq: u32,
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Begin or end.
    pub phase: Phase,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static FLUSHED: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

struct ThreadBuf {
    tid: u32,
    seq: u32,
    events: Vec<TraceEvent>,
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        // Thread exiting with buffered events: hand them to the store.
        // Best-effort fallback only — `JoinHandle::join` waits for TLS
        // destructors, but `std::thread::scope` can return before a
        // scoped worker's destructors have run. Scoped workers must
        // flush explicitly (the `bgq-par` epilogue hook does).
        if !self.events.is_empty() {
            flush_into_store(&mut self.events);
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const {
        RefCell::new(ThreadBuf {
            tid: u32::MAX, // assigned on first event
            seq: 0,
            events: Vec::new(),
        })
    };
}

fn flush_into_store(events: &mut Vec<TraceEvent>) {
    let mut store = FLUSHED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    store.append(events);
}

/// Turns event collection on. Fixes the trace epoch on first use.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns event collection off (already-buffered events are kept).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// `true` while events are being collected.
#[must_use]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records one event for the current thread. Called by the span guard;
/// callers outside the crate normally never need it directly.
pub(crate) fn record(name: &'static str, phase: Phase) {
    let ts_ns = {
        let epoch = EPOCH.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    };
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if b.tid == u32::MAX {
            b.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        let ev = TraceEvent {
            name,
            tid: b.tid,
            seq: b.seq,
            ts_ns,
            phase,
        };
        b.seq += 1;
        b.events.push(ev);
    });
}

/// Flushes the current thread's buffered events into the global store.
///
/// Matches the signature of `bgq_par::set_worker_epilogue`, which is the
/// intended installation site: workers then flush deterministically
/// before the scope joins them (the TLS destructor is the fallback for
/// threads outside `bgq-par`).
pub fn flush_thread() {
    BUF.with(|b| {
        let mut b = b.borrow_mut();
        if !b.events.is_empty() {
            let mut events = std::mem::take(&mut b.events);
            flush_into_store(&mut events);
        }
    });
}

/// Drains every buffered event (flushing the calling thread first) in
/// canonical `(tid, seq)` order.
#[must_use]
pub fn take() -> Vec<TraceEvent> {
    flush_thread();
    let mut events = {
        let mut store = FLUSHED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        std::mem::take(&mut *store)
    };
    events.sort_by_key(|e| (e.tid, e.seq));
    events
}

/// Serializes events as Chrome trace-event JSON (see module docs).
#[must_use]
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, ev) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let us = ev.ts_ns / 1_000;
        let frac = ev.ts_ns % 1_000;
        let ph = match ev.phase {
            Phase::Begin => 'B',
            Phase::End => 'E',
        };
        // Span names are static identifiers (no quotes/control chars),
        // but escape anyway so the output is valid JSON for any name.
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{us}.{frac:03}}}",
            crate::json::escape(ev.name),
            ev.tid,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Trace state is process-global; serialize these tests.
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = lock();
        disable();
        let _ = take();
        {
            let _g = crate::span!("trace.test.off");
        }
        // Concurrent tests in this binary may flush their own (named)
        // events; only assert that *this* disabled span left none.
        assert!(take().iter().all(|e| e.name != "trace.test.off"));
    }

    #[test]
    fn spans_emit_balanced_begin_end_pairs() {
        let _l = lock();
        let _ = take();
        enable();
        {
            let _outer = crate::span!("trace.test.outer");
            let _inner = crate::span!("trace.test.inner");
        }
        disable();
        let events = take();
        let ours: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name.starts_with("trace.test."))
            .collect();
        assert_eq!(ours.len(), 4, "{ours:?}");
        // Canonical order on one thread is creation order: B B E E with
        // LIFO ends (inner closes before outer).
        let want = [
            ("trace.test.outer", Phase::Begin),
            ("trace.test.inner", Phase::Begin),
            ("trace.test.inner", Phase::End),
            ("trace.test.outer", Phase::End),
        ];
        for (ev, (name, phase)) in ours.iter().zip(want) {
            assert_eq!((ev.name, ev.phase), (name, phase));
        }
        assert!(ours.windows(2).all(|w| w[0].seq < w[1].seq));
        assert!(ours.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn worker_threads_flush_on_exit() {
        let _l = lock();
        let _ = take();
        enable();
        // Plain spawn + join: `join` waits for TLS destructors, so the
        // Drop-based flush is deterministic here. (`std::thread::scope`
        // would NOT be — scoped workers need the explicit epilogue
        // flush; `tests/obs.rs` covers that path through `bgq-par`.)
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let _g = crate::span!("trace.test.worker");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
        disable();
        let events = take();
        let ours: Vec<&TraceEvent> = events
            .iter()
            .filter(|e| e.name == "trace.test.worker")
            .collect();
        assert_eq!(ours.len(), 6, "3 workers × B+E: {ours:?}");
        // Each worker's events nest on its own tid.
        for tid in ours
            .iter()
            .map(|e| e.tid)
            .collect::<std::collections::BTreeSet<_>>()
        {
            let phases: Vec<Phase> = ours
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.phase)
                .collect();
            assert_eq!(phases, vec![Phase::Begin, Phase::End], "tid {tid}");
        }
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let events = vec![
            TraceEvent {
                name: "a.b",
                tid: 0,
                seq: 0,
                ts_ns: 1_234_567,
                phase: Phase::Begin,
            },
            TraceEvent {
                name: "a.b",
                tid: 0,
                seq: 1,
                ts_ns: 2_000_001,
                phase: Phase::End,
            },
        ];
        let json = to_chrome_json(&events);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(
            json.contains(r#""name":"a.b","cat":"stage","ph":"B","pid":1,"tid":0,"ts":1234.567"#)
        );
        assert!(json.contains(r#""ph":"E","pid":1,"tid":0,"ts":2000.001"#));
        assert_eq!(
            to_chrome_json(&[]),
            r#"{"displayTimeUnit":"ms","traceEvents":[]}"#
        );
    }
}
