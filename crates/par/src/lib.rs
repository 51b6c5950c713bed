//! Deterministic data parallelism on scoped threads.
//!
//! The analysis pipeline wants rayon-style combinators, but the build
//! environment cannot fetch rayon, so this crate provides the small
//! subset the workspace needs — implemented on [`std::thread::scope`]
//! with one hard guarantee: **every combinator returns bit-identical
//! results whether it runs on one thread or many.**
//!
//! That guarantee holds because the combinators only parallelize *maps*
//! over disjoint input chunks and then concatenate (or fold) the chunk
//! results in input order. No reduction is reordered; floating-point
//! sums happen in the same sequence as the sequential loop whenever the
//! caller folds the returned vector sequentially, and [`par_fold`]
//! restricts merging to chunk-associative operations the caller
//! declares.
//!
//! Parallelism is feature-gated: building with
//! `--no-default-features` (or forcing [`with_max_threads`]`(1, ..)`)
//! runs every combinator inline with zero thread overhead.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Global override for the maximum worker count; `0` means "no
/// override" (use the machine's available parallelism).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Hook run at the end of every spawned worker closure, while the
/// worker thread is still inside the scope. Stored as a `usize`-encoded
/// fn pointer so the static stays const-initializable (`0` = none).
static WORKER_EPILOGUE: AtomicUsize = AtomicUsize::new(0);

/// Installs `hook` to run at the tail of every worker closure this
/// crate spawns, before the scope joins the worker.
///
/// This exists for telemetry that buffers in thread-local storage:
/// `std::thread::scope` guarantees worker *closures* finish before the
/// scope returns, but **not** that their TLS destructors have run — so a
/// destructor-based flush can race with the caller reading the flushed
/// data. An epilogue runs inside the closure, on the worker thread,
/// strictly before the scope returns. `bgq-cli` installs
/// `bgq_obs::trace::flush_thread` here; this crate stays
/// dependency-free and never installs anything itself.
///
/// The hook is process-global and must be idempotent and cheap; it does
/// not run for the sequential (single-worker) fast paths, which execute
/// on the caller's thread where no flush is needed.
pub fn set_worker_epilogue(hook: fn()) {
    WORKER_EPILOGUE.store(hook as usize, Ordering::SeqCst);
}

/// Runs the installed worker epilogue, if any.
fn run_worker_epilogue() {
    let raw = WORKER_EPILOGUE.load(Ordering::SeqCst);
    if raw != 0 {
        // SAFETY: the only nonzero values ever stored are `fn()`
        // pointers provided to `set_worker_epilogue`.
        let hook: fn() = unsafe { std::mem::transmute::<usize, fn()>(raw) };
        hook();
    }
}

/// Runs `f` and then the worker epilogue on the same (worker) thread.
fn with_epilogue<R>(f: impl FnOnce() -> R) -> R {
    let result = f();
    run_worker_epilogue();
    result
}

/// Number of worker threads a combinator may use for `n` items.
fn workers_for(n: usize) -> usize {
    if cfg!(not(feature = "parallel")) || n < 2 {
        return 1;
    }
    let hw = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cap = match MAX_THREADS.load(Ordering::Relaxed) {
        0 => hw,
        limit => limit,
    };
    cap.min(n).max(1)
}

/// Runs `f` with the combinators capped at `limit` worker threads
/// (process-wide), restoring the previous cap afterwards.
///
/// `with_max_threads(1, ..)` forces the sequential code path even in a
/// parallel build — the determinism regression tests compare its output
/// against the fully parallel path.
pub fn with_max_threads<T>(limit: usize, f: impl FnOnce() -> T) -> T {
    let prev = MAX_THREADS.swap(limit, Ordering::SeqCst);
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.store(self.0, Ordering::SeqCst);
        }
    }
    let _restore = Restore(prev);
    f()
}

/// `true` when the combinators may actually use more than one thread.
#[must_use]
pub fn is_parallel() -> bool {
    workers_for(usize::MAX) > 1
}

/// Number of worker threads the combinators would use for an unbounded
/// item count: the hardware parallelism clipped by any
/// [`with_max_threads`] cap (always 1 in sequential builds). Lets
/// callers size memory-bounded work waves to the real concurrency.
#[must_use]
pub fn max_workers() -> usize {
    workers_for(usize::MAX)
}

/// Maps `f` over `items`, in parallel, preserving input order.
///
/// Equivalent to `items.iter().map(f).collect()` — including the order
/// in which results appear — but the per-item work is spread over
/// contiguous chunks on scoped threads.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_indexed(items, |_, item| f(item))
}

/// Like [`par_map`], but `f` also receives the item's index.
pub fn par_map_indexed<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let workers = workers_for(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let f = &f;
                s.spawn(move || {
                    with_epilogue(|| {
                        slice
                            .iter()
                            .enumerate()
                            .map(|(i, x)| f(c * chunk + i, x))
                            .collect::<Vec<R>>()
                    })
                })
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Maps `f` over the range `0..n` in parallel, preserving order.
pub fn par_map_range<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = workers_for(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = n.div_ceil(workers);
    let mut parts: Vec<Vec<R>> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(chunk)
            .map(|start| {
                let f = &f;
                let end = (start + chunk).min(n);
                s.spawn(move || with_epilogue(|| (start..end).map(f).collect::<Vec<R>>()))
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n);
    for part in parts {
        out.extend(part);
    }
    out
}

/// Maps `f` over contiguous chunks of `items` (passing the chunk's base
/// index and slice), then folds the per-chunk results **in input
/// order** with `merge`.
///
/// Deterministic as long as `merge` is associative over *adjacent*
/// chunk results (integer sums, histogram merges, concatenations) —
/// the fold order is always left-to-right over chunks, matching a
/// sequential pass.
pub fn par_chunk_fold<T, A>(
    items: &[T],
    identity: impl Fn() -> A,
    chunk_map: impl Fn(usize, &[T]) -> A + Sync,
    mut merge: impl FnMut(A, A) -> A,
) -> A
where
    T: Sync,
    A: Send,
{
    let workers = workers_for(items.len());
    if workers <= 1 {
        return merge(identity(), chunk_map(0, items));
    }
    let chunk = items.len().div_ceil(workers);
    let mut parts: Vec<A> = Vec::with_capacity(workers);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(c, slice)| {
                let chunk_map = &chunk_map;
                s.spawn(move || with_epilogue(|| chunk_map(c * chunk, slice)))
            })
            .collect();
        for h in handles {
            parts.push(h.join().expect("worker panicked"));
        }
    });
    let mut acc = identity();
    for part in parts {
        acc = merge(acc, part);
    }
    acc
}

/// Runs two closures, potentially in parallel, returning both results.
pub fn join<RA: Send, RB: Send>(
    a: impl FnOnce() -> RA + Send,
    b: impl FnOnce() -> RB + Send,
) -> (RA, RB) {
    if workers_for(2) <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|s| {
        let hb = s.spawn(|| with_epilogue(b));
        let ra = a();
        (ra, hb.join().expect("worker panicked"))
    })
}

/// Runs four independent closures, potentially in parallel.
pub fn join4<R1: Send, R2: Send, R3: Send, R4: Send>(
    f1: impl FnOnce() -> R1 + Send,
    f2: impl FnOnce() -> R2 + Send,
    f3: impl FnOnce() -> R3 + Send,
    f4: impl FnOnce() -> R4 + Send,
) -> (R1, R2, R3, R4) {
    let ((r1, r2), (r3, r4)) = join(|| join(f1, f2), || join(f3, f4));
    (r1, r2, r3, r4)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that set or depend on the process-global
    /// thread cap: one test's `with_max_threads` must not leak into
    /// another's assertions.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn par_map_preserves_order() {
        let _cap = lock();
        let items: Vec<u64> = (0..10_001).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(par_map(&items, |x| x * x), seq);
        assert_eq!(
            with_max_threads(1, || par_map(&items, |x| x * x)),
            seq,
            "forced-sequential path must match"
        );
    }

    #[test]
    fn par_map_indexed_sees_global_indices() {
        let items = vec![5u64; 1_000];
        let got = par_map_indexed(&items, |i, &v| i as u64 + v);
        let want: Vec<u64> = (0..1_000).map(|i| i + 5).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_range_matches_sequential() {
        let got = par_map_range(997, |i| i * 3);
        let want: Vec<usize> = (0..997).map(|i| i * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn chunk_fold_merges_in_order() {
        let items: Vec<usize> = (0..5_000).collect();
        let got = par_chunk_fold(
            &items,
            Vec::new,
            |_base, slice| slice.iter().filter(|&&x| x % 7 == 0).copied().collect::<Vec<_>>(),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let want: Vec<usize> = items.iter().filter(|&&x| x % 7 == 0).copied().collect();
        assert_eq!(got, want);
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!((a, b), (4, "ok"));
        let (r1, r2, r3, r4) = join4(|| 1, || 2, || 3, || 4);
        assert_eq!((r1, r2, r3, r4), (1, 2, 3, 4));
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(par_map(&[] as &[u8], |x| *x).is_empty());
        assert!(par_map_range(0, |i| i).is_empty());
    }

    #[test]
    fn worker_epilogue_runs_on_each_worker() {
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        fn bump() {
            CALLS.fetch_add(1, Ordering::SeqCst);
        }
        let _cap = lock();
        set_worker_epilogue(bump);
        let before = CALLS.load(Ordering::SeqCst);
        let items: Vec<u64> = (0..10_000).collect();
        let _ = par_map(&items, |x| x + 1);
        let after = CALLS.load(Ordering::SeqCst);
        set_worker_epilogue(|| {});
        if is_parallel() {
            // One epilogue per spawned worker; the exact count depends
            // on the machine's parallelism, but there must be some.
            assert!(after > before, "epilogue never ran");
        } else {
            // Sequential fast path runs on the caller: no epilogue.
            assert_eq!(after, before);
        }
    }

    #[test]
    fn with_max_threads_restores_on_exit() {
        let _cap = lock();
        with_max_threads(3, || {
            assert!(workers_for(100) <= 3 || cfg!(not(feature = "parallel")));
        });
        // After the closure the override is gone (0 = hardware default).
        assert_eq!(MAX_THREADS.load(Ordering::Relaxed), 0);
    }
}
