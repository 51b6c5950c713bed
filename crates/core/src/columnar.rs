//! Sorted, partitioned columnar per-entity aggregation.
//!
//! The naive per-user pass holds one map entry per distinct entity for
//! the whole dataset; at 10⁶+ users the pointer-chasing tree dominates
//! wall time and the resident map dominates memory. This engine instead:
//!
//! 1. slices the job log into fixed-size row chunks (the *partition
//!    layout* — independent of thread count, so output never depends on
//!    parallelism),
//! 2. per chunk, extracts a compact `(key, failed, node_seconds)`
//!    column strip, sorts it by key, and folds equal-key runs into a
//!    sorted partial — memory proportional to distinct keys *per chunk*,
//! 3. merges the sorted partials left-to-right over chunk order, in
//!    waves of one chunk per worker thread: each wave is mapped in
//!    parallel and folded into the accumulator in place before the next
//!    wave starts, so the resident set is one accumulator plus a single
//!    wave of partials — never every partial at once.
//!
//! Every accumulated quantity is an integer (job counts and exact
//! node-seconds), so the merge is associative and commutative and the
//! result is **bit-identical** across thread counts *and* across chunk
//! layouts. Core-hours are derived from node-seconds once, at finalize
//! (`nodes × 16 cores × seconds ÷ 3600`), instead of being accumulated
//! in floating point per row.

use bgq_model::{JobRecord, Machine};

use crate::jobstats::EntityActivity;

/// Default rows per partition chunk. Large enough that the sort
/// amortizes, small enough that a chunk's column strip stays cache- and
/// memory-friendly (1 MiB of key/flag/seconds triples).
pub const DEFAULT_CHUNK_ROWS: usize = 1 << 16;

/// One entity's accumulated integers, sorted by `id` inside a partial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Partial {
    id: u32,
    jobs: u64,
    failed: u64,
    node_seconds: u64,
}

/// Aggregates per-user activity, sorted by descending job count
/// (ties broken by ascending id).
#[must_use]
pub fn per_user_columnar(jobs: &[JobRecord]) -> Vec<EntityActivity> {
    per_entity_columnar(jobs, |j| j.user.raw(), DEFAULT_CHUNK_ROWS)
}

/// Aggregates per-project activity, sorted like [`per_user_columnar`].
#[must_use]
pub fn per_project_columnar(jobs: &[JobRecord]) -> Vec<EntityActivity> {
    per_entity_columnar(jobs, |j| j.project.raw(), DEFAULT_CHUNK_ROWS)
}

/// The full engine, with an explicit chunk size so tests can prove the
/// output is invariant across partition layouts.
///
/// # Panics
///
/// Panics if `chunk_rows` is zero.
#[must_use]
pub fn per_entity_columnar(
    jobs: &[JobRecord],
    key: impl Fn(&JobRecord) -> u32 + Sync,
    chunk_rows: usize,
) -> Vec<EntityActivity> {
    let mut tally = EntityTally::default();
    tally.add_chunked(jobs, &key, chunk_rows);
    finalize(tally.acc)
}

/// A running per-entity aggregate: the engine's id-sorted accumulator,
/// folded one batch of jobs at a time.
///
/// Every quantity is an integer, so adding a log in one batch or one
/// day at a time gives the same rows; the serve daemon keeps one of
/// these instead of the job history.
#[derive(Debug, Clone, Default)]
pub struct EntityTally {
    acc: Vec<Partial>,
}

impl EntityTally {
    /// Folds `jobs` in, keyed by `key`.
    pub fn add(&mut self, jobs: &[JobRecord], key: impl Fn(&JobRecord) -> u32 + Sync) {
        self.add_chunked(jobs, &key, DEFAULT_CHUNK_ROWS);
    }

    fn add_chunked(
        &mut self,
        jobs: &[JobRecord],
        key: &(impl Fn(&JobRecord) -> u32 + Sync),
        chunk_rows: usize,
    ) {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let n_chunks = jobs.len().div_ceil(chunk_rows);
        // Wave-bounded map+fold: materializing every chunk partial before
        // merging would hold O(n_chunks × chunk keys) resident — more than
        // the map-scan this engine replaces. One chunk per worker keeps the
        // map fully parallel while the fold frees each wave before the next.
        // The fold stays strictly left-to-right over chunk order (integer
        // sums make the merge associative), so the wave size — a function
        // of thread count — can never change the output bytes.
        let wave = bgq_par::max_workers().max(1);
        let mut done = 0;
        while done < n_chunks {
            let n = wave.min(n_chunks - done);
            let partials = bgq_par::par_map_range(n, |i| {
                let start = (done + i) * chunk_rows;
                let end = (start + chunk_rows).min(jobs.len());
                chunk_partial(&jobs[start..end], key)
            });
            for part in &partials {
                merge_into(&mut self.acc, part);
            }
            done += n;
        }
    }

    /// The rows of every job added so far, in presentation order (jobs
    /// descending, id ascending).
    #[must_use]
    pub fn rows(&self) -> Vec<EntityActivity> {
        finalize(self.acc.clone())
    }
}

/// Sorts one chunk's column strip by key and folds equal-key runs.
fn chunk_partial(chunk: &[JobRecord], key: &(impl Fn(&JobRecord) -> u32 + Sync)) -> Vec<Partial> {
    let mut strip: Vec<(u32, bool, u64)> = chunk
        .iter()
        .map(|j| (key(j), j.exit_code != 0, j.node_seconds()))
        .collect();
    // Equal keys fold commutatively, so an unstable key-only sort is safe.
    strip.sort_unstable_by_key(|t| t.0);
    let mut out: Vec<Partial> = Vec::new();
    for (id, failed, node_seconds) in strip {
        match out.last_mut() {
            Some(p) if p.id == id => {
                p.jobs += 1;
                p.failed += u64::from(failed);
                p.node_seconds += node_seconds;
            }
            _ => out.push(Partial {
                id,
                jobs: 1,
                failed: u64::from(failed),
                node_seconds,
            }),
        }
    }
    out
}

/// Merges the id-sorted `b` into the id-sorted `acc` in place, summing
/// collisions — a backward two-pointer merge, so no scratch vector is
/// allocated and the accumulator grows by at most `b.len()`.
fn merge_into(acc: &mut Vec<Partial>, b: &[Partial]) {
    if b.is_empty() {
        return;
    }
    if acc.is_empty() {
        acc.extend_from_slice(b);
        return;
    }
    let mut i = acc.len(); // unread accumulator entries: [0, i)
    let mut j = b.len(); // unread b entries: [0, j)
                         // Exact reservation: doubling growth would carry up to len-sized
                         // slack through the whole fold (and into finalize), defeating the
                         // memory bound; large-block reallocs are remapped, not copied.
    acc.reserve_exact(j);
    acc.resize(
        i + j,
        Partial {
            id: 0,
            jobs: 0,
            failed: 0,
            node_seconds: 0,
        },
    );
    let mut k = acc.len(); // written tail: [k, len)
                           // Writes land at k-1 ≥ i+j-1 ≥ i (j > 0 inside the loop), so they
                           // never touch an unread slot.
    while i > 0 && j > 0 {
        k -= 1;
        match acc[i - 1].id.cmp(&b[j - 1].id) {
            std::cmp::Ordering::Greater => {
                i -= 1;
                acc[k] = acc[i];
            }
            std::cmp::Ordering::Less => {
                j -= 1;
                acc[k] = b[j];
            }
            std::cmp::Ordering::Equal => {
                i -= 1;
                j -= 1;
                acc[k] = Partial {
                    id: acc[i].id,
                    jobs: acc[i].jobs + b[j].jobs,
                    failed: acc[i].failed + b[j].failed,
                    node_seconds: acc[i].node_seconds + b[j].node_seconds,
                };
            }
        }
    }
    while j > 0 {
        k -= 1;
        j -= 1;
        acc[k] = b[j];
    }
    // Each collision shrank the merged tail by one, leaving a gap
    // between the untouched prefix [0, i) and the tail [k, len).
    if i < k {
        acc.drain(i..k);
    }
}

/// Converts merged partials to the public row type and applies the
/// presentation order (jobs descending, id ascending).
fn finalize(partials: Vec<Partial>) -> Vec<EntityActivity> {
    let cores = Machine::MIRA.cores_per_card() as f64;
    let mut v: Vec<EntityActivity> = partials
        .into_iter()
        .map(|p| EntityActivity {
            id: p.id,
            jobs: p.jobs as usize,
            failed: p.failed as usize,
            node_seconds: p.node_seconds,
            core_hours: p.node_seconds as f64 * cores / 3_600.0,
        })
        .collect();
    // Unstable is safe — (jobs, id) is a strict total order per row —
    // and skips the stable sort's n/2 scratch buffer.
    v.sort_unstable_by(|a, b| b.jobs.cmp(&a.jobs).then(a.id.cmp(&b.id)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::{Block, Timestamp};

    fn job(id: u64, user: u32, nodes: u32, exit: i32, len: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(user),
            project: ProjectId::new(user % 3),
            queue: Queue::Production,
            nodes,
            mode: Mode::default(),
            requested_walltime_s: 86_400,
            queued_at: Timestamp::from_secs(0),
            started_at: Timestamp::from_secs(10),
            ended_at: Timestamp::from_secs(10 + len),
            block: Block::new(0, (nodes / 512).max(1) as u16).unwrap(),
            exit_code: exit,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    fn corpus() -> Vec<JobRecord> {
        (0..1_000u64)
            .map(|i| {
                job(
                    i + 1,
                    (i * 7 % 113) as u32,
                    512 << (i % 3),
                    if i % 4 == 0 { 139 } else { 0 },
                    60 + (i as i64 * 37 % 5_000),
                )
            })
            .collect()
    }

    #[test]
    fn matches_a_naive_map_scan() {
        let jobs = corpus();
        let got = per_user_columnar(&jobs);
        let mut naive: std::collections::BTreeMap<u32, (usize, usize, u64)> = Default::default();
        for j in &jobs {
            let e = naive.entry(j.user.raw()).or_default();
            e.0 += 1;
            e.1 += usize::from(j.exit_code != 0);
            e.2 += j.node_seconds();
        }
        assert_eq!(got.len(), naive.len());
        for row in &got {
            let (jobs, failed, ns) = naive[&row.id];
            assert_eq!((row.jobs, row.failed, row.node_seconds), (jobs, failed, ns));
            assert_eq!(row.core_hours, ns as f64 * 16.0 / 3_600.0);
        }
        // Presentation order: jobs descending, id ascending.
        assert!(got
            .windows(2)
            .all(|w| { w[0].jobs > w[1].jobs || (w[0].jobs == w[1].jobs && w[0].id < w[1].id) }));
    }

    #[test]
    fn invariant_across_chunk_layouts() {
        let jobs = corpus();
        let baseline = per_entity_columnar(&jobs, |j| j.user.raw(), DEFAULT_CHUNK_ROWS);
        for chunk_rows in [1, 7, 64, 1_000, 4_096] {
            assert_eq!(
                per_entity_columnar(&jobs, |j| j.user.raw(), chunk_rows),
                baseline,
                "layout {chunk_rows} must not change the result"
            );
        }
    }

    #[test]
    fn invariant_across_thread_counts() {
        let jobs = corpus();
        let one =
            bgq_par::with_max_threads(1, || per_entity_columnar(&jobs, |j| j.user.raw(), 128));
        let eight =
            bgq_par::with_max_threads(8, || per_entity_columnar(&jobs, |j| j.user.raw(), 128));
        assert_eq!(one, eight);
    }

    #[test]
    fn batch_by_batch_fold_matches_one_pass() {
        let jobs = corpus();
        let mut tally = EntityTally::default();
        for batch in jobs.chunks(97) {
            tally.add(batch, |j| j.user.raw());
        }
        assert_eq!(tally.rows(), per_user_columnar(&jobs));
    }

    #[test]
    fn empty_log_yields_empty_rows() {
        assert!(per_user_columnar(&[]).is_empty());
        assert!(per_project_columnar(&[]).is_empty());
    }
}
