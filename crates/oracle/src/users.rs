//! Naive references for the million-user layer: retry chains, per-user
//! aggregation, and exact heavy hitters.
//!
//! The production sides — `bgq_core::chains::mine_chains`, the sorted
//! columnar engine in `bgq_core::columnar`, and the space-saving sketch
//! in `bgq_stats::topk` — all exist for speed at 10⁶+ users. The
//! references here are the whiteboard formulations: follow every
//! lineage link by scanning the whole log, aggregate each user with a
//! fresh linear pass, rank by sorting the complete exact tally.

use bgq_model::JobRecord;

/// One reconstructed retry chain: job indices into the input slice, in
/// ascending job-id order (roots first — links always point backwards).
pub type Chain = Vec<usize>;

/// The quadratic chain reconstruction.
///
/// Walks jobs in ascending id order; for each job with a lineage link it
/// scans the *entire* log for the parent, then scans every chain built
/// so far for the one holding it. A link that points at a missing id,
/// itself, or forward starts a fresh chain instead (second element of
/// the return: how many such corrupt links were seen). `O(n²)` and
/// proudly so.
#[must_use]
pub fn chains_naive(jobs: &[JobRecord]) -> (Vec<Chain>, usize) {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| (jobs[i].job_id.raw(), i));
    let mut chains: Vec<Chain> = Vec::new();
    let mut dangling = 0usize;
    for i in order {
        let j = &jobs[i];
        let parent_idx = j.resubmit_of.and_then(|p| {
            if p.raw() >= j.job_id.raw() {
                return None;
            }
            jobs.iter().position(|cand| cand.job_id == p)
        });
        match parent_idx.and_then(|pi| chains.iter_mut().find(|c| c.contains(&pi))) {
            Some(chain) => chain.push(i),
            None => {
                if j.resubmit_of.is_some() {
                    dangling += 1;
                }
                chains.push(vec![i]);
            }
        }
    }
    (chains, dangling)
}

/// One user's exact tally from [`per_user_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UserTally {
    /// The user id.
    pub id: u32,
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs with a nonzero exit code.
    pub failed: usize,
    /// Exact node-seconds consumed.
    pub node_seconds: u64,
}

/// Per-user aggregation by repeated linear scan: one full pass over the
/// log *per distinct user*. Rows come back sorted by descending job
/// count, ties by ascending id — the production presentation order.
#[must_use]
pub fn per_user_scan(jobs: &[JobRecord]) -> Vec<UserTally> {
    let mut ids: Vec<u32> = jobs.iter().map(|j| j.user.raw()).collect();
    ids.sort_unstable();
    ids.dedup();
    let mut out: Vec<UserTally> = ids
        .into_iter()
        .map(|id| {
            let mine = jobs.iter().filter(|j| j.user.raw() == id);
            UserTally {
                id,
                jobs: mine.clone().count(),
                failed: mine.clone().filter(|j| j.exit_code != 0).count(),
                node_seconds: mine.map(JobRecord::node_seconds).sum(),
            }
        })
        .collect();
    out.sort_by(|a, b| b.jobs.cmp(&a.jobs).then(a.id.cmp(&b.id)));
    out
}

/// Exact top-`k` by full tally and full sort: every `(key, weight)`
/// update is summed into a complete table, the table is sorted by
/// descending total (ties by ascending key), and the head is returned.
#[must_use]
pub fn top_k_exact(updates: &[(u64, u64)], k: usize) -> Vec<(u64, u64)> {
    let mut keys: Vec<u64> = updates.iter().map(|u| u.0).collect();
    keys.sort_unstable();
    keys.dedup();
    let mut totals: Vec<(u64, u64)> = keys
        .into_iter()
        .map(|key| {
            let total = updates.iter().filter(|u| u.0 == key).map(|u| u.1).sum();
            (key, total)
        })
        .collect();
    totals.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    totals.truncate(k);
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases::test_job;
    use bgq_model::ids::JobId;
    use bgq_model::Block;

    fn linked(id: u64, parent: Option<u64>, exit: i32) -> JobRecord {
        let mut j = test_job(
            id,
            id as i64 * 100,
            id as i64 * 100 + 50,
            Block::new(0, 1).unwrap(),
        );
        j.resubmit_of = parent.map(JobId::new);
        j.exit_code = exit;
        j
    }

    #[test]
    fn reconstructs_a_simple_chain() {
        let jobs = vec![
            linked(1, None, 1),
            linked(2, Some(1), 1),
            linked(3, None, 0),
            linked(4, Some(2), 0),
        ];
        let (chains, dangling) = chains_naive(&jobs);
        assert_eq!(dangling, 0);
        assert_eq!(chains, vec![vec![0, 1, 3], vec![2]]);
    }

    #[test]
    fn corrupt_links_start_fresh_chains() {
        let jobs = vec![
            linked(1, Some(1), 0), // self
            linked(2, Some(9), 0), // missing
            linked(3, Some(4), 0), // forward
            linked(4, None, 0),
        ];
        let (chains, dangling) = chains_naive(&jobs);
        assert_eq!(dangling, 3);
        assert_eq!(chains.len(), 4);
    }

    #[test]
    fn scan_orders_like_production() {
        let jobs: Vec<JobRecord> = (1..=9)
            .map(|i| {
                let mut j = linked(i, None, (i % 2) as i32);
                j.user = bgq_model::ids::UserId::new((i % 3) as u32);
                j
            })
            .collect();
        let rows = per_user_scan(&jobs);
        assert_eq!(rows.iter().map(|r| r.jobs).sum::<usize>(), 9);
        assert!(rows
            .windows(2)
            .all(|w| { w[0].jobs > w[1].jobs || (w[0].jobs == w[1].jobs && w[0].id < w[1].id) }));
    }

    #[test]
    fn exact_top_k() {
        let updates = [(7, 5), (3, 10), (7, 6), (1, 10)];
        assert_eq!(top_k_exact(&updates, 2), vec![(7, 11), (1, 10)]);
        assert_eq!(top_k_exact(&updates, 10).len(), 3);
        assert!(top_k_exact(&[], 4).is_empty());
    }
}
