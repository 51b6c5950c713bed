//! Retry-chain mining over `resubmit_of` lineage.
//!
//! A failed job that is resubmitted carries a link to its predecessor;
//! following the links groups jobs into *chains* (lineage trees, if
//! corrupted data ever makes two jobs claim the same parent). The
//! analyses here answer the questions the Google cluster-trace study
//! asks of resubmission behavior: how long do users keep retrying, does
//! persistence pay off (eventual success vs chain length), how often do
//! they give up, and how much machine time the failed attempts burned.
//!
//! The miner is total: a link to a missing id, a forward/self reference,
//! or any other inconsistency demotes the job to a chain root and is
//! *counted* (`dangling_links`), never panicked on. Every accumulated
//! quantity is an integer or an integer histogram, so results are
//! bit-identical regardless of threading or partitioning.

use std::collections::BTreeMap;

use bgq_model::JobRecord;
use bgq_obs::Histogram;

/// Per-chain-length outcome row: of the chains with exactly `length`
/// submissions, how many eventually succeeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LengthOutcome {
    /// Number of submissions in the chain (1 = never retried).
    pub length: usize,
    /// Chains of this length.
    pub chains: u64,
    /// Chains of this length whose final state is success.
    pub succeeded: u64,
}

/// Everything the chain miner extracts from the job log.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStats {
    /// Total chains (every job belongs to exactly one).
    pub chains: usize,
    /// Jobs carrying a valid lineage link.
    pub linked_jobs: usize,
    /// Lineage links that named a missing or out-of-order id; the
    /// referencing job was treated as a chain root.
    pub dangling_links: usize,
    /// Chain length (submission count) distribution.
    pub length_hist: Histogram,
    /// Gap between a failure becoming visible (job end) and its
    /// resubmission, in seconds, over all valid links.
    pub gap_hist: Histogram,
    /// Eventual-success breakdown by chain length, ascending.
    pub success_by_length: Vec<LengthOutcome>,
    /// Of the chains that ever failed, the fraction that gave up —
    /// ended without a successful submission. `None` when nothing failed.
    pub give_up_rate: Option<f64>,
    /// Node-seconds burned by failed submissions inside retried chains
    /// (length ≥ 2): work a resubmission had to redo.
    pub wasted_node_seconds: u64,
}

/// One chain's accumulated state during the linear pass.
#[derive(Debug, Clone, Copy, Default)]
struct ChainAgg {
    size: u64,
    succeeded: bool,
    failed_any: bool,
    failed_node_seconds: u64,
}

/// Mines retry chains from the job log.
///
/// Cost: one id sort plus one linear pass with binary-searched parent
/// lookups — `O(n log n)` time, `O(n)` memory, no per-chain maps.
#[must_use]
pub fn mine_chains(jobs: &[JobRecord]) -> ChainStats {
    // Jobs arrive in canonical (started_at, job_id) order; lineage wants
    // id order so every parent is resolved before its children (links
    // always point to smaller ids).
    let mut by_id: Vec<(u64, usize)> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.job_id.raw(), i))
        .collect();
    by_id.sort_unstable();

    // chain_of[i]: index into `chains_by_root` of job i's chain.
    let mut chain_of: Vec<u32> = vec![u32::MAX; jobs.len()];
    let mut aggs: Vec<ChainAgg> = Vec::new();
    let mut linked_jobs = 0usize;
    let mut dangling_links = 0usize;
    let mut gap_hist = Histogram::new();

    for &(id, i) in &by_id {
        let j = &jobs[i];
        let parent_chain = j.resubmit_of.and_then(|p| {
            if p.raw() >= id {
                return None; // forward/self link: corruption
            }
            let at = by_id.partition_point(|&(pid, _)| pid < p.raw());
            match by_id.get(at) {
                Some(&(pid, pi)) if pid == p.raw() => Some(chain_of[pi]),
                _ => None, // link names an id absent from the log
            }
        });
        let chain = match parent_chain {
            Some(c) => {
                linked_jobs += 1;
                let parent_end = parent_end_secs(jobs, &by_id, j);
                let gap = (j.queued_at.as_secs() - parent_end).max(0) as u64;
                gap_hist.record(gap);
                c
            }
            None => {
                if j.resubmit_of.is_some() {
                    dangling_links += 1;
                }
                aggs.push(ChainAgg::default());
                (aggs.len() - 1) as u32
            }
        };
        chain_of[i] = chain;
        let agg = &mut aggs[chain as usize];
        agg.size += 1;
        if j.exit_code == 0 {
            agg.succeeded = true;
        } else {
            agg.failed_any = true;
            agg.failed_node_seconds += j.node_seconds();
        }
    }

    let mut length_hist = Histogram::new();
    let mut by_length: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    let mut failed_chains = 0u64;
    let mut gave_up = 0u64;
    let mut wasted_node_seconds = 0u64;
    for agg in &aggs {
        length_hist.record(agg.size);
        let e = by_length.entry(agg.size as usize).or_default();
        e.0 += 1;
        e.1 += u64::from(agg.succeeded);
        if agg.failed_any {
            failed_chains += 1;
            gave_up += u64::from(!agg.succeeded);
        }
        if agg.size >= 2 {
            wasted_node_seconds += agg.failed_node_seconds;
        }
    }

    ChainStats {
        chains: aggs.len(),
        linked_jobs,
        dangling_links,
        length_hist,
        gap_hist,
        success_by_length: by_length
            .into_iter()
            .map(|(length, (chains, succeeded))| LengthOutcome {
                length,
                chains,
                succeeded,
            })
            .collect(),
        give_up_rate: (failed_chains > 0).then(|| gave_up as f64 / failed_chains as f64),
        wasted_node_seconds,
    }
}

/// End time (epoch seconds) of the job a link names; the caller already
/// established the parent exists.
fn parent_end_secs(jobs: &[JobRecord], by_id: &[(u64, usize)], child: &JobRecord) -> i64 {
    let p = child.resubmit_of.expect("caller checked").raw();
    let at = by_id.partition_point(|&(pid, _)| pid < p);
    jobs[by_id[at].1].ended_at.as_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::{Block, Timestamp};

    fn job(id: u64, exit: i32, parent: Option<u64>, queued: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes: 512,
            mode: Mode::default(),
            requested_walltime_s: 3_600,
            queued_at: Timestamp::from_secs(queued),
            started_at: Timestamp::from_secs(queued + 10),
            ended_at: Timestamp::from_secs(queued + 1_010),
            block: Block::new(0, 1).unwrap(),
            exit_code: exit,
            num_tasks: 1,
            resubmit_of: parent.map(JobId::new),
        }
    }

    #[test]
    fn chains_group_and_classify() {
        // Chain A: 1 (fail) → 2 (fail) → 4 (success). Chain B: 3 alone,
        // failed, never retried (gave up at length 1).
        let jobs = vec![
            job(1, 139, None, 0),
            job(2, 139, Some(1), 2_000),
            job(3, 134, None, 500),
            job(4, 0, Some(2), 5_000),
        ];
        let s = mine_chains(&jobs);
        assert_eq!(s.chains, 2);
        assert_eq!(s.linked_jobs, 2);
        assert_eq!(s.dangling_links, 0);
        assert_eq!(s.length_hist.count(), 2);
        assert_eq!(s.gap_hist.count(), 2);
        // Gaps: job 2 queued 2000 - job 1 end 1010 = 990; job 4 queued
        // 5000 - job 2 end 3010 = 1990.
        assert_eq!(s.gap_hist.sum(), 990 + 1990);
        assert_eq!(
            s.success_by_length,
            vec![
                LengthOutcome {
                    length: 1,
                    chains: 1,
                    succeeded: 0
                },
                LengthOutcome {
                    length: 3,
                    chains: 1,
                    succeeded: 1
                },
            ]
        );
        // Both chains failed; one gave up.
        assert_eq!(s.give_up_rate, Some(0.5));
        // Wasted: the two failed attempts of the retried chain.
        assert_eq!(s.wasted_node_seconds, 2 * 512 * 1_000);
    }

    #[test]
    fn corrupt_lineage_is_counted_not_followed() {
        let jobs = vec![
            job(5, 0, Some(99), 0),  // dangling: no job 99
            job(6, 139, Some(6), 0), // self link
            job(7, 0, Some(8), 0),   // forward link
            job(8, 0, None, 0),
        ];
        let s = mine_chains(&jobs);
        assert_eq!(s.chains, 4, "every corrupt link becomes a root");
        assert_eq!(s.linked_jobs, 0);
        assert_eq!(s.dangling_links, 3);
        assert_eq!(s.gap_hist.count(), 0);
    }

    #[test]
    fn empty_log() {
        let s = mine_chains(&[]);
        assert_eq!(s.chains, 0);
        assert_eq!(s.give_up_rate, None);
        assert!(s.length_hist.is_empty());
    }

    #[test]
    fn unretried_successes_are_singleton_chains() {
        let jobs: Vec<JobRecord> = (1..=50).map(|i| job(i, 0, None, i as i64)).collect();
        let s = mine_chains(&jobs);
        assert_eq!(s.chains, 50);
        assert_eq!(s.give_up_rate, None);
        assert_eq!(s.wasted_node_seconds, 0);
        assert_eq!(
            s.success_by_length,
            vec![LengthOutcome {
                length: 1,
                chains: 50,
                succeeded: 50
            }]
        );
    }
}
