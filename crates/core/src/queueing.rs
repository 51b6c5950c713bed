//! Scheduler behavior: queue waits and machine utilization (experiment
//! E17).
//!
//! The paper's job-behavior story is entangled with scheduling: capability
//! jobs wait far longer than midplane jobs (they need a drained region),
//! and failure costs must be read against how busy the machine was. This
//! module computes queue-wait percentiles by job size and by queue class,
//! plus the machine's mean utilization over the trace.

use std::collections::BTreeMap;

use bgq_model::job::Queue;
use bgq_model::{JobRecord, Machine};
use bgq_stats::summary::Summary;

/// Queue-wait summary for one group of jobs.
#[derive(Debug, Clone)]
pub struct WaitRow {
    /// Group label (node count or queue name).
    pub label: String,
    /// Jobs in the group.
    pub jobs: usize,
    /// Wait-time summary in hours.
    pub wait_hours: Summary,
}

/// Queue waits grouped by job size (nodes), ascending.
pub fn waits_by_size(jobs: &[JobRecord]) -> Vec<WaitRow> {
    group_waits(jobs, |j| (u64::from(j.nodes), j.nodes.to_string()))
}

/// Queue waits grouped by scheduler queue.
pub fn waits_by_queue(jobs: &[JobRecord]) -> Vec<WaitRow> {
    group_waits(jobs, |j| {
        let order = Queue::ALL.iter().position(|q| *q == j.queue).unwrap_or(0);
        (order as u64, j.queue.to_string())
    })
}

fn group_waits(jobs: &[JobRecord], key: impl Fn(&JobRecord) -> (u64, String)) -> Vec<WaitRow> {
    let mut groups: BTreeMap<u64, (String, Vec<f64>)> = BTreeMap::new();
    for j in jobs {
        let (order, label) = key(j);
        let wait_h = j.queue_wait().as_secs().max(0) as f64 / 3_600.0;
        groups
            .entry(order)
            .or_insert_with(|| (label, Vec::new()))
            .1
            .push(wait_h);
    }
    groups
        .into_values()
        .filter_map(|(label, waits)| {
            Summary::from_slice(&waits).map(|wait_hours| WaitRow {
                label,
                jobs: waits.len(),
                wait_hours,
            })
        })
        .collect()
}

/// Mean utilization over the whole trace.
pub fn mean_utilization(jobs: &[JobRecord], machine: &Machine) -> Option<f64> {
    let (start, end) = (
        jobs.iter().map(|j| j.started_at).min()?,
        jobs.iter().map(|j| j.ended_at).max()?,
    );
    let span = (end - start).as_secs().max(1) as f64;
    let node_secs: f64 = jobs.iter().map(|j| j.node_seconds() as f64).sum();
    Some(node_secs / (machine.total_nodes() as f64 * span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, UserId};
    use bgq_model::job::Mode;
    use bgq_model::{Block, Timestamp};

    fn job(nodes: u32, queue: Queue, queued: i64, start: i64, end: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(start as u64),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue,
            nodes,
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(queued),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(end),
            block: Block::new(0, (nodes / 512).max(1) as u16).unwrap(),
            exit_code: 0,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    #[test]
    fn waits_group_by_size_in_order() {
        let jobs = vec![
            job(512, Queue::Production, 0, 3_600, 4_000), // 1 h wait
            job(512, Queue::Production, 0, 7_200, 8_000), // 2 h wait
            job(8192, Queue::Capability, 0, 36_000, 40_000), // 10 h wait
        ];
        let rows = waits_by_size(&jobs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "512");
        assert_eq!(rows[0].jobs, 2);
        assert!((rows[0].wait_hours.mean() - 1.5).abs() < 1e-9);
        assert_eq!(rows[1].label, "8192");
        assert!((rows[1].wait_hours.mean() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn waits_group_by_queue() {
        let jobs = vec![
            job(512, Queue::Debug, 0, 60, 100),
            job(8192, Queue::Capability, 0, 3_600, 4_000),
        ];
        let rows = waits_by_queue(&jobs);
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["prod-capability", "debug"]);
    }

    #[test]
    fn utilization_of_a_fully_busy_machine() {
        // One job occupying the whole machine for two days.
        let machine = Machine::MIRA;
        let day = 86_400;
        let jobs = vec![job(
            machine.total_nodes() as u32,
            Queue::Capability,
            0,
            0,
            2 * day,
        )];
        assert!((mean_utilization(&jobs, &machine).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs() {
        assert!(mean_utilization(&[], &Machine::MIRA).is_none());
        assert!(waits_by_size(&[]).is_empty());
    }

    #[test]
    fn simulated_capability_jobs_wait_longer() {
        use bgq_sim::{generate, SimConfig};
        let out = generate(&SimConfig::small(45).with_seed(3));
        let rows = waits_by_size(&out.dataset.jobs);
        assert!(rows.len() >= 4);
        let small = rows.first().unwrap();
        let large = rows.last().unwrap();
        assert!(
            large.wait_hours.median() >= small.wait_hours.median(),
            "large jobs should wait at least as long (small {}, large {})",
            small.wait_hours.median(),
            large.wait_hours.median()
        );
        // And the machine is busy — the scheduler is doing its job.
        let util = mean_utilization(&out.dataset.jobs, &Machine::MIRA).unwrap();
        assert!(util > 0.5, "utilization {util}");
    }
}
