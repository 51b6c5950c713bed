//! The Cobalt job-scheduling log schema.

use std::fmt;
use std::str::FromStr;

use crate::block::Block;
use crate::ids::{JobId, ProjectId, UserId};
use crate::machine::Machine;
use crate::time::{Span, Timestamp};

/// The scheduler queue a job was submitted to.
///
/// Mira's Cobalt configuration exposed a small set of queues with different
/// size/walltime policies; we model the three classes the paper's workload
/// spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Queue {
    /// `prod-capability`: large production runs (≥ 8 midplanes).
    Capability,
    /// `prod-short`/`prod-long`: regular production runs.
    #[default]
    Production,
    /// `debug`/`backfill`: small, short runs.
    Debug,
}

impl Queue {
    /// All queues, in display order.
    pub const ALL: [Queue; 3] = [Queue::Capability, Queue::Production, Queue::Debug];

    /// Stable lowercase name used in logs.
    pub fn name(&self) -> &'static str {
        match self {
            Queue::Capability => "prod-capability",
            Queue::Production => "prod",
            Queue::Debug => "debug",
        }
    }
}

impl fmt::Display for Queue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error produced when parsing a [`Queue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQueueError(String);

impl fmt::Display for ParseQueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown queue name: {:?}", self.0)
    }
}

impl std::error::Error for ParseQueueError {}

impl FromStr for Queue {
    type Err = ParseQueueError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "prod-capability" => Ok(Queue::Capability),
            "prod" => Ok(Queue::Production),
            "debug" => Ok(Queue::Debug),
            other => Err(ParseQueueError(other.to_owned())),
        }
    }
}

/// Ranks-per-node execution mode (`c1`, `c2`, ..., `c64` on BG/Q).
///
/// BG/Q nodes run up to 64 hardware threads; Cobalt records the mode the
/// job launched with. The mode multiplies the number of MPI ranks but not
/// the node allocation, so core-hours are computed from nodes, not ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Mode(u8);

impl Mode {
    /// Creates a mode from ranks-per-node; must be a power of two in 1..=64.
    ///
    /// # Errors
    ///
    /// Returns `None` for values that are not a power of two in `1..=64`.
    pub fn new(ranks_per_node: u8) -> Option<Self> {
        (ranks_per_node.is_power_of_two() && ranks_per_node <= 64).then_some(Mode(ranks_per_node))
    }

    /// Ranks per node.
    pub const fn ranks_per_node(&self) -> u8 {
        self.0
    }
}

impl Default for Mode {
    fn default() -> Self {
        Mode(16)
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Error produced when parsing a [`Mode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModeError(String);

impl fmt::Display for ParseModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid mode (expected c1/c2/.../c64): {:?}", self.0)
    }
}

impl std::error::Error for ParseModeError {}

impl FromStr for Mode {
    type Err = ParseModeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.strip_prefix('c')
            .and_then(|d| d.parse::<u8>().ok())
            .and_then(Mode::new)
            .ok_or_else(|| ParseModeError(s.to_owned()))
    }
}

/// One record of the job-scheduling log: a completed (or killed) job.
///
/// Field names follow the Cobalt accounting log. The *classification* of the
/// exit code into user/system categories is deliberately not stored here —
/// deriving it is part of the analysis (see `bgq-core::exitcode`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Scheduler-assigned job identifier.
    pub job_id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// Charged project (allocation).
    pub project: ProjectId,
    /// Queue the job was submitted to.
    pub queue: Queue,
    /// Number of compute nodes allocated.
    pub nodes: u32,
    /// Ranks-per-node mode.
    pub mode: Mode,
    /// Requested wall time in seconds.
    pub requested_walltime_s: u32,
    /// Submission time.
    pub queued_at: Timestamp,
    /// Dispatch (start of execution) time.
    pub started_at: Timestamp,
    /// End of execution time.
    pub ended_at: Timestamp,
    /// The block (partition) the job ran on.
    pub block: Block,
    /// Raw exit code as recorded by Cobalt (0 = success; 128+N = killed by
    /// signal N; other values are application exit codes).
    pub exit_code: i32,
    /// Number of `runjob` tasks the job script launched.
    pub num_tasks: u32,
    /// The earlier job this one resubmits (retry-chain lineage), when the
    /// accounting log links a failed job to its re-queued successor.
    /// `None` for chain roots and for logs predating lineage capture.
    /// A valid link always points backwards: `resubmit_of < job_id`.
    pub resubmit_of: Option<JobId>,
}

impl JobRecord {
    /// Wall-clock execution length.
    pub fn runtime(&self) -> Span {
        self.ended_at - self.started_at
    }

    /// Time spent waiting in the queue.
    pub fn queue_wait(&self) -> Span {
        self.started_at - self.queued_at
    }

    /// Core-hours consumed (`nodes × 16 cores × runtime`).
    pub fn core_hours(&self) -> f64 {
        self.nodes as f64 * Machine::MIRA.cores_per_card() as f64 * self.runtime().as_hours()
    }

    /// Node-seconds consumed.
    pub fn node_seconds(&self) -> u64 {
        self.nodes as u64 * self.runtime().as_secs().max(0) as u64
    }

    /// `true` if the job ended with exit code 0.
    pub fn succeeded(&self) -> bool {
        self.exit_code == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> JobRecord {
        JobRecord {
            job_id: JobId::new(1),
            user: UserId::new(10),
            project: ProjectId::new(3),
            queue: Queue::Production,
            nodes: 1024,
            mode: Mode::new(16).unwrap(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(0),
            started_at: Timestamp::from_secs(600),
            ended_at: Timestamp::from_secs(600 + 1800),
            block: Block::new(0, 2).unwrap(),
            exit_code: 0,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    #[test]
    fn lineage_links_point_backwards() {
        let mut j = sample();
        assert!(j.resubmit_of.is_none(), "sample is a chain root");
        j.job_id = JobId::new(5);
        j.resubmit_of = Some(JobId::new(2));
        assert!(j.resubmit_of.unwrap().raw() < j.job_id.raw());
    }

    #[test]
    fn derived_quantities() {
        let j = sample();
        assert_eq!(j.runtime().as_secs(), 1800);
        assert_eq!(j.queue_wait().as_secs(), 600);
        assert_eq!(j.core_hours(), 1024.0 * 16.0 * 0.5);
        assert_eq!(j.node_seconds(), 1024 * 1800);
        assert!(j.succeeded());
    }

    #[test]
    fn queue_and_mode_roundtrip() {
        for q in Queue::ALL {
            assert_eq!(q.name().parse::<Queue>().unwrap(), q);
        }
        assert!("prod-weird".parse::<Queue>().is_err());
        for m in [1u8, 2, 4, 8, 16, 32, 64] {
            let mode = Mode::new(m).unwrap();
            assert_eq!(mode.to_string().parse::<Mode>().unwrap(), mode);
        }
        assert_eq!(Mode::new(3), None);
        assert_eq!(Mode::new(128), None);
        assert!("c3".parse::<Mode>().is_err());
    }
}
