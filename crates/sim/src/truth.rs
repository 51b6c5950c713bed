//! Ground truth recorded alongside the generated logs.
//!
//! The analysis pipeline never sees this — it works from the logs alone —
//! but the integration tests use it to verify the pipeline *recovers* it,
//! which is the whole point of a calibrated synthetic substrate.

use bgq_model::ids::JobId;
use bgq_model::Location;
use bgq_stats::dist::Dist;

use crate::incidents::Incident;

/// Everything the generator knows that an analyst would have to infer.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// The true fatal-incident timeline (what filtering should recover).
    pub incidents: Vec<Incident>,
    /// The boards with elevated fault rates (what the locality analysis
    /// should highlight).
    pub lemon_boards: Vec<Location>,
    /// The true time-to-failure law per user-failure exit code
    /// (`None` for walltime, whose length is the request).
    pub mode_dists: Vec<(i32, Option<Dist>)>,
    /// Jobs terminated by the system (exit 75), with the incident index
    /// that killed each.
    pub system_kills: Vec<(JobId, usize)>,
    /// Per-user intrinsic bug rates, indexed by raw user id.
    pub user_bug_rates: Vec<f64>,
}

impl GroundTruth {
    /// Number of *logical* failures: an incident and its aftershocks count
    /// once. This is what the similarity filter should recover.
    pub fn logical_incident_count(&self) -> usize {
        let mut groups: Vec<u32> = self.incidents.iter().map(|i| i.group).collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }

    /// Mean gap between logical failures, in days; `None` with fewer than
    /// two.
    pub fn logical_incident_mtbf_days(&self) -> Option<f64> {
        let n = self.logical_incident_count();
        if n < 2 || self.incidents.len() < 2 {
            return None;
        }
        let first = self.incidents.first().expect("len >= 2").time;
        let last = self.incidents.last().expect("len >= 2").time;
        Some((last - first).as_days() / (n - 1) as f64)
    }

    /// Number of *logical* failures (groups) that interrupted at least one
    /// job. Comparable to the count of filtered incidents that hit a job.
    pub fn effective_logical_incidents(&self) -> usize {
        let mut groups: Vec<u32> = self
            .system_kills
            .iter()
            .map(|&(_, i)| self.incidents[i].group)
            .collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }

    /// Number of incidents that actually interrupted a job.
    pub fn effective_incidents(&self) -> usize {
        let mut idxs: Vec<usize> = self.system_kills.iter().map(|&(_, i)| i).collect();
        idxs.sort_unstable();
        idxs.dedup();
        idxs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ras::Category;
    use bgq_model::Timestamp;

    use crate::incidents::IncidentScope;

    fn incident(t: i64) -> Incident {
        incident_in_group(t, t as u32)
    }

    fn incident_in_group(t: i64, group: u32) -> Incident {
        Incident {
            time: Timestamp::from_secs(t),
            root: Location::rack(0),
            category: Category::CoolantMonitor,
            on_lemon: false,
            scope: IncidentScope::Rack,
            group,
        }
    }

    #[test]
    fn logical_count_merges_aftershock_groups() {
        let truth = GroundTruth {
            incidents: vec![
                incident_in_group(0, 0),
                incident_in_group(3_600, 0), // aftershock of the first
                incident_in_group(4 * 86_400, 1),
            ],
            lemon_boards: vec![],
            mode_dists: vec![],
            system_kills: vec![],
            user_bug_rates: vec![],
        };
        assert_eq!(truth.logical_incident_count(), 2);
        assert!((truth.logical_incident_mtbf_days().unwrap() - 4.0).abs() < 0.05);
    }

    #[test]
    fn effective_incidents_deduplicates() {
        let truth = GroundTruth {
            incidents: vec![incident(0), incident(1)],
            lemon_boards: vec![],
            mode_dists: vec![],
            system_kills: vec![(JobId::new(1), 0), (JobId::new(2), 0), (JobId::new(3), 1)],
            user_bug_rates: vec![],
        };
        assert_eq!(truth.effective_incidents(), 2);
    }
}
