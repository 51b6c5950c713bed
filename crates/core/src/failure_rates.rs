//! Failure rate versus job structure (experiments E5, E6).
//!
//! The abstract: "The job failures are correlated with multiple metrics
//! and attributes, such as users/projects and job execution structure
//! (number of tasks, scale, and core-hours)." These functions bucket jobs
//! by a structural attribute and report the per-bucket failure rate, plus
//! a rank correlation between the attribute and failure.

use bgq_model::JobRecord;
use bgq_stats::correlation::spearman;

/// One bucket of a failure-rate curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RateBucket {
    /// Human-readable bucket label (e.g. `"2048"` nodes or `"4-7"` tasks).
    pub label: String,
    /// Lower edge of the bucket (for ordering/plotting).
    pub lo: f64,
    /// Jobs in the bucket.
    pub jobs: usize,
    /// Failed jobs in the bucket.
    pub failed: usize,
}

impl RateBucket {
    /// Failure rate in the bucket (`0` when empty).
    pub fn rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.failed as f64 / self.jobs as f64
        }
    }
}

/// A failure-rate curve with its attribute→failure rank correlation.
#[derive(Debug, Clone, PartialEq)]
pub struct RateCurve {
    /// Non-empty buckets in ascending attribute order.
    pub buckets: Vec<RateBucket>,
    /// Spearman correlation between the attribute value and the binary
    /// failure indicator over the raw (unbucketed) jobs, if defined.
    pub spearman_rho: Option<f64>,
}

/// Total-order key for an `f64` bucket edge: monotone in the float's value,
/// so distinct edges get distinct `BTreeMap` keys. (`lo as i64` truncated,
/// collapsing any two edges in the same unit interval — e.g. `0.25` and
/// `0.75` — into one bucket.)
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn curve(
    jobs: &[JobRecord],
    attribute: impl Fn(&JobRecord) -> f64,
    bucket_of: impl Fn(f64) -> (String, f64),
) -> RateCurve {
    use std::collections::BTreeMap;
    // Key buckets by the total-order bits of their lower edge.
    let mut map: BTreeMap<u64, RateBucket> = BTreeMap::new();
    let mut xs = Vec::with_capacity(jobs.len());
    let mut ys = Vec::with_capacity(jobs.len());
    for j in jobs {
        let x = attribute(j);
        let (label, lo) = bucket_of(x);
        let entry = map.entry(ord_key(lo)).or_insert_with(|| RateBucket {
            label,
            lo,
            jobs: 0,
            failed: 0,
        });
        entry.jobs += 1;
        entry.failed += usize::from(j.exit_code != 0);
        xs.push(x);
        ys.push(if j.exit_code != 0 { 1.0 } else { 0.0 });
    }
    RateCurve {
        buckets: map.into_values().collect(),
        spearman_rho: spearman(&xs, &ys),
    }
}

/// Failure rate by job scale (nodes), one bucket per power-of-two size
/// (experiment E5). Sizes are rounded **up** to the next power of two, so a
/// 768-node job counts toward the `1024` bucket — matching the doc rather
/// than the old behavior of one bucket per distinct node count.
pub fn by_scale(jobs: &[JobRecord]) -> RateCurve {
    curve(
        jobs,
        |j| f64::from(j.nodes),
        |x| {
            let p = (x as u64).max(1).next_power_of_two();
            (format!("{p}"), p as f64)
        },
    )
}

/// Failure rate by number of tasks: buckets 1, 2, 3, 4-7, 8+ (E6).
pub fn by_tasks(jobs: &[JobRecord]) -> RateCurve {
    curve(
        jobs,
        |j| f64::from(j.num_tasks),
        |x| {
            let t = x as u64;
            match t {
                0 | 1 => ("1".into(), 1.0),
                2 => ("2".into(), 2.0),
                3 => ("3".into(), 3.0),
                4..=7 => ("4-7".into(), 4.0),
                _ => ("8+".into(), 8.0),
            }
        },
    )
}

/// Failure rate by *requested* core-hours (`nodes × cores × walltime`),
/// in decade buckets (E6). The request is an a-priori attribute, so the
/// curve shows the paper's positive correlation cleanly.
pub fn by_core_hours(jobs: &[JobRecord]) -> RateCurve {
    curve(
        jobs,
        |j| {
            (f64::from(j.nodes) * 16.0 * f64::from(j.requested_walltime_s) / 3_600.0).max(1.0)
        },
        |x| {
            let decade = x.log10().floor() as i32;
            (format!("1e{decade}"), f64::from(decade))
        },
    )
}

/// Failure rate by *consumed* core-hours, in decade buckets.
///
/// This curve **decreases**: failures terminate jobs early, so failed jobs
/// consume few core-hours — a survivorship artifact worth showing next to
/// [`by_core_hours`] because naively correlating failure with consumption
/// inverts the paper's finding.
pub fn by_consumed_core_hours(jobs: &[JobRecord]) -> RateCurve {
    curve(
        jobs,
        |j| j.core_hours().max(1.0),
        |x| {
            let decade = x.log10().floor() as i32;
            (format!("1e{decade}"), f64::from(decade))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::{Block, Timestamp};

    fn job(nodes: u32, tasks: u32, exit: i32) -> JobRecord {
        JobRecord {
            job_id: JobId::new(1),
            user: UserId::new(1),
            project: ProjectId::new(1),
            queue: Queue::Production,
            nodes,
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(0),
            started_at: Timestamp::from_secs(0),
            ended_at: Timestamp::from_secs(3600),
            block: Block::new(0, (nodes / 512).max(1) as u16).unwrap(),
            exit_code: exit,
            num_tasks: tasks,
            resubmit_of: None,
        }
    }

    #[test]
    fn scale_curve_buckets_by_size() {
        let jobs = vec![
            job(512, 1, 0),
            job(512, 1, 1),
            job(2048, 1, 1),
            job(2048, 1, 1),
        ];
        let c = by_scale(&jobs);
        assert_eq!(c.buckets.len(), 2);
        assert_eq!(c.buckets[0].label, "512");
        assert!((c.buckets[0].rate() - 0.5).abs() < 1e-12);
        assert!((c.buckets[1].rate() - 1.0).abs() < 1e-12);
        assert!(c.spearman_rho.unwrap() > 0.0);
    }

    #[test]
    fn task_buckets_cover_ranges() {
        let jobs = vec![
            job(512, 1, 0),
            job(512, 2, 0),
            job(512, 3, 1),
            job(512, 5, 1),
            job(512, 12, 1),
        ];
        let c = by_tasks(&jobs);
        let labels: Vec<&str> = c.buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["1", "2", "3", "4-7", "8+"]);
        // Increasing failure with tasks here.
        assert!(c.spearman_rho.unwrap() > 0.5);
    }

    #[test]
    fn core_hour_buckets_are_decades() {
        let jobs = vec![job(512, 1, 0), job(49152, 1, 1)];
        let c = by_core_hours(&jobs);
        assert_eq!(c.buckets.len(), 2);
        assert!(c.buckets[0].label.starts_with("1e"));
    }

    #[test]
    fn fractional_bucket_edges_stay_distinct() {
        // Pre-fix, keys were `lo as i64`, so the edges 0.25 and 0.75 both
        // truncated to key 0 and the second bucket silently merged into the
        // first (keeping the first bucket's label).
        let jobs = vec![job(512, 1, 0), job(2048, 1, 1)];
        let c = curve(
            &jobs,
            |j| f64::from(j.nodes),
            |x| {
                if x < 1024.0 {
                    ("small".into(), 0.25)
                } else {
                    ("big".into(), 0.75)
                }
            },
        );
        assert_eq!(c.buckets.len(), 2);
        assert_eq!(c.buckets[0].label, "small");
        assert_eq!(c.buckets[1].label, "big");
    }

    #[test]
    fn negative_and_positive_edges_order_correctly() {
        // -0.5 and 0.5 also both truncated to 0 pre-fix; and the total-order
        // key must sort negative edges below positive ones.
        let jobs = vec![job(512, 1, 1), job(2048, 1, 0), job(49152, 1, 0)];
        let c = curve(
            &jobs,
            |j| f64::from(j.nodes),
            |x| {
                if x < 1024.0 {
                    ("neg".into(), -0.5)
                } else if x < 4096.0 {
                    ("zero".into(), 0.5)
                } else {
                    ("pos".into(), 1.5)
                }
            },
        );
        let labels: Vec<&str> = c.buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["neg", "zero", "pos"]);
    }

    #[test]
    fn scale_buckets_round_up_to_powers_of_two() {
        // 768 rides with 1024; 1025 lands in 2048. Pre-fix each distinct
        // node count got its own bucket despite the power-of-two doc.
        let jobs = vec![job(768, 1, 0), job(1024, 1, 1), job(1025, 1, 1)];
        let c = by_scale(&jobs);
        let labels: Vec<&str> = c.buckets.iter().map(|b| b.label.as_str()).collect();
        assert_eq!(labels, vec!["1024", "2048"]);
        assert_eq!(c.buckets[0].jobs, 2);
        assert_eq!(c.buckets[1].jobs, 1);
    }

    #[test]
    fn empty_input_is_harmless() {
        let c = by_scale(&[]);
        assert!(c.buckets.is_empty());
        assert!(c.spearman_rho.is_none());
    }

    #[test]
    fn constant_attribute_has_no_correlation() {
        let jobs = vec![job(512, 1, 0), job(512, 1, 1)];
        let c = by_scale(&jobs);
        assert!(c.spearman_rho.is_none());
        assert_eq!(c.buckets.len(), 1);
        assert!((c.buckets[0].rate() - 0.5).abs() < 1e-12);
    }
}
