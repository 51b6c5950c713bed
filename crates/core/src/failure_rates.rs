//! Failure rate versus job structure (experiments E5, E6).
//!
//! The abstract: "The job failures are correlated with multiple metrics
//! and attributes, such as users/projects and job execution structure
//! (number of tasks, scale, and core-hours)." These functions bucket jobs
//! by a structural attribute and report the per-bucket failure rate, plus
//! a rank correlation between the attribute and failure.

use std::collections::{BTreeMap, HashMap};

use bgq_model::JobRecord;
use bgq_stats::correlation::pearson;

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

/// Total-order key for an `f64`: monotone in the float's value, so
/// distinct bucket edges get distinct `BTreeMap` keys. (`lo as i64`
/// truncated, collapsing any two edges in the same unit interval — e.g.
/// `0.25` and `0.75` — into one bucket.) It also keys a [`RateTally`]'s
/// distinct attribute values.
fn ord_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// The running counts behind one failure-rate curve: `(jobs, failed)`
/// per distinct attribute value, plus a compact per-job column of
/// `(value slot, failed)` in job order.
///
/// [`RateTally::add`] folds a batch of jobs in; [`RateTally::curve`]
/// renders buckets from the per-value counts and Spearman's ρ from
/// mid-ranks derived from the same counts. A curve over a job log is one
/// `add` of the whole log; the serve daemon adds one day at a time, and
/// the two agree bit for bit because `curve` sees the same counts and
/// the same column either way.
#[derive(Debug, Clone)]
pub struct RateTally {
    attribute: fn(&JobRecord) -> f64,
    /// Lower edge of the bucket an attribute value falls in.
    edge_of: fn(f64) -> f64,
    /// Label of the bucket with a given lower edge.
    label_of: fn(f64) -> String,
    /// Distinct attribute values in first-seen order: `(value, jobs, failed)`.
    values: Vec<(f64, usize, usize)>,
    /// [`ord_key`] of a distinct value → its slot in `values`.
    slots: HashMap<u64, u32>,
    /// Per job, in job order: its value's slot and whether it failed.
    column: Vec<(u32, bool)>,
}

impl RateTally {
    fn new(
        attribute: fn(&JobRecord) -> f64,
        edge_of: fn(f64) -> f64,
        label_of: fn(f64) -> String,
    ) -> Self {
        RateTally {
            attribute,
            edge_of,
            label_of,
            values: Vec::new(),
            slots: HashMap::new(),
            column: Vec::new(),
        }
    }

    /// The empty tally behind [`by_scale`].
    #[must_use]
    pub fn by_scale() -> Self {
        RateTally::new(scale_of, scale_edge, edge_label)
    }

    /// Folds `jobs` in, after every job added so far.
    pub fn add(&mut self, jobs: &[JobRecord]) {
        self.column.reserve(jobs.len());
        for j in jobs {
            let x = (self.attribute)(j);
            let failed = j.exit_code != 0;
            let next = self.values.len() as u32;
            let slot = *self.slots.entry(ord_key(x)).or_insert(next);
            if slot == next {
                self.values.push((x, 0, 0));
            }
            let v = &mut self.values[slot as usize];
            v.1 += 1;
            v.2 += usize::from(failed);
            self.column.push((slot, failed));
        }
    }

    /// The curve over every job added so far.
    #[must_use]
    pub fn curve(&self) -> RateCurve {
        // Key buckets by the total-order bits of their lower edge; a
        // bucket's label is made once, not once per distinct value.
        let mut map: BTreeMap<u64, RateBucket> = BTreeMap::new();
        for &(x, jobs, failed) in &self.values {
            let lo = (self.edge_of)(x);
            let entry = map.entry(ord_key(lo)).or_insert_with(|| RateBucket {
                label: (self.label_of)(lo),
                lo,
                jobs: 0,
                failed: 0,
            });
            entry.jobs += jobs;
            entry.failed += failed;
        }
        RateCurve {
            buckets: map.into_values().collect(),
            spearman_rho: self.spearman(),
        }
    }

    /// `spearman(attribute, failed)` over the jobs in job order, from
    /// mid-ranks computed off the per-value counts: bit-identical to
    /// [`bgq_stats::correlation::spearman`], which ranks by sorting.
    fn spearman(&self) -> Option<f64> {
        let n = self.column.len();
        if n < 2 || self.values.iter().any(|v| !v.0.is_finite()) {
            return None;
        }
        // A tie group occupying sorted positions i..=j gets rank
        // (i + j) / 2 + 1, exactly as `ranks` computes it.
        let mid_rank = |i: usize, j: usize| (i + j) as f64 / 2.0 + 1.0;
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by(|&a, &b| {
            self.values[a]
                .0
                .partial_cmp(&self.values[b].0)
                .expect("finite values")
        });
        let mut rank_of = vec![0.0; self.values.len()];
        let mut below = 0;
        for group in order.chunk_by(|&a, &b| self.values[a].0 == self.values[b].0) {
            let count: usize = group.iter().map(|&s| self.values[s].1).sum();
            for &s in group {
                rank_of[s] = mid_rank(below, below + count - 1);
            }
            below += count;
        }
        let ok = n - self.values.iter().map(|v| v.2).sum::<usize>();
        let y_rank = [mid_rank(0, ok.saturating_sub(1)), mid_rank(ok, n - 1)];
        let rx: Vec<f64> = self
            .column
            .iter()
            .map(|&(s, _)| rank_of[s as usize])
            .collect();
        let ry: Vec<f64> = self
            .column
            .iter()
            .map(|&(_, failed)| y_rank[usize::from(failed)])
            .collect();
        pearson(&rx, &ry)
    }
}

fn curve(
    jobs: &[JobRecord],
    attribute: fn(&JobRecord) -> f64,
    edge_of: fn(f64) -> f64,
    label_of: fn(f64) -> String,
) -> RateCurve {
    let mut tally = RateTally::new(attribute, edge_of, label_of);
    tally.add(jobs);
    tally.curve()
}

fn scale_of(j: &JobRecord) -> f64 {
    f64::from(j.nodes)
}

fn scale_edge(x: f64) -> f64 {
    (x as u64).max(1).next_power_of_two() as f64
}

/// A bucket labelled by its integral lower edge (`"1024"` nodes).
fn edge_label(lo: f64) -> String {
    format!("{}", lo as u64)
}

fn decade_edge(x: f64) -> f64 {
    f64::from(x.log10().floor() as i32)
}

fn decade_label(lo: f64) -> String {
    format!("1e{}", lo as i32)
}

/// Failure rate by job scale (nodes), one bucket per power-of-two size
/// (experiment E5). Sizes are rounded **up** to the next power of two, so a
/// 768-node job counts toward the `1024` bucket — matching the doc rather
/// than the old behavior of one bucket per distinct node count.
pub fn by_scale(jobs: &[JobRecord]) -> RateCurve {
    curve(jobs, scale_of, scale_edge, edge_label)
}

/// Failure rate by number of tasks: buckets 1, 2, 3, 4-7, 8+ (E6).
pub fn by_tasks(jobs: &[JobRecord]) -> RateCurve {
    curve(
        jobs,
        |j| f64::from(j.num_tasks),
        |x| match x as u64 {
            0 | 1 => 1.0,
            2 => 2.0,
            3 => 3.0,
            4..=7 => 4.0,
            _ => 8.0,
        },
        |lo| match lo as u64 {
            4 => "4-7".into(),
            8 => "8+".into(),
            t => t.to_string(),
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
        decade_edge,
        decade_label,
    )
}

/// Failure rate by *consumed* core-hours, in decade buckets.
///
/// This curve **decreases**: failures terminate jobs early, so failed jobs
/// consume few core-hours — a survivorship artifact worth showing next to
/// [`by_core_hours`] because naively correlating failure with consumption
/// inverts the paper's finding.
pub fn by_consumed_core_hours(jobs: &[JobRecord]) -> RateCurve {
    curve(jobs, |j| j.core_hours().max(1.0), decade_edge, decade_label)
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
            |x| if x < 1024.0 { 0.25 } else { 0.75 },
            |lo| (if lo < 0.5 { "small" } else { "big" }).into(),
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
                    -0.5
                } else if x < 4096.0 {
                    0.5
                } else {
                    1.5
                }
            },
            |lo| {
                let label = if lo < 0.0 {
                    "neg"
                } else if lo < 1.0 {
                    "zero"
                } else {
                    "pos"
                };
                label.into()
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
