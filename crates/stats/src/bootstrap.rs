//! Nonparametric bootstrap confidence intervals.
//!
//! Headline quantities like the MTTI get percentile-bootstrap intervals so
//! EXPERIMENTS.md can report uncertainty, not just point estimates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Confidence level used (e.g. `0.95`).
    pub level: f64,
}

/// Computes a percentile bootstrap CI for an arbitrary statistic.
///
/// `statistic` is applied to the original data for the point estimate and
/// to `resamples` resamples (drawn with replacement) for the interval.
/// Returns `None` if the data are empty or the statistic returns a
/// non-finite value on the original data.
///
/// Each resample draws from its own RNG, seeded from `rng` up front in
/// resample order. The resamples are therefore independent of execution
/// order and run on scoped threads — the interval is bit-identical to
/// the sequential path.
///
/// # Panics
///
/// Panics if `level` is outside `(0, 1)` or `resamples == 0`.
///
/// # Examples
///
/// ```
/// use bgq_stats::bootstrap::bootstrap_ci;
/// use rand::SeedableRng;
///
/// let data: Vec<f64> = (1..=100).map(f64::from).collect();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let ci = bootstrap_ci(&data, |d| d.iter().sum::<f64>() / d.len() as f64,
///                       500, 0.95, &mut rng).unwrap();
/// assert!(ci.lo < 50.5 && 50.5 < ci.hi);
/// ```
pub fn bootstrap_ci<F, R>(
    data: &[f64],
    statistic: F,
    resamples: usize,
    level: f64,
    rng: &mut R,
) -> Option<BootstrapCi>
where
    F: Fn(&[f64]) -> f64 + Sync,
    R: Rng + ?Sized,
{
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    assert!(resamples > 0, "need at least one resample");
    if data.is_empty() {
        return None;
    }
    let _span = bgq_obs::span!("bootstrap.ci");
    bgq_obs::add("bootstrap.resamples", resamples as u64);
    let estimate = statistic(data);
    if !estimate.is_finite() {
        return None;
    }
    // Split the caller's RNG: one seed per resample, drawn sequentially,
    // so the resample streams don't depend on how work is scheduled.
    let seeds: Vec<u64> = (0..resamples).map(|_| rng.gen::<u64>()).collect();
    let raw = bgq_par::par_map(&seeds, |&seed| {
        let mut r = StdRng::seed_from_u64(seed);
        let mut buf = vec![0.0; data.len()];
        for slot in buf.iter_mut() {
            *slot = data[r.gen_range(0..data.len())];
        }
        statistic(&buf)
    });
    let mut stats: Vec<f64> = Vec::with_capacity(resamples);
    stats.extend(raw.into_iter().filter(|s| s.is_finite()));
    if stats.is_empty() {
        return None;
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let alpha = (1.0 - level) / 2.0;
    let pick = |q: f64| -> f64 {
        let idx = ((q * stats.len() as f64).floor() as usize).min(stats.len() - 1);
        stats[idx]
    };
    Some(BootstrapCi {
        estimate,
        lo: pick(alpha),
        hi: pick(1.0 - alpha),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean(d: &[f64]) -> f64 {
        d.iter().sum::<f64>() / d.len() as f64
    }

    #[test]
    fn ci_brackets_true_mean_most_of_the_time() {
        let mut rng = StdRng::seed_from_u64(42);
        let data: Vec<f64> = (0..400).map(|i| (i % 20) as f64).collect(); // mean 9.5
        let ci = bootstrap_ci(&data, mean, 1000, 0.95, &mut rng).unwrap();
        assert!((ci.estimate - 9.5).abs() < 1e-9);
        assert!(ci.lo <= 9.5 && 9.5 <= ci.hi);
        assert!(ci.hi - ci.lo < 2.5, "CI too wide: {ci:?}");
    }

    #[test]
    fn interval_narrows_with_sample_size() {
        let mut rng = StdRng::seed_from_u64(7);
        let small: Vec<f64> = (0..30).map(|i| (i % 10) as f64).collect();
        let large: Vec<f64> = (0..3000).map(|i| (i % 10) as f64).collect();
        let ci_s = bootstrap_ci(&small, mean, 500, 0.95, &mut rng).unwrap();
        let ci_l = bootstrap_ci(&large, mean, 500, 0.95, &mut rng).unwrap();
        assert!(ci_l.hi - ci_l.lo < ci_s.hi - ci_s.lo);
    }

    #[test]
    fn empty_data_gives_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(bootstrap_ci(&[], mean, 10, 0.9, &mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "level must be in (0,1)")]
    fn bad_level_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = bootstrap_ci(&[1.0], mean, 10, 1.0, &mut rng);
    }
}
