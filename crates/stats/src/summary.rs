//! Descriptive statistics.

use std::fmt;

/// One-pass descriptive summary of a sample.
///
/// # Examples
///
/// ```
/// use bgq_stats::summary::Summary;
///
/// let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.median(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    n: usize,
    mean: f64,
    variance: f64,
    min: f64,
    max: f64,
    median: f64,
    p25: f64,
    p75: f64,
    p95: f64,
    p99: f64,
    sum: f64,
}

impl Summary {
    /// Summarizes the finite values of `data`; `None` if none remain.
    pub fn from_slice(data: &[f64]) -> Option<Self> {
        let mut vals: Vec<f64> = data.iter().copied().filter(|x| x.is_finite()).collect();
        if vals.is_empty() {
            return None;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = vals.len();
        let sum: f64 = vals.iter().sum();
        let mean = sum / n as f64;
        let variance = vals.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |q: f64| -> f64 {
            // Linear interpolation between order statistics (type 7).
            let h = q * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            vals[lo] + (h - lo as f64) * (vals[hi] - vals[lo])
        };
        Some(Summary {
            n,
            mean,
            variance,
            min: vals[0],
            max: vals[n - 1],
            median: pct(0.5),
            p25: pct(0.25),
            p75: pct(0.75),
            p95: pct(0.95),
            p99: pct(0.99),
            sum,
        })
    }

    /// Number of observations summarized.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        self.variance
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Median (50th percentile, interpolated).
    pub fn median(&self) -> f64 {
        self.median
    }

    /// 25th percentile (interpolated).
    pub fn p25(&self) -> f64 {
        self.p25
    }

    /// 75th percentile (interpolated).
    pub fn p75(&self) -> f64 {
        self.p75
    }

    /// 95th percentile (interpolated).
    pub fn p95(&self) -> f64 {
        self.p95
    }

    /// 99th percentile (interpolated).
    pub fn p99(&self) -> f64 {
        self.p99
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p95={:.4} max={:.4}",
            self.n,
            self.mean,
            self.std_dev(),
            self.min,
            self.median,
            self.p95,
            self.max
        )
    }
}

/// Gini coefficient of a non-negative sample, in `[0, 1)`.
///
/// Used by the concentration analyses (core-hours per user, failures per
/// project). `None` when the data are empty or sum to zero.
pub fn gini(data: &[f64]) -> Option<f64> {
    let mut vals: Vec<f64> = data
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = vals.len() as f64;
    let total: f64 = vals.iter().sum();
    if total <= 0.0 {
        return None;
    }
    let weighted: f64 = vals
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as f64 + 1.0) * x)
        .sum();
    Some((2.0 * weighted / (n * total) - (n + 1.0) / n).max(0.0))
}

/// Share of the total contributed by the largest `k` values (`top-k
/// share`); `None` for empty or zero-sum data.
pub fn top_k_share(data: &[f64], k: usize) -> Option<f64> {
    let mut vals: Vec<f64> = data
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    let total: f64 = vals.iter().sum();
    if vals.is_empty() || total <= 0.0 {
        return None;
    }
    vals.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
    Some(vals.iter().take(k).sum::<f64>() / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_summary() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n(), 8);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 4.0);
        assert_eq!(s.std_dev(), 2.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.median(), 4.5);
        assert_eq!(s.sum(), 40.0);
    }

    #[test]
    fn empty_and_nan_inputs() {
        assert!(Summary::from_slice(&[]).is_none());
        assert!(Summary::from_slice(&[f64::NAN]).is_none());
        let s = Summary::from_slice(&[f64::NAN, 3.0]).unwrap();
        assert_eq!(s.n(), 1);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.p25(), 2.0);
        assert_eq!(s.p75(), 4.0);
        assert!((s.p95() - 4.8).abs() < 1e-12);
    }

    #[test]
    fn gini_known_cases() {
        // Perfect equality.
        assert!(gini(&[5.0, 5.0, 5.0, 5.0]).unwrap() < 1e-12);
        // One person owns everything: G = (n-1)/n.
        let g = gini(&[0.0, 0.0, 0.0, 10.0]).unwrap();
        assert!((g - 0.75).abs() < 1e-12);
        assert!(gini(&[]).is_none());
        assert!(gini(&[0.0, 0.0]).is_none());
    }

    #[test]
    fn top_k_share_cases() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert!((top_k_share(&data, 1).unwrap() - 0.4).abs() < 1e-12);
        assert!((top_k_share(&data, 4).unwrap() - 1.0).abs() < 1e-12);
        assert!((top_k_share(&data, 10).unwrap() - 1.0).abs() < 1e-12);
        assert!(top_k_share(&[], 1).is_none());
    }
}
