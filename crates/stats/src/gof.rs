//! Goodness-of-fit testing and model selection.
//!
//! The paper selects the best-fitting family for each error type; we
//! implement the one-sample KS test with the asymptotic Kolmogorov
//! p-value as the goodness-of-fit evidence, information criteria (AIC and
//! BIC) for parsimony-aware ranking, and a `select_best` driver that fits
//! a candidate set and ranks it (see its docs for why BIC drives the
//! ranking).

use std::fmt;

use crate::dist::{Dist, DistKind};
use crate::fit::FitError;

/// Result of testing one fitted distribution against the data.
#[derive(Debug, Clone, PartialEq)]
pub struct GofResult {
    /// The fitted distribution.
    pub dist: Dist,
    /// Kolmogorov–Smirnov statistic `D_n = sup |F̂ − F|`.
    pub ks_statistic: f64,
    /// Asymptotic KS p-value (probability of a larger `D_n` under H₀).
    pub ks_p_value: f64,
    /// Akaike information criterion (`2k − 2 ln L`); lower is better.
    pub aic: f64,
    /// Bayesian information criterion (`k ln n − 2 ln L`); lower is
    /// better. Drives the ranking in [`select_best`].
    pub bic: f64,
    /// Number of observations tested.
    pub n: usize,
}

impl fmt::Display for GofResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} D={:.4} p={:.3} AIC={:.1} BIC={:.1}",
            self.dist, self.ks_statistic, self.ks_p_value, self.aic, self.bic
        )
    }
}

/// Computes the one-sample KS statistic of `data` against `dist`.
///
/// Uses the exact sup over both one-sided discrepancies at each order
/// statistic. Non-finite data values are rejected by panicking in debug
/// builds and ignored in release (callers should pre-clean).
///
/// # Panics
///
/// Panics if `data` is empty.
pub fn ks_statistic(data: &[f64], dist: &Dist) -> f64 {
    assert!(!data.is_empty(), "ks_statistic requires data");
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = sorted.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let upper = (i + 1) as f64 / n - f;
        let lower = f - i as f64 / n;
        d = d.max(upper).max(lower);
    }
    d
}

/// Asymptotic Kolmogorov p-value for statistic `d` with sample size `n`
/// (Marsaglia/Stephens small-sample correction).
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    if d <= 0.0 {
        return 1.0;
    }
    let sqrt_n = (n as f64).sqrt();
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    kolmogorov_q(lambda)
}

/// The Kolmogorov distribution's complementary CDF
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 0.2 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Fits `dist`'s family parameters (already fitted) and evaluates GoF.
pub fn evaluate(data: &[f64], dist: Dist) -> GofResult {
    let d = ks_statistic(data, &dist);
    GofResult {
        ks_statistic: d,
        ks_p_value: ks_p_value(d, data.len()),
        aic: dist.aic(data),
        bic: dist.bic(data),
        n: data.len(),
        dist,
    }
}

/// Two-sample Kolmogorov–Smirnov test: statistic and asymptotic p-value
/// for the hypothesis that `a` and `b` come from the same distribution.
///
/// Returns `None` if either sample is empty.
///
/// # Examples
///
/// ```
/// use bgq_stats::gof::ks_two_sample;
///
/// let a: Vec<f64> = (0..500).map(|i| i as f64).collect();
/// let b: Vec<f64> = (0..500).map(|i| i as f64 + 400.0).collect();
/// let (d, p) = ks_two_sample(&a, &b).unwrap();
/// assert!(d > 0.5 && p < 1e-6);
/// ```
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Option<(f64, f64)> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("finite values"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("finite values"));
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut i, mut j) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while i < sa.len() && j < sb.len() {
        let x = sa[i].min(sb[j]);
        while i < sa.len() && sa[i] <= x {
            i += 1;
        }
        while j < sb.len() && sb[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / na - j as f64 / nb).abs());
    }
    let ne = na * nb / (na + nb);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    Some((d, kolmogorov_q(lambda)))
}

/// Outcome of fitting and ranking a candidate set against one sample.
#[derive(Debug, Clone)]
pub struct ModelSelection {
    /// Successfully fitted candidates, best (smallest BIC) first.
    pub ranked: Vec<GofResult>,
    /// Families that failed to fit, with the reason.
    pub failures: Vec<(DistKind, FitError)>,
}

impl ModelSelection {
    /// The winning family's result, if any candidate fitted.
    pub fn best(&self) -> Option<&GofResult> {
        self.ranked.first()
    }
}

/// Fits every family in `candidates` to `data` by MLE and ranks the fits
/// by BIC (ascending), breaking ties by KS statistic.
///
/// This is the model-selection procedure behind the paper's
/// "best-fitting distribution per exit-code family" table. An
/// information criterion rather than raw KS drives the ranking because
/// several candidates nest each other (Weibull with shape 1 *is* the
/// exponential; Erlang k=1 likewise): on exponential data the nested
/// two-parameter families always achieve a marginally smaller KS, and
/// only a parsimony-aware criterion recovers the family the data came
/// from. BIC's `ln n` penalty (rather than AIC's constant 2) keeps that
/// property at the 10⁴–10⁵ sample sizes of the full trace. The KS
/// statistic and p-value are still computed for every candidate and
/// reported as the goodness-of-fit evidence, as in the paper.
///
/// # Examples
///
/// ```
/// use bgq_stats::dist::{Dist, DistKind};
/// use bgq_stats::gof::select_best;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let data = Dist::weibull(0.6, 1000.0)?.sample_n(&mut rng, 3000);
/// let sel = select_best(&data, &DistKind::PAPER_CANDIDATES);
/// assert_eq!(sel.best().unwrap().dist.kind(), DistKind::Weibull);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn select_best(data: &[f64], candidates: &[DistKind]) -> ModelSelection {
    let mut ranked = Vec::new();
    let mut failures = Vec::new();
    for &kind in candidates {
        match kind.fit(data) {
            Ok(dist) => ranked.push(evaluate(data, dist)),
            Err(err) => failures.push((kind, err)),
        }
    }
    ranked.sort_by(|a, b| {
        a.bic
            .partial_cmp(&b.bic)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(
                a.ks_statistic
                    .partial_cmp(&b.ks_statistic)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
    });
    ModelSelection { ranked, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ks_statistic_zero_for_perfect_grid() {
        // Data placed exactly at uniform quantile midpoints of Exp(1) give a
        // small D.
        let d = Dist::exponential(1.0).unwrap();
        let n = 1000;
        let data: Vec<f64> = (0..n)
            .map(|i| {
                let p = (i as f64 + 0.5) / n as f64;
                -(1.0 - p).ln()
            })
            .collect();
        let stat = ks_statistic(&data, &d);
        assert!(stat < 1.0 / n as f64, "D = {stat}");
    }

    #[test]
    fn ks_detects_gross_mismatch() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dist::pareto(10.0, 1.2).unwrap().sample_n(&mut rng, 2000);
        let wrong = Dist::normal(0.0, 1.0).unwrap();
        let stat = ks_statistic(&data, &wrong);
        assert!(stat > 0.9);
        assert!(ks_p_value(stat, data.len()) < 1e-10);
    }

    #[test]
    fn ks_p_value_reasonable_for_true_model() {
        let mut rng = StdRng::seed_from_u64(2);
        let truth = Dist::exponential(0.01).unwrap();
        let data = truth.sample_n(&mut rng, 500);
        let stat = ks_statistic(&data, &truth);
        let p = ks_p_value(stat, data.len());
        assert!(p > 0.01, "true model rejected: D={stat}, p={p}");
    }

    #[test]
    fn kolmogorov_q_reference_values() {
        // Q(0.83) ≈ 0.496 (table value ~0.4963...), Q(1.36) ≈ 0.049.
        assert!((kolmogorov_q(0.83) - 0.496).abs() < 0.005);
        assert!((kolmogorov_q(1.36) - 0.049).abs() < 0.003);
        assert_eq!(kolmogorov_q(0.05), 1.0);
    }

    #[test]
    fn two_sample_ks_same_vs_shifted() {
        let mut rng = StdRng::seed_from_u64(9);
        let d1 = Dist::weibull(0.8, 100.0).unwrap();
        let a = d1.sample_n(&mut rng, 1500);
        let b = d1.sample_n(&mut rng, 1500);
        let (_, p_same) = ks_two_sample(&a, &b).unwrap();
        assert!(
            p_same > 0.01,
            "same-distribution samples rejected: p={p_same}"
        );

        let shifted = Dist::weibull(0.8, 200.0).unwrap().sample_n(&mut rng, 1500);
        let (d, p_diff) = ks_two_sample(&a, &shifted).unwrap();
        assert!(d > 0.1 && p_diff < 1e-6, "shifted samples not detected");
        assert!(ks_two_sample(&[], &a).is_none());
    }

    #[test]
    fn select_best_recovers_generating_family() {
        let mut rng = StdRng::seed_from_u64(3);
        let cases = [
            Dist::weibull(0.55, 2000.0).unwrap(),
            Dist::pareto(30.0, 1.4).unwrap(),
            Dist::inverse_gaussian(500.0, 250.0).unwrap(),
        ];
        for truth in cases {
            let data = truth.sample_n(&mut rng, 4000);
            let sel = select_best(&data, &DistKind::PAPER_CANDIDATES);
            let best = sel.best().unwrap();
            assert_eq!(
                best.dist.kind(),
                truth.kind(),
                "expected {truth}, ranking: {:?}",
                sel.ranked.iter().map(|r| r.dist.kind()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn select_best_records_failures() {
        // Data with zeros: positive-support families fail, normal wins.
        let data = vec![0.0, 1.0, 2.0, 3.0, 2.0, 1.0];
        let sel = select_best(
            &data,
            &[DistKind::Normal, DistKind::LogNormal, DistKind::Weibull],
        );
        assert_eq!(sel.ranked.len(), 1);
        assert_eq!(sel.failures.len(), 2);
        assert_eq!(sel.best().unwrap().dist.kind(), DistKind::Normal);
    }

    #[test]
    #[should_panic(expected = "requires data")]
    fn ks_requires_data() {
        ks_statistic(&[], &Dist::exponential(1.0).unwrap());
    }
}
