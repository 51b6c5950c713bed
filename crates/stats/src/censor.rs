//! Maximum-likelihood fitting under right censoring.
//!
//! A failed job's execution length is only observed if the bug fired
//! before the wall-time limit; otherwise the observation is *censored* at
//! the request. Dropping censored points (what naive fitting does) biases
//! every scale estimate downward. These estimators use the full censored
//! likelihood `Π f(tᵢ)^{δᵢ} S(tᵢ)^{1−δᵢ}` for the two families where the
//! estimating equations stay tractable: exponential (closed form) and
//! Weibull (profile Newton), covering the memoryless and the
//! shape-flexible ends of the paper's candidate set.

use crate::dist::Dist;
use crate::fit::FitError;

/// A possibly-censored observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Censored {
    /// Observed time (failure time, or censoring time).
    pub time: f64,
    /// `true` if the failure was observed; `false` if censored at `time`.
    pub observed: bool,
}

impl Censored {
    /// An observed (uncensored) failure time.
    pub fn observed(time: f64) -> Self {
        Censored {
            time,
            observed: true,
        }
    }

    /// A right-censored time.
    #[allow(clippy::self_named_constructors)]
    pub fn censored(time: f64) -> Self {
        Censored {
            time,
            observed: false,
        }
    }
}

fn validate(data: &[Censored]) -> Result<(usize, f64), FitError> {
    if let Some(bad) = data.iter().find(|c| !c.time.is_finite() || c.time <= 0.0) {
        return Err(FitError::UnsupportedValue {
            value: bad.time,
            kind: crate::dist::DistKind::Exponential,
        });
    }
    let deaths = data.iter().filter(|c| c.observed).count();
    if deaths < 2 {
        return Err(FitError::TooFewObservations { got: deaths });
    }
    let total_time: f64 = data.iter().map(|c| c.time).sum();
    Ok((deaths, total_time))
}

/// Censored exponential MLE: `λ̂ = deaths / total time at risk`.
///
/// # Errors
///
/// Returns [`FitError`] for non-positive times or fewer than two observed
/// failures.
pub fn fit_exponential_censored(data: &[Censored]) -> Result<Dist, FitError> {
    let (deaths, total_time) = validate(data)?;
    Dist::exponential(deaths as f64 / total_time).map_err(|_| FitError::DegenerateData)
}

/// Censored Weibull MLE via Newton iteration on the profile score for the
/// shape `k`; the scale then follows in closed form:
/// `λ̂ᵏ = Σ tᵢᵏ / d`.
///
/// # Errors
///
/// Returns [`FitError`] for invalid data or non-convergence.
pub fn fit_weibull_censored(data: &[Censored]) -> Result<Dist, FitError> {
    let (deaths, _) = validate(data)?;
    let d = deaths as f64;
    // Score in k:  d/k + Σ_{obs} ln t − d · (Σ t^k ln t)/(Σ t^k) = 0.
    let sum_ln_obs: f64 = data
        .iter()
        .filter(|c| c.observed)
        .map(|c| c.time.ln())
        .sum();
    let tmax = data.iter().map(|c| c.time).fold(f64::MIN, f64::max);
    let mut k = 1.0f64;
    for _ in 0..200 {
        let mut s0 = 0.0; // Σ (t/tmax)^k
        let mut s1 = 0.0; // Σ (t/tmax)^k ln t
        let mut s2 = 0.0; // Σ (t/tmax)^k (ln t)²
        for c in data {
            let w = (c.time / tmax).powf(k);
            let lt = c.time.ln();
            s0 += w;
            s1 += w * lt;
            s2 += w * lt * lt;
        }
        let g = d / k + sum_ln_obs - d * s1 / s0;
        let dg = -d / (k * k) - d * (s2 * s0 - s1 * s1) / (s0 * s0);
        let next = (k - g / dg).clamp(k / 4.0, k * 4.0).max(1e-6);
        let done = (next - k).abs() <= 1e-12 * k.max(1.0);
        k = next;
        if done {
            break;
        }
        if !k.is_finite() {
            return Err(FitError::NoConvergence {
                kind: crate::dist::DistKind::Weibull,
            });
        }
    }
    let scale = (data.iter().map(|c| c.time.powf(k)).sum::<f64>() / d).powf(1.0 / k);
    Dist::weibull(k, scale).map_err(|_| FitError::NoConvergence {
        kind: crate::dist::DistKind::Weibull,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Generates Weibull data censored at a fixed limit, returning both
    /// the censored dataset and the fraction censored.
    fn censored_sample(truth: &Dist, limit: f64, n: usize, seed: u64) -> (Vec<Censored>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::with_capacity(n);
        let mut censored = 0usize;
        for _ in 0..n {
            let t = truth.sample(&mut rng);
            if t >= limit {
                censored += 1;
                out.push(Censored::censored(limit));
            } else {
                out.push(Censored::observed(t));
            }
        }
        (out, censored as f64 / n as f64)
    }

    #[test]
    fn exponential_censored_recovery() {
        let truth = Dist::exponential(1.0 / 800.0).unwrap();
        let (data, frac) = censored_sample(&truth, 1_200.0, 20_000, 1);
        assert!(frac > 0.15, "want substantial censoring, got {frac}");
        let Dist::Exponential { lambda } = fit_exponential_censored(&data).unwrap() else {
            unreachable!()
        };
        assert!((lambda - 1.0 / 800.0).abs() < 0.05 / 800.0, "λ = {lambda}");
    }

    #[test]
    fn naive_fit_is_biased_where_censored_fit_is_not() {
        let truth = Dist::exponential(1.0 / 800.0).unwrap();
        let (data, _) = censored_sample(&truth, 1_200.0, 20_000, 2);
        // Naive: treat every time (including censored) as a failure time.
        let naive_rate = data.len() as f64 / data.iter().map(|c| c.time).sum::<f64>();
        let Dist::Exponential { lambda } = fit_exponential_censored(&data).unwrap() else {
            unreachable!()
        };
        let true_rate = 1.0 / 800.0;
        assert!(
            (lambda - true_rate).abs() < (naive_rate - true_rate).abs() / 3.0,
            "censored {lambda} should beat naive {naive_rate}"
        );
    }

    #[test]
    fn weibull_censored_recovery() {
        let truth = Dist::weibull(0.7, 1_500.0).unwrap();
        let (data, frac) = censored_sample(&truth, 3_000.0, 20_000, 3);
        assert!(frac > 0.1, "want substantial censoring, got {frac}");
        let Dist::Weibull { shape, scale } = fit_weibull_censored(&data).unwrap() else {
            unreachable!()
        };
        assert!((shape - 0.7).abs() < 0.05, "k = {shape}");
        assert!((scale - 1_500.0).abs() < 120.0, "λ = {scale}");
    }

    #[test]
    fn weibull_censored_with_varying_limits() {
        // Per-observation censoring limits (like per-job walltimes).
        let truth = Dist::weibull(1.8, 600.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut data = Vec::new();
        for _ in 0..20_000 {
            let limit = rng.gen_range(300.0..2_000.0);
            let t = truth.sample(&mut rng);
            data.push(if t >= limit {
                Censored::censored(limit)
            } else {
                Censored::observed(t)
            });
        }
        let Dist::Weibull { shape, scale } = fit_weibull_censored(&data).unwrap() else {
            unreachable!()
        };
        assert!((shape - 1.8).abs() < 0.1, "k = {shape}");
        assert!((scale - 600.0).abs() < 40.0, "λ = {scale}");
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(matches!(
            fit_exponential_censored(&[Censored::observed(1.0), Censored::observed(-1.0)]),
            Err(FitError::UnsupportedValue { .. })
        ));
        assert!(matches!(
            fit_weibull_censored(&[Censored::censored(5.0), Censored::observed(1.0)]),
            Err(FitError::TooFewObservations { got: 1 })
        ));
    }

    #[test]
    fn uncensored_data_matches_plain_mle() {
        let truth = Dist::exponential(0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let times = truth.sample_n(&mut rng, 5_000);
        let censored: Vec<Censored> = times.iter().map(|&t| Censored::observed(t)).collect();
        let plain = crate::dist::DistKind::Exponential.fit(&times).unwrap();
        let cens = fit_exponential_censored(&censored).unwrap();
        let (Dist::Exponential { lambda: a }, Dist::Exponential { lambda: b }) = (plain, cens)
        else {
            unreachable!()
        };
        assert!((a - b).abs() < 1e-12);
    }
}
