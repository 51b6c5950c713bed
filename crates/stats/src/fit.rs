//! Maximum-likelihood parameter estimation for every family in
//! [`crate::dist`].
//!
//! Closed-form estimators where they exist (exponential, Pareto, lognormal,
//! inverse Gaussian, normal), Newton iterations on the profile likelihood
//! for Weibull and gamma shapes, and integer-rounded gamma for Erlang —
//! mirroring what R's `fitdistrplus`/`MASS::fitdistr` do for the paper.

use std::fmt;

use crate::dist::{Dist, DistKind};
use crate::special::digamma;

/// Error returned when a family cannot be fitted to the data.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer than two finite observations.
    TooFewObservations {
        /// Number of usable observations found.
        got: usize,
    },
    /// Data contain values outside the family's support (e.g. zeros for
    /// lognormal).
    UnsupportedValue {
        /// The offending observation.
        value: f64,
        /// The family being fitted.
        kind: DistKind,
    },
    /// Data are (numerically) constant, so scale parameters degenerate.
    DegenerateData,
    /// The iterative shape solver failed to converge.
    NoConvergence {
        /// The family being fitted.
        kind: DistKind,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewObservations { got } => {
                write!(f, "need at least 2 observations, got {got}")
            }
            FitError::UnsupportedValue { value, kind } => {
                write!(f, "value {value} is outside the support of {kind}")
            }
            FitError::DegenerateData => f.write_str("data are constant; cannot fit a scale"),
            FitError::NoConvergence { kind } => {
                write!(f, "shape estimation for {kind} did not converge")
            }
        }
    }
}

impl std::error::Error for FitError {}

fn validate(data: &[f64]) -> Result<(), FitError> {
    let usable = data.iter().filter(|x| x.is_finite()).count();
    if usable < 2 {
        return Err(FitError::TooFewObservations { got: usable });
    }
    Ok(())
}

fn require_positive(data: &[f64], kind: DistKind) -> Result<(), FitError> {
    if let Some(&bad) = data.iter().find(|&&x| !x.is_finite() || x <= 0.0) {
        return Err(FitError::UnsupportedValue { value: bad, kind });
    }
    Ok(())
}

fn mean(data: &[f64]) -> f64 {
    data.iter().sum::<f64>() / data.len() as f64
}

impl DistKind {
    /// Fits this family to `data` by maximum likelihood.
    ///
    /// # Errors
    ///
    /// See [`FitError`]: too few points, values outside the support,
    /// degenerate (constant) data, or non-convergence of the shape solver.
    ///
    /// # Examples
    ///
    /// ```
    /// use bgq_stats::dist::{Dist, DistKind};
    /// use rand::SeedableRng;
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let data = Dist::exponential(0.5)?.sample_n(&mut rng, 2000);
    /// let fitted = DistKind::Exponential.fit(&data)?;
    /// let Dist::Exponential { lambda } = fitted else { unreachable!() };
    /// assert!((lambda - 0.5).abs() < 0.05);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fit(&self, data: &[f64]) -> Result<Dist, FitError> {
        validate(data)?;
        match self {
            DistKind::Exponential => fit_exponential(data),
            DistKind::Weibull => fit_weibull(data),
            DistKind::Pareto => fit_pareto(data),
            DistKind::LogNormal => fit_lognormal(data),
            DistKind::Gamma => fit_gamma(data),
            DistKind::Erlang => fit_erlang(data),
            DistKind::InverseGaussian => fit_inverse_gaussian(data),
            DistKind::Normal => fit_normal(data),
        }
    }
}

fn fit_exponential(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::Exponential)?;
    let m = mean(data);
    Dist::exponential(1.0 / m).map_err(|_| FitError::DegenerateData)
}

/// Weibull MLE: Newton iteration on the shape equation
/// `Σ xᵢᵏ ln xᵢ / Σ xᵢᵏ − 1/k − mean(ln xᵢ) = 0`
/// starting from the method-of-moments-style initializer of
/// Menon/Justus; the scale then follows in closed form.
fn fit_weibull(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::Weibull)?;
    let n = data.len() as f64;
    let ln_xs: Vec<f64> = data.iter().map(|x| x.ln()).collect();
    let mean_ln = ln_xs.iter().sum::<f64>() / n;
    let var_ln = ln_xs.iter().map(|l| (l - mean_ln).powi(2)).sum::<f64>() / n;
    if var_ln < 1e-18 {
        return Err(FitError::DegenerateData);
    }
    // Initializer from the log-data variance: Var[ln X] = π²/(6k²).
    let mut k = (std::f64::consts::PI / (6.0 * var_ln).sqrt()).max(1e-3);

    for _ in 0..200 {
        // Evaluate g(k) and g'(k) with stabilized power sums: divide by the
        // max element to avoid overflow of x^k.
        let xmax = data.iter().cloned().fold(f64::MIN, f64::max);
        let mut s0 = 0.0; // Σ (x/xmax)^k
        let mut s1 = 0.0; // Σ (x/xmax)^k ln x
        let mut s2 = 0.0; // Σ (x/xmax)^k (ln x)²
        for (&x, &lx) in data.iter().zip(&ln_xs) {
            let w = (x / xmax).powf(k);
            s0 += w;
            s1 += w * lx;
            s2 += w * lx * lx;
        }
        let g = s1 / s0 - 1.0 / k - mean_ln;
        let dg = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
        let step = g / dg;
        let next = (k - step).clamp(k / 4.0, k * 4.0).max(1e-6);
        let done = (next - k).abs() <= 1e-12 * k.max(1.0);
        k = next;
        if done {
            break;
        }
        if !k.is_finite() {
            return Err(FitError::NoConvergence {
                kind: DistKind::Weibull,
            });
        }
    }
    let scale = (data.iter().map(|x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
    Dist::weibull(k, scale).map_err(|_| FitError::NoConvergence {
        kind: DistKind::Weibull,
    })
}

/// Pareto MLE: `x̂ₘ = min xᵢ`, `α̂ = n / Σ ln(xᵢ/x̂ₘ)`.
fn fit_pareto(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::Pareto)?;
    let xm = data.iter().cloned().fold(f64::MAX, f64::min);
    let denom: f64 = data.iter().map(|&x| (x / xm).ln()).sum();
    if denom <= 0.0 {
        return Err(FitError::DegenerateData);
    }
    Dist::pareto(xm, data.len() as f64 / denom).map_err(|_| FitError::DegenerateData)
}

fn fit_lognormal(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::LogNormal)?;
    let n = data.len() as f64;
    let mu = data.iter().map(|x| x.ln()).sum::<f64>() / n;
    let var = data.iter().map(|x| (x.ln() - mu).powi(2)).sum::<f64>() / n;
    // Relative epsilon: constant data leave O(ulp²) residue in `var`.
    if var <= 1e-24 * (1.0 + mu * mu) {
        return Err(FitError::DegenerateData);
    }
    Dist::lognormal(mu, var.sqrt()).map_err(|_| FitError::DegenerateData)
}

/// Gamma MLE: Newton on `ln k − ψ(k) = s` with
/// `s = ln(mean) − mean(ln x)` and the Minka initializer.
fn fit_gamma(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::Gamma)?;
    let shape = gamma_shape_mle(data)?;
    let rate = shape / mean(data);
    Dist::gamma(shape, rate).map_err(|_| FitError::NoConvergence {
        kind: DistKind::Gamma,
    })
}

fn gamma_shape_mle(data: &[f64]) -> Result<f64, FitError> {
    let n = data.len() as f64;
    let m = mean(data);
    let mean_ln = data.iter().map(|x| x.ln()).sum::<f64>() / n;
    let s = m.ln() - mean_ln;
    // Relative epsilon: constant data leave O(ulp) residue in `s`, which
    // would otherwise produce an absurd shape like 1e75.
    if s <= 1e-12 * (1.0 + mean_ln.abs()) {
        return Err(FitError::DegenerateData);
    }
    let mut k = (3.0 - s + ((s - 3.0).powi(2) + 24.0 * s).sqrt()) / (12.0 * s);
    for _ in 0..100 {
        // ψ'(k) via the derivative of the asymptotic series would do; a
        // numerically differenced digamma is ample at these tolerances.
        let h = 1e-6 * k.max(1e-3);
        let f = k.ln() - digamma(k) - s;
        let df = ((k + h).ln() - digamma(k + h) - ((k - h).ln() - digamma(k - h))) / (2.0 * h);
        let next = (k - f / df).clamp(k / 4.0, k * 4.0).max(1e-8);
        let done = (next - k).abs() <= 1e-12 * k.max(1.0);
        k = next;
        if done {
            return Ok(k);
        }
        if !k.is_finite() {
            break;
        }
    }
    if k.is_finite() && k > 0.0 {
        Ok(k)
    } else {
        Err(FitError::NoConvergence {
            kind: DistKind::Gamma,
        })
    }
}

/// Erlang MLE: gamma shape rounded to the nearest positive integer, rate
/// re-maximized at `k̂ / mean`.
fn fit_erlang(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::Erlang)?;
    let shape = gamma_shape_mle(data)?;
    let k = shape.round().max(1.0) as u32;
    let rate = f64::from(k) / mean(data);
    Dist::erlang(k, rate).map_err(|_| FitError::NoConvergence {
        kind: DistKind::Erlang,
    })
}

/// Inverse Gaussian MLE: `μ̂ = mean`, `1/λ̂ = mean(1/xᵢ − 1/μ̂)`.
fn fit_inverse_gaussian(data: &[f64]) -> Result<Dist, FitError> {
    require_positive(data, DistKind::InverseGaussian)?;
    let n = data.len() as f64;
    let mu = mean(data);
    let inv_lambda = data.iter().map(|&x| 1.0 / x - 1.0 / mu).sum::<f64>() / n;
    if inv_lambda <= 0.0 {
        return Err(FitError::DegenerateData);
    }
    Dist::inverse_gaussian(mu, 1.0 / inv_lambda).map_err(|_| FitError::DegenerateData)
}

fn fit_normal(data: &[f64]) -> Result<Dist, FitError> {
    if let Some(&bad) = data.iter().find(|x| !x.is_finite()) {
        return Err(FitError::UnsupportedValue {
            value: bad,
            kind: DistKind::Normal,
        });
    }
    let n = data.len() as f64;
    let mu = mean(data);
    let var = data.iter().map(|x| (x - mu).powi(2)).sum::<f64>() / n;
    if var <= 1e-24 * (1.0 + mu * mu) {
        return Err(FitError::DegenerateData);
    }
    Dist::normal(mu, var.sqrt()).map_err(|_| FitError::DegenerateData)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Generates from a known distribution and checks the fitted parameters
    /// land near the truth.
    fn recovery_case(truth: Dist, n: usize, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = truth.sample_n(&mut rng, n);
        let fitted = truth.kind().fit(&data).unwrap();
        let pairs: &[(f64, f64)] = &match (truth, fitted) {
            (Dist::Exponential { lambda: a }, Dist::Exponential { lambda: b }) => {
                [(a, b); 1].to_vec()
            }
            (
                Dist::Weibull {
                    shape: a1,
                    scale: a2,
                },
                Dist::Weibull {
                    shape: b1,
                    scale: b2,
                },
            ) => vec![(a1, b1), (a2, b2)],
            (Dist::Pareto { xm: a1, alpha: a2 }, Dist::Pareto { xm: b1, alpha: b2 }) => {
                vec![(a1, b1), (a2, b2)]
            }
            (Dist::LogNormal { mu: a1, sigma: a2 }, Dist::LogNormal { mu: b1, sigma: b2 }) => {
                vec![(a1, b1), (a2, b2)]
            }
            (
                Dist::Gamma {
                    shape: a1,
                    rate: a2,
                },
                Dist::Gamma {
                    shape: b1,
                    rate: b2,
                },
            ) => {
                vec![(a1, b1), (a2, b2)]
            }
            (Dist::Erlang { k: a1, rate: a2 }, Dist::Erlang { k: b1, rate: b2 }) => {
                assert_eq!(a1, b1, "Erlang k not recovered");
                vec![(a2, b2)]
            }
            (
                Dist::InverseGaussian { mu: a1, lambda: a2 },
                Dist::InverseGaussian { mu: b1, lambda: b2 },
            ) => vec![(a1, b1), (a2, b2)],
            (Dist::Normal { mu: a1, sigma: a2 }, Dist::Normal { mu: b1, sigma: b2 }) => {
                vec![(a1, b1), (a2, b2)]
            }
            other => panic!("family mismatch: {other:?}"),
        };
        for &(want, got) in pairs {
            assert!(
                (got - want).abs() <= tol * want.abs().max(1.0),
                "{truth}: fitted {got}, want {want}"
            );
        }
    }

    #[test]
    fn exponential_recovery() {
        recovery_case(Dist::exponential(0.03).unwrap(), 8000, 1, 0.05);
    }

    #[test]
    fn weibull_recovery_decreasing_hazard() {
        recovery_case(Dist::weibull(0.7, 5000.0).unwrap(), 8000, 2, 0.08);
    }

    #[test]
    fn weibull_recovery_increasing_hazard() {
        recovery_case(Dist::weibull(2.2, 10.0).unwrap(), 8000, 3, 0.08);
    }

    #[test]
    fn pareto_recovery() {
        recovery_case(Dist::pareto(60.0, 1.8).unwrap(), 8000, 4, 0.08);
    }

    #[test]
    fn lognormal_recovery() {
        recovery_case(Dist::lognormal(2.0, 1.2).unwrap(), 8000, 5, 0.08);
    }

    #[test]
    fn gamma_recovery() {
        recovery_case(Dist::gamma(2.5, 0.01).unwrap(), 8000, 6, 0.1);
    }

    #[test]
    fn erlang_recovery() {
        recovery_case(Dist::erlang(3, 0.002).unwrap(), 8000, 7, 0.1);
    }

    #[test]
    fn inverse_gaussian_recovery() {
        recovery_case(Dist::inverse_gaussian(300.0, 900.0).unwrap(), 8000, 8, 0.1);
    }

    #[test]
    fn normal_recovery() {
        recovery_case(Dist::normal(-3.0, 2.5).unwrap(), 8000, 9, 0.08);
    }

    #[test]
    fn too_few_points_is_an_error() {
        assert_eq!(
            DistKind::Exponential.fit(&[1.0]),
            Err(FitError::TooFewObservations { got: 1 })
        );
        assert_eq!(
            DistKind::Weibull.fit(&[]),
            Err(FitError::TooFewObservations { got: 0 })
        );
    }

    #[test]
    fn nonpositive_data_rejected_for_positive_families() {
        for kind in [
            DistKind::Exponential,
            DistKind::Weibull,
            DistKind::Pareto,
            DistKind::LogNormal,
            DistKind::Gamma,
            DistKind::Erlang,
            DistKind::InverseGaussian,
        ] {
            let err = kind.fit(&[1.0, 2.0, 0.0]).unwrap_err();
            assert!(
                matches!(err, FitError::UnsupportedValue { .. }),
                "{kind}: {err:?}"
            );
        }
        // Normal accepts any finite data.
        assert!(DistKind::Normal.fit(&[-1.0, 0.0, 2.0]).is_ok());
    }

    #[test]
    fn constant_data_is_degenerate_except_exponential() {
        // The exponential MLE (λ = 1/mean) is well-defined on constant
        // data; every two-parameter family degenerates.
        let flat = [5.0; 20];
        for kind in DistKind::ALL {
            let r = kind.fit(&flat);
            if kind == DistKind::Exponential {
                assert_eq!(r, Ok(Dist::exponential(0.2).unwrap()));
            } else {
                assert!(r.is_err(), "{kind} accepted constant data: {r:?}");
            }
        }
    }

    #[test]
    fn fitted_likelihood_beats_perturbed_parameters() {
        // The MLE should (locally) maximize the likelihood.
        let mut rng = StdRng::seed_from_u64(21);
        let truth = Dist::weibull(0.9, 100.0).unwrap();
        let data = truth.sample_n(&mut rng, 3000);
        let Dist::Weibull { shape, scale } = DistKind::Weibull.fit(&data).unwrap() else {
            unreachable!()
        };
        let best = Dist::weibull(shape, scale).unwrap().log_likelihood(&data);
        for (ds, dc) in [(1.05, 1.0), (0.95, 1.0), (1.0, 1.05), (1.0, 0.95)] {
            let perturbed = Dist::weibull(shape * ds, scale * dc).unwrap();
            assert!(perturbed.log_likelihood(&data) <= best + 1e-6);
        }
    }
}
