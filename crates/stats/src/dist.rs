//! The continuous distribution zoo used by the failure analysis.
//!
//! The paper fits failed-job execution lengths and interruption intervals
//! against exactly these families: exponential, Weibull, Pareto, lognormal,
//! gamma, Erlang, inverse Gaussian (Wald), and normal (as a sanity
//! baseline). Each distribution exposes pdf/cdf/moments and inverse-CDF or
//! rejection sampling; parameter estimation lives in [`crate::fit`].

use std::f64::consts::PI;
use std::fmt;

use rand::Rng;

use crate::special::{ln_gamma, lower_regularized_gamma, std_normal_cdf};

/// Draws a standard normal variate via the Marsaglia polar method.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// A uniform draw in the open interval (0, 1), safe for `ln`.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen();
        if u > 0.0 && u < 1.0 {
            return u;
        }
    }
}

/// The family a [`Dist`] belongs to; also the fitting dispatch key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DistKind {
    /// Exponential(rate).
    Exponential,
    /// Weibull(shape, scale).
    Weibull,
    /// Pareto(scale x_m, shape α).
    Pareto,
    /// LogNormal(μ, σ).
    LogNormal,
    /// Gamma(shape, rate).
    Gamma,
    /// Erlang(k, rate) — gamma with integer shape.
    Erlang,
    /// Inverse Gaussian / Wald (μ, λ).
    InverseGaussian,
    /// Normal(μ, σ).
    Normal,
}

impl DistKind {
    /// Every supported family, in the order used by the paper's tables.
    pub const ALL: [DistKind; 8] = [
        DistKind::Exponential,
        DistKind::Weibull,
        DistKind::Pareto,
        DistKind::LogNormal,
        DistKind::Gamma,
        DistKind::Erlang,
        DistKind::InverseGaussian,
        DistKind::Normal,
    ];

    /// The candidate set the paper reports best fits from (everything but
    /// the normal baseline).
    pub const PAPER_CANDIDATES: [DistKind; 7] = [
        DistKind::Exponential,
        DistKind::Weibull,
        DistKind::Pareto,
        DistKind::LogNormal,
        DistKind::Gamma,
        DistKind::Erlang,
        DistKind::InverseGaussian,
    ];

    /// Stable lowercase name.
    pub fn name(&self) -> &'static str {
        match self {
            DistKind::Exponential => "exponential",
            DistKind::Weibull => "weibull",
            DistKind::Pareto => "pareto",
            DistKind::LogNormal => "lognormal",
            DistKind::Gamma => "gamma",
            DistKind::Erlang => "erlang",
            DistKind::InverseGaussian => "inverse-gaussian",
            DistKind::Normal => "normal",
        }
    }
}

impl fmt::Display for DistKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A parameterized continuous distribution.
///
/// # Examples
///
/// ```
/// use bgq_stats::dist::Dist;
///
/// let d = Dist::weibull(0.7, 3600.0)?;
/// assert!(d.cdf(0.0) == 0.0);
/// assert!((d.cdf(1e9) - 1.0).abs() < 1e-12);
/// # Ok::<(), bgq_stats::dist::ParamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Exponential with rate `lambda`.
    Exponential {
        /// Rate parameter λ > 0.
        lambda: f64,
    },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull {
        /// Shape parameter k > 0.
        shape: f64,
        /// Scale parameter λ > 0.
        scale: f64,
    },
    /// Pareto (type I) with minimum `xm` and tail index `alpha`.
    Pareto {
        /// Scale (minimum value) x_m > 0.
        xm: f64,
        /// Tail index α > 0.
        alpha: f64,
    },
    /// Lognormal: `ln X ~ N(mu, sigma²)`.
    LogNormal {
        /// Location of ln X.
        mu: f64,
        /// Scale of ln X, σ > 0.
        sigma: f64,
    },
    /// Gamma with shape `k` and rate `beta`.
    Gamma {
        /// Shape parameter k > 0.
        shape: f64,
        /// Rate parameter β > 0.
        rate: f64,
    },
    /// Erlang: gamma with integer shape `k ≥ 1`.
    Erlang {
        /// Integer shape k ≥ 1.
        k: u32,
        /// Rate parameter β > 0.
        rate: f64,
    },
    /// Inverse Gaussian (Wald) with mean `mu` and shape `lambda`.
    InverseGaussian {
        /// Mean μ > 0.
        mu: f64,
        /// Shape λ > 0.
        lambda: f64,
    },
    /// Normal with mean `mu` and standard deviation `sigma`.
    Normal {
        /// Mean.
        mu: f64,
        /// Standard deviation σ > 0.
        sigma: f64,
    },
}

/// Error returned for invalid distribution parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamError {
    what: &'static str,
    value: f64,
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid distribution parameter {}: {}",
            self.what, self.value
        )
    }
}

impl std::error::Error for ParamError {}

fn positive(what: &'static str, v: f64) -> Result<f64, ParamError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(ParamError { what, value: v })
    }
}

fn finite(what: &'static str, v: f64) -> Result<f64, ParamError> {
    if v.is_finite() {
        Ok(v)
    } else {
        Err(ParamError { what, value: v })
    }
}

impl Dist {
    /// Exponential with rate `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-finite or non-positive parameters.
    pub fn exponential(lambda: f64) -> Result<Self, ParamError> {
        Ok(Dist::Exponential {
            lambda: positive("lambda", lambda)?,
        })
    }

    /// Weibull with `shape > 0`, `scale > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-finite or non-positive parameters.
    pub fn weibull(shape: f64, scale: f64) -> Result<Self, ParamError> {
        Ok(Dist::Weibull {
            shape: positive("shape", shape)?,
            scale: positive("scale", scale)?,
        })
    }

    /// Pareto with `xm > 0`, `alpha > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-finite or non-positive parameters.
    pub fn pareto(xm: f64, alpha: f64) -> Result<Self, ParamError> {
        Ok(Dist::Pareto {
            xm: positive("xm", xm)?,
            alpha: positive("alpha", alpha)?,
        })
    }

    /// Lognormal with finite `mu` and `sigma > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid parameters.
    pub fn lognormal(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(Dist::LogNormal {
            mu: finite("mu", mu)?,
            sigma: positive("sigma", sigma)?,
        })
    }

    /// Gamma with `shape > 0`, `rate > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-finite or non-positive parameters.
    pub fn gamma(shape: f64, rate: f64) -> Result<Self, ParamError> {
        Ok(Dist::Gamma {
            shape: positive("shape", shape)?,
            rate: positive("rate", rate)?,
        })
    }

    /// Erlang with integer `k ≥ 1` and `rate > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] if `k == 0` or `rate` is invalid.
    pub fn erlang(k: u32, rate: f64) -> Result<Self, ParamError> {
        if k == 0 {
            return Err(ParamError {
                what: "k",
                value: 0.0,
            });
        }
        Ok(Dist::Erlang {
            k,
            rate: positive("rate", rate)?,
        })
    }

    /// Inverse Gaussian with `mu > 0`, `lambda > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for non-finite or non-positive parameters.
    pub fn inverse_gaussian(mu: f64, lambda: f64) -> Result<Self, ParamError> {
        Ok(Dist::InverseGaussian {
            mu: positive("mu", mu)?,
            lambda: positive("lambda", lambda)?,
        })
    }

    /// Normal with finite `mu` and `sigma > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`ParamError`] for invalid parameters.
    pub fn normal(mu: f64, sigma: f64) -> Result<Self, ParamError> {
        Ok(Dist::Normal {
            mu: finite("mu", mu)?,
            sigma: positive("sigma", sigma)?,
        })
    }

    /// The family this distribution belongs to.
    pub fn kind(&self) -> DistKind {
        match self {
            Dist::Exponential { .. } => DistKind::Exponential,
            Dist::Weibull { .. } => DistKind::Weibull,
            Dist::Pareto { .. } => DistKind::Pareto,
            Dist::LogNormal { .. } => DistKind::LogNormal,
            Dist::Gamma { .. } => DistKind::Gamma,
            Dist::Erlang { .. } => DistKind::Erlang,
            Dist::InverseGaussian { .. } => DistKind::InverseGaussian,
            Dist::Normal { .. } => DistKind::Normal,
        }
    }

    /// Probability density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        match *self {
            Dist::Exponential { lambda } => {
                if x < 0.0 {
                    0.0
                } else {
                    lambda * (-lambda * x).exp()
                }
            }
            Dist::Weibull { shape, scale } => {
                if x < 0.0 {
                    0.0
                } else if x == 0.0 {
                    // k<1 diverges at 0; report 0 to keep downstream sums finite.
                    if shape < 1.0 {
                        0.0
                    } else if shape == 1.0 {
                        1.0 / scale
                    } else {
                        0.0
                    }
                } else {
                    let z = x / scale;
                    (shape / scale) * z.powf(shape - 1.0) * (-z.powf(shape)).exp()
                }
            }
            Dist::Pareto { xm, alpha } => {
                if x < xm {
                    0.0
                } else {
                    alpha * xm.powf(alpha) / x.powf(alpha + 1.0)
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    let z = (x.ln() - mu) / sigma;
                    (-0.5 * z * z).exp() / (x * sigma * (2.0 * PI).sqrt())
                }
            }
            Dist::Gamma { shape, rate } => gamma_pdf(shape, rate, x),
            Dist::Erlang { k, rate } => gamma_pdf(f64::from(k), rate, x),
            Dist::InverseGaussian { mu, lambda } => {
                if x <= 0.0 {
                    0.0
                } else {
                    (lambda / (2.0 * PI * x.powi(3))).sqrt()
                        * (-lambda * (x - mu).powi(2) / (2.0 * mu * mu * x)).exp()
                }
            }
            Dist::Normal { mu, sigma } => {
                let z = (x - mu) / sigma;
                (-0.5 * z * z).exp() / (sigma * (2.0 * PI).sqrt())
            }
        }
    }

    /// Natural log of the density at `x` (`-inf` where the density is 0).
    pub fn ln_pdf(&self, x: f64) -> f64 {
        // Direct formulas avoid underflow for extreme x.
        match *self {
            Dist::Exponential { lambda } => {
                if x < 0.0 {
                    f64::NEG_INFINITY
                } else {
                    lambda.ln() - lambda * x
                }
            }
            Dist::Weibull { shape, scale } => {
                if x <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    let z = x / scale;
                    shape.ln() - scale.ln() + (shape - 1.0) * z.ln() - z.powf(shape)
                }
            }
            Dist::Pareto { xm, alpha } => {
                if x < xm {
                    f64::NEG_INFINITY
                } else {
                    alpha.ln() + alpha * xm.ln() - (alpha + 1.0) * x.ln()
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    let z = (x.ln() - mu) / sigma;
                    -0.5 * z * z - x.ln() - sigma.ln() - 0.5 * (2.0 * PI).ln()
                }
            }
            Dist::Gamma { shape, rate } => ln_gamma_pdf(shape, rate, x),
            Dist::Erlang { k, rate } => ln_gamma_pdf(f64::from(k), rate, x),
            Dist::InverseGaussian { mu, lambda } => {
                if x <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    0.5 * (lambda.ln() - (2.0 * PI).ln() - 3.0 * x.ln())
                        - lambda * (x - mu).powi(2) / (2.0 * mu * mu * x)
                }
            }
            Dist::Normal { mu, sigma } => {
                let z = (x - mu) / sigma;
                -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * PI).ln()
            }
        }
    }

    /// Cumulative distribution function at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        match *self {
            Dist::Exponential { lambda } => {
                if x < 0.0 {
                    0.0
                } else {
                    -(-lambda * x).exp_m1()
                }
            }
            Dist::Weibull { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    -(-(x / scale).powf(shape)).exp_m1()
                }
            }
            Dist::Pareto { xm, alpha } => {
                if x < xm {
                    0.0
                } else {
                    1.0 - (xm / x).powf(alpha)
                }
            }
            Dist::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    std_normal_cdf((x.ln() - mu) / sigma)
                }
            }
            Dist::Gamma { shape, rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    lower_regularized_gamma(shape, rate * x)
                }
            }
            Dist::Erlang { k, rate } => {
                if x <= 0.0 {
                    0.0
                } else {
                    lower_regularized_gamma(f64::from(k), rate * x)
                }
            }
            Dist::InverseGaussian { mu, lambda } => {
                if x <= 0.0 {
                    0.0
                } else {
                    let s = (lambda / x).sqrt();
                    let a = std_normal_cdf(s * (x / mu - 1.0));
                    let b = (2.0 * lambda / mu).exp() * std_normal_cdf(-s * (x / mu + 1.0));
                    (a + b).clamp(0.0, 1.0)
                }
            }
            Dist::Normal { mu, sigma } => std_normal_cdf((x - mu) / sigma),
        }
    }

    /// Mean of the distribution; `inf` where undefined (Pareto α ≤ 1).
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Exponential { lambda } => 1.0 / lambda,
            Dist::Weibull { shape, scale } => scale * (ln_gamma(1.0 + 1.0 / shape)).exp(),
            Dist::Pareto { xm, alpha } => {
                if alpha <= 1.0 {
                    f64::INFINITY
                } else {
                    alpha * xm / (alpha - 1.0)
                }
            }
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Gamma { shape, rate } => shape / rate,
            Dist::Erlang { k, rate } => f64::from(k) / rate,
            Dist::InverseGaussian { mu, .. } => mu,
            Dist::Normal { mu, .. } => mu,
        }
    }

    /// Variance of the distribution; `inf` where undefined (Pareto α ≤ 2).
    pub fn variance(&self) -> f64 {
        match *self {
            Dist::Exponential { lambda } => 1.0 / (lambda * lambda),
            Dist::Weibull { shape, scale } => {
                let g1 = ln_gamma(1.0 + 1.0 / shape).exp();
                let g2 = ln_gamma(1.0 + 2.0 / shape).exp();
                scale * scale * (g2 - g1 * g1)
            }
            Dist::Pareto { xm, alpha } => {
                if alpha <= 2.0 {
                    f64::INFINITY
                } else {
                    xm * xm * alpha / ((alpha - 1.0).powi(2) * (alpha - 2.0))
                }
            }
            Dist::LogNormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
            Dist::Gamma { shape, rate } => shape / (rate * rate),
            Dist::Erlang { k, rate } => f64::from(k) / (rate * rate),
            Dist::InverseGaussian { mu, lambda } => mu.powi(3) / lambda,
            Dist::Normal { sigma, .. } => sigma * sigma,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Exponential { lambda } => -open_unit(rng).ln() / lambda,
            Dist::Weibull { shape, scale } => scale * (-open_unit(rng).ln()).powf(1.0 / shape),
            Dist::Pareto { xm, alpha } => xm / open_unit(rng).powf(1.0 / alpha),
            Dist::LogNormal { mu, sigma } => (mu + sigma * standard_normal(rng)).exp(),
            Dist::Gamma { shape, rate } => sample_gamma(rng, shape) / rate,
            Dist::Erlang { k, rate } => sample_gamma(rng, f64::from(k)) / rate,
            Dist::InverseGaussian { mu, lambda } => {
                // Michael–Schucany–Haas transformation method.
                let nu = standard_normal(rng);
                let y = nu * nu;
                let x = mu + mu * mu * y / (2.0 * lambda)
                    - (mu / (2.0 * lambda)) * (4.0 * mu * lambda * y + mu * mu * y * y).sqrt();
                let u: f64 = rng.gen();
                if u <= mu / (mu + x) {
                    x
                } else {
                    mu * mu / x
                }
            }
            Dist::Normal { mu, sigma } => mu + sigma * standard_normal(rng),
        }
    }

    /// Draws `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Log-likelihood of the data under this distribution.
    pub fn log_likelihood(&self, data: &[f64]) -> f64 {
        data.iter().map(|&x| self.ln_pdf(x)).sum()
    }

    /// Number of free parameters (for AIC/BIC model comparison).
    pub fn num_params(&self) -> usize {
        match self {
            Dist::Exponential { .. } => 1,
            _ => 2,
        }
    }

    /// Akaike information criterion for the data: `2k − 2 ln L`.
    pub fn aic(&self, data: &[f64]) -> f64 {
        2.0 * self.num_params() as f64 - 2.0 * self.log_likelihood(data)
    }

    /// Bayesian information criterion: `k ln n − 2 ln L`. Stricter about
    /// extra parameters than AIC at large `n`, which matters here because
    /// the candidate families nest each other.
    pub fn bic(&self, data: &[f64]) -> f64 {
        self.num_params() as f64 * (data.len().max(1) as f64).ln() - 2.0 * self.log_likelihood(data)
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Dist::Exponential { lambda } => write!(f, "Exponential(λ={lambda:.4e})"),
            Dist::Weibull { shape, scale } => write!(f, "Weibull(k={shape:.3}, λ={scale:.4e})"),
            Dist::Pareto { xm, alpha } => write!(f, "Pareto(xm={xm:.4e}, α={alpha:.3})"),
            Dist::LogNormal { mu, sigma } => write!(f, "LogNormal(μ={mu:.3}, σ={sigma:.3})"),
            Dist::Gamma { shape, rate } => write!(f, "Gamma(k={shape:.3}, β={rate:.4e})"),
            Dist::Erlang { k, rate } => write!(f, "Erlang(k={k}, β={rate:.4e})"),
            Dist::InverseGaussian { mu, lambda } => {
                write!(f, "InvGaussian(μ={mu:.4e}, λ={lambda:.4e})")
            }
            Dist::Normal { mu, sigma } => write!(f, "Normal(μ={mu:.4e}, σ={sigma:.4e})"),
        }
    }
}

fn gamma_pdf(shape: f64, rate: f64, x: f64) -> f64 {
    if x < 0.0 {
        return 0.0;
    }
    if x == 0.0 {
        return if shape < 1.0 {
            0.0 // diverges; clamp as for Weibull
        } else if shape == 1.0 {
            rate
        } else {
            0.0
        };
    }
    ln_gamma_pdf(shape, rate, x).exp()
}

fn ln_gamma_pdf(shape: f64, rate: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return f64::NEG_INFINITY;
    }
    shape * rate.ln() + (shape - 1.0) * x.ln() - rate * x - ln_gamma(shape)
}

/// Marsaglia–Tsang gamma sampler with unit rate.
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    if shape < 1.0 {
        // Boost: X = Y · U^{1/k} with Y ~ Gamma(k+1).
        let u = open_unit(rng);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = open_unit(rng);
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_sample_dists() -> Vec<Dist> {
        vec![
            Dist::exponential(0.5).unwrap(),
            Dist::weibull(0.8, 2.0).unwrap(),
            Dist::weibull(2.5, 1.0).unwrap(),
            Dist::pareto(1.0, 2.5).unwrap(),
            Dist::lognormal(0.5, 0.75).unwrap(),
            Dist::gamma(3.0, 2.0).unwrap(),
            Dist::erlang(4, 0.5).unwrap(),
            Dist::inverse_gaussian(2.0, 6.0).unwrap(),
            Dist::normal(1.0, 2.0).unwrap(),
        ]
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(Dist::exponential(0.0).is_err());
        assert!(Dist::exponential(f64::NAN).is_err());
        assert!(Dist::weibull(-1.0, 1.0).is_err());
        assert!(Dist::pareto(1.0, f64::INFINITY).is_err());
        assert!(Dist::lognormal(f64::NAN, 1.0).is_err());
        assert!(Dist::erlang(0, 1.0).is_err());
        assert!(Dist::normal(0.0, 0.0).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        for d in all_sample_dists() {
            let mut prev: f64 = 0.0;
            for i in -50..400 {
                let x = i as f64 * 0.05;
                let c = d.cdf(x);
                assert!((0.0..=1.0).contains(&c), "{d}: cdf({x}) = {c}");
                assert!(c + 1e-12 >= prev, "{d}: cdf not monotone at {x}");
                prev = prev.max(c);
            }
        }
    }

    #[test]
    fn pdf_integrates_to_cdf_increments() {
        // Trapezoid integration of the pdf ≈ cdf difference.
        for d in all_sample_dists() {
            // Start above the Pareto xm=1 jump so the trapezoid rule only
            // sees smooth densities.
            let (a, b) = (1.05, 4.0);
            let n = 20_000;
            let h = (b - a) / n as f64;
            let mut integral = 0.5 * (d.pdf(a) + d.pdf(b));
            for i in 1..n {
                integral += d.pdf(a + i as f64 * h);
            }
            integral *= h;
            let expected = d.cdf(b) - d.cdf(a);
            assert!(
                (integral - expected).abs() < 1e-4,
                "{d}: ∫pdf = {integral}, Δcdf = {expected}"
            );
        }
    }

    #[test]
    fn ln_pdf_matches_pdf() {
        for d in all_sample_dists() {
            for &x in &[0.3, 1.0, 2.7, 8.0] {
                let p = d.pdf(x);
                if p > 0.0 {
                    assert!(
                        (d.ln_pdf(x) - p.ln()).abs() < 1e-9,
                        "{d}: ln_pdf({x}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_mean_converges_to_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in all_sample_dists() {
            if !d.mean().is_finite() {
                continue;
            }
            let n = 60_000;
            let mean = d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
            let tol = if d.variance().is_finite() {
                5.0 * (d.variance() / n as f64).sqrt() + 1e-3
            } else {
                // Heavy tails: just check order of magnitude.
                d.mean() * 0.5
            };
            assert!(
                (mean - d.mean()).abs() < tol,
                "{d}: sample mean {mean}, want {} ± {tol}",
                d.mean()
            );
        }
    }

    #[test]
    fn samples_respect_support() {
        let mut rng = StdRng::seed_from_u64(11);
        let pareto = Dist::pareto(3.0, 1.5).unwrap();
        for _ in 0..2000 {
            assert!(pareto.sample(&mut rng) >= 3.0);
        }
        for d in all_sample_dists() {
            if matches!(d, Dist::Normal { .. }) {
                continue;
            }
            for _ in 0..500 {
                assert!(d.sample(&mut rng) >= 0.0, "{d} produced negative sample");
            }
        }
    }

    #[test]
    fn erlang_equals_gamma_with_integer_shape() {
        let e = Dist::erlang(3, 0.7).unwrap();
        let g = Dist::gamma(3.0, 0.7).unwrap();
        for &x in &[0.1, 1.0, 4.0, 10.0] {
            assert!((e.pdf(x) - g.pdf(x)).abs() < 1e-12);
            assert!((e.cdf(x) - g.cdf(x)).abs() < 1e-12);
        }
        assert_eq!(e.mean(), g.mean());
    }

    #[test]
    fn known_moments() {
        let d = Dist::exponential(2.0).unwrap();
        assert!((d.mean() - 0.5).abs() < 1e-12);
        assert!((d.variance() - 0.25).abs() < 1e-12);

        let d = Dist::inverse_gaussian(2.0, 6.0).unwrap();
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert!((d.variance() - 8.0 / 6.0).abs() < 1e-12);

        let d = Dist::pareto(1.0, 0.9).unwrap();
        assert!(d.mean().is_infinite());

        // Weibull(1, λ) is Exponential(1/λ).
        let w = Dist::weibull(1.0, 4.0).unwrap();
        assert!((w.mean() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn aic_prefers_true_model_on_large_sample() {
        let mut rng = StdRng::seed_from_u64(3);
        let truth = Dist::weibull(0.6, 10.0).unwrap();
        let data = truth.sample_n(&mut rng, 5000);
        let wrong = Dist::normal(truth.mean(), truth.variance().sqrt()).unwrap();
        assert!(truth.aic(&data) < wrong.aic(&data));
    }

    #[test]
    fn display_is_informative() {
        assert!(Dist::weibull(0.7, 2.0)
            .unwrap()
            .to_string()
            .contains("Weibull"));
        assert!(Dist::erlang(2, 1.0)
            .unwrap()
            .to_string()
            .contains("Erlang(k=2"));
    }
}
