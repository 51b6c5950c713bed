//! Statistics substrate for the Mira failure study.
//!
//! The paper's methodology is statistical: per-error-type distribution
//! fitting (Weibull / Pareto / inverse Gaussian / Erlang / exponential),
//! Kolmogorov–Smirnov model selection, Pearson/Spearman correlation, and
//! concentration measures. Rust has no canonical equivalent of the
//! R/Python stacks the authors used, so this crate implements the needed
//! subset from scratch:
//!
//! * [`special`] — log-gamma, digamma, erf, normal CDF, regularized
//!   incomplete gamma;
//! * [`dist`] — the eight-distribution zoo with pdf/cdf/moments/sampling;
//! * [`fit`] — maximum-likelihood estimation per family;
//! * [`censor`] — right-censored fits (the start of truncation-aware
//!   fitting);
//! * [`gof`] — KS test and best-fit model selection;
//! * [`correlation`] — Pearson, Spearman;
//! * [`summary`], [`bootstrap`] — descriptive statistics, Gini and top-k
//!   concentration, percentile-bootstrap intervals;
//! * [`topk`] — the space-saving heavy-hitter sketch.
//!
//! # Examples
//!
//! Recovering a generating family from data, exactly as experiment E7 does
//! for failed-job execution lengths:
//!
//! ```
//! use bgq_stats::dist::{Dist, DistKind};
//! use bgq_stats::gof::select_best;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let data = Dist::pareto(60.0, 1.5)?.sample_n(&mut rng, 4000);
//! let selection = select_best(&data, &DistKind::PAPER_CANDIDATES);
//! assert_eq!(selection.best().unwrap().dist.kind(), DistKind::Pareto);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bootstrap;
pub mod censor;
pub mod correlation;
pub mod dist;
pub mod fit;
pub mod gof;
pub mod special;
pub mod summary;
pub mod topk;

pub use bootstrap::{bootstrap_ci, BootstrapCi};
pub use censor::{fit_exponential_censored, fit_weibull_censored, Censored};
pub use correlation::{pearson, spearman};
pub use dist::{Dist, DistKind};
pub use fit::FitError;
pub use gof::{ks_p_value, ks_statistic, select_best, GofResult, ModelSelection};
pub use summary::{gini, top_k_share, Summary};
pub use topk::{HeavyHitter, SpaceSaving};
