//! Synthetic Mira BG/Q substrate.
//!
//! The Mira logs analyzed by the DSN 2019 paper are proprietary; this crate
//! is the substitution mandated by the reproduction: a seeded generator
//! that emits all four log sources over a faithful machine model, with the
//! stochastic structure calibrated to the abstract's findings:
//!
//! * a Zipf user population with bimodal bug rates (failure concentration),
//! * failure probability increasing with scale and task count,
//! * per-exit-code time-to-failure laws drawn from the exact families the
//!   paper reports (Weibull, Pareto, inverse Gaussian, Erlang/exponential),
//! * a fatal-incident renewal process with "lemon board" spatial bias and
//!   storm-like FATAL record bursts,
//! * job-linked RAS chatter proportional to node-hours.
//!
//! [`generate`] returns both the dataset and the [`truth::GroundTruth`]
//! that integration tests use to verify the analysis pipeline recovers the
//! generator's parameters *from the logs alone*.
//!
//! # Examples
//!
//! ```
//! use bgq_sim::{generate, SimConfig};
//!
//! let out = generate(&SimConfig::small(5).with_seed(42));
//! println!(
//!     "{} jobs, {} RAS events, {} incidents",
//!     out.dataset.jobs.len(),
//!     out.dataset.ras.len(),
//!     out.truth.incidents.len(),
//! );
//! ```

pub mod catalog;
pub mod config;
pub mod incidents;
pub mod iogen;
pub mod live;
pub mod rasgen;
pub mod scheduler;
pub mod sim;
pub mod truth;
pub mod users;
pub mod userscale;
pub mod workload;

pub use config::SimConfig;
pub use incidents::Incident;
pub use live::LiveEmitter;
pub use sim::{generate, generate_to_snapshot, SimOutput};
pub use truth::GroundTruth;
pub use userscale::generate_jobs_only;
