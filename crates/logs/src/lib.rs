//! Log persistence and joint indexing for the Mira failure study.
//!
//! The paper's characterization is a *joint* analysis across four log
//! sources; this crate supplies the plumbing that makes the join possible:
//!
//! * [`csv`] — an RFC 4180 codec written from scratch (RAS messages contain
//!   commas and quotes);
//! * [`schema`] — the CSV field layout of each record type;
//! * [`store`] — [`store::Dataset`], the four-table on-disk dataset;
//! * [`snapshot`] — the partitioned columnar binary snapshot store;
//! * [`interval`] — a bucketed interval index for "what ran at time t";
//! * [`join`] — the temporal–spatial attribution of RAS events to jobs.
//!
//! # Examples
//!
//! ```
//! use bgq_logs::store::Dataset;
//! use bgq_logs::join::attribute_events;
//! use bgq_model::Severity;
//!
//! let ds = Dataset::new(); // normally: Dataset::load_dir(path)?
//! let join = attribute_events(&ds.jobs, &ds.ras, Severity::Fatal);
//! assert!(join.is_empty());
//! ```

pub mod csv;
pub mod interval;
pub mod join;
pub mod schema;
pub mod snapshot;
pub mod store;

pub use csv::{CsvScanner, RecordView};
pub use interval::IntervalIndex;
pub use join::{attribute_events, Attribution, JoinResult};
pub use schema::{ColumnMap, Record, SchemaError, SchemaErrorKind};
pub use store::{Dataset, StoreError};
