//! Deterministic fault injection for the ingestion pipeline.
//!
//! Two attack surfaces, both seeded and fully replayable:
//!
//! * [`corrupt`] — a byte-level corruption engine over an on-disk
//!   dataset. Every [`CorruptionMode`] predicts its own outcome exactly:
//!   the returned [`TableLedger`] records the fate of every original row
//!   (kept, removed, rejected at the CSV layer, rejected at the schema
//!   layer, or time-shifted), so tests can assert the pipeline's reject
//!   accounting *to the row* rather than "roughly survived".
//! * [`fault`] — `io::Error`-injecting wrappers: [`FaultRead`] fails a
//!   reader at a byte offset, [`FaultDir`] implements
//!   [`bgq_logs::store::TableSource`] with a per-table fault schedule
//!   (transient faults clear after N opens; permanent ones never do),
//!   exercising the store's retry and quarantine paths.
//! * [`segment`] — the same ledger-exact discipline over the binary
//!   snapshot store: [`corrupt_segment`] attacks one columnar segment
//!   (envelope or rows) and predicts the exact [`SegmentFate`] the
//!   loader must report.
//!
//! The crate is deliberately zero-dependency beyond `bgq-logs` (for the
//! `TableSource` trait): determinism comes from a local SplitMix64, not
//! an external RNG, so a failing corpus seed replays bit-identically
//! anywhere.

#![warn(missing_docs)]

pub mod corrupt;
pub mod fault;
pub mod rng;
pub mod segment;

pub use corrupt::{
    corrupt_table, plan_for_seed, ChaosLedger, CorruptionMode, RowFate, TableLedger, ALL_MODES,
    TABLES,
};
pub use fault::{FaultDir, FaultRead, FaultSpec};
pub use rng::SplitMix64;
pub use segment::{
    corrupt_segment, SegmentCorruption, SegmentFate, SegmentLedger, ALL_SEGMENT_MODES,
};
