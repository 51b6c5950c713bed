//! Always-on failure-analysis daemon.
//!
//! The paper's analyses are one-shot batch jobs; this crate turns the
//! toolkit into the shape a production fleet service takes — a
//! long-lived process answering reliability queries (per-user reports,
//! MTTI, failure-rate-by-scale, RAS-affected jobs) over a *live*,
//! appending log stream:
//!
//! * [`ingest`] tails a live snapshot directory through
//!   [`bgq_logs::snapshot::ManifestTail`], loading only newly committed
//!   day segments and folding only their rows into per-day partials of
//!   the served fields, so a tick costs O(new day) plus one pass over a
//!   compact per-job column, and the daemon keeps no row history: a
//!   traced tick (`ingest.poll_ms.p50`) took 2.0–2.1 ms
//!   over ~465 days of history and 6.3–9.0 ms over ~2000 days on
//!   two cores (`live_tail` and `archive` traces).
//! * [`epoch`] holds the partials and the epoch-swap machinery: each
//!   consistent view is an immutable [`epoch::Epoch`] of the served
//!   values, published behind an `RwLock<Arc<Epoch>>`. Queries clone
//!   the `Arc` under a momentary read lock and then answer entirely
//!   off-lock, so ingestion never blocks queries and queries never block
//!   ingestion; dropping the last reader of a superseded epoch frees it.
//! * [`protocol`] is the zero-dependency line protocol: one query per
//!   line, `OK <epoch> <n>` + `n` payload lines or `ERR <reason>` back.
//! * [`server`] is the TCP front end: one acceptor blocked in `accept`
//!   plus a worker-thread pool, bounded per-connection buffers, and
//!   malformed input answered with `ERR` while the connection survives.
//! * [`client`] is the small blocking client the CLI `query` subcommand
//!   and the test harness share.
//!
//! Everything is instrumented through bgq-obs: `serve.queries{kind}`,
//! `serve.epoch_swaps`, `serve.protocol_errors`, and per-query latency
//! histograms (`serve.query_ns{kind}`).

pub mod client;
pub mod epoch;
pub mod ingest;
pub mod protocol;
pub mod server;

pub use client::{epoch_of, Client};
pub use epoch::{Epoch, EpochStore, QuarantinedSegment};
pub use ingest::{spawn_poller, Ingestor};
pub use protocol::{parse_query, respond, Query};
pub use server::{start, ServerHandle, ServerOptions};
