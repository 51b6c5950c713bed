//! Live-tail ingestion: MANIFEST discovery → day-segment load → fold →
//! publish.
//!
//! An [`Ingestor::poll`] costs O(new days) plus one pass over a compact
//! per-job column. The [`ManifestTail`] reads only the manifest bytes
//! appended since the last poll,
//! [`read_days_with`](snapshot::read_days_with) loads only the newly
//! committed segments (under the degraded-load semantics, so a corrupt
//! segment quarantines per-table instead of killing the daemon),
//! and the epoch module's `Tally` folds in only those rows: per-user
//! integers, per-node-count rate counts, kill times and event counts,
//! plus one INFO join of the new events against the new jobs and the
//! jobs still running at the last ingested day's end. The ingestor keeps
//! no row history: after the fold the new rows are dropped, and what
//! stays is the tally, including its per-job `(node-count slot, failed)`
//! column, which the exact Spearman ρ of `RATE-BY-SCALE` reads once per
//! tick. On two cores a traced tick took 2.0–2.1 ms at ~465 days of
//! history and 6.3–9.0 ms at ~2000 days (`ingest.poll_ms.p50`, traced
//! `live_tail` and `archive`), of which the fold and the epoch render
//! (`epoch.build_ms`) took 1.2 ms and 4.2–6.8 ms. The epoch is built
//! entirely off-lock and published with an O(1) swap, so queries are
//! never blocked by ingestion.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bgq_logs::snapshot::{self, ManifestTail, SnapshotError};
use bgq_logs::store::LoadOptions;

use crate::epoch::{EpochStore, QuarantinedSegment, Tally};

/// Incremental ingestion state for one live snapshot root.
#[derive(Debug)]
pub struct Ingestor {
    root: PathBuf,
    tail: ManifestTail,
    /// Running partials of every served field over the ingested days.
    tally: Tally,
    /// Manifest day list ingested so far (includes days whose segments
    /// were all quarantined or held only I/O rows).
    days: Vec<i64>,
    quarantined: Vec<QuarantinedSegment>,
    load: LoadOptions,
    store: Arc<EpochStore>,
    next_epoch: u64,
}

impl Ingestor {
    /// An ingestor tailing `root`, publishing into `store`. `load`
    /// should normally have `degraded: true` — a live daemon quarantines
    /// faults instead of dying on them.
    #[must_use]
    pub fn new(root: &Path, store: Arc<EpochStore>, load: LoadOptions) -> Ingestor {
        Ingestor {
            root: root.to_owned(),
            tail: ManifestTail::new(root),
            tally: Tally::default(),
            days: Vec::new(),
            quarantined: Vec::new(),
            load,
            store,
            next_epoch: 1,
        }
    }

    /// One tick: discover newly committed days, load their segments,
    /// fold them into the tally, render the next epoch, publish it.
    /// Returns how many new days were ingested (0 = no-op, nothing
    /// published).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on manifest corruption or (in
    /// non-degraded mode) segment failures; the previously published
    /// epoch stays current.
    pub fn poll(&mut self) -> Result<usize, SnapshotError> {
        let _span = bgq_obs::span!("serve.ingest.poll");
        let new_days = self.tail.discover_new()?;
        if new_days.is_empty() {
            return Ok(0);
        }
        let avail = self.tail.availability();
        let (fresh, report) = snapshot::read_days_with(&self.root, &new_days, &avail, &self.load)?;
        for seg in report.quarantined_segments() {
            self.quarantined.push(QuarantinedSegment {
                table: seg.table,
                day: seg.day,
                reason: seg.quarantined.expect("quarantined segment has a reason"),
            });
        }
        // New days are strictly later than every ingested day, so the
        // fresh rows extend the canonical order the tally has seen.
        self.days.extend(&new_days);
        bgq_obs::add("serve.ingest.days", new_days.len() as u64);
        let epoch = self.tally.advance(
            self.next_epoch,
            &fresh,
            &self.days,
            &avail,
            self.quarantined.clone(),
        );
        self.next_epoch += 1;
        self.store.publish(epoch);
        Ok(new_days.len())
    }
}

/// Spawns the poll loop: one [`Ingestor::poll`] per `interval` until
/// `stop` is set. A poll error is logged and the loop keeps serving the
/// last good epoch — transient filesystem trouble must not kill the
/// daemon.
pub fn spawn_poller(
    mut ingestor: Ingestor,
    interval: Duration,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("serve-ingest".to_owned())
        .spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if let Err(e) = ingestor.poll() {
                    bgq_obs::error!("live ingest: {e}");
                }
                std::thread::sleep(interval);
            }
        })
        .expect("spawn serve ingest poller")
}
