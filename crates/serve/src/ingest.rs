//! Live-tail ingestion: MANIFEST discovery → day-segment load → epoch
//! build → publish.
//!
//! Three steps of each [`Ingestor::poll`] are incremental: the
//! [`ManifestTail`] reads only the manifest bytes appended since the
//! last poll, [`read_days_with`](snapshot::read_days_with) loads only
//! the newly committed segments (under the degraded-load semantics, so
//! a corrupt segment quarantines per-table instead of killing the
//! daemon), and the [`IndexBuilder`] computes per-day artifacts only for
//! the new days. The rest of a poll runs over the whole history:
//! `Dataset::normalize`, `PartitionMap::of_dataset`, the filter funnel,
//! `DatasetIndex::merge`, and the served values of [`Epoch::build`] —
//! per-user rows, rate by scale, MTTI, and the three RAS↔job joins behind
//! `AFFECTED`, which cost the most. A tick therefore costs O(history):
//! on two cores one took ~210 ms over 365 days of history and ~1.0 s over
//! 2000 days (traced `ingest.poll_ms.p50` in `live_tail` and `archive`).
//! The epoch is built entirely off-lock and published with an O(1)
//! swap, so queries are never blocked by ingestion.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bgq_core::index::IndexBuilder;
use bgq_logs::snapshot::{self, ManifestTail, PartitionMap, SnapshotError};
use bgq_logs::store::{Dataset, LoadOptions};

use crate::epoch::{Epoch, EpochStore, QuarantinedSegment};

/// Incremental ingestion state for one live snapshot root.
#[derive(Debug)]
pub struct Ingestor {
    root: PathBuf,
    tail: ManifestTail,
    /// Accumulated dataset over every ingested day, canonical order.
    ds: Dataset,
    /// Manifest day list ingested so far (includes days whose segments
    /// were all quarantined or held only I/O rows).
    days: Vec<i64>,
    builder: IndexBuilder,
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
            ds: Dataset::new(),
            days: Vec::new(),
            builder: IndexBuilder::new(),
            quarantined: Vec::new(),
            load,
            store,
            next_epoch: 1,
        }
    }

    /// One tick: discover newly committed days, load their segments,
    /// extend the dataset and index, build the next epoch, publish it.
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
        let (mut fresh, report) =
            snapshot::read_days_with(&self.root, &new_days, &avail, &self.load)?;
        for seg in report.quarantined_segments() {
            self.quarantined.push(QuarantinedSegment {
                table: seg.table,
                day: seg.day,
                reason: seg.quarantined.expect("quarantined segment has a reason"),
            });
        }
        // New days are strictly later than everything ingested, so
        // jobs/ras/tasks stay canonically ordered after the append; the
        // I/O table is keyed by job id and normalize restores its global
        // order (cheap: the tables are already near-sorted).
        self.ds.jobs.append(&mut fresh.jobs);
        self.ds.ras.append(&mut fresh.ras);
        self.ds.tasks.append(&mut fresh.tasks);
        self.ds.io.append(&mut fresh.io);
        self.ds.normalize();
        self.days.extend(&new_days);
        bgq_obs::add("serve.ingest.days", new_days.len() as u64);
        let parts = PartitionMap::of_dataset(&self.ds);
        let epoch = Epoch::build(
            self.next_epoch,
            &self.ds,
            &parts,
            &self.days,
            &avail,
            &mut self.builder,
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
