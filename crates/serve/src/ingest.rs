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
//!
//! A poll that finds a backlog, above all the cold start over an
//! archive, loads and folds it `FOLD_DAYS` (32) days at a time and
//! publishes one epoch after the last chunk, so the rows it holds are
//! one chunk's, whatever the backlog's length: over the 2001-day
//! snapshot (seed 1, two cores) the daemon's peak RSS (`VmHWM`) is
//! ~18 MB where one decode of the whole backlog peaked at ~251 MB. A
//! one-day tick is one chunk. A strict-mode segment failure publishes
//! nothing; the chunks folded before it are published with the next
//! poll that ingests a day.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use bgq_logs::snapshot::{self, ManifestTail, SnapshotError};
use bgq_logs::store::{Dataset, LoadOptions, SourceAvailability};

use crate::epoch::{EpochStore, QuarantinedSegment, Tally};

/// Most days one load-and-fold step of [`Ingestor::poll`] decodes, so a
/// backlog of any length holds one chunk of decoded rows at a time
/// instead of the whole history's. 32 is the knee of a cold start over
/// the 2001-day snapshot (seed 1, two cores; spawn to first reply, and
/// the daemon's `VmHWM`): 4 days took 1.1–1.4 s at 13 MB, 32 days
/// 0.86–0.97 s at 18 MB, 128 days 0.90–0.91 s at 28 MB, and all 2001 in
/// one chunk 0.97–1.06 s at ~230 MB. Smaller chunks pay each load's
/// fixed costs, its decode-worker spawns among them, more often; larger
/// ones hold more rows and gain no speed.
const FOLD_DAYS: usize = 32;

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
    /// A backlog — a cold start over an archive, or a poller that fell
    /// behind — is loaded and folded `FOLD_DAYS` (32) days at a time, and
    /// one epoch is published after its last chunk, so the poll holds
    /// one chunk's decoded rows at a time, not the whole backlog's.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on manifest corruption or (in
    /// non-degraded mode) segment failures. An error publishes nothing
    /// and the previously published epoch stays current. The days of the
    /// failing chunk and of the chunks after it are dropped; the chunks
    /// already folded stay in the tally and are published with the next
    /// poll that ingests a day.
    pub fn poll(&mut self) -> Result<usize, SnapshotError> {
        let _span = bgq_obs::span!("serve.ingest.poll");
        let new_days = self.tail.discover_new()?;
        let mut chunks = new_days.chunks(FOLD_DAYS);
        let Some(last) = chunks.next_back() else {
            return Ok(0);
        };
        let avail = self.tail.availability();
        for chunk in chunks {
            let fresh = self.load_days(chunk, &avail)?;
            self.tally.fold(&fresh, chunk.last().copied());
        }
        let fresh = self.load_days(last, &avail)?;
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

    /// Loads the segments of `days`, the next newly committed days,
    /// records their quarantines and marks the days ingested.
    fn load_days(
        &mut self,
        days: &[i64],
        avail: &SourceAvailability,
    ) -> Result<Dataset, SnapshotError> {
        let (fresh, report) = snapshot::read_days_with(&self.root, days, avail, &self.load)?;
        for seg in report.quarantined_segments() {
            self.quarantined.push(QuarantinedSegment {
                table: seg.table,
                day: seg.day,
                reason: seg.quarantined.expect("quarantined segment has a reason"),
            });
        }
        // New days are strictly later than every ingested day, so the
        // fresh rows extend the canonical order the tally has seen.
        self.days.extend(days);
        bgq_obs::add("serve.ingest.days", days.len() as u64);
        Ok(fresh)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::Epoch;
    use crate::protocol::{parse_query, respond};
    use bgq_core::index::IndexBuilder;
    use bgq_logs::snapshot::segment_path;
    use bgq_sim::{LiveEmitter, SimConfig};

    /// Every query shape the protocol supports (the `tests/serve.rs` set).
    const QUERIES: [&str; 14] = [
        "STATS",
        "MTTI",
        "MTTI INFO",
        "MTTI WARN",
        "MTTI FATAL",
        "RATE-BY-SCALE",
        "AFFECTED INFO",
        "AFFECTED WARN",
        "AFFECTED FATAL",
        "TOPK 5",
        "TOPK 1000",
        "USER 1",
        "USER 3",
        "USER 999999",
    ];

    fn degraded() -> LoadOptions {
        LoadOptions {
            max_reject_ratio: 0.0,
            degraded: true,
        }
    }

    /// Asserts that every reply from the store's current epoch equals the
    /// reply from one batch fold over a cold load of all of `root`.
    fn assert_matches_one_batch(store: &EpochStore, root: &Path) {
        let live = store.current();
        let manifest = snapshot::read_manifest(root).unwrap();
        let (ds, report) = snapshot::read_dir_with(root, &degraded()).unwrap();
        let quarantined = report
            .quarantined_segments()
            .into_iter()
            .map(|seg| QuarantinedSegment {
                table: seg.table,
                day: seg.day,
                reason: seg.quarantined.unwrap(),
            })
            .collect();
        let batch = Epoch::build(
            live.epoch,
            &ds,
            &report.partitions,
            &manifest.days,
            &manifest.availability,
            &mut IndexBuilder::new(),
            quarantined,
        );
        for q in QUERIES {
            let query = parse_query(q).unwrap();
            let want = respond(&batch, &query);
            assert_eq!(respond(&live, &query), want, "{q} at epoch {}", live.epoch);
        }
    }

    /// A live feed of a small trace that has committed its first
    /// `backlog` days, and those days; at least three more remain.
    fn backlog_feed(tag: &str, backlog: usize) -> (LiveEmitter, PathBuf, Vec<i64>) {
        let root = std::env::temp_dir().join(format!("bgq-ingest-{tag}-{}", std::process::id()));
        let config = SimConfig::small(backlog as u32 + 3)
            .with_seed(7)
            .with_users(30, 4)
            .with_jobs_per_day(60.0);
        let mut feed = LiveEmitter::new(&config, &root).unwrap();
        let mut days = Vec::new();
        while days.len() < backlog {
            days.push(feed.emit_next_day().unwrap().unwrap().0);
        }
        assert!(
            feed.remaining_days() >= 3,
            "the trace must outlast the backlog"
        );
        (feed, root, days)
    }

    /// A cold start over a damaged backlog of two full chunks and a
    /// partial one answers like one batch fold over the same days, and
    /// so do the one-day ticks after it, which fold against the jobs
    /// still open at the backlog's last chunk boundary.
    #[test]
    fn a_backlog_folds_in_chunks_like_one_batch() {
        let backlog = 2 * FOLD_DAYS + FOLD_DAYS / 2;
        let (mut feed, root, days) = backlog_feed("backlog", backlog);
        // Damage the middle chunk: one RAS segment gone, one jobs
        // segment torn.
        let middle = &days[FOLD_DAYS..2 * FOLD_DAYS];
        std::fs::remove_file(segment_path(&root, "ras", middle[3])).unwrap();
        let torn = segment_path(&root, "jobs", middle[20]);
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();

        let store = Arc::new(EpochStore::new());
        let mut ingestor = Ingestor::new(&root, Arc::clone(&store), degraded());
        assert_eq!(ingestor.poll().unwrap(), backlog);
        let first = store.current();
        assert_eq!((first.epoch, first.days.len()), (1, backlog));
        let damaged: Vec<_> = first.quarantined.iter().map(|q| (q.table, q.day)).collect();
        assert_eq!(damaged, [("jobs", middle[20]), ("ras", middle[3])]);
        assert_matches_one_batch(&store, &root);
        for _ in 0..3 {
            feed.emit_next_day().unwrap().unwrap();
            assert_eq!(ingestor.poll().unwrap(), 1);
            assert_matches_one_batch(&store, &root);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A strict-mode failure in a backlog's second chunk publishes
    /// nothing; the first chunk, already folded, is published with the
    /// next poll that ingests a day, and the failing chunk's days are
    /// dropped.
    #[test]
    fn a_strict_failure_keeps_the_chunks_folded_before_it() {
        let (mut feed, root, days) = backlog_feed("strict", FOLD_DAYS + 4);
        std::fs::remove_file(segment_path(&root, "jobs", days[FOLD_DAYS + 1])).unwrap();
        let store = Arc::new(EpochStore::new());
        let strict = LoadOptions {
            max_reject_ratio: 0.0,
            degraded: false,
        };
        let mut ingestor = Ingestor::new(&root, Arc::clone(&store), strict);
        let err = ingestor.poll().unwrap_err();
        assert!(
            matches!(err, SnapshotError::Segment { table: "jobs", .. }),
            "{err}"
        );
        assert_eq!(store.current().epoch, 0, "an error publishes nothing");
        let (day, _) = feed.emit_next_day().unwrap().unwrap();
        assert_eq!(ingestor.poll().unwrap(), 1);
        let e = store.current();
        assert_eq!(e.epoch, 1);
        assert_eq!(e.days[..FOLD_DAYS], days[..FOLD_DAYS]);
        assert_eq!(e.days[FOLD_DAYS..], [day]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
