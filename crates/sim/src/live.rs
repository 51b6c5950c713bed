//! Real-time emission mode: replay a generated trace into a live
//! snapshot directory one partition day at a time.
//!
//! The emitter generates the full trace up front (so the stream is
//! deterministic — the same seed always yields the same day sequence),
//! splits it once with the snapshot layer's [`split_days`] (the day
//! split [`write_dir`] uses), and then appends one day per tick through
//! the commit-ordered [`append_day`] path, which shares its per-day
//! segment writer with [`write_dir`]. Tests drive the tick explicitly
//! via [`LiveEmitter::emit_next_day`]; the CLI's `gen --live` adds a
//! wall-clock interval on top. A tailing reader (`mira-mine serve`)
//! discovers each committed day through a
//! [`ManifestTail`](bgq_logs::snapshot::ManifestTail) and always sees a
//! prefix of the eventual bulk snapshot: after the final tick the
//! directory is byte-identical to what [`generate_to_snapshot`] writes.
//!
//! [`split_days`]: bgq_logs::snapshot::split_days
//! [`write_dir`]: bgq_logs::snapshot::write_dir
//! [`append_day`]: bgq_logs::snapshot::append_day
//! [`generate_to_snapshot`]: crate::generate_to_snapshot

use std::path::{Path, PathBuf};

use bgq_logs::snapshot::{self, DayPart, SnapshotError, SnapshotWriteStats};
use bgq_logs::store::{Dataset, SourceAvailability};

use crate::config::SimConfig;
use crate::sim::{generate, SimOutput};

/// Day-by-day replay of a generated trace into a snapshot root.
#[derive(Debug)]
pub struct LiveEmitter {
    output: SimOutput,
    /// The trace's partition days, ascending.
    parts: Vec<DayPart>,
    root: PathBuf,
    /// Index into `parts` of the next day to emit.
    next: usize,
}

impl LiveEmitter {
    /// Generates the trace for `config` and initializes `root` as an
    /// empty live snapshot (all tables available).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the root cannot be initialized.
    pub fn new(config: &SimConfig, root: &Path) -> Result<LiveEmitter, SnapshotError> {
        LiveEmitter::over(generate(config), root)
    }

    /// Wraps an already generated output (callers that also need the
    /// ground truth generate once and hand the output over).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] when the root cannot be initialized.
    pub fn over(output: SimOutput, root: &Path) -> Result<LiveEmitter, SnapshotError> {
        snapshot::init_dir(root, &SourceAvailability::ALL)?;
        Ok(LiveEmitter {
            parts: snapshot::split_days(&output.dataset),
            output,
            root: root.to_owned(),
            next: 0,
        })
    }

    /// Total partition days the trace spans.
    #[must_use]
    pub fn total_days(&self) -> usize {
        self.parts.len()
    }

    /// Days emitted so far.
    #[must_use]
    pub fn emitted_days(&self) -> usize {
        self.next
    }

    /// Days still to emit.
    #[must_use]
    pub fn remaining_days(&self) -> usize {
        self.parts.len() - self.next
    }

    /// The full generated output (dataset + ground truth).
    #[must_use]
    pub fn output(&self) -> &SimOutput {
        &self.output
    }

    /// The live snapshot root being appended to.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends the next day's segments and commits its manifest line.
    /// Returns the day and its write stats, or `None` when the trace is
    /// fully emitted.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on any filesystem failure.
    pub fn emit_next_day(&mut self) -> Result<Option<(i64, SnapshotWriteStats)>, SnapshotError> {
        let Some(part) = self.parts.get(self.next) else {
            return Ok(None);
        };
        let rows = part.rows(&self.output.dataset);
        let stats = snapshot::append_day(&self.root, &rows, &SourceAvailability::ALL)?;
        self.next += 1;
        bgq_obs::add("sim.live.days_emitted", 1);
        Ok(Some((rows.day, stats)))
    }

    /// Emits every remaining day; returns how many were appended.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on any filesystem failure.
    pub fn emit_all(&mut self) -> Result<usize, SnapshotError> {
        let mut n = 0;
        while self.emit_next_day()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// The dataset a batch loader would see over the emitted prefix —
    /// exactly the days committed so far, in canonical order.
    #[must_use]
    pub fn emitted_prefix(&self) -> Dataset {
        let mut out = Dataset::new();
        for part in &self.parts[..self.next] {
            let rows = part.rows(&self.output.dataset);
            out.jobs.extend_from_slice(rows.jobs);
            out.ras.extend_from_slice(rows.ras);
            out.tasks.extend_from_slice(rows.tasks);
            out.io.extend(rows.io);
        }
        out.normalize();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_logs::snapshot::{read_dir, ManifestTail, MANIFEST_FILE};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bgq-live-{tag}-{}", std::process::id()))
    }

    #[test]
    fn full_emission_matches_the_bulk_snapshot() {
        let config = SimConfig::small(4).with_seed(11);
        let bulk = tmp("bulk");
        let live = tmp("stream");
        let (out, _) = crate::generate_to_snapshot(&config, &bulk).unwrap();
        let mut em = LiveEmitter::new(&config, &live).unwrap();
        assert_eq!(em.emitted_days(), 0);
        let n = em.emit_all().unwrap();
        assert_eq!(n, em.total_days());
        assert_eq!(
            std::fs::read(bulk.join(MANIFEST_FILE)).unwrap(),
            std::fs::read(live.join(MANIFEST_FILE)).unwrap(),
            "live stream must converge to the bulk manifest"
        );
        let (loaded, _) = read_dir(&live).unwrap();
        assert_eq!(loaded, out.dataset);
        assert_eq!(em.emitted_prefix(), out.dataset);
        std::fs::remove_dir_all(&bulk).unwrap();
        std::fs::remove_dir_all(&live).unwrap();
    }

    #[test]
    fn each_tick_commits_a_loadable_prefix() {
        let config = SimConfig::small(3).with_seed(5);
        let live = tmp("prefix");
        let mut em = LiveEmitter::new(&config, &live).unwrap();
        let mut tail = ManifestTail::new(&live);
        assert_eq!(tail.discover_new().unwrap(), Vec::<i64>::new());
        while let Some((day, stats)) = em.emit_next_day().unwrap() {
            assert!(stats.segments > 0 || stats.bytes > 0);
            assert_eq!(tail.discover_new().unwrap(), vec![day]);
            let (loaded, _) = read_dir(&live).unwrap();
            assert_eq!(
                loaded,
                em.emitted_prefix(),
                "day {day}: committed prefix diverged from the batch load"
            );
        }
        assert_eq!(em.remaining_days(), 0);
        assert!(em.emit_next_day().unwrap().is_none());
        std::fs::remove_dir_all(&live).unwrap();
    }
}
