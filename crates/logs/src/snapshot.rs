//! Partitioned columnar binary snapshot store.
//!
//! A snapshot is a directory holding one **segment file per day per
//! table** plus a small text `MANIFEST`. Each segment stores its rows in
//! struct-of-arrays layout behind a versioned, endianness-tagged header
//! and an FNV-1a-64 checksum, so reloading is a bounds check and a
//! column walk rather than a parse: a 2001-day dataset that takes
//! seconds to re-parse from CSV loads in milliseconds.
//!
//! # Segment format (version 1)
//!
//! Everything is **little-endian**; the header carries an explicit
//! endian tag so a big-endian writer can never be misread silently.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "BGQSEG1\0"
//!      8     4  format version (u32, = 1)
//!     12     4  endian tag (u32, = 0x0102_0304)
//!     16     4  table id (u32: 0 jobs, 1 ras, 2 tasks, 3 io)
//!     20     4  reserved (0)
//!     24     8  partition day (i64, unix epoch days)
//!     32     8  row count (u64)
//!     40     4  string-table entry count (u32)
//!     44     4  reserved (0)
//!     48     8  payload length in bytes (u64)
//!     56     8  FNV-1a-64 checksum of the payload
//!     64     …  payload
//! ```
//!
//! The payload is a length-prefixed string table (`u32` byte length +
//! UTF-8 bytes per entry — RAS locations and interned message texts)
//! followed by the columns of the table in declared order, each a
//! packed array of fixed-width values. Enum-valued columns store the
//! index into the corresponding `ALL` array; `f64` columns store the
//! IEEE bit pattern.
//!
//! # Partitioning and order
//!
//! Rows are partitioned by **day** (`timestamp.div_euclid(86 400)`):
//! jobs and tasks by start time, RAS events by event time, and I/O
//! records by the day their owning job started (the I/O log carries no
//! timestamp of its own; profiles whose job is unknown land in day 0).
//! Within a segment rows are in the dataset's canonical order, so
//! concatenating segments in day order reproduces a [`Dataset`] in
//! canonical order directly — loads end with the same
//! [`Dataset::normalize`] contract the CSV path pins.
//!
//! # Resilience
//!
//! [`read_dir_with`] applies [`LoadOptions::max_reject_ratio`] **per
//! segment**, not per table: one fully-corrupt day among 2001 clean
//! days quarantines that day (under [`LoadOptions::degraded`]) instead
//! of either failing the whole table or hiding under an aggregate
//! ratio. Table-level absence (recorded in the manifest by an
//! availability-aware save) quarantines the whole table exactly like a
//! missing CSV.
//!
//! [`read_tables_with`] decodes only the tables a caller names: the
//! segments of the others are never opened, so their damage cannot fail
//! the load. Manifest availability still covers all four tables.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

use bgq_model::ids::{JobId, ProjectId, RecId, TaskId, UserId};
use bgq_model::job::{Mode, Queue};
use bgq_model::ras::{Category, Component, MsgId, Severity};
use bgq_model::{Block, IoRecord, JobRecord, Location, MsgText, RasRecord, TaskRecord, Timestamp};

use crate::store::{
    Dataset, LoadOptions, LoadReport, QuarantineReason, SourceAvailability, TableLoadStats,
    TableStatus,
};

/// Magic bytes opening every segment file.
pub const MAGIC: [u8; 8] = *b"BGQSEG1\0";
/// Current segment format version. v2 added the `resubmit_of` lineage
/// column to the jobs table; v1 snapshots are rejected loudly.
pub const FORMAT_VERSION: u32 = 2;
/// Endianness tag as written by a little-endian writer.
pub const ENDIAN_TAG: u32 = 0x0102_0304;
/// Fixed header length in bytes; the payload starts here.
pub const HEADER_LEN: usize = 64;
/// Byte offset of the checksum field within the header.
pub const CHECKSUM_OFFSET: usize = 56;
/// Manifest file name marking a directory as a snapshot root.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Seconds per partition day.
const SECS_PER_DAY: i64 = 86_400;

/// The four tables in canonical order (a table's index is its stable
/// table id).
pub const TABLES: [&str; 4] = ["jobs", "ras", "tasks", "io"];

/// Integrity checksum over segment payloads: FNV-1a-64 run over four
/// interleaved 8-byte little-endian lanes (32-byte blocks), with the
/// byte tail and the total length folded in at the end.
///
/// The four independent multiply chains break the serial data
/// dependency of classic byte-at-a-time FNV, so verifying a segment
/// costs a small fraction of reading it instead of dominating the warm
/// load. Any single corrupted byte still perturbs exactly one lane's
/// chain (or the tail fold), so detection behaviour matches plain FNV
/// for the fault classes the chaos harness injects.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut lanes = [BASIS, BASIS ^ 1, BASIS ^ 2, BASIS ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ u64::from_le_bytes(word.try_into().unwrap())).wrapping_mul(PRIME);
        }
    }
    let mut hash = BASIS;
    for lane in lanes {
        hash = (hash ^ lane).wrapping_mul(PRIME);
    }
    for &b in blocks.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(PRIME);
    }
    (hash ^ bytes.len() as u64).wrapping_mul(PRIME)
}

/// Path of one segment file: `<root>/d<day>-<table>.seg`.
#[must_use]
pub fn segment_path(root: &Path, table: &str, day: i64) -> PathBuf {
    root.join(format!("d{day}-{table}.seg"))
}

/// `true` when `path` looks like a snapshot root (has a manifest).
#[must_use]
pub fn is_snapshot_dir(path: &Path) -> bool {
    path.join(MANIFEST_FILE).is_file()
}

/// Error produced when writing or reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// The manifest is missing, unreadable, or malformed.
    Manifest {
        /// Manifest path.
        path: String,
        /// What was wrong.
        detail: String,
    },
    /// A segment failed structural validation or row decoding.
    Segment {
        /// Table the segment belongs to.
        table: &'static str,
        /// Partition day of the segment.
        day: i64,
        /// What was wrong.
        detail: String,
    },
    /// A segment's reject ratio exceeded the configured ceiling.
    RejectRatio {
        /// Table the segment belongs to.
        table: &'static str,
        /// Partition day of the segment.
        day: i64,
        /// Rows rejected in this segment.
        rejected: usize,
        /// Rows in this segment.
        rows: usize,
        /// The configured ceiling that was exceeded.
        limit: f64,
    },
    /// A strict load found a table the manifest marks unavailable.
    Unavailable {
        /// The absent table.
        table: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => write!(f, "{path}: {source}"),
            SnapshotError::Manifest { path, detail } => {
                write!(f, "snapshot manifest {path}: {detail}")
            }
            SnapshotError::Segment { table, day, detail } => {
                write!(f, "segment {table}/day {day}: {detail}")
            }
            SnapshotError::RejectRatio {
                table,
                day,
                rejected,
                rows,
                limit,
            } => write!(
                f,
                "segment {table}/day {day}: {rejected} of {rows} rows rejected, exceeding \
                 the configured ceiling of {:.2}%",
                limit * 100.0
            ),
            SnapshotError::Unavailable { table } => {
                write!(
                    f,
                    "table {table}: marked unavailable in the snapshot manifest"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.display().to_string(),
        source,
    }
}

// ---------------------------------------------------------------------------
// Partition map
// ---------------------------------------------------------------------------

/// Row ranges of one partition day within a canonically ordered dataset.
///
/// I/O rows are deliberately absent: the canonical I/O order is by job
/// id, which does not group by day (a day's I/O segment holds the rows
/// of that day's jobs instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionSpan {
    /// Partition day (unix epoch days).
    pub day: i64,
    /// Jobs whose `started_at` falls on this day.
    pub jobs: Range<usize>,
    /// RAS events whose `event_time` falls on this day.
    pub ras: Range<usize>,
    /// Tasks whose `started_at` falls on this day.
    pub tasks: Range<usize>,
}

/// Day-partition boundaries of a canonically ordered [`Dataset`] — the
/// unit of snapshot segments and of a live feed's commits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMap {
    /// One span per day, ascending; days with no rows in any table are
    /// absent.
    pub days: Vec<PartitionSpan>,
}

/// Partition day of a timestamp.
#[must_use]
pub fn day_of(ts: Timestamp) -> i64 {
    ts.as_secs().div_euclid(SECS_PER_DAY)
}

/// The first second of partition day `day` (the inverse of [`day_of`]).
#[must_use]
pub fn day_start(day: i64) -> Timestamp {
    Timestamp::from_secs(day * SECS_PER_DAY)
}

/// Splits `0..len` into day runs by the (sorted, per-row) day key.
fn day_runs(len: usize, day_at: impl Fn(usize) -> i64) -> Vec<(i64, Range<usize>)> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    while start < len {
        let day = day_at(start);
        let mut end = start + 1;
        while end < len && day_at(end) == day {
            end += 1;
        }
        runs.push((day, start..end));
        start = end;
    }
    runs
}

impl PartitionMap {
    /// Computes the day partitions of a **canonically ordered** dataset
    /// (see [`Dataset::normalize`]); the day set is the union over the
    /// jobs, RAS, and tasks tables.
    #[must_use]
    pub fn of_dataset(ds: &Dataset) -> PartitionMap {
        debug_assert!(
            is_canonical(ds),
            "PartitionMap::of_dataset requires a normalized dataset"
        );
        let jobs = day_runs(ds.jobs.len(), |i| day_of(ds.jobs[i].started_at));
        let ras = day_runs(ds.ras.len(), |i| day_of(ds.ras[i].event_time));
        let tasks = day_runs(ds.tasks.len(), |i| day_of(ds.tasks[i].started_at));
        let mut days: Vec<i64> = jobs
            .iter()
            .chain(&ras)
            .chain(&tasks)
            .map(|(d, _)| *d)
            .collect();
        days.sort_unstable();
        days.dedup();
        let lookup = |runs: &[(i64, Range<usize>)], day: i64, after: &Range<usize>| {
            runs.iter()
                .find(|(d, _)| *d == day)
                .map(|(_, r)| r.clone())
                .unwrap_or(after.end..after.end)
        };
        let mut map = PartitionMap::default();
        let (mut pj, mut pr, mut pt) = (0..0, 0..0, 0..0);
        for day in days {
            let j = lookup(&jobs, day, &pj);
            let r = lookup(&ras, day, &pr);
            let t = lookup(&tasks, day, &pt);
            pj = j.clone();
            pr = r.clone();
            pt = t.clone();
            map.days.push(PartitionSpan {
                day,
                jobs: j,
                ras: r,
                tasks: t,
            });
        }
        map
    }

    /// Number of partition days.
    #[must_use]
    pub fn len(&self) -> usize {
        self.days.len()
    }

    /// `true` when the dataset had no partitionable rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.days.is_empty()
    }
}

/// `true` when every table of `ds` is in its canonical order.
#[must_use]
pub fn is_canonical(ds: &Dataset) -> bool {
    ds.jobs.is_sorted_by_key(|j| (j.started_at, j.job_id))
        && ds.ras.is_sorted_by_key(|r| (r.event_time, r.rec_id))
        && ds.tasks.is_sorted_by_key(|t| (t.started_at, t.task_id))
        && ds.io.is_sorted_by_key(|r| r.job_id)
}

// ---------------------------------------------------------------------------
// Column codecs
// ---------------------------------------------------------------------------

/// Column layout of one table: `(name, element width in bytes)` in
/// on-disk order. The single source of truth for offsets — the writer,
/// the reader, and the chaos harness's byte surgery all derive from it.
#[must_use]
pub fn columns(table: &str) -> &'static [(&'static str, usize)] {
    match table {
        "jobs" => &[
            ("job_id", 8),
            ("user", 4),
            ("project", 4),
            ("queue", 1),
            ("nodes", 4),
            ("mode", 1),
            ("requested_walltime_s", 4),
            ("queued_at", 8),
            ("started_at", 8),
            ("ended_at", 8),
            ("block_start", 2),
            ("block_len", 2),
            ("exit_code", 4),
            ("num_tasks", 4),
            ("resubmit_of", 8),
        ],
        "ras" => &[
            ("rec_id", 8),
            ("msg_id", 4),
            ("severity", 1),
            ("category", 1),
            ("component", 1),
            ("event_time", 8),
            ("location", 4),
            ("count", 4),
            ("message", 4),
        ],
        "tasks" => &[
            ("task_id", 8),
            ("job_id", 8),
            ("seq", 4),
            ("block_start", 2),
            ("block_len", 2),
            ("started_at", 8),
            ("ended_at", 8),
            ("ranks", 8),
            ("exit_code", 4),
        ],
        "io" => &[
            ("job_id", 8),
            ("bytes_read", 8),
            ("bytes_written", 8),
            ("files_read", 4),
            ("files_written", 4),
            ("io_time_s", 8),
        ],
        _ => &[],
    }
}

/// Bytes per row of a table's column section.
fn row_width(table: &str) -> usize {
    columns(table).iter().map(|(_, w)| w).sum()
}

/// Append-only little-endian column buffers for one segment.
struct ColumnWriter {
    cols: Vec<Vec<u8>>,
}

impl ColumnWriter {
    fn new(n: usize, rows: usize, widths: &[(&str, usize)]) -> Self {
        ColumnWriter {
            cols: widths
                .iter()
                .take(n)
                .map(|(_, w)| Vec::with_capacity(rows * w))
                .collect(),
        }
    }

    fn u8(&mut self, col: usize, v: u8) {
        self.cols[col].push(v);
    }
    fn u16(&mut self, col: usize, v: u16) {
        self.cols[col].extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, col: usize, v: u32) {
        self.cols[col].extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, col: usize, v: u64) {
        self.cols[col].extend_from_slice(&v.to_le_bytes());
    }
    fn i32(&mut self, col: usize, v: i32) {
        self.cols[col].extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, col: usize, v: i64) {
        self.cols[col].extend_from_slice(&v.to_le_bytes());
    }

    fn concat(self, out: &mut Vec<u8>) {
        for col in self.cols {
            out.extend_from_slice(&col);
        }
    }
}

/// Fixed-stride little-endian readers over one segment's column section.
///
/// Each column is sliced out once; the typed bulk readers then decode a
/// whole column in one `chunks_exact` sweep (straight sequential loads,
/// no per-field offset arithmetic), so row assembly on the warm path is
/// plain indexed access into typed vectors.
struct ColumnReader<'a> {
    cols: Vec<&'a [u8]>,
}

impl<'a> ColumnReader<'a> {
    fn new(table: &str, rows: usize, bytes: &'a [u8]) -> Self {
        let widths = columns(table);
        let mut cols = Vec::with_capacity(widths.len());
        let mut at = 0usize;
        for (_, w) in widths {
            cols.push(&bytes[at..at + rows * w]);
            at += rows * w;
        }
        ColumnReader { cols }
    }

    fn u8s(&self, col: usize) -> &'a [u8] {
        self.cols[col]
    }
    fn u16s(&self, col: usize) -> Vec<u16> {
        self.cols[col]
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
    fn u32s(&self, col: usize) -> Vec<u32> {
        self.cols[col]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
    fn u64s(&self, col: usize) -> Vec<u64> {
        self.cols[col]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
    fn i32s(&self, col: usize) -> Vec<i32> {
        self.cols[col]
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
    fn i64s(&self, col: usize) -> Vec<i64> {
        self.cols[col]
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }
}

/// Deduplicating string table builder (first-use order, deterministic).
#[derive(Default)]
struct StringTable {
    entries: Vec<String>,
    index: HashMap<String, u32>,
}

impl StringTable {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = u32::try_from(self.entries.len()).expect("string table overflow");
        self.entries.push(s.to_owned());
        self.index.insert(s.to_owned(), i);
        i
    }
}

// ---------------------------------------------------------------------------
// Segment encoding
// ---------------------------------------------------------------------------

fn table_id(table: &str) -> u32 {
    TABLES
        .iter()
        .position(|t| *t == table)
        .unwrap_or(u32::MAX as usize) as u32
}

/// Encodes one segment file (header + payload) for `table` and `day`.
fn encode_segment(table: &'static str, day: i64, rows: SegmentRows<'_>) -> Vec<u8> {
    let n = rows.len();
    let widths = columns(table);
    let mut strings = StringTable::default();
    let mut w = ColumnWriter::new(widths.len(), n, widths);
    match rows {
        SegmentRows::Jobs(jobs) => {
            for j in jobs {
                w.u64(0, j.job_id.raw());
                w.u32(1, j.user.raw());
                w.u32(2, j.project.raw());
                w.u8(3, enum_code(&Queue::ALL, &j.queue));
                w.u32(4, j.nodes);
                w.u8(5, j.mode.ranks_per_node());
                w.u32(6, j.requested_walltime_s);
                w.i64(7, j.queued_at.as_secs());
                w.i64(8, j.started_at.as_secs());
                w.i64(9, j.ended_at.as_secs());
                w.u16(10, j.block.start());
                w.u16(11, j.block.len());
                w.i32(12, j.exit_code);
                w.u32(13, j.num_tasks);
                w.u64(14, j.resubmit_of.map_or(0, JobId::raw));
            }
        }
        SegmentRows::Ras(ras) => {
            for r in ras {
                w.u64(0, r.rec_id.raw());
                w.u32(1, r.msg_id.raw());
                w.u8(2, enum_code(&Severity::ALL, &r.severity));
                w.u8(3, enum_code(&Category::ALL, &r.category));
                w.u8(4, enum_code(&Component::ALL, &r.component));
                w.i64(5, r.event_time.as_secs());
                w.u32(6, strings.intern(&r.location.to_string()));
                w.u32(7, r.count);
                w.u32(8, strings.intern(r.message.as_str()));
            }
        }
        SegmentRows::Tasks(tasks) => {
            for t in tasks {
                w.u64(0, t.task_id.raw());
                w.u64(1, t.job_id.raw());
                w.u32(2, t.seq);
                w.u16(3, t.block.start());
                w.u16(4, t.block.len());
                w.i64(5, t.started_at.as_secs());
                w.i64(6, t.ended_at.as_secs());
                w.u64(7, t.ranks);
                w.i32(8, t.exit_code);
            }
        }
        SegmentRows::Io(io) => {
            for r in io {
                w.u64(0, r.job_id.raw());
                w.u64(1, r.bytes_read);
                w.u64(2, r.bytes_written);
                w.u32(3, r.files_read);
                w.u32(4, r.files_written);
                w.u64(5, r.io_time_s.to_bits());
            }
        }
    }
    let mut payload = Vec::new();
    for s in &strings.entries {
        payload.extend_from_slice(&(s.len() as u32).to_le_bytes());
        payload.extend_from_slice(s.as_bytes());
    }
    w.concat(&mut payload);

    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    out.extend_from_slice(&table_id(table).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&day.to_le_bytes());
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&(strings.entries.len() as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Index of `value` within an enum's `ALL` array.
fn enum_code<T: PartialEq>(all: &[T], value: &T) -> u8 {
    all.iter()
        .position(|v| v == value)
        .expect("enum value outside ALL") as u8
}

enum SegmentRows<'a> {
    Jobs(&'a [JobRecord]),
    Ras(&'a [RasRecord]),
    Tasks(&'a [TaskRecord]),
    Io(&'a [IoRecord]),
}

impl SegmentRows<'_> {
    fn len(&self) -> usize {
        match self {
            SegmentRows::Jobs(r) => r.len(),
            SegmentRows::Ras(r) => r.len(),
            SegmentRows::Tasks(r) => r.len(),
            SegmentRows::Io(r) => r.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// What a snapshot write produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotWriteStats {
    /// Partition days written.
    pub days: usize,
    /// Segment files written (days × available tables).
    pub segments: usize,
    /// Total bytes written across all segments.
    pub bytes: u64,
}

/// Writes `ds` as a partitioned snapshot under `root`, recording
/// per-table availability in the manifest.
///
/// Tables marked unavailable in `avail` are **not** written and the
/// manifest records their absence, so a later load re-quarantines them
/// instead of seeing an empty-but-clean table — the availability-aware
/// persistence contract (see [`Dataset::save_dir_with`]).
///
/// The input need not be normalized: rows are partitioned and written
/// in canonical order regardless (the snapshot on disk always honors
/// the canonical-order contract). Stale segment and manifest files
/// under `root` are removed first.
///
/// Every day of [`split_days`] goes through the per-day writer
/// [`append_day`] uses, so the segments are byte-identical to a live
/// feed's. The MANIFEST is written once, after every segment: an
/// interrupted write leaves no MANIFEST, so a partial directory is
/// never mistaken for a snapshot.
///
/// # Errors
///
/// Returns [`SnapshotError`] on any filesystem failure.
pub fn write_dir(
    ds: &Dataset,
    root: &Path,
    avail: &SourceAvailability,
) -> Result<SnapshotWriteStats, SnapshotError> {
    let _span = bgq_obs::span!("snapshot.write");
    let mut ds_sorted;
    let ds = if is_canonical(ds) {
        ds
    } else {
        ds_sorted = ds.clone();
        ds_sorted.normalize();
        &ds_sorted
    };
    clear_dir(root)?;
    let parts = split_days(ds);
    let mut stats = SnapshotWriteStats {
        days: parts.len(),
        segments: 0,
        bytes: 0,
    };
    for part in &parts {
        let day = write_day(root, &part.rows(ds), avail)?;
        stats.segments += day.segments;
        stats.bytes += day.bytes;
    }
    let days: Vec<i64> = parts.iter().map(|p| p.span.day).collect();
    let mpath = root.join(MANIFEST_FILE);
    std::fs::write(&mpath, manifest_text(avail, &days)).map_err(|e| io_err(&mpath, e))?;
    bgq_obs::add("snapshot.writes", 1);
    Ok(stats)
}

/// One partition day of a canonically ordered dataset, as
/// [`split_days`] cuts it.
#[derive(Debug, Clone)]
pub struct DayPart {
    /// The day and its jobs, RAS and tasks row ranges (all empty on a
    /// day that holds only I/O rows).
    pub span: PartitionSpan,
    /// Ascending indices into the I/O table of the rows of the jobs
    /// starting on this day.
    pub io: Vec<usize>,
}

impl DayPart {
    /// This day's rows of `ds`, the dataset the part was split from.
    /// The I/O rows are copied out, one day at a time: the canonical
    /// I/O order (by job id) does not group by day.
    #[must_use]
    pub fn rows<'a>(&self, ds: &'a Dataset) -> DayRows<'a> {
        DayRows {
            day: self.span.day,
            jobs: &ds.jobs[self.span.jobs.clone()],
            ras: &ds.ras[self.span.ras.clone()],
            tasks: &ds.tasks[self.span.tasks.clone()],
            io: self.io.iter().map(|&i| ds.io[i].clone()).collect(),
        }
    }
}

/// Splits a **canonically ordered** dataset into its partition days,
/// ascending: the one day split behind [`write_dir`] and a live feed.
///
/// The jobs, RAS and tasks ranges are those of
/// [`PartitionMap::of_dataset`]. I/O rows go to the day their owning
/// job started (the I/O log carries no timestamp of its own), and rows
/// whose job is unknown to day 0, so a day may hold only I/O rows.
#[must_use]
pub fn split_days(ds: &Dataset) -> Vec<DayPart> {
    let job_days: HashMap<JobId, i64> = ds
        .jobs
        .iter()
        .map(|j| (j.job_id, day_of(j.started_at)))
        .collect();
    let mut io: HashMap<i64, Vec<usize>> = HashMap::new();
    for (i, r) in ds.io.iter().enumerate() {
        let day = job_days.get(&r.job_id).copied().unwrap_or(0);
        io.entry(day).or_default().push(i);
    }
    let mut parts: Vec<DayPart> = PartitionMap::of_dataset(ds)
        .days
        .into_iter()
        .map(|span| DayPart {
            io: io.remove(&span.day).unwrap_or_default(),
            span,
        })
        .collect();
    parts.extend(io.into_iter().map(|(day, io)| DayPart {
        span: PartitionSpan {
            day,
            jobs: 0..0,
            ras: 0..0,
            tasks: 0..0,
        },
        io,
    }));
    parts.sort_unstable_by_key(|p| p.span.day);
    parts
}

/// Creates `root` and removes the MANIFEST and day segments a previous
/// snapshot left there, so a rewrite cannot leave orphan days.
fn clear_dir(root: &Path) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(root).map_err(|e| io_err(root, e))?;
    for entry in std::fs::read_dir(root).map_err(|e| io_err(root, e))? {
        let entry = entry.map_err(|e| io_err(root, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == MANIFEST_FILE || (name.starts_with('d') && name.ends_with(".seg")) {
            std::fs::remove_file(entry.path()).map_err(|e| io_err(&entry.path(), e))?;
        }
    }
    Ok(())
}

/// Encodes and writes one day's segments of the tables `avail` marks
/// available: the per-day write of [`write_dir`] and [`append_day`].
fn write_day(
    root: &Path,
    rows: &DayRows<'_>,
    avail: &SourceAvailability,
) -> Result<SnapshotWriteStats, SnapshotError> {
    let segments = [
        ("jobs", SegmentRows::Jobs(rows.jobs)),
        ("ras", SegmentRows::Ras(rows.ras)),
        ("tasks", SegmentRows::Tasks(rows.tasks)),
        ("io", SegmentRows::Io(&rows.io)),
    ];
    let mut stats = SnapshotWriteStats {
        days: 1,
        segments: 0,
        bytes: 0,
    };
    for (table, seg) in segments {
        if !avail.available(table) {
            continue;
        }
        let bytes = encode_segment(table, rows.day, seg);
        let path = segment_path(root, table, rows.day);
        std::fs::write(&path, &bytes).map_err(|e| io_err(&path, e))?;
        stats.segments += 1;
        stats.bytes += bytes.len() as u64;
        bgq_obs::add_labeled("snapshot.segments_written", table, 1);
        bgq_obs::hist_record_labeled("snapshot.segment_bytes", table, bytes.len() as u64);
    }
    Ok(stats)
}

/// Renders the manifest text for `avail` and `days`.
fn manifest_text(avail: &SourceAvailability, days: &[i64]) -> String {
    let mut manifest = format!("bgq-snapshot {FORMAT_VERSION}\nendian little\n");
    for table in TABLES {
        let state = if avail.available(table) {
            "available"
        } else {
            "unavailable"
        };
        manifest.push_str(&format!("table {table} {state}\n"));
    }
    for day in days {
        manifest.push_str(&format!("day {day}\n"));
    }
    manifest
}

// ---------------------------------------------------------------------------
// Live append (tailing writers)
// ---------------------------------------------------------------------------

/// One day's rows across the four tables, for [`append_day`]. Each table
/// must be in its canonical order; I/O rows are the ones whose owning
/// job starts on `day` ([`DayPart::rows`] builds one).
#[derive(Debug, Clone)]
pub struct DayRows<'a> {
    /// Partition day (unix epoch days).
    pub day: i64,
    /// Jobs starting on this day.
    pub jobs: &'a [JobRecord],
    /// RAS events on this day.
    pub ras: &'a [RasRecord],
    /// Tasks starting on this day.
    pub tasks: &'a [TaskRecord],
    /// I/O profiles of jobs starting on this day.
    pub io: Vec<IoRecord>,
}

/// Initializes an **empty** snapshot root for live appending: clears any
/// stale snapshot files and writes a MANIFEST carrying availability but
/// no day lines yet. [`append_day`] then grows the snapshot one day at a
/// time, and a [`ManifestTail`] on the reading side discovers each day
/// as it commits.
///
/// # Errors
///
/// Returns [`SnapshotError`] on any filesystem failure.
pub fn init_dir(root: &Path, avail: &SourceAvailability) -> Result<(), SnapshotError> {
    clear_dir(root)?;
    let mpath = root.join(MANIFEST_FILE);
    std::fs::write(&mpath, manifest_text(avail, &[])).map_err(|e| io_err(&mpath, e))?;
    Ok(())
}

/// Appends one day's segments to a live snapshot root.
///
/// The segments go through the per-day writer [`write_dir`] uses, so a
/// finished feed is byte-identical to a bulk write of the same days.
/// The write order is the tailer's commit protocol: every segment file
/// lands on disk first, and only then is the `day N` line, newline
/// included, appended to the MANIFEST — so a reader that discovers the
/// day through the manifest (via [`ManifestTail`] or [`read_manifest`],
/// which share one grammar) never observes a day whose segments are
/// still being written. Days must be appended in strictly ascending
/// order (a repeated day is corruption to every reader); `avail` must
/// match the availability recorded by [`init_dir`].
///
/// # Errors
///
/// Returns [`SnapshotError`] on any filesystem failure, including a
/// missing MANIFEST (the root was never initialized).
pub fn append_day(
    root: &Path,
    rows: &DayRows<'_>,
    avail: &SourceAvailability,
) -> Result<SnapshotWriteStats, SnapshotError> {
    let _span = bgq_obs::span!("snapshot.append_day");
    let mpath = root.join(MANIFEST_FILE);
    if !mpath.is_file() {
        return Err(SnapshotError::Manifest {
            path: mpath.display().to_string(),
            detail: "missing — call init_dir before append_day".to_owned(),
        });
    }
    let stats = write_day(root, rows, avail)?;
    // Commit point: the day becomes visible to readers only here.
    use io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&mpath)
        .map_err(|e| io_err(&mpath, e))?;
    f.write_all(format!("day {}\n", rows.day).as_bytes())
        .map_err(|e| io_err(&mpath, e))?;
    bgq_obs::add("snapshot.appends", 1);
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------------

/// Parsed snapshot manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Format version of the snapshot the manifest describes.
    pub version: u32,
    /// Per-table availability recorded at write time.
    pub availability: SourceAvailability,
    /// Partition days, ascending.
    pub days: Vec<i64>,
}

/// Reads and parses `<root>/MANIFEST`: a fresh [`ManifestTail`] reads
/// the whole file in one [`ManifestTail::discover_new`], so a batch load
/// and a live reader share one grammar and commit the same days. A
/// `day` line counts only once its newline is written, and days must
/// ascend strictly: a repeated or out-of-order day is corruption.
///
/// # Errors
///
/// Returns [`SnapshotError::Manifest`] when the file is missing, has no
/// complete header line, is unreadable, has an unsupported version, or
/// is structurally invalid.
pub fn read_manifest(root: &Path) -> Result<Manifest, SnapshotError> {
    let mut tail = ManifestTail::new(root);
    let days = tail.discover_new()?;
    if !tail.header_seen {
        return Err(SnapshotError::Manifest {
            path: root.join(MANIFEST_FILE).display().to_string(),
            detail: "missing, or has no complete header line".to_owned(),
        });
    }
    Ok(Manifest {
        version: FORMAT_VERSION,
        availability: tail.availability,
        days,
    })
}

/// Incremental MANIFEST tailer: discovers newly committed partition days
/// by reading only the bytes appended since the previous poll. It holds
/// the one MANIFEST grammar: [`read_manifest`] is a fresh tailer's
/// first poll.
///
/// Re-reading the whole file every poll would be O(days) per tick and
/// O(days²) over the system life. The tailer instead remembers its byte
/// offset into the MANIFEST (always left at a line boundary) and each
/// [`ManifestTail::discover_new`] call reads only the appended suffix,
/// so tailing is O(new segments).
///
/// The writer-side contract ([`append_day`]) makes this sound: the
/// manifest is strictly append-only, a `day` line is written only after
/// its segments are on disk, and days ascend. A manifest that shrinks or
/// yields a non-ascending day is corruption and surfaces as
/// [`SnapshotError::Manifest`].
#[derive(Debug)]
pub struct ManifestTail {
    root: PathBuf,
    /// Bytes of the MANIFEST consumed so far (line-boundary aligned).
    offset: u64,
    /// Highest day discovered so far.
    last_day: Option<i64>,
    availability: SourceAvailability,
    /// Whether the version header line has been parsed yet.
    header_seen: bool,
}

impl ManifestTail {
    /// A tailer over `<root>/MANIFEST` that has consumed nothing yet.
    /// The file need not exist yet — discovery simply reports no days
    /// until it does.
    #[must_use]
    pub fn new(root: &Path) -> ManifestTail {
        ManifestTail {
            root: root.to_owned(),
            offset: 0,
            last_day: None,
            availability: SourceAvailability::ALL,
            header_seen: false,
        }
    }

    /// Highest day discovered so far, if any.
    #[must_use]
    pub fn last_day(&self) -> Option<i64> {
        self.last_day
    }

    /// Per-table availability parsed from the manifest header (ALL until
    /// the header has been seen).
    #[must_use]
    pub fn availability(&self) -> SourceAvailability {
        self.availability
    }

    /// Bytes of the MANIFEST consumed so far — the regression handle for
    /// the O(new segments) contract: a poll after one appended day
    /// advances this by exactly that day line's length.
    #[must_use]
    pub fn bytes_consumed(&self) -> u64 {
        self.offset
    }

    /// Reads any bytes appended to the MANIFEST since the last call and
    /// returns the newly committed days, ascending. A missing manifest
    /// (the writer has not initialized the root yet) is not an error —
    /// it reports no days. Only complete (newline-terminated) lines are
    /// consumed; a torn final line is left for the next poll.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Manifest`] when the file shrank, the
    /// header is unsupported, or a directive is malformed or yields a
    /// non-ascending day.
    pub fn discover_new(&mut self) -> Result<Vec<i64>, SnapshotError> {
        use std::io::{Read as _, Seek as _};
        let path = self.root.join(MANIFEST_FILE);
        let bad = |detail: String| SnapshotError::Manifest {
            path: path.display().to_string(),
            detail,
        };
        let mut file = match std::fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound && self.offset == 0 => {
                return Ok(Vec::new())
            }
            Err(e) => return Err(bad(format!("unreadable: {e}"))),
        };
        let len = file
            .metadata()
            .map_err(|e| bad(format!("unreadable: {e}")))?
            .len();
        if len < self.offset {
            return Err(bad(format!(
                "shrank from {} to {len} bytes — not an append-only live log",
                self.offset
            )));
        }
        if len == self.offset {
            return Ok(Vec::new());
        }
        file.seek(io::SeekFrom::Start(self.offset))
            .map_err(|e| bad(format!("unreadable: {e}")))?;
        let mut buf = Vec::with_capacity((len - self.offset) as usize);
        file.read_to_end(&mut buf)
            .map_err(|e| bad(format!("unreadable: {e}")))?;
        let complete = buf.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
        let text = std::str::from_utf8(&buf[..complete])
            .map_err(|_| bad("manifest is not UTF-8".to_owned()))?;
        let mut new_days = Vec::new();
        for line in text.lines() {
            if !self.header_seen {
                let version = line
                    .strip_prefix("bgq-snapshot ")
                    .and_then(|v| v.parse::<u32>().ok())
                    .ok_or_else(|| bad(format!("bad header line {line:?}")))?;
                if version != FORMAT_VERSION {
                    return Err(bad(format!(
                        "unsupported version {version} (this build reads {FORMAT_VERSION})"
                    )));
                }
                self.header_seen = true;
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("endian") => {
                    let e = parts.next().unwrap_or_default();
                    if e != "little" {
                        return Err(bad(format!("unsupported endianness {e:?}")));
                    }
                }
                Some("table") => {
                    let name = parts.next().unwrap_or_default();
                    let ok = match parts.next().unwrap_or_default() {
                        "available" => true,
                        "unavailable" => false,
                        other => return Err(bad(format!("bad table state {other:?}"))),
                    };
                    match name {
                        "jobs" => self.availability.jobs = ok,
                        "ras" => self.availability.ras = ok,
                        "tasks" => self.availability.tasks = ok,
                        "io" => self.availability.io = ok,
                        other => return Err(bad(format!("unknown table {other:?}"))),
                    }
                }
                Some("day") => {
                    let d = parts
                        .next()
                        .and_then(|d| d.parse::<i64>().ok())
                        .ok_or_else(|| bad(format!("bad day line {line:?}")))?;
                    if self.last_day.is_some_and(|last| d <= last) {
                        return Err(bad(format!(
                            "day {d} not after day {} — manifest is not append-ordered",
                            self.last_day.unwrap_or_default()
                        )));
                    }
                    self.last_day = Some(d);
                    new_days.push(d);
                }
                Some(other) => return Err(bad(format!("unknown directive {other:?}"))),
                None => {}
            }
        }
        self.offset += complete as u64;
        Ok(new_days)
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// Why one segment was dropped from a degraded snapshot load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentQuarantine {
    /// The segment file does not exist.
    Missing,
    /// The segment file could not be read.
    Io,
    /// The header or structure is invalid (bad magic, version,
    /// endianness, table id, day, or sizes that do not add up).
    Header,
    /// The payload checksum does not match the header.
    Checksum,
    /// The per-segment reject ratio exceeded the ceiling.
    RejectRatio,
}

impl fmt::Display for SegmentQuarantine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SegmentQuarantine::Missing => "missing file",
            SegmentQuarantine::Io => "i/o failure",
            SegmentQuarantine::Header => "invalid header",
            SegmentQuarantine::Checksum => "checksum mismatch",
            SegmentQuarantine::RejectRatio => "reject ceiling exceeded",
        })
    }
}

/// Outcome of loading one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentStats {
    /// Table the segment belongs to.
    pub table: &'static str,
    /// Partition day.
    pub day: i64,
    /// `None` when the segment loaded; the reason when it was dropped.
    pub quarantined: Option<SegmentQuarantine>,
    /// Rows decoded successfully.
    pub rows: usize,
    /// Rows rejected by per-row validation.
    pub rejected: usize,
}

/// What a resilient snapshot load accepted, rejected, and quarantined.
///
/// A table the load was not asked to decode ([`read_tables_with`]) is
/// absent from `load` and `segments` alike, so
/// [`LoadReport::availability`] reports it present.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReport {
    /// Table-level rollup, interoperable with the CSV path's report
    /// (quarantined segments surface as rejected rows **only** via
    /// [`SnapshotReport::segments`]; a table is quarantined here only
    /// when the manifest marks it unavailable, requested or not).
    pub load: LoadReport,
    /// Per-segment outcomes of the decoded tables, in (table, day)
    /// order.
    pub segments: Vec<SegmentStats>,
    /// Day partitions of the loaded dataset (recomputed after
    /// normalization, so quarantined segments are simply absent, and a
    /// table not decoded spans nothing).
    pub partitions: PartitionMap,
}

impl SnapshotReport {
    /// Segments dropped by the load.
    #[must_use]
    pub fn quarantined_segments(&self) -> Vec<&SegmentStats> {
        self.segments
            .iter()
            .filter(|s| s.quarantined.is_some())
            .collect()
    }
}

/// One decoded segment, or the reason it could not be decoded.
struct SegmentOutcome {
    records: DecodedRows,
    rejected: usize,
    quarantine: Option<(SegmentQuarantine, String)>,
    /// First row-level rejection, for diagnostics.
    first_row_error: Option<String>,
}

impl SegmentOutcome {
    fn fail(table: &str, q: SegmentQuarantine, detail: impl Into<String>) -> Self {
        SegmentOutcome {
            records: DecodedRows::empty(table),
            rejected: 0,
            quarantine: Some((q, detail.into())),
            first_row_error: None,
        }
    }
}

/// Validates header + structure of a raw segment; returns
/// `(rows, string_count, payload)` on success.
fn check_segment<'a>(
    table: &'static str,
    day: i64,
    bytes: &'a [u8],
) -> Result<(usize, usize, &'a [u8]), (SegmentQuarantine, String)> {
    use SegmentQuarantine as Q;
    if bytes.len() < HEADER_LEN {
        return Err((Q::Header, format!("file too short ({} bytes)", bytes.len())));
    }
    let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
    let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    let i64_at = |o: usize| i64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
    if bytes[..8] != MAGIC {
        return Err((Q::Header, "bad magic".to_owned()));
    }
    if u32_at(8) != FORMAT_VERSION {
        return Err((Q::Header, format!("unsupported version {}", u32_at(8))));
    }
    if u32_at(12) != ENDIAN_TAG {
        return Err((Q::Header, "endianness mismatch".to_owned()));
    }
    if u32_at(16) != table_id(table) {
        return Err((Q::Header, format!("wrong table id {}", u32_at(16))));
    }
    if i64_at(24) != day {
        return Err((Q::Header, format!("wrong day {}", i64_at(24))));
    }
    let rows = u64_at(32) as usize;
    let string_count = u32_at(40) as usize;
    let payload_len = u64_at(48) as usize;
    if bytes.len() - HEADER_LEN != payload_len {
        return Err((
            Q::Header,
            format!(
                "payload length {} does not match file size {}",
                payload_len,
                bytes.len()
            ),
        ));
    }
    let payload = &bytes[HEADER_LEN..];
    if checksum(payload) != u64_at(CHECKSUM_OFFSET) {
        return Err((Q::Checksum, "payload checksum mismatch".to_owned()));
    }
    Ok((rows, string_count, payload))
}

/// A parsed string table plus the raw column bytes that follow it.
type PayloadParts<'a> = (Vec<&'a str>, &'a [u8]);

/// Splits the payload into the parsed string table and the column bytes,
/// verifying the sizes add up exactly.
fn split_payload<'a>(
    table: &str,
    rows: usize,
    string_count: usize,
    payload: &'a [u8],
) -> Result<PayloadParts<'a>, (SegmentQuarantine, String)> {
    use SegmentQuarantine as Q;
    let mut at = 0usize;
    let mut strings = Vec::with_capacity(string_count);
    for i in 0..string_count {
        if at + 4 > payload.len() {
            return Err((Q::Header, format!("string {i} runs past payload")));
        }
        let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        at += 4;
        if at + len > payload.len() {
            return Err((Q::Header, format!("string {i} runs past payload")));
        }
        let s = std::str::from_utf8(&payload[at..at + len])
            .map_err(|_| (Q::Header, format!("string {i} is not UTF-8")))?;
        strings.push(s);
        at += len;
    }
    let cols = &payload[at..];
    let want = rows * row_width(table);
    if cols.len() != want {
        return Err((
            Q::Header,
            format!("column section is {} bytes, expected {want}", cols.len()),
        ));
    }
    Ok((strings, cols))
}

/// Memoized per-entry `Location` parse over a segment's string table.
struct LocationCache<'a> {
    strings: &'a [&'a str],
    parsed: Vec<Option<Result<Location, ()>>>,
}

impl<'a> LocationCache<'a> {
    fn new(strings: &'a [&'a str]) -> Self {
        LocationCache {
            strings,
            parsed: vec![None; strings.len()],
        }
    }

    fn get(&mut self, idx: u32) -> Result<Location, String> {
        let i = idx as usize;
        if i >= self.strings.len() {
            return Err(format!("location string index {idx} out of range"));
        }
        let entry = self.parsed[i]
            .get_or_insert_with(|| self.strings[i].parse::<Location>().map_err(|_| ()));
        (*entry).map_err(|()| format!("bad location {:?}", self.strings[i]))
    }
}

/// Batch-interns the message strings a segment's message column
/// actually references: one global pool lock per segment instead of one
/// per distinct string. Returns a per-string-table-entry symbol vector
/// (`None` for entries the column never references, e.g. locations).
fn intern_messages(strings: &[&str], message_col: &[u32]) -> Vec<Option<MsgText>> {
    let mut referenced = vec![false; strings.len()];
    for &m in message_col {
        if let Some(r) = referenced.get_mut(m as usize) {
            *r = true;
        }
    }
    let idxs: Vec<usize> = (0..strings.len()).filter(|&i| referenced[i]).collect();
    let texts: Vec<&str> = idxs.iter().map(|&i| strings[i]).collect();
    let syms = MsgText::intern_all(&texts);
    let mut out = vec![None; strings.len()];
    for (&i, &sym) in idxs.iter().zip(&syms) {
        out[i] = Some(sym);
    }
    out
}

/// Decodes all rows of a validated segment, skipping rows that fail
/// per-row validation (bad enum code, invalid block, bad location, …).
fn decode_rows<R, F>(rows: usize, mut decode: F) -> (Vec<R>, usize, Option<String>)
where
    F: FnMut(usize) -> Result<R, String>,
{
    let mut out = Vec::with_capacity(rows);
    let mut rejected = 0usize;
    let mut first = None;
    for i in 0..rows {
        match decode(i) {
            Ok(r) => out.push(r),
            Err(e) => {
                rejected += 1;
                if first.is_none() {
                    first = Some(format!("row {i}: {e}"));
                }
            }
        }
    }
    (out, rejected, first)
}

fn enum_decode<T: Copy>(all: &[T], code: u8, what: &str) -> Result<T, String> {
    all.get(code as usize)
        .copied()
        .ok_or_else(|| format!("bad {what} code {code}"))
}

fn block_decode(start: u16, len: u16) -> Result<Block, String> {
    Block::new(start, len).map_err(|e| format!("bad block: {e}"))
}

/// Reads and decodes one segment file.
fn read_segment(table: &'static str, day: i64, root: &Path) -> SegmentOutcome {
    use SegmentQuarantine as Q;
    let path = segment_path(root, table, day);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return SegmentOutcome::fail(table, Q::Missing, format!("{}: {e}", path.display()))
        }
        Err(e) => return SegmentOutcome::fail(table, Q::Io, format!("{}: {e}", path.display())),
    };
    let (rows, string_count, payload) = match check_segment(table, day, &bytes) {
        Ok(v) => v,
        Err((q, detail)) => return SegmentOutcome::fail(table, q, detail),
    };
    let (strings, cols) = match split_payload(table, rows, string_count, payload) {
        Ok(v) => v,
        Err((q, detail)) => return SegmentOutcome::fail(table, q, detail),
    };
    let c = ColumnReader::new(table, rows, cols);
    let (records, rejected, first) = match table {
        "jobs" => {
            let job_id = c.u64s(0);
            let user = c.u32s(1);
            let project = c.u32s(2);
            let queue = c.u8s(3);
            let nodes = c.u32s(4);
            let mode = c.u8s(5);
            let walltime = c.u32s(6);
            let queued_at = c.i64s(7);
            let started_at = c.i64s(8);
            let ended_at = c.i64s(9);
            let block_start = c.u16s(10);
            let block_len = c.u16s(11);
            let exit_code = c.i32s(12);
            let num_tasks = c.u32s(13);
            let resubmit_of = c.u64s(14);
            let (r, n, f) = decode_rows(rows, |i| {
                // Lineage links must point strictly backwards; anything
                // else is corruption and rejects the row, not the segment.
                if resubmit_of[i] != 0 && resubmit_of[i] >= job_id[i] {
                    return Err(format!(
                        "resubmit_of {} not before job_id {}",
                        resubmit_of[i], job_id[i]
                    ));
                }
                Ok(JobRecord {
                    job_id: JobId::new(job_id[i]),
                    user: UserId::new(user[i]),
                    project: ProjectId::new(project[i]),
                    queue: enum_decode(&Queue::ALL, queue[i], "queue")?,
                    nodes: nodes[i],
                    mode: Mode::new(mode[i]).ok_or_else(|| format!("bad mode {}", mode[i]))?,
                    requested_walltime_s: walltime[i],
                    queued_at: Timestamp::from_secs(queued_at[i]),
                    started_at: Timestamp::from_secs(started_at[i]),
                    ended_at: Timestamp::from_secs(ended_at[i]),
                    block: block_decode(block_start[i], block_len[i])?,
                    exit_code: exit_code[i],
                    num_tasks: num_tasks[i],
                    resubmit_of: (resubmit_of[i] != 0).then(|| JobId::new(resubmit_of[i])),
                })
            });
            (DecodedRows::Jobs(r), n, f)
        }
        "ras" => {
            let mut locs = LocationCache::new(&strings);
            let rec_id = c.u64s(0);
            let msg_id = c.u32s(1);
            let severity = c.u8s(2);
            let category = c.u8s(3);
            let component = c.u8s(4);
            let event_time = c.i64s(5);
            let location = c.u32s(6);
            let count = c.u32s(7);
            let message = c.u32s(8);
            let msgs = intern_messages(&strings, &message);
            let (r, n, f) =
                decode_rows(rows, |i| {
                    Ok(RasRecord {
                        rec_id: RecId::new(rec_id[i]),
                        msg_id: MsgId::new(msg_id[i]),
                        severity: enum_decode(&Severity::ALL, severity[i], "severity")?,
                        category: enum_decode(&Category::ALL, category[i], "category")?,
                        component: enum_decode(&Component::ALL, component[i], "component")?,
                        event_time: Timestamp::from_secs(event_time[i]),
                        location: locs.get(location[i])?,
                        count: count[i],
                        message: msgs.get(message[i] as usize).and_then(|m| *m).ok_or_else(
                            || format!("message string index {} out of range", message[i]),
                        )?,
                    })
                });
            (DecodedRows::Ras(r), n, f)
        }
        "tasks" => {
            let task_id = c.u64s(0);
            let job_id = c.u64s(1);
            let seq = c.u32s(2);
            let block_start = c.u16s(3);
            let block_len = c.u16s(4);
            let started_at = c.i64s(5);
            let ended_at = c.i64s(6);
            let ranks = c.u64s(7);
            let exit_code = c.i32s(8);
            let (r, n, f) = decode_rows(rows, |i| {
                Ok(TaskRecord {
                    task_id: TaskId::new(task_id[i]),
                    job_id: JobId::new(job_id[i]),
                    seq: seq[i],
                    block: block_decode(block_start[i], block_len[i])?,
                    started_at: Timestamp::from_secs(started_at[i]),
                    ended_at: Timestamp::from_secs(ended_at[i]),
                    ranks: ranks[i],
                    exit_code: exit_code[i],
                })
            });
            (DecodedRows::Tasks(r), n, f)
        }
        _ => {
            let job_id = c.u64s(0);
            let bytes_read = c.u64s(1);
            let bytes_written = c.u64s(2);
            let files_read = c.u32s(3);
            let files_written = c.u32s(4);
            let io_time_s = c.u64s(5);
            let (r, n, f) = decode_rows(rows, |i| {
                Ok(IoRecord {
                    job_id: JobId::new(job_id[i]),
                    bytes_read: bytes_read[i],
                    bytes_written: bytes_written[i],
                    files_read: files_read[i],
                    files_written: files_written[i],
                    io_time_s: f64::from_bits(io_time_s[i]),
                })
            });
            (DecodedRows::Io(r), n, f)
        }
    };
    // Rejected rows alone never quarantine here; the caller applies the
    // per-segment ceiling and decides.
    SegmentOutcome {
        records,
        rejected,
        quarantine: None,
        first_row_error: first,
    }
}

/// Decoded rows of one segment, tagged by table.
enum DecodedRows {
    Jobs(Vec<JobRecord>),
    Ras(Vec<RasRecord>),
    Tasks(Vec<TaskRecord>),
    Io(Vec<IoRecord>),
}

impl DecodedRows {
    fn empty(table: &str) -> Self {
        match table {
            "jobs" => DecodedRows::Jobs(Vec::new()),
            "ras" => DecodedRows::Ras(Vec::new()),
            "tasks" => DecodedRows::Tasks(Vec::new()),
            _ => DecodedRows::Io(Vec::new()),
        }
    }

    fn len(&self) -> usize {
        match self {
            DecodedRows::Jobs(r) => r.len(),
            DecodedRows::Ras(r) => r.len(),
            DecodedRows::Tasks(r) => r.len(),
            DecodedRows::Io(r) => r.len(),
        }
    }

    fn table(&self) -> &'static str {
        match self {
            DecodedRows::Jobs(_) => "jobs",
            DecodedRows::Ras(_) => "ras",
            DecodedRows::Tasks(_) => "tasks",
            DecodedRows::Io(_) => "io",
        }
    }
}

/// Strict load of a snapshot directory: every table must be available
/// and every segment must decode cleanly.
///
/// The returned dataset is in canonical order and the [`PartitionMap`]
/// describes its day partitions.
///
/// # Errors
///
/// Returns [`SnapshotError`] on a missing/invalid manifest, an
/// unavailable table, or any segment-level or row-level failure.
pub fn read_dir(root: &Path) -> Result<(Dataset, PartitionMap), SnapshotError> {
    let opts = LoadOptions {
        max_reject_ratio: 0.0,
        degraded: false,
    };
    let (ds, report) = read_dir_with(root, &opts)?;
    Ok((ds, report.partitions))
}

/// Resilient load of a snapshot directory: all four tables.
///
/// `opts.max_reject_ratio` is enforced **per segment**; a segment whose
/// ratio trips the ceiling — or that is missing, unreadable, or fails
/// its checksum — is quarantined under `opts.degraded` (the rest of the
/// table still loads) and is a hard error otherwise. A table the
/// manifest marks unavailable is quarantined whole (reason `Missing`)
/// under `opts.degraded` and a hard error otherwise.
///
/// # Errors
///
/// See above; all failures surface as [`SnapshotError`].
pub fn read_dir_with(
    root: &Path,
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotReport), SnapshotError> {
    read_tables_with(root, &TABLES, opts)
}

/// Resilient load of the named `tables` of a snapshot directory, with
/// the semantics of [`read_dir_with`] for each of them.
///
/// Any other table is not read: its segments are never opened, it gets
/// no report entry and no counters, and its rows stay empty. The
/// manifest's availability still covers all four tables, so a table it
/// marks unavailable fails a strict load, or is quarantined `Missing`
/// under `opts.degraded`, whether it was named or not.
///
/// # Errors
///
/// See [`read_dir_with`].
pub fn read_tables_with(
    root: &Path,
    tables: &[&str],
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotReport), SnapshotError> {
    let _span = bgq_obs::span!("snapshot.load");
    let manifest = read_manifest(root)?;
    load_segments(root, &manifest.availability, &manifest.days, tables, opts)
}

/// Resilient load of an explicit subset of partition days — the
/// tailing-reader entry point. `days` are typically the newly committed
/// days a [`ManifestTail`] just discovered, and `avail` its parsed
/// availability; the per-segment resilience semantics are exactly those
/// of [`read_dir_with`].
///
/// # Errors
///
/// See [`read_dir_with`].
pub fn read_days_with(
    root: &Path,
    days: &[i64],
    avail: &SourceAvailability,
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotReport), SnapshotError> {
    let _span = bgq_obs::span!("snapshot.load_days");
    load_segments(root, avail, days, &TABLES, opts)
}

/// Shared segment-loading body of [`read_tables_with`] and
/// [`read_days_with`]: decodes the `days` segments of the requested
/// `tables`.
fn load_segments(
    root: &Path,
    availability: &SourceAvailability,
    days: &[i64],
    tables: &[&str],
    opts: &LoadOptions,
) -> Result<(Dataset, SnapshotReport), SnapshotError> {
    let limit = opts.reject_ceiling();
    let mut ds = Dataset::new();
    let mut report = SnapshotReport {
        load: LoadReport::default(),
        segments: Vec::new(),
        partitions: PartitionMap::default(),
    };
    // Prefetch every requested segment in parallel: each is an
    // independent read+decode, and the accounting below consumes the
    // outcomes in deterministic (table-major, day-ascending) order, so
    // strict-mode errors and degraded reports are identical to a
    // sequential pass.
    let work: Vec<(&'static str, i64)> = TABLES
        .iter()
        .filter(|t| availability.available(t) && tables.contains(t))
        .flat_map(|&t| days.iter().map(move |&d| (t, d)))
        .collect();
    let decoded = bgq_par::par_map(&work, |&(t, d)| read_segment(t, d, root));
    // Reserve the final tables once: appending ~2000 day segments into
    // unsized vectors would re-copy each table log₂(segments) times.
    let mut totals = [0usize; 4];
    for out in &decoded {
        totals[table_id(out.records.table()) as usize] += out.records.len();
    }
    ds.jobs.reserve(totals[0]);
    ds.ras.reserve(totals[1]);
    ds.tasks.reserve(totals[2]);
    ds.io.reserve(totals[3]);
    let mut outcomes: std::vec::IntoIter<SegmentOutcome> = decoded.into_iter();
    for table in TABLES {
        let mut stats = TableLoadStats {
            table,
            status: TableStatus::Loaded,
            rows: 0,
            rejected_csv: 0,
            rejected_schema: 0,
            retries: 0,
            first_schema_error: None,
        };
        if !availability.available(table) {
            if !opts.degraded {
                return Err(SnapshotError::Unavailable { table });
            }
            stats.status = TableStatus::Quarantined(QuarantineReason::Missing);
            bgq_obs::add_labeled("store.quarantined", table, 1);
            report.load.tables.push(stats);
            continue;
        }
        if !tables.contains(&table) {
            continue;
        }
        for &day in days {
            let mut out = outcomes.next().expect("one outcome per scheduled segment");
            // Per-segment reject ceiling: one corrupt day must not hide
            // under the whole-table aggregate (nor fail the other 2000).
            if out.quarantine.is_none() {
                let scanned = out.records.len() + out.rejected;
                let ratio = if scanned == 0 {
                    0.0
                } else {
                    out.rejected as f64 / scanned as f64
                };
                if ratio > limit {
                    let detail = out
                        .first_row_error
                        .clone()
                        .unwrap_or_else(|| "rows rejected".to_owned());
                    if !opts.degraded {
                        return Err(SnapshotError::RejectRatio {
                            table,
                            day,
                            rejected: out.rejected,
                            rows: scanned,
                            limit,
                        });
                    }
                    out.quarantine = Some((SegmentQuarantine::RejectRatio, detail));
                }
            }
            match out.quarantine {
                Some((q, detail)) => {
                    if !opts.degraded {
                        return Err(SnapshotError::Segment { table, day, detail });
                    }
                    bgq_obs::add_labeled("snapshot.quarantined_segments", table, 1);
                    bgq_obs::warn!("segment {table}/day {day}: quarantined ({q}): {detail}");
                    report.segments.push(SegmentStats {
                        table,
                        day,
                        quarantined: Some(q),
                        rows: 0,
                        rejected: out.rejected,
                    });
                }
                None => {
                    stats.rows += out.records.len();
                    stats.rejected_schema += out.rejected;
                    report.segments.push(SegmentStats {
                        table,
                        day,
                        quarantined: None,
                        rows: out.records.len(),
                        rejected: out.rejected,
                    });
                    match out.records {
                        DecodedRows::Jobs(mut r) => ds.jobs.append(&mut r),
                        DecodedRows::Ras(mut r) => ds.ras.append(&mut r),
                        DecodedRows::Tasks(mut r) => ds.tasks.append(&mut r),
                        DecodedRows::Io(mut r) => ds.io.append(&mut r),
                    }
                }
            }
        }
        bgq_obs::add_labeled("snapshot.rows", table, stats.rows as u64);
        bgq_obs::add_labeled("snapshot.rejected", table, stats.rejected_schema as u64);
        report.load.tables.push(stats);
    }
    // Segments arrive in day order with canonical order inside each, so
    // jobs/ras/tasks are already canonical; I/O is grouped by day and
    // needs its global by-job-id order restored. `normalize` pins the
    // persistence-boundary contract either way.
    ds.normalize();
    report.partitions = PartitionMap::of_dataset(&ds);
    Ok((ds, report))
}

// ---------------------------------------------------------------------------
// Byte-surgery helpers (chaos harness)
// ---------------------------------------------------------------------------

/// Parsed header of a raw segment file, for byte-level fault injection.
///
/// This intentionally re-derives offsets from the declared column
/// layout, so the chaos harness can flip specific bytes and predict the
/// exact outcome without duplicating the format constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentLayout {
    /// Table the segment claims to hold.
    pub table: &'static str,
    /// Partition day from the header.
    pub day: i64,
    /// Row count from the header.
    pub rows: usize,
    /// String-table entry count from the header.
    pub string_count: usize,
    /// Byte length of the string section within the payload.
    pub string_bytes: usize,
    /// Payload length from the header.
    pub payload_len: usize,
}

impl SegmentLayout {
    /// Parses the header (and string section extent) of a raw segment.
    ///
    /// # Errors
    ///
    /// Returns a description of the structural problem.
    pub fn parse(bytes: &[u8]) -> Result<SegmentLayout, String> {
        if bytes.len() < HEADER_LEN {
            return Err("file too short".to_owned());
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        let i64_at = |o: usize| i64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        if bytes[..8] != MAGIC {
            return Err("bad magic".to_owned());
        }
        let table = TABLES
            .get(u32_at(16) as usize)
            .copied()
            .ok_or_else(|| format!("bad table id {}", u32_at(16)))?;
        let rows = u64_at(32) as usize;
        let string_count = u32_at(40) as usize;
        let payload = &bytes[HEADER_LEN..];
        let mut at = 0usize;
        for _ in 0..string_count {
            if at + 4 > payload.len() {
                return Err("string table runs past payload".to_owned());
            }
            let len = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len;
            if at > payload.len() {
                return Err("string table runs past payload".to_owned());
            }
        }
        Ok(SegmentLayout {
            table,
            day: i64_at(24),
            rows,
            string_count,
            string_bytes: at,
            payload_len: u64_at(48) as usize,
        })
    }

    /// Absolute byte range of one column's packed array within the file,
    /// with its element width: `(file_offset, elem_width)`.
    #[must_use]
    pub fn column(&self, name: &str) -> Option<(usize, usize)> {
        let mut at = HEADER_LEN + self.string_bytes;
        for (col, w) in columns(self.table) {
            if *col == name {
                return Some((at, *w));
            }
            at += self.rows * w;
        }
        None
    }
}

/// Recomputes the payload checksum and payload length of a (possibly
/// modified) segment buffer and writes them back into the header — the
/// chaos harness uses this to produce segments whose *contents* are
/// poisoned but whose envelope is pristine.
pub fn reseal(bytes: &mut [u8]) {
    assert!(bytes.len() >= HEADER_LEN, "segment too short to reseal");
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    bytes[48..56].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::Location;

    fn job(id: u64, start: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(7),
            project: ProjectId::new(3),
            queue: Queue::Production,
            nodes: 512,
            mode: Mode::default(),
            requested_walltime_s: 3600,
            queued_at: Timestamp::from_secs(start - 60),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(start + 100),
            block: Block::new(0, 1).unwrap(),
            exit_code: 0,
            num_tasks: 1,
            resubmit_of: None,
        }
    }

    fn ras(id: u64, t: i64) -> RasRecord {
        RasRecord {
            rec_id: RecId::new(id),
            msg_id: MsgId::new(0x0001_0001),
            severity: Severity::Fatal,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(t),
            location: "R00-M0-N01".parse::<Location>().unwrap(),
            message: "DDR corrected, \"bank 2\", rank=3".into(),
            count: 1,
        }
    }

    fn task(id: u64, job: u64, start: i64) -> TaskRecord {
        TaskRecord {
            task_id: TaskId::new(id),
            job_id: JobId::new(job),
            seq: 0,
            block: Block::new(0, 1).unwrap(),
            started_at: Timestamp::from_secs(start),
            ended_at: Timestamp::from_secs(start + 50),
            ranks: 512,
            exit_code: 0,
        }
    }

    fn io(job: u64) -> IoRecord {
        IoRecord {
            job_id: JobId::new(job),
            bytes_read: 1 << 33,
            bytes_written: 123,
            files_read: 9,
            files_written: 2,
            io_time_s: 55.125,
        }
    }

    /// A dataset spanning two partition days.
    fn sample() -> Dataset {
        let d0 = 1_365_465_600; // Mira epoch, day 15804 exactly
        let d1 = d0 + SECS_PER_DAY;
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, d0 + 100), job(2, d0 + 200), job(3, d1 + 100)];
        ds.ras = vec![ras(1, d0 + 150), ras(2, d1 + 50), ras(3, d1 + 60)];
        ds.tasks = vec![task(1, 1, d0 + 100), task(2, 3, d1 + 100)];
        ds.io = vec![io(1), io(3)];
        ds.normalize();
        ds
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("bgq-snap-{tag}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_two_days() {
        let ds = sample();
        let root = tmp("roundtrip");
        let stats = write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        assert_eq!(stats.days, 2);
        assert_eq!(stats.segments, 8, "two days x four tables");
        let (loaded, parts) = read_dir(&root).unwrap();
        assert_eq!(loaded, ds);
        assert_eq!(parts.days.len(), 2);
        assert_eq!(parts.days[0].day, 15804);
        assert_eq!(parts.days[0].jobs, 0..2);
        assert_eq!(parts.days[1].jobs, 2..3);
        assert_eq!(parts.days[0].ras, 0..1);
        assert_eq!(parts.days[1].ras, 1..3);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsorted_input_is_written_canonically() {
        let mut ds = sample();
        ds.jobs.reverse();
        ds.ras.reverse();
        ds.io.reverse();
        let root = tmp("unsorted");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        let (loaded, _) = read_dir(&root).unwrap();
        let mut want = ds.clone();
        want.normalize();
        assert_eq!(loaded, want);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_manifest_error() {
        let root = tmp("nomanifest");
        std::fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            read_dir(&root).unwrap_err(),
            SnapshotError::Manifest { .. }
        ));
        assert!(!is_snapshot_dir(&root));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corrupt_payload_fails_strict_quarantines_degraded() {
        let ds = sample();
        let root = tmp("corrupt");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        // Flip one payload byte of the day-15804 jobs segment.
        let path = segment_path(&root, "jobs", 15804);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[HEADER_LEN] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = read_dir(&root).unwrap_err();
        assert!(
            matches!(
                err,
                SnapshotError::Segment {
                    table: "jobs",
                    day: 15804,
                    ..
                }
            ),
            "{err}"
        );
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = read_dir_with(&root, &opts).unwrap();
        // The day-15804 jobs are gone; day-15805 jobs survive.
        assert_eq!(loaded.jobs.len(), 1);
        assert_eq!(loaded.jobs[0].job_id, JobId::new(3));
        assert_eq!(loaded.ras.len(), 3, "other tables untouched");
        let q = report.quarantined_segments();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].table, "jobs");
        assert_eq!(q[0].day, 15804);
        assert_eq!(q[0].quarantined, Some(SegmentQuarantine::Checksum));
        // Table-level rollup still says "jobs loaded" (partial data).
        assert_eq!(
            report.load.table("jobs").unwrap().status,
            TableStatus::Loaded
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn poisoned_row_trips_per_segment_ceiling() {
        let ds = sample();
        let root = tmp("poison");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        // Poison the severity of one RAS row on day 15805 (two rows), then
        // reseal so the envelope stays valid.
        let path = segment_path(&root, "ras", 15805);
        let mut bytes = std::fs::read(&path).unwrap();
        let layout = SegmentLayout::parse(&bytes).unwrap();
        assert_eq!(layout.rows, 2);
        let (off, w) = layout.column("severity").unwrap();
        assert_eq!(w, 1);
        bytes[off] = 0xee;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        // Strict: hard error naming the segment.
        assert!(read_dir(&root).is_err());
        // Degraded with a permissive ceiling: the row is skipped, the
        // segment survives.
        let opts = LoadOptions {
            max_reject_ratio: 0.5,
            degraded: true,
        };
        let (loaded, report) = read_dir_with(&root, &opts).unwrap();
        assert_eq!(loaded.ras.len(), 2);
        let seg = report
            .segments
            .iter()
            .find(|s| s.table == "ras" && s.day == 15805)
            .unwrap();
        assert_eq!(seg.rejected, 1);
        assert_eq!(seg.quarantined, None);
        // Degraded with a zero ceiling: the whole segment is quarantined,
        // but the clean day-15804 segment still loads — the ceiling is
        // per segment, not per table.
        let opts = LoadOptions {
            max_reject_ratio: 0.0,
            degraded: true,
        };
        let (loaded, report) = read_dir_with(&root, &opts).unwrap();
        assert_eq!(loaded.ras.len(), 1);
        assert_eq!(loaded.ras[0].rec_id, RecId::new(1));
        let q = report.quarantined_segments();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].quarantined, Some(SegmentQuarantine::RejectRatio));
        // A NaN ceiling is zero tolerance, not a disabled guard.
        let nan = LoadOptions {
            max_reject_ratio: f64::NAN,
            ..LoadOptions::default()
        };
        let err = read_dir_with(&root, &nan).unwrap_err();
        assert!(
            matches!(err, SnapshotError::RejectRatio { table: "ras", day: 15805, limit, .. } if limit == 0.0),
            "{err}"
        );
        let nan = LoadOptions {
            degraded: true,
            ..nan
        };
        let (loaded, report) = read_dir_with(&root, &nan).unwrap();
        assert_eq!(loaded.ras.len(), 1);
        let q = report.quarantined_segments();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].quarantined, Some(SegmentQuarantine::RejectRatio));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unavailable_table_roundtrips_as_quarantined() {
        let ds = sample();
        let root = tmp("unavail");
        let avail = SourceAvailability {
            ras: false,
            ..SourceAvailability::ALL
        };
        let stats = write_dir(&ds, &root, &avail).unwrap();
        assert_eq!(stats.segments, 6, "ras segments are not written");
        // Strict load refuses: the snapshot is incomplete.
        assert!(matches!(
            read_dir(&root).unwrap_err(),
            SnapshotError::Unavailable { table: "ras" }
        ));
        // Degraded load re-quarantines ras as Missing — provenance kept.
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = read_dir_with(&root, &opts).unwrap();
        assert!(loaded.ras.is_empty());
        assert_eq!(
            report.load.table("ras").unwrap().status,
            TableStatus::Quarantined(QuarantineReason::Missing)
        );
        assert_eq!(report.load.availability().missing(), vec!["ras"]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_segment_is_quarantined_as_header() {
        let ds = sample();
        let root = tmp("trunc");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        let path = segment_path(&root, "tasks", 15804);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (_, report) = read_dir_with(&root, &opts).unwrap();
        let q = report.quarantined_segments();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].quarantined, Some(SegmentQuarantine::Header));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn deleted_segment_is_quarantined_as_missing() {
        let ds = sample();
        let root = tmp("delseg");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        std::fs::remove_file(segment_path(&root, "io", 15804)).unwrap();
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = read_dir_with(&root, &opts).unwrap();
        assert_eq!(loaded.io.len(), 1);
        assert_eq!(
            report.quarantined_segments()[0].quarantined,
            Some(SegmentQuarantine::Missing)
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        // Pinned vectors for the four-lane word FNV: any change here is
        // a wire-format break and must regenerate the committed fixture
        // snapshot (`BGQ_UPDATE_SNAPSHOT_FIXTURE=1 cargo test`).
        assert_eq!(checksum(b""), 0xf1fc_e322_bc1d_af2f);
        assert_eq!(checksum(b"a"), 0x4fa7_fe05_a782_fac7);
        assert_eq!(checksum(&[0u8; 32]), 0x9528_79fb_8620_4fa3);

        // Single-byte perturbations anywhere must change the hash:
        // block lanes, tail, and a pure-extension (length fold).
        let base: Vec<u8> = (0..=70u8).collect();
        let h = checksum(&base);
        for i in 0..base.len() {
            let mut b = base.clone();
            b[i] ^= 0x01;
            assert_ne!(checksum(&b), h, "flip at {i} undetected");
        }
        assert_ne!(checksum(&base[..64]), h, "truncation undetected");
        assert_ne!(
            checksum(&[0u8; 64]),
            checksum(&[0u8; 32]),
            "zero-extension undetected"
        );
    }

    #[test]
    fn partition_map_of_dataset_matches_write_partitioning() {
        let ds = sample();
        let map = PartitionMap::of_dataset(&ds);
        assert_eq!(map.len(), 2);
        assert_eq!(map.days[0].tasks, 0..1);
        assert_eq!(map.days[1].tasks, 1..2);
    }

    /// Replays `ds` through init_dir + one append_day per day.
    fn append_all(ds: &Dataset, root: &Path) {
        init_dir(root, &SourceAvailability::ALL).unwrap();
        for part in split_days(ds) {
            append_day(root, &part.rows(ds), &SourceAvailability::ALL).unwrap();
        }
    }

    #[test]
    fn live_append_is_byte_identical_to_bulk_write() {
        let ds = sample();
        let bulk = tmp("bulk");
        let live = tmp("live");
        write_dir(&ds, &bulk, &SourceAvailability::ALL).unwrap();
        append_all(&ds, &live);
        // Same manifest bytes, same segment files byte-for-byte.
        assert_eq!(
            std::fs::read(bulk.join(MANIFEST_FILE)).unwrap(),
            std::fs::read(live.join(MANIFEST_FILE)).unwrap()
        );
        for table in TABLES {
            for day in [15804, 15805] {
                assert_eq!(
                    std::fs::read(segment_path(&bulk, table, day)).unwrap(),
                    std::fs::read(segment_path(&live, table, day)).unwrap(),
                    "{table}/day {day} diverged"
                );
            }
        }
        let (loaded, _) = read_dir(&live).unwrap();
        assert_eq!(loaded, ds);
        std::fs::remove_dir_all(&bulk).unwrap();
        std::fs::remove_dir_all(&live).unwrap();
    }

    #[test]
    fn append_day_without_init_is_a_manifest_error() {
        let root = tmp("noinit");
        std::fs::create_dir_all(&root).unwrap();
        let rows = DayRows {
            day: 1,
            jobs: &[],
            ras: &[],
            tasks: &[],
            io: Vec::new(),
        };
        assert!(matches!(
            append_day(&root, &rows, &SourceAvailability::ALL).unwrap_err(),
            SnapshotError::Manifest { .. }
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Regression for the O(full MANIFEST re-read per poll) tailing
    /// path: after the initial discovery, a poll following one appended
    /// day consumes exactly that day line's bytes — not the whole file.
    #[test]
    fn manifest_tail_discovery_is_incremental() {
        let ds = sample();
        let root = tmp("tail");
        let mut tail = ManifestTail::new(&root);
        // Nothing on disk yet: no days, no error.
        assert_eq!(tail.discover_new().unwrap(), Vec::<i64>::new());
        append_all(&ds, &root);
        assert_eq!(tail.discover_new().unwrap(), vec![15804, 15805]);
        assert_eq!(tail.last_day(), Some(15805));
        assert!(tail.availability().missing().is_empty());
        let consumed = tail.bytes_consumed();
        assert_eq!(
            consumed,
            std::fs::metadata(root.join(MANIFEST_FILE)).unwrap().len()
        );
        // Idle poll: nothing read, nothing discovered.
        assert_eq!(tail.discover_new().unwrap(), Vec::<i64>::new());
        assert_eq!(tail.bytes_consumed(), consumed);
        // One appended day: the poll consumes only that line.
        let rows = DayRows {
            day: 15810,
            jobs: &[],
            ras: &[],
            tasks: &[],
            io: Vec::new(),
        };
        append_day(&root, &rows, &SourceAvailability::ALL).unwrap();
        assert_eq!(tail.discover_new().unwrap(), vec![15810]);
        assert_eq!(
            tail.bytes_consumed() - consumed,
            "day 15810\n".len() as u64,
            "tail re-read more than the appended line"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_tail_leaves_torn_lines_for_the_next_poll() {
        use std::io::Write as _;
        let ds = sample();
        let root = tmp("torn");
        append_all(&ds, &root);
        let mut tail = ManifestTail::new(&root);
        tail.discover_new().unwrap();
        let mpath = root.join(MANIFEST_FILE);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&mpath)
            .unwrap();
        f.write_all(b"day 158").unwrap();
        f.flush().unwrap();
        // The torn line is invisible until its newline lands.
        assert_eq!(tail.discover_new().unwrap(), Vec::<i64>::new());
        f.write_all(b"10\n").unwrap();
        f.flush().unwrap();
        assert_eq!(tail.discover_new().unwrap(), vec![15810]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_tail_rejects_shrinks_and_disorder() {
        use std::io::Write as _;
        let ds = sample();
        let root = tmp("tailbad");
        append_all(&ds, &root);
        let mut tail = ManifestTail::new(&root);
        tail.discover_new().unwrap();
        // Out-of-order day.
        let mpath = root.join(MANIFEST_FILE);
        let clean = std::fs::read(&mpath).unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&mpath)
            .unwrap();
        f.write_all(b"day 15804\n").unwrap();
        drop(f);
        assert!(matches!(
            tail.discover_new().unwrap_err(),
            SnapshotError::Manifest { .. }
        ));
        // Shrunk file.
        std::fs::write(&mpath, &clean).unwrap();
        let mut tail = ManifestTail::new(&root);
        tail.discover_new().unwrap();
        std::fs::write(&mpath, &clean[..clean.len() / 2]).unwrap();
        assert!(matches!(
            tail.discover_new().unwrap_err(),
            SnapshotError::Manifest { .. }
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// What a MANIFEST text should read as.
    enum Want {
        /// These days and this availability, through both readers.
        Days(Vec<i64>, SourceAvailability),
        /// The same error through both readers.
        Fails,
        /// No complete header line yet: the tail waits for a writer that
        /// has not initialized the root, a batch load has no snapshot.
        NotStarted,
    }

    /// One grammar for batch and live: each MANIFEST text reads the same
    /// through `read_manifest` and through a fresh `ManifestTail`.
    #[test]
    fn read_manifest_and_the_tail_share_one_grammar() {
        const HEAD: &str = "bgq-snapshot 2\nendian little\ntable jobs available\n\
                            table ras available\ntable tasks available\ntable io available\n";
        let all = SourceAvailability::ALL;
        let no_ras = SourceAvailability {
            ras: false,
            ..SourceAvailability::ALL
        };
        let cases: Vec<(&str, Option<String>, Want)> = vec![
            (
                "clean",
                Some(format!("{HEAD}day 15804\nday 15805\n")),
                Want::Days(vec![15804, 15805], all),
            ),
            (
                "clean, ras unavailable",
                Some(HEAD.replace("ras available", "ras unavailable") + "day 15804\n"),
                Want::Days(vec![15804], no_ras),
            ),
            (
                "repeated day",
                Some(format!("{HEAD}day 15804\nday 15804\nday 15805\n")),
                Want::Fails,
            ),
            (
                "days out of order",
                Some(format!("{HEAD}day 15805\nday 15804\n")),
                Want::Fails,
            ),
            (
                "unterminated last line",
                Some(format!("{HEAD}day 15804\nday 15805")),
                Want::Days(vec![15804], all),
            ),
            (
                "torn header",
                Some("bgq-snapshot 2\nendian little\ntable jobs avail".to_owned()),
                Want::Days(vec![], all),
            ),
            (
                "torn header line",
                Some("bgq-snaps".to_owned()),
                Want::NotStarted,
            ),
            (
                "unknown directive",
                Some(format!("{HEAD}week 15804\n")),
                Want::Fails,
            ),
            (
                "unknown table",
                Some(format!("{HEAD}table users available\n")),
                Want::Fails,
            ),
            (
                "bad table state",
                Some(HEAD.replace("io available", "io maybe")),
                Want::Fails,
            ),
            (
                "wrong version",
                Some(HEAD.replace("bgq-snapshot 2", "bgq-snapshot 1")),
                Want::Fails,
            ),
            (
                "big-endian",
                Some(HEAD.replace("endian little", "endian big")),
                Want::Fails,
            ),
            ("empty file", Some(String::new()), Want::NotStarted),
            ("missing file", None, Want::NotStarted),
        ];
        for (i, (case, text, want)) in cases.into_iter().enumerate() {
            let root = tmp(&format!("grammar-{i}"));
            std::fs::create_dir_all(&root).unwrap();
            if let Some(text) = &text {
                std::fs::write(root.join(MANIFEST_FILE), text).unwrap();
            }
            let batch = read_manifest(&root);
            let mut tail = ManifestTail::new(&root);
            let live = tail.discover_new();
            match want {
                Want::Days(days, avail) => {
                    let m = batch.unwrap_or_else(|e| panic!("{case}: batch failed: {e}"));
                    assert_eq!((&m.days, m.availability), (&days, avail), "{case}: batch");
                    let got = live.unwrap_or_else(|e| panic!("{case}: tail failed: {e}"));
                    assert_eq!((got, tail.availability()), (days, avail), "{case}: tail");
                }
                Want::Fails => {
                    let (Err(b), Err(l)) = (&batch, &live) else {
                        panic!("{case}: batch {batch:?}, tail {live:?}");
                    };
                    assert!(matches!(b, SnapshotError::Manifest { .. }), "{case}: {b}");
                    assert_eq!(b.to_string(), l.to_string(), "{case}");
                }
                Want::NotStarted => {
                    assert!(
                        matches!(batch, Err(SnapshotError::Manifest { .. })),
                        "{case}: batch {batch:?}"
                    );
                    assert_eq!(live.unwrap(), Vec::<i64>::new(), "{case}: tail");
                    assert_eq!(tail.availability(), all, "{case}: tail");
                }
            }
            std::fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn read_days_subset_matches_the_full_load_prefix() {
        let ds = sample();
        let root = tmp("subset");
        write_dir(&ds, &root, &SourceAvailability::ALL).unwrap();
        let (full, _) = read_dir(&root).unwrap();
        let (first, report) = read_days_with(
            &root,
            &[15804],
            &SourceAvailability::ALL,
            &LoadOptions::default(),
        )
        .unwrap();
        assert_eq!(first.jobs, full.jobs[..2]);
        assert_eq!(first.ras, full.ras[..1]);
        assert!(report.quarantined_segments().is_empty());
        // Appending the remaining day's rows reproduces the full load.
        let (second, _) = read_days_with(
            &root,
            &[15805],
            &SourceAvailability::ALL,
            &LoadOptions::default(),
        )
        .unwrap();
        let mut merged = first;
        merged.jobs.extend(second.jobs);
        merged.ras.extend(second.ras);
        merged.tasks.extend(second.tasks);
        merged.io.extend(second.io);
        merged.normalize();
        assert_eq!(merged, full);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A four-day simulated snapshot with every table populated.
    fn sim_snapshot(tag: &str) -> PathBuf {
        let root = tmp(tag);
        std::fs::remove_dir_all(&root).ok();
        bgq_sim::generate_to_snapshot(&bgq_sim::SimConfig::small(4).with_seed(8), &root).unwrap();
        root
    }

    /// The options [`read_dir`] loads with: no rejected row tolerated.
    fn strict() -> LoadOptions {
        LoadOptions {
            max_reject_ratio: 0.0,
            degraded: false,
        }
    }

    #[test]
    fn partial_load_decodes_only_the_named_tables() {
        let root = sim_snapshot("partial");
        let (full, full_report) = read_dir_with(&root, &strict()).unwrap();
        assert!(!full.ras.is_empty() && !full.tasks.is_empty() && !full.io.is_empty());
        let (jobs_only, report) = read_tables_with(&root, &["jobs"], &strict()).unwrap();
        assert!(!jobs_only.jobs.is_empty());
        assert_eq!(format!("{:?}", jobs_only.jobs), format!("{:?}", full.jobs));
        assert!(jobs_only.ras.is_empty() && jobs_only.tasks.is_empty() && jobs_only.io.is_empty());
        assert_eq!(report.load.availability(), full_report.load.availability());
        // The other tables are not read, so nothing accounts for them.
        let tables: Vec<_> = report.load.tables.iter().map(|t| t.table).collect();
        assert_eq!(tables, ["jobs"]);
        assert!(report.segments.iter().all(|s| s.table == "jobs"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn damage_in_a_table_not_named_does_not_fail_a_strict_load() {
        let root = sim_snapshot("partial-damage");
        let day = read_manifest(&root).unwrap().days[0];
        std::fs::remove_file(segment_path(&root, "ras", day)).unwrap();
        let (ds, _) = read_tables_with(&root, &["jobs"], &strict()).unwrap();
        assert!(!ds.jobs.is_empty());
        let want = read_dir_with(&root, &strict()).unwrap_err();
        let got = read_tables_with(&root, &["jobs", "ras"], &strict()).unwrap_err();
        assert!(
            matches!(got, SnapshotError::Segment { table: "ras", .. }),
            "{got}"
        );
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unavailable_table_still_fails_or_quarantines_a_partial_load() {
        let root = sim_snapshot("partial-unavail");
        let path = root.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("table ras available\n"), "{text}");
        std::fs::write(
            &path,
            text.replace("table ras available", "table ras unavailable"),
        )
        .unwrap();
        let err = read_tables_with(&root, &["jobs"], &strict()).unwrap_err();
        assert!(
            matches!(err, SnapshotError::Unavailable { table: "ras" }),
            "{err}"
        );
        let opts = LoadOptions {
            degraded: true,
            ..strict()
        };
        let (ds, report) = read_tables_with(&root, &["jobs"], &opts).unwrap();
        assert!(!ds.jobs.is_empty());
        assert_eq!(
            report.load.table("ras").unwrap().status,
            TableStatus::Quarantined(QuarantineReason::Missing)
        );
        assert_eq!(report.load.availability().missing(), vec!["ras"]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
