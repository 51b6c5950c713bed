//! The on-disk dataset: four CSV tables in one directory.
//!
//! Every load runs one body, [`Dataset::load_dir_with`]: damaged rows
//! are counted and skipped up to a per-table ceiling, transient I/O
//! failures are retried by re-scanning the table from scratch (at most
//! [`MAX_RETRIES`] times), and (when [`LoadOptions::degraded`] allows
//! it) a table that cannot be loaded at all — missing file, persistent
//! I/O failure, unusable header, or reject ceiling exceeded — is
//! **quarantined**: dropped from the dataset and recorded in the
//! [`LoadReport`] instead of failing the whole load. Downstream,
//! [`SourceAvailability`] tells the analysis layer which tables it may
//! trust. [`Dataset::load_dir`] is that load at zero tolerance, for data
//! you wrote yourself a moment ago: the first damaged row fails it.
//!
//! Loads read through the [`TableSource`] indirection, so the chaos
//! harness (`bgq-chaos`) can inject `io::Error`s under the CSV scanner
//! without touching the filesystem.

use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use bgq_model::{IoRecord, JobRecord, RasRecord, TaskRecord};

use crate::csv::{write_record, CsvError, CsvScanner};
use crate::schema::{ColumnMap, Record, SchemaError, SchemaErrorKind};

/// An in-memory Mira dataset: the four joined log sources.
///
/// Invariants maintained by [`Dataset::normalize`]: jobs sorted by start
/// time, RAS events by event time, tasks by start time, I/O records by job
/// id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dataset {
    /// Cobalt job-scheduling log.
    pub jobs: Vec<JobRecord>,
    /// RAS event log.
    pub ras: Vec<RasRecord>,
    /// Physical execution (task) log.
    pub tasks: Vec<TaskRecord>,
    /// Darshan-style I/O log.
    pub io: Vec<IoRecord>,
}

/// Error produced when loading or saving a [`Dataset`].
#[derive(Debug)]
pub enum StoreError {
    /// CSV-level failure, with the table it occurred in.
    Csv {
        /// Table (file stem) involved.
        table: &'static str,
        /// Underlying CSV error.
        source: CsvError,
    },
    /// Row-level decode failure.
    Schema(SchemaError),
    /// Filesystem failure.
    Io {
        /// Path involved.
        path: String,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// Too many rows of one table were rejected.
    RejectRatio {
        /// Table (file stem) involved.
        table: &'static str,
        /// Rows rejected (malformed CSV plus schema failures).
        rejected: usize,
        /// Rows scanned (accepted + rejected, excluding the header).
        scanned: usize,
        /// The configured ceiling that was exceeded.
        limit: f64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Csv { table, source } => write!(f, "table {table}: {source}"),
            StoreError::Schema(e) => write!(f, "{e}"),
            StoreError::Io { path, source } => write!(f, "{path}: {source}"),
            StoreError::RejectRatio {
                table,
                rejected,
                scanned,
                limit,
            } => write!(
                f,
                "table {table}: {rejected} of {scanned} rows rejected, exceeding the \
                 configured ceiling of {:.2}%",
                limit * 100.0
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Csv { source, .. } => Some(source),
            StoreError::Schema(e) => Some(e),
            StoreError::Io { source, .. } => Some(source),
            StoreError::RejectRatio { .. } => None,
        }
    }
}

/// Re-open/re-scan attempts per table after a transient I/O failure (an
/// `io::Error` from the underlying reader mid-scan, or a non-`NotFound`
/// open failure) before the table fails or is quarantined.
pub const MAX_RETRIES: u32 = 2;

/// Options for a dataset load ([`Dataset::load_dir_with`]).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadOptions {
    /// Maximum tolerated rejected-row ratio per table (rejected rows over
    /// rows scanned). Above it the table fails with
    /// [`StoreError::RejectRatio`] (or is quarantined under
    /// [`LoadOptions::degraded`]) — a few mangled lines in a 2000-day
    /// archive are expected, but a table that is 5% garbage points at a
    /// corrupted export, not line noise.
    ///
    /// The boundary semantics are pinned by regression tests: `0.0`
    /// means *no rejects tolerated* (a single damaged row trips the
    /// ceiling — it does **not** disable the check), a table whose ratio
    /// lands exactly on the ceiling still loads, and a `NaN` ceiling is
    /// treated as `0.0` rather than silently disabling the guard.
    pub max_reject_ratio: f64,
    /// Quarantine a table that cannot be loaded — missing file,
    /// persistent I/O failure, unusable header, or reject ceiling
    /// exceeded — instead of failing the whole load. The table comes
    /// back empty, the [`LoadReport`] records the reason, and
    /// [`LoadReport::availability`] tells the analysis layer which
    /// sources it may trust.
    pub degraded: bool,
}

impl LoadOptions {
    /// The reject ceiling both loaders enforce: `max_reject_ratio`, with
    /// a `NaN` clamped to zero tolerance. A NaN must not disable the
    /// guard: `ratio > NaN` is always false, which would wave every
    /// table or segment through.
    pub(crate) fn reject_ceiling(&self) -> f64 {
        if self.max_reject_ratio.is_nan() {
            0.0
        } else {
            self.max_reject_ratio
        }
    }
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            max_reject_ratio: 0.01,
            degraded: false,
        }
    }
}

/// Why a table was dropped from a degraded load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The table file does not exist.
    Missing,
    /// I/O failures persisted through every retry.
    Io,
    /// The header row is absent or does not belong to this table.
    Header,
    /// The reject ratio exceeded [`LoadOptions::max_reject_ratio`].
    RejectRatio,
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuarantineReason::Missing => "missing file",
            QuarantineReason::Io => "persistent i/o failure",
            QuarantineReason::Header => "unusable header",
            QuarantineReason::RejectRatio => "reject ceiling exceeded",
        })
    }
}

/// Whether a table made it into the dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableStatus {
    /// The table loaded (possibly with skipped rows — see the counts).
    Loaded,
    /// The table was dropped; the dataset holds no rows for it.
    Quarantined(QuarantineReason),
}

/// Per-table outcome of a load.
#[derive(Debug, Clone, PartialEq)]
pub struct TableLoadStats {
    /// Table (file stem) the stats describe.
    pub table: &'static str,
    /// Whether the table loaded or was quarantined.
    pub status: TableStatus,
    /// Rows decoded successfully.
    pub rows: usize,
    /// Rows rejected by the CSV layer (structural damage).
    pub rejected_csv: usize,
    /// Rows rejected by schema decoding (bad field values).
    pub rejected_schema: usize,
    /// Re-scan attempts consumed by transient I/O failures.
    pub retries: u32,
    /// First schema rejection, kept for diagnostics.
    pub first_schema_error: Option<SchemaError>,
}

impl TableLoadStats {
    /// Total rejected rows across both layers.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected_csv + self.rejected_schema
    }

    /// Rejected fraction of all scanned rows (0 for an empty table).
    #[must_use]
    pub fn reject_ratio(&self) -> f64 {
        let scanned = self.rows + self.rejected();
        if scanned == 0 {
            0.0
        } else {
            self.rejected() as f64 / scanned as f64
        }
    }

    /// `true` when the table was dropped rather than loaded.
    #[must_use]
    pub fn is_quarantined(&self) -> bool {
        matches!(self.status, TableStatus::Quarantined(_))
    }
}

/// Which of the four log sources a load actually delivered.
///
/// A table is *available* when it loaded (even with zero rows — an empty
/// table is data, a quarantined one is absence). The analysis layer uses
/// this to mark stages whose inputs are missing as degraded instead of
/// silently reporting zeros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourceAvailability {
    /// `jobs.csv` loaded.
    pub jobs: bool,
    /// `ras.csv` loaded.
    pub ras: bool,
    /// `tasks.csv` loaded.
    pub tasks: bool,
    /// `io.csv` loaded.
    pub io: bool,
}

impl SourceAvailability {
    /// Every source present — what a strict load guarantees.
    pub const ALL: SourceAvailability = SourceAvailability {
        jobs: true,
        ras: true,
        tasks: true,
        io: true,
    };

    /// Availability of a table by name (unknown names count as present).
    #[must_use]
    pub fn available(&self, table: &str) -> bool {
        match table {
            "jobs" => self.jobs,
            "ras" => self.ras,
            "tasks" => self.tasks,
            "io" => self.io,
            _ => true,
        }
    }

    /// `true` when every source is present.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.jobs && self.ras && self.tasks && self.io
    }

    /// The unavailable tables, in canonical order.
    #[must_use]
    pub fn missing(&self) -> Vec<&'static str> {
        [
            ("jobs", self.jobs),
            ("ras", self.ras),
            ("tasks", self.tasks),
            ("io", self.io),
        ]
        .into_iter()
        .filter_map(|(name, ok)| (!ok).then_some(name))
        .collect()
    }
}

impl Default for SourceAvailability {
    fn default() -> Self {
        SourceAvailability::ALL
    }
}

/// What a load accepted, rejected, and quarantined, per table
/// — the run manifest surfaces these totals as provenance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoadReport {
    /// One entry per table, in load order (jobs, ras, tasks, io). A
    /// snapshot load that decodes only some tables
    /// ([`crate::snapshot::read_tables_with`]) has no entry for the
    /// others unless the manifest marks them unavailable.
    pub tables: Vec<TableLoadStats>,
}

impl LoadReport {
    /// Total rejected rows across every table.
    #[must_use]
    pub fn total_rejected(&self) -> usize {
        self.tables.iter().map(TableLoadStats::rejected).sum()
    }

    /// The quarantined tables, in load order.
    #[must_use]
    pub fn quarantined(&self) -> Vec<&TableLoadStats> {
        self.tables.iter().filter(|t| t.is_quarantined()).collect()
    }

    /// `true` when any table was quarantined.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.tables.iter().any(TableLoadStats::is_quarantined)
    }

    /// Which sources the load delivered (quarantined tables are absent;
    /// a table with no entry counts as present).
    #[must_use]
    pub fn availability(&self) -> SourceAvailability {
        let mut avail = SourceAvailability::ALL;
        for t in &self.tables {
            if t.is_quarantined() {
                match t.table {
                    "jobs" => avail.jobs = false,
                    "ras" => avail.ras = false,
                    "tasks" => avail.tasks = false,
                    "io" => avail.io = false,
                    _ => {}
                }
            }
        }
        avail
    }

    /// Stats for one table by name.
    #[must_use]
    pub fn table(&self, name: &str) -> Option<&TableLoadStats> {
        self.tables.iter().find(|t| t.table == name)
    }
}

/// Where table files come from.
///
/// The production implementation is [`DirSource`] (`<dir>/<table>.csv`);
/// the chaos harness substitutes a fault-injecting source to exercise
/// the retry and quarantine paths without touching the filesystem.
pub trait TableSource {
    /// Opens the named table (`jobs` → `jobs.csv`) for buffered reading.
    ///
    /// # Errors
    ///
    /// Forwards the underlying open failure; `NotFound` marks the table
    /// as missing (never retried), anything else is treated as possibly
    /// transient.
    fn open_table(&self, table: &'static str) -> io::Result<Box<dyn BufRead + '_>>;

    /// Human-readable origin of the table, for error messages.
    fn describe(&self, table: &'static str) -> String;
}

/// The standard on-disk source: `<dir>/<table>.csv`.
#[derive(Debug, Clone)]
pub struct DirSource {
    dir: std::path::PathBuf,
}

impl DirSource {
    /// A source rooted at `dir`.
    #[must_use]
    pub fn new(dir: &Path) -> Self {
        DirSource {
            dir: dir.to_path_buf(),
        }
    }
}

impl TableSource for DirSource {
    fn open_table(&self, table: &'static str) -> io::Result<Box<dyn BufRead + '_>> {
        let file = File::open(table_path(&self.dir, table))?;
        Ok(Box::new(BufReader::new(file)))
    }

    fn describe(&self, table: &'static str) -> String {
        table_path(&self.dir, table).display().to_string()
    }
}

impl From<SchemaError> for StoreError {
    fn from(e: SchemaError) -> Self {
        StoreError::Schema(e)
    }
}

impl Dataset {
    /// Creates an empty dataset.
    pub fn new() -> Self {
        Dataset::default()
    }

    /// Sorts every table into its canonical order (jobs and tasks by start
    /// time then id, RAS by time then record id, I/O by job id).
    pub fn normalize(&mut self) {
        self.jobs.sort_by_key(|j| (j.started_at, j.job_id));
        self.ras.sort_by_key(|r| (r.event_time, r.rec_id));
        self.tasks.sort_by_key(|t| (t.started_at, t.task_id));
        self.io.sort_by_key(|r| r.job_id);
    }

    /// Writes the four tables as `jobs.csv`, `ras.csv`, `tasks.csv`,
    /// `io.csv` under `dir` (created if needed).
    ///
    /// Equivalent to [`Dataset::save_dir_with`] with every source
    /// available — only correct for a dataset that actually holds all
    /// four tables. After a **degraded** load, pass the report's
    /// [`LoadReport::availability`] to `save_dir_with` instead, or the
    /// quarantined tables are silently persisted as empty-but-valid
    /// files and the quarantine provenance is lost on the next load.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on any filesystem or encoding failure.
    pub fn save_dir(&self, dir: &Path) -> Result<(), StoreError> {
        self.save_dir_with(dir, &SourceAvailability::ALL)
    }

    /// Availability-aware save: writes only the tables `avail` marks
    /// present and **removes** the files of absent ones, so a reload
    /// re-quarantines them as missing instead of seeing a clean empty
    /// table.
    ///
    /// This is the persistence half of the quarantine contract: a
    /// degraded load's [`LoadReport::availability`] round-trips through
    /// disk instead of being erased by the save.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on any filesystem or encoding failure.
    pub fn save_dir_with(&self, dir: &Path, avail: &SourceAvailability) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir).map_err(|source| StoreError::Io {
            path: dir.display().to_string(),
            source,
        })?;
        save_table_available(dir, &self.jobs, avail)?;
        save_table_available(dir, &self.ras, avail)?;
        save_table_available(dir, &self.tasks, avail)?;
        save_table_available(dir, &self.io, avail)?;
        Ok(())
    }

    /// Loads a dataset previously written by [`Dataset::save_dir`] at
    /// zero tolerance: [`Dataset::load_dir_with`] with no damaged row
    /// allowed and no table quarantined.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on a missing file, an unusable header, an
    /// I/O failure that outlasts [`MAX_RETRIES`] re-scans, or any damaged
    /// row ([`StoreError::RejectRatio`]).
    pub fn load_dir(dir: &Path) -> Result<Self, StoreError> {
        let opts = LoadOptions {
            max_reject_ratio: 0.0,
            degraded: false,
        };
        Self::load_dir_with(dir, &opts).map(|(ds, _)| ds)
    }

    /// Loads a dataset: damaged rows are counted and skipped instead of
    /// failing the whole load, up to `opts.max_reject_ratio` per table;
    /// transient I/O failures are retried (up to [`MAX_RETRIES`]
    /// re-scans per table); and under `opts.degraded` an unloadable
    /// table is quarantined instead of failing the load.
    ///
    /// The result is always in canonical order ([`Dataset::normalize`])
    /// regardless of the row order on disk: the persistence boundary
    /// pins the order contract, so a dataset saved before normalization
    /// and one saved after load identically.
    ///
    /// Every accepted and rejected row is also recorded in the bgq-obs
    /// collector (`store.rows` / `store.rejected` / `store.quarantined`,
    /// labeled by table), so run manifests carry the totals as
    /// provenance.
    ///
    /// # Errors
    ///
    /// With `opts.degraded` unset, returns [`StoreError`] on missing
    /// files, persistent I/O failures, a header mismatch (the file is
    /// the wrong table), or a table whose reject ratio exceeds the
    /// configured ceiling. With it set, those conditions quarantine the
    /// table instead and the load succeeds with a degraded report.
    pub fn load_dir_with(dir: &Path, opts: &LoadOptions) -> Result<(Self, LoadReport), StoreError> {
        Self::load_source_with(&DirSource::new(dir), opts)
    }

    /// [`Dataset::load_dir_with`] over an arbitrary [`TableSource`] —
    /// the seam the chaos harness uses to inject I/O faults under the
    /// scanner.
    ///
    /// # Errors
    ///
    /// Same contract as [`Dataset::load_dir_with`].
    pub fn load_source_with(
        source: &dyn TableSource,
        opts: &LoadOptions,
    ) -> Result<(Self, LoadReport), StoreError> {
        let mut report = LoadReport::default();
        let mut ds = Dataset {
            jobs: load_table(source, opts, &mut report)?,
            ras: load_table(source, opts, &mut report)?,
            tasks: load_table(source, opts, &mut report)?,
            io: load_table(source, opts, &mut report)?,
        };
        ds.normalize();
        Ok((ds, report))
    }

    /// Total records across all four tables.
    pub fn total_records(&self) -> usize {
        self.jobs.len() + self.ras.len() + self.tasks.len() + self.io.len()
    }
}

fn table_path(dir: &Path, table: &str) -> std::path::PathBuf {
    dir.join(format!("{table}.csv"))
}

/// Writes one table when `avail` marks it present; otherwise removes
/// any stale file so a reload sees absence, not a clean empty table.
fn save_table_available<R: Record>(
    dir: &Path,
    rows: &[R],
    avail: &SourceAvailability,
) -> Result<(), StoreError> {
    if avail.available(R::TABLE) {
        return save_table(dir, rows);
    }
    let path = table_path(dir, R::TABLE);
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(source) => Err(StoreError::Io {
            path: path.display().to_string(),
            source,
        }),
    }
}

fn save_table<R: Record>(dir: &Path, rows: &[R]) -> Result<(), StoreError> {
    let path = table_path(dir, R::TABLE);
    let file = File::create(&path).map_err(|source| StoreError::Io {
        path: path.display().to_string(),
        source,
    })?;
    let mut w = BufWriter::new(file);
    let wrap = |source: CsvError| StoreError::Csv {
        table: R::TABLE,
        source,
    };
    write_record(&mut w, R::HEADER).map_err(wrap)?;
    for row in rows {
        write_record(&mut w, &row.encode()).map_err(wrap)?;
    }
    w.flush().map_err(|source| StoreError::Io {
        path: path.display().to_string(),
        source,
    })?;
    Ok(())
}

/// The header-level error for a table with no header row at all.
fn missing_header<R: Record>() -> SchemaError {
    SchemaError {
        table: R::TABLE,
        field: "header",
        value: None,
        kind: SchemaErrorKind::Header,
    }
}

/// Resolves the [`ColumnMap`] from a scanned header record.
fn resolve_header<R: Record>(header: crate::csv::RecordView<'_>) -> Result<ColumnMap, SchemaError> {
    let names: Vec<&str> = header.iter().collect();
    ColumnMap::resolve::<R>(&names)
}

/// Publishes the per-table ingest histograms for one completed scan:
/// the accepted-row payload-size distribution and the rejected-row rate
/// in permille.
fn publish_table_hists<R: Record>(row_bytes: &bgq_obs::Histogram, rejected: usize) {
    bgq_obs::hist_merge("store.row_bytes", R::TABLE, row_bytes);
    let scanned = row_bytes.count() + rejected as u64;
    if let Some(permille) = (rejected as u64 * 1000).checked_div(scanned) {
        bgq_obs::hist_record_labeled("store.reject_permille", R::TABLE, permille);
    }
}

/// One complete scan of a table through a [`TableSource`].
struct ScanOutcome<R> {
    records: Vec<R>,
    rejected_csv: usize,
    rejected_schema: usize,
    first_schema_error: Option<SchemaError>,
    /// Unescaped payload bytes of each accepted row. Published as
    /// `store.row_bytes{table}` by the *successful* load only, so retried
    /// scans never double-count.
    row_bytes: bgq_obs::Histogram,
}

/// Why a single scan attempt did not produce an outcome.
enum ScanFailure {
    /// The table file does not exist (`NotFound` on open) — never
    /// retried: absence is a state, not a glitch.
    Missing(io::Error),
    /// The table could not be opened for another reason — possibly
    /// transient, so eligible for retry.
    Open(io::Error),
    /// The reader failed mid-scan — possibly transient, so eligible for
    /// retry (the whole table is re-scanned from scratch).
    Read(CsvError),
    /// The header row is absent or belongs to another table.
    Header(SchemaError),
}

/// One scan attempt: open the table through `source`, resolve the
/// header, stream-decode every record. Damaged rows (structural CSV
/// damage or schema failures) are counted and skipped; malformed lines
/// *before* the header are counted as CSV rejects and the first clean
/// record is taken as the header.
fn scan_table<R: Record>(source: &dyn TableSource) -> Result<ScanOutcome<R>, ScanFailure> {
    let reader = source.open_table(R::TABLE).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            ScanFailure::Missing(e)
        } else {
            ScanFailure::Open(e)
        }
    })?;
    let mut scanner = CsvScanner::new(reader);
    let mut rejected_csv = 0usize;
    let cols = loop {
        match scanner.read_record() {
            Ok(Some(header)) => match resolve_header::<R>(header) {
                Ok(cols) => break cols,
                Err(e) => return Err(ScanFailure::Header(e)),
            },
            Ok(None) => return Err(ScanFailure::Header(missing_header::<R>())),
            Err(CsvError::Malformed { .. }) => rejected_csv += 1,
            Err(e @ CsvError::Io(_)) => return Err(ScanFailure::Read(e)),
        }
    };
    let mut records = Vec::new();
    let mut rejected_schema = 0usize;
    let mut first_schema_error = None;
    let mut row_bytes = bgq_obs::Histogram::new();
    loop {
        match scanner.read_record() {
            Ok(Some(view)) => match R::decode_fields(&view, &cols) {
                Ok(rec) => {
                    row_bytes.record(view.byte_len() as u64);
                    records.push(rec);
                }
                Err(e) => {
                    rejected_schema += 1;
                    first_schema_error.get_or_insert(e);
                }
            },
            Ok(None) => break,
            Err(CsvError::Malformed { .. }) => rejected_csv += 1,
            Err(e @ CsvError::Io(_)) => return Err(ScanFailure::Read(e)),
        }
    }
    Ok(ScanOutcome {
        records,
        rejected_csv,
        rejected_schema,
        first_schema_error,
        row_bytes,
    })
}

/// Records a quarantined table: empty stats (plus whatever counts the
/// failed scan produced), the reason, and the obs counter.
fn push_quarantined(report: &mut LoadReport, mut stats: TableLoadStats, reason: QuarantineReason) {
    stats.status = TableStatus::Quarantined(reason);
    bgq_obs::add_labeled("store.quarantined", stats.table, 1);
    bgq_obs::warn!("table {}: quarantined ({reason})", stats.table);
    report.tables.push(stats);
}

/// Per-table load: bounded retry on transient I/O failures,
/// reject-ceiling enforcement (NaN clamps to zero tolerance), and —
/// when `opts.degraded` — quarantine instead of failure.
fn load_table<R: Record>(
    source: &dyn TableSource,
    opts: &LoadOptions,
    report: &mut LoadReport,
) -> Result<Vec<R>, StoreError> {
    let mut retries = 0u32;
    let empty_stats = |retries| TableLoadStats {
        table: R::TABLE,
        status: TableStatus::Loaded,
        rows: 0,
        rejected_csv: 0,
        rejected_schema: 0,
        retries,
        first_schema_error: None,
    };
    let outcome = loop {
        let failure = match scan_table::<R>(source) {
            Ok(outcome) => break outcome,
            Err(f) => f,
        };
        if matches!(failure, ScanFailure::Open(_) | ScanFailure::Read(_)) && retries < MAX_RETRIES {
            retries += 1;
            bgq_obs::add_labeled("store.retries", R::TABLE, 1);
            bgq_obs::warn!(
                "table {}: transient i/o failure, retry {retries} of {MAX_RETRIES}",
                R::TABLE
            );
            continue;
        }
        let (reason, err) = match failure {
            ScanFailure::Missing(source_err) => (
                QuarantineReason::Missing,
                StoreError::Io {
                    path: source.describe(R::TABLE),
                    source: source_err,
                },
            ),
            ScanFailure::Open(source_err) => (
                QuarantineReason::Io,
                StoreError::Io {
                    path: source.describe(R::TABLE),
                    source: source_err,
                },
            ),
            ScanFailure::Read(source_err) => (
                QuarantineReason::Io,
                StoreError::Csv {
                    table: R::TABLE,
                    source: source_err,
                },
            ),
            ScanFailure::Header(e) => (QuarantineReason::Header, StoreError::Schema(e)),
        };
        if opts.degraded {
            push_quarantined(report, empty_stats(retries), reason);
            return Ok(Vec::new());
        }
        let mut stats = empty_stats(retries);
        stats.status = TableStatus::Quarantined(reason);
        report.tables.push(stats);
        return Err(err);
    };
    let mut stats = TableLoadStats {
        table: R::TABLE,
        status: TableStatus::Loaded,
        rows: outcome.records.len(),
        rejected_csv: outcome.rejected_csv,
        rejected_schema: outcome.rejected_schema,
        retries,
        first_schema_error: outcome.first_schema_error,
    };
    bgq_obs::add_labeled("store.rejected", R::TABLE, stats.rejected() as u64);
    publish_table_hists::<R>(&outcome.row_bytes, stats.rejected());
    if stats.rejected() > 0 {
        bgq_obs::warn!(
            "table {}: skipped {} damaged row(s) of {} ({}){}",
            R::TABLE,
            stats.rejected(),
            stats.rows + stats.rejected(),
            source.describe(R::TABLE),
            stats
                .first_schema_error
                .as_ref()
                .map(|e| format!("; first: {e}"))
                .unwrap_or_default(),
        );
    }
    let limit = opts.reject_ceiling();
    if stats.reject_ratio() > limit {
        if opts.degraded {
            push_quarantined(report, stats, QuarantineReason::RejectRatio);
            return Ok(Vec::new());
        }
        let err = StoreError::RejectRatio {
            table: R::TABLE,
            rejected: stats.rejected(),
            scanned: stats.rows + stats.rejected(),
            limit,
        };
        stats.status = TableStatus::Quarantined(QuarantineReason::RejectRatio);
        report.tables.push(stats);
        return Err(err);
    }
    bgq_obs::add_labeled("store.rows", R::TABLE, stats.rows as u64);
    report.tables.push(stats);
    Ok(outcome.records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_model::ids::{JobId, ProjectId, RecId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::{Category, Component, MsgId, Severity};
    use bgq_model::{Block, Location, Timestamp};

    fn job(id: u64, start: i64) -> JobRecord {
        JobRecord {
            job_id: JobId::new(id),
            user: UserId::new(1),
            project: ProjectId::new(1),
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
            severity: Severity::Info,
            category: Category::Process,
            component: Component::Cnk,
            event_time: Timestamp::from_secs(t),
            location: "R00-M0".parse::<Location>().unwrap(),
            message: "informational, nothing to see".into(),
            count: 1,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("bgq-logs-test-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(2, 200), job(1, 100)];
        ds.ras = vec![ras(2, 150), ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        let loaded = Dataset::load_dir(&dir).unwrap();
        assert_eq!(loaded, ds);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn normalize_orders_tables() {
        let mut ds = Dataset::new();
        ds.jobs = vec![job(2, 200), job(1, 100)];
        ds.ras = vec![ras(2, 150), ras(1, 50)];
        ds.normalize();
        assert_eq!(ds.jobs[0].job_id, JobId::new(1));
        assert_eq!(ds.ras[0].rec_id, RecId::new(1));
    }

    #[test]
    fn load_missing_dir_is_io_error() {
        let err = Dataset::load_dir(Path::new("/nonexistent/bgq-data")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
    }

    #[test]
    fn total_records_counts_all_tables() {
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50), ras(2, 60)];
        assert_eq!(ds.total_records(), 3);
    }

    /// Saves a small dataset, then corrupts one row of `jobs.csv`.
    fn corrupted_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bgq-logs-lenient-{tag}-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100), job(2, 200), job(3, 300)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        let path = dir.join("jobs.csv");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[2] = lines[2].replace("512", "not-a-number");
        std::fs::write(&path, lines.join("\n")).unwrap();
        dir
    }

    #[test]
    fn strict_load_rejects_corrupted_table() {
        let dir = corrupted_dir("strict");
        assert!(matches!(
            Dataset::load_dir(&dir).unwrap_err(),
            StoreError::RejectRatio {
                table: "jobs",
                rejected: 1,
                scanned: 3,
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_load_counts_and_skips_rejects() {
        let dir = corrupted_dir("lenient");
        let opts = LoadOptions {
            max_reject_ratio: 0.5,
            ..LoadOptions::default()
        };
        let (ds, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert_eq!(ds.jobs.len(), 2, "the damaged row is dropped");
        assert_eq!(ds.ras.len(), 1);
        let jobs_stats = &report.tables[0];
        assert_eq!(jobs_stats.table, "jobs");
        assert_eq!(jobs_stats.rejected_schema, 1);
        assert_eq!(jobs_stats.rejected_csv, 0);
        assert_eq!(
            jobs_stats.first_schema_error.as_ref().unwrap().field,
            "nodes"
        );
        assert!((jobs_stats.reject_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.total_rejected(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_load_enforces_reject_ceiling() {
        let dir = corrupted_dir("ceiling");
        // One of three rows damaged (33%) exceeds the default 1% ceiling.
        let err = Dataset::load_dir_with(&dir, &LoadOptions::default()).unwrap_err();
        match err {
            StoreError::RejectRatio {
                table,
                rejected,
                scanned,
                ..
            } => {
                assert_eq!(table, "jobs");
                assert_eq!(rejected, 1);
                assert_eq!(scanned, 3);
            }
            other => panic!("expected RejectRatio, got {other}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_ceiling_means_zero_tolerance() {
        // Regression pin for the boundary semantics: max_reject_ratio =
        // 0.0 means "no rejects tolerated", NOT "ceiling disabled".
        let dir = corrupted_dir("zero-ceiling");
        let opts = LoadOptions {
            max_reject_ratio: 0.0,
            ..LoadOptions::default()
        };
        let err = Dataset::load_dir_with(&dir, &opts).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::RejectRatio {
                    table: "jobs",
                    rejected: 1,
                    ..
                }
            ),
            "one damaged row must trip a zero ceiling, got: {err}"
        );
        // Under degraded mode the same ceiling quarantines instead.
        let opts = LoadOptions {
            max_reject_ratio: 0.0,
            degraded: true,
        };
        let (ds, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert!(ds.jobs.is_empty(), "quarantined table comes back empty");
        assert_eq!(ds.ras.len(), 1, "clean tables are unaffected");
        assert_eq!(
            report.table("jobs").unwrap().status,
            TableStatus::Quarantined(QuarantineReason::RejectRatio)
        );
        assert!(!report.availability().jobs);
        assert!(report.availability().ras);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ratio_exactly_at_ceiling_passes() {
        // 1 reject of 3 scanned = 1/3; a ceiling of exactly 1/3 admits it
        // (the check is strictly-greater-than).
        let dir = corrupted_dir("exact-ceiling");
        let opts = LoadOptions {
            max_reject_ratio: 1.0 / 3.0,
            ..LoadOptions::default()
        };
        let (ds, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert_eq!(ds.jobs.len(), 2);
        assert_eq!(report.table("jobs").unwrap().status, TableStatus::Loaded);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nan_ceiling_is_zero_tolerance_not_disabled() {
        // `ratio > NaN` is always false, which would silently disable
        // the guard; a NaN ceiling must clamp to zero tolerance.
        let dir = corrupted_dir("nan-ceiling");
        let opts = LoadOptions {
            max_reject_ratio: f64::NAN,
            ..LoadOptions::default()
        };
        let err = Dataset::load_dir_with(&dir, &opts).unwrap_err();
        assert!(
            matches!(err, StoreError::RejectRatio { table: "jobs", .. }),
            "NaN ceiling must reject the damaged table, got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_table_errors_strict_quarantines_degraded() {
        let dir =
            std::env::temp_dir().join(format!("bgq-logs-missing-table-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("ras.csv")).unwrap();
        let err = Dataset::load_dir_with(&dir, &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert_eq!(loaded.jobs.len(), 1);
        assert!(loaded.ras.is_empty());
        assert_eq!(
            report.table("ras").unwrap().status,
            TableStatus::Quarantined(QuarantineReason::Missing)
        );
        assert!(report.is_degraded());
        assert_eq!(report.availability().missing(), vec!["ras"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_header_quarantines_as_header() {
        let dir =
            std::env::temp_dir().join(format!("bgq-logs-wrong-header-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        // Overwrite io.csv with a file whose header belongs to no table,
        // and tasks.csv with a file that has no header row at all.
        std::fs::write(dir.join("io.csv"), "alpha,beta\n1,2\n").unwrap();
        std::fs::write(dir.join("tasks.csv"), "").unwrap();
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert!(loaded.io.is_empty());
        for table in ["io", "tasks"] {
            assert_eq!(
                report.table(table).unwrap().status,
                TableStatus::Quarantined(QuarantineReason::Header),
                "{table}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A [`TableSource`] whose readers fail with an injected error for
    /// the first `failures` opens of each table, then behave normally.
    struct FlakySource {
        inner: DirSource,
        failures: u32,
        opens: std::cell::RefCell<std::collections::HashMap<&'static str, u32>>,
    }

    impl FlakySource {
        fn new(dir: &Path, failures: u32) -> Self {
            FlakySource {
                inner: DirSource::new(dir),
                failures,
                opens: std::cell::RefCell::new(std::collections::HashMap::new()),
            }
        }
    }

    impl TableSource for FlakySource {
        fn open_table(&self, table: &'static str) -> io::Result<Box<dyn BufRead + '_>> {
            let mut opens = self.opens.borrow_mut();
            let n = opens.entry(table).or_insert(0);
            *n += 1;
            if *n <= self.failures {
                return Err(io::Error::other("injected transient failure"));
            }
            self.inner.open_table(table)
        }

        fn describe(&self, table: &'static str) -> String {
            format!("flaky:{}", self.inner.describe(table))
        }
    }

    #[test]
    fn transient_io_failure_is_retried_to_success() {
        let dir = std::env::temp_dir().join(format!("bgq-logs-transient-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        let source = FlakySource::new(&dir, 1);
        let (loaded, report) = Dataset::load_source_with(&source, &LoadOptions::default()).unwrap();
        assert_eq!(loaded, ds);
        for t in &report.tables {
            assert_eq!(t.status, TableStatus::Loaded);
            assert_eq!(t.retries, 1, "each table needed one retry");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_io_failure_quarantines_or_errors() {
        let dir = std::env::temp_dir().join(format!("bgq-logs-persistent-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        // More failures than retries: the table never loads.
        let source = FlakySource::new(&dir, u32::MAX);
        let err = Dataset::load_source_with(&source, &LoadOptions::default()).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        let source = FlakySource::new(&dir, u32::MAX);
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (loaded, report) = Dataset::load_source_with(&source, &opts).unwrap();
        assert!(loaded.jobs.is_empty());
        for t in &report.tables {
            assert_eq!(t.status, TableStatus::Quarantined(QuarantineReason::Io));
            assert_eq!(t.retries, MAX_RETRIES);
        }
        assert!(!report.availability().is_complete());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_normalizes_unsorted_input() {
        // Regression pin: `load_dir` used to return rows in file order,
        // so a dataset saved before normalization round-tripped in a
        // different order than one saved after, and order-sensitive
        // consumers (index fingerprints, golden manifests) diverged.
        let dir = std::env::temp_dir().join(format!("bgq-logs-unsorted-{}", std::process::id()));
        let mut ds = Dataset::new();
        // Deliberately unsorted: later rows first.
        ds.jobs = vec![job(2, 200), job(1, 100)];
        ds.ras = vec![ras(2, 150), ras(1, 50)];
        ds.save_dir(&dir).unwrap();
        let mut want = ds.clone();
        want.normalize();
        assert_ne!(ds, want, "the input really is out of order");
        let strict = Dataset::load_dir(&dir).unwrap();
        assert_eq!(strict, want, "strict load must normalize");
        let (lenient, _) = Dataset::load_dir_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(lenient, want, "resilient load must normalize");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn degraded_save_preserves_quarantine_provenance() {
        // Regression pin for the availability-aware save: persisting a
        // degraded dataset with plain `save_dir` writes the quarantined
        // table as an empty-but-valid CSV, so a reload reports it
        // Loaded-with-0-rows and the quarantine provenance is lost.
        // `save_dir_with(availability)` keeps the absence on disk.
        let dir =
            std::env::temp_dir().join(format!("bgq-logs-degraded-save-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        std::fs::remove_file(dir.join("ras.csv")).unwrap();
        let opts = LoadOptions {
            degraded: true,
            ..LoadOptions::default()
        };
        let (degraded, report) = Dataset::load_dir_with(&dir, &opts).unwrap();
        assert!(!report.availability().ras);

        // The pre-fix behavior (plain save_dir): provenance is erased.
        let lossy = dir.join("lossy");
        degraded.save_dir(&lossy).unwrap();
        let (_, relecture) = Dataset::load_dir_with(&lossy, &opts).unwrap();
        assert_eq!(
            relecture.table("ras").unwrap().status,
            TableStatus::Loaded,
            "plain save_dir launders the quarantine into a clean empty table"
        );

        // The fix: availability-aware save round-trips the quarantine.
        let kept = dir.join("kept");
        degraded
            .save_dir_with(&kept, &report.availability())
            .unwrap();
        assert!(
            !kept.join("ras.csv").exists(),
            "absent table is not written"
        );
        let (reloaded, rereport) = Dataset::load_dir_with(&kept, &opts).unwrap();
        assert_eq!(reloaded.jobs, degraded.jobs);
        assert_eq!(
            rereport.table("ras").unwrap().status,
            TableStatus::Quarantined(QuarantineReason::Missing)
        );
        assert_eq!(rereport.availability(), report.availability());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_dir_with_removes_stale_files_of_absent_tables() {
        let dir = std::env::temp_dir().join(format!("bgq-logs-stale-save-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        // First save writes everything; the second (without ras) must
        // remove the stale ras.csv rather than leave it behind.
        ds.save_dir(&dir).unwrap();
        assert!(dir.join("ras.csv").exists());
        let avail = SourceAvailability {
            ras: false,
            ..SourceAvailability::ALL
        };
        ds.save_dir_with(&dir, &avail).unwrap();
        assert!(!dir.join("ras.csv").exists());
        assert!(dir.join("jobs.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lenient_load_on_clean_data_matches_strict() {
        let dir =
            std::env::temp_dir().join(format!("bgq-logs-lenient-clean-{}", std::process::id()));
        let mut ds = Dataset::new();
        ds.jobs = vec![job(1, 100)];
        ds.ras = vec![ras(1, 50)];
        ds.normalize();
        ds.save_dir(&dir).unwrap();
        let strict = Dataset::load_dir(&dir).unwrap();
        let (lenient, report) = Dataset::load_dir_with(&dir, &LoadOptions::default()).unwrap();
        assert_eq!(strict, lenient);
        assert_eq!(report.total_rejected(), 0);
        assert_eq!(report.tables.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
