//! CSV field layouts for the four log record types.
//!
//! Each record maps to a flat row of strings; timestamps are stored as
//! epoch seconds for compactness (the [`bgq_model::time::Timestamp`] parser
//! accepts both forms).
//!
//! Decoding is column-mapped: a [`ColumnMap`] is resolved **once** per
//! table from the file's header row, and every row decode then reaches
//! each field by array index — no per-row header scan. Rows arrive as
//! borrowed [`RecordView`]s from the streaming scanner.

use std::fmt;

use bgq_model::{Block, IoRecord, JobId, JobRecord, MsgText, RasRecord, TaskRecord};

use crate::csv::RecordView;

/// What went wrong while decoding a row (or resolving a header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaErrorKind {
    /// The header row is missing, the wrong shape, or has duplicates.
    Header,
    /// The header names a column this table does not declare.
    UnknownColumn,
    /// A declared column is absent from the row (row too short).
    MissingField,
    /// A field was present but failed to parse.
    BadValue,
}

/// Error produced when decoding a CSV row into a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError {
    /// Which log the row belonged to.
    pub table: &'static str,
    /// The field (by header name) that failed to decode, or `"header"`
    /// for header-level errors.
    pub field: &'static str,
    /// The offending raw value, if one was present.
    pub value: Option<String>,
    /// Classification of the failure.
    pub kind: SchemaErrorKind,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SchemaErrorKind::Header => match &self.value {
                Some(v) => write!(f, "{}: bad header {:?}", self.table, v),
                None => write!(f, "{}: missing header", self.table),
            },
            SchemaErrorKind::UnknownColumn => match &self.value {
                Some(v) => write!(f, "{}: unknown column {:?}", self.table, v),
                None => write!(f, "{}: unknown column {}", self.table, self.field),
            },
            SchemaErrorKind::MissingField => {
                write!(f, "{}: missing field {}", self.table, self.field)
            }
            SchemaErrorKind::BadValue => write!(
                f,
                "{}: bad {} value {:?}",
                self.table,
                self.field,
                self.value.as_deref().unwrap_or("")
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Mapping from a table's declared column order to a file's actual
/// column order, resolved once per table from the header row.
///
/// The common case — the file header matches the declared header exactly
/// — costs nothing per lookup ([`ColumnMap::file_index`] is the identity).
/// A permuted header (same columns, different order) resolves to an index
/// table; anything else (missing, unknown, or duplicated columns) is a
/// header-level [`SchemaError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMap(MapRepr);

#[derive(Debug, Clone, PartialEq, Eq)]
enum MapRepr {
    /// File columns are exactly the declared columns, in order.
    Identity(usize),
    /// `map[decl]` is the file column holding declared column `decl`.
    Permuted(Box<[usize]>),
}

impl ColumnMap {
    /// Resolves the mapping for record type `R` from a file header row.
    ///
    /// # Errors
    ///
    /// Returns a [`SchemaError`] with kind
    /// [`SchemaErrorKind::UnknownColumn`] if the header names a column
    /// `R` does not declare, and kind [`SchemaErrorKind::Header`] if the
    /// header has the wrong number of columns or duplicates one.
    pub fn resolve<R: Record>(file_header: &[&str]) -> Result<Self, SchemaError> {
        let declared = R::HEADER;
        if file_header.len() == declared.len()
            && file_header.iter().zip(declared).all(|(f, d)| f == d)
        {
            return Ok(ColumnMap(MapRepr::Identity(declared.len())));
        }
        // Any column name we do not declare gets the distinct
        // "unknown column" error, not a generic header mismatch.
        for name in file_header {
            if !declared.contains(name) {
                return Err(SchemaError {
                    table: R::TABLE,
                    field: "header",
                    value: Some((*name).to_owned()),
                    kind: SchemaErrorKind::UnknownColumn,
                });
            }
        }
        let header_error = || SchemaError {
            table: R::TABLE,
            field: "header",
            value: Some(file_header.join(",")),
            kind: SchemaErrorKind::Header,
        };
        if file_header.len() != declared.len() {
            // All names are known, so the count is off (a duplicate or a
            // dropped column).
            return Err(header_error());
        }
        // Same names, same count, different order: build the permutation.
        let mut map = vec![usize::MAX; declared.len()];
        for (decl, name) in declared.iter().enumerate() {
            // Every declared name occurs (no unknown names + equal
            // lengths + no duplicates, checked below).
            let Some(idx) = file_header.iter().position(|h| h == name) else {
                return Err(header_error()); // a duplicate crowded it out
            };
            map[decl] = idx;
        }
        let mut seen = vec![false; map.len()];
        for &idx in &*map {
            if std::mem::replace(&mut seen[idx], true) {
                return Err(header_error());
            }
        }
        Ok(ColumnMap(MapRepr::Permuted(map.into_boxed_slice())))
    }

    /// File column holding declared column `decl` — a plain array index,
    /// resolved once at header time.
    #[inline]
    #[must_use]
    pub fn file_index(&self, decl: usize) -> usize {
        match &self.0 {
            MapRepr::Identity(_) => decl,
            MapRepr::Permuted(map) => map[decl],
        }
    }

    /// Number of mapped columns.
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.0 {
            MapRepr::Identity(len) => *len,
            MapRepr::Permuted(map) => map.len(),
        }
    }

    /// `true` for a zero-column map.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when file order equals declared order (the fast path).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        matches!(self.0, MapRepr::Identity(_))
    }
}

/// A log table that can round-trip through CSV rows.
pub trait Record: Sized {
    /// Stable table name (also the file stem on disk).
    const TABLE: &'static str;
    /// Column headers, in encode order.
    const HEADER: &'static [&'static str];

    /// Encodes to one CSV row (same order as [`Record::HEADER`]).
    fn encode(&self) -> Vec<String>;

    /// Decodes from one scanned row, using a [`ColumnMap`] resolved
    /// from the table's header.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] naming the first offending field.
    fn decode_fields(fields: &RecordView<'_>, cols: &ColumnMap) -> Result<Self, SchemaError>;
}

/// Field accessor bound to one row: every lookup is
/// `fields[cols.file_index(decl)]` — an array index, not a header scan.
struct Row<'a> {
    table: &'static str,
    header: &'static [&'static str],
    cols: &'a ColumnMap,
    fields: RecordView<'a>,
}

impl<'a> Row<'a> {
    fn get(&self, decl: usize, name: &'static str) -> Result<&'a str, SchemaError> {
        debug_assert_eq!(self.header[decl], name, "declared index out of sync");
        self.fields
            .get(self.cols.file_index(decl))
            .ok_or(SchemaError {
                table: self.table,
                field: name,
                value: None,
                kind: SchemaErrorKind::MissingField,
            })
    }

    fn parse<T: std::str::FromStr>(
        &self,
        decl: usize,
        name: &'static str,
    ) -> Result<T, SchemaError> {
        let raw = self.get(decl, name)?;
        raw.parse().map_err(|_| SchemaError {
            table: self.table,
            field: name,
            value: Some(raw.to_owned()),
            kind: SchemaErrorKind::BadValue,
        })
    }
}

fn row<'a, R: Record>(cols: &'a ColumnMap, fields: RecordView<'a>) -> Row<'a> {
    Row {
        table: R::TABLE,
        header: R::HEADER,
        cols,
        fields,
    }
}

impl Record for JobRecord {
    const TABLE: &'static str = "jobs";
    const HEADER: &'static [&'static str] = &[
        "job_id",
        "user",
        "project",
        "queue",
        "nodes",
        "mode",
        "requested_walltime_s",
        "queued_at",
        "started_at",
        "ended_at",
        "block",
        "exit_code",
        "num_tasks",
        "resubmit_of",
    ];

    fn encode(&self) -> Vec<String> {
        vec![
            self.job_id.raw().to_string(),
            self.user.raw().to_string(),
            self.project.raw().to_string(),
            self.queue.to_string(),
            self.nodes.to_string(),
            self.mode.to_string(),
            self.requested_walltime_s.to_string(),
            self.queued_at.as_secs().to_string(),
            self.started_at.as_secs().to_string(),
            self.ended_at.as_secs().to_string(),
            self.block.to_string(),
            self.exit_code.to_string(),
            self.num_tasks.to_string(),
            // Chain roots store 0 — job ids are 1-based, so 0 is never a
            // valid backreference and needs no separate sentinel column.
            self.resubmit_of.map_or(0, JobId::raw).to_string(),
        ]
    }

    fn decode_fields(fields: &RecordView<'_>, cols: &ColumnMap) -> Result<Self, SchemaError> {
        let r = row::<Self>(cols, *fields);
        let job_id: JobId = r.parse(0, "job_id")?;
        let resubmit_raw: u64 = r.parse(13, "resubmit_of")?;
        // A lineage link must point strictly backwards; a forward or
        // self reference is corruption, not a usable chain edge.
        if resubmit_raw >= job_id.raw() && resubmit_raw != 0 {
            return Err(SchemaError {
                table: Self::TABLE,
                field: "resubmit_of",
                value: Some(resubmit_raw.to_string()),
                kind: SchemaErrorKind::BadValue,
            });
        }
        Ok(JobRecord {
            job_id,
            user: r.parse(1, "user")?,
            project: r.parse(2, "project")?,
            queue: r.parse(3, "queue")?,
            nodes: r.parse(4, "nodes")?,
            mode: r.parse(5, "mode")?,
            requested_walltime_s: r.parse(6, "requested_walltime_s")?,
            queued_at: r.parse(7, "queued_at")?,
            started_at: r.parse(8, "started_at")?,
            ended_at: r.parse(9, "ended_at")?,
            block: r.parse::<Block>(10, "block")?,
            exit_code: r.parse(11, "exit_code")?,
            num_tasks: r.parse(12, "num_tasks")?,
            resubmit_of: (resubmit_raw != 0).then(|| JobId::new(resubmit_raw)),
        })
    }
}

impl Record for RasRecord {
    const TABLE: &'static str = "ras";
    const HEADER: &'static [&'static str] = &[
        "rec_id",
        "msg_id",
        "severity",
        "category",
        "component",
        "event_time",
        "location",
        "count",
        "message",
    ];

    fn encode(&self) -> Vec<String> {
        vec![
            self.rec_id.raw().to_string(),
            self.msg_id.to_string(),
            self.severity.to_string(),
            self.category.to_string(),
            self.component.to_string(),
            self.event_time.as_secs().to_string(),
            self.location.to_string(),
            self.count.to_string(),
            self.message.as_str().to_owned(),
        ]
    }

    fn decode_fields(fields: &RecordView<'_>, cols: &ColumnMap) -> Result<Self, SchemaError> {
        let r = row::<Self>(cols, *fields);
        Ok(RasRecord {
            rec_id: r.parse(0, "rec_id")?,
            msg_id: r.parse(1, "msg_id")?,
            severity: r.parse(2, "severity")?,
            category: r.parse(3, "category")?,
            component: r.parse(4, "component")?,
            event_time: r.parse(5, "event_time")?,
            location: r.parse(6, "location")?,
            count: r.parse(7, "count")?,
            // Interned straight from the borrowed field slice: no
            // intermediate String.
            message: MsgText::intern(r.get(8, "message")?),
        })
    }
}

impl Record for TaskRecord {
    const TABLE: &'static str = "tasks";
    const HEADER: &'static [&'static str] = &[
        "task_id", "job_id", "seq", "block", "started_at", "ended_at", "ranks", "exit_code",
    ];

    fn encode(&self) -> Vec<String> {
        vec![
            self.task_id.raw().to_string(),
            self.job_id.raw().to_string(),
            self.seq.to_string(),
            self.block.to_string(),
            self.started_at.as_secs().to_string(),
            self.ended_at.as_secs().to_string(),
            self.ranks.to_string(),
            self.exit_code.to_string(),
        ]
    }

    fn decode_fields(fields: &RecordView<'_>, cols: &ColumnMap) -> Result<Self, SchemaError> {
        let r = row::<Self>(cols, *fields);
        Ok(TaskRecord {
            task_id: r.parse(0, "task_id")?,
            job_id: r.parse(1, "job_id")?,
            seq: r.parse(2, "seq")?,
            block: r.parse(3, "block")?,
            started_at: r.parse(4, "started_at")?,
            ended_at: r.parse(5, "ended_at")?,
            ranks: r.parse(6, "ranks")?,
            exit_code: r.parse(7, "exit_code")?,
        })
    }
}

impl Record for IoRecord {
    const TABLE: &'static str = "io";
    const HEADER: &'static [&'static str] = &[
        "job_id",
        "bytes_read",
        "bytes_written",
        "files_read",
        "files_written",
        "io_time_s",
    ];

    fn encode(&self) -> Vec<String> {
        vec![
            self.job_id.raw().to_string(),
            self.bytes_read.to_string(),
            self.bytes_written.to_string(),
            self.files_read.to_string(),
            self.files_written.to_string(),
            // f64::to_string round-trips exactly (shortest representation).
            self.io_time_s.to_string(),
        ]
    }

    fn decode_fields(fields: &RecordView<'_>, cols: &ColumnMap) -> Result<Self, SchemaError> {
        let r = row::<Self>(cols, *fields);
        Ok(IoRecord {
            job_id: r.parse(0, "job_id")?,
            bytes_read: r.parse(1, "bytes_read")?,
            bytes_written: r.parse(2, "bytes_written")?,
            files_read: r.parse(3, "files_read")?,
            files_written: r.parse(4, "files_written")?,
            io_time_s: r.parse(5, "io_time_s")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{write_record, CsvScanner};
    use bgq_model::ids::{JobId, ProjectId, RecId, TaskId, UserId};
    use bgq_model::job::{Mode, Queue};
    use bgq_model::ras::{Category, Component, MsgId, Severity};
    use bgq_model::{Location, Timestamp};

    fn sample_job() -> JobRecord {
        JobRecord {
            job_id: JobId::new(42),
            user: UserId::new(7),
            project: ProjectId::new(3),
            queue: Queue::Capability,
            nodes: 8192,
            mode: Mode::new(32).unwrap(),
            requested_walltime_s: 21_600,
            queued_at: Timestamp::from_secs(1_400_000_000),
            started_at: Timestamp::from_secs(1_400_003_600),
            ended_at: Timestamp::from_secs(1_400_010_000),
            block: Block::new(16, 16).unwrap(),
            exit_code: 139,
            num_tasks: 3,
            resubmit_of: None,
        }
    }

    fn sample_ras() -> RasRecord {
        RasRecord {
            rec_id: RecId::new(9),
            msg_id: MsgId::new(0x0008_0015),
            severity: Severity::Fatal,
            category: Category::Ddr,
            component: Component::Mc,
            event_time: Timestamp::from_secs(1_400_000_123),
            location: "R11-M1-N07-J12".parse::<Location>().unwrap(),
            message: "DDR correctable error threshold exceeded, rank=3, \"bank 2\"".into(),
            count: 4,
        }
    }

    /// Decodes `rows` under `header` the way a directory load does: both
    /// written with `write_record`, scanned with `CsvScanner`, the header
    /// resolved to a `ColumnMap`, and each row through `decode_fields`.
    fn decode_csv<R: Record>(header: &[&str], rows: &[Vec<String>]) -> Result<Vec<R>, SchemaError> {
        let mut buf = Vec::new();
        write_record(&mut buf, header).unwrap();
        for row in rows {
            write_record(&mut buf, row).unwrap();
        }
        let mut scanner = CsvScanner::new(&buf[..]);
        let names = scanner.read_record().unwrap().unwrap().to_vec();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let cols = ColumnMap::resolve::<R>(&names)?;
        let mut out = Vec::new();
        while let Some(view) = scanner.read_record().unwrap() {
            out.push(R::decode_fields(&view, &cols)?);
        }
        Ok(out)
    }

    /// Decodes one row under the declared header.
    fn decode_row<R: Record>(row: Vec<String>) -> Result<R, SchemaError> {
        decode_csv::<R>(R::HEADER, &[row]).map(|mut records| records.remove(0))
    }

    #[test]
    fn all_four_tables_roundtrip_through_the_scanner() {
        let j = sample_job();
        assert_eq!(decode_row::<JobRecord>(j.encode()).unwrap(), j);
        // The message holds commas and quotes.
        let r = sample_ras();
        assert_eq!(decode_row::<RasRecord>(r.encode()).unwrap(), r);
        let t = TaskRecord {
            task_id: TaskId::new(1),
            job_id: JobId::new(42),
            seq: 0,
            block: Block::new(0, 1).unwrap(),
            started_at: Timestamp::from_secs(100),
            ended_at: Timestamp::from_secs(200),
            ranks: 512,
            exit_code: 0,
        };
        assert_eq!(decode_row::<TaskRecord>(t.encode()).unwrap(), t);
        let io = IoRecord {
            job_id: JobId::new(42),
            bytes_read: 1 << 40,
            bytes_written: 123,
            files_read: 9,
            files_written: 2,
            io_time_s: 55.125,
        };
        assert_eq!(decode_row::<IoRecord>(io.encode()).unwrap(), io);
    }

    #[test]
    fn job_roundtrip_with_lineage() {
        let mut j = sample_job();
        j.resubmit_of = Some(JobId::new(17));
        let row = j.encode();
        assert_eq!(row.last().map(String::as_str), Some("17"));
        assert_eq!(decode_row::<JobRecord>(row).unwrap(), j);
    }

    #[test]
    fn forward_or_self_lineage_is_rejected() {
        for bad in ["42", "43"] {
            let mut row = sample_job().encode();
            *row.last_mut().unwrap() = bad.to_owned();
            let err = decode_row::<JobRecord>(row).unwrap_err();
            assert_eq!(err.field, "resubmit_of");
            assert_eq!(err.kind, SchemaErrorKind::BadValue);
            assert_eq!(err.value.as_deref(), Some(bad));
        }
    }

    #[test]
    fn decode_reports_field_and_value() {
        let mut row = sample_job().encode();
        row[4] = "not-a-number".to_owned();
        let err = decode_row::<JobRecord>(row).unwrap_err();
        assert_eq!(err.field, "nodes");
        assert_eq!(err.value.as_deref(), Some("not-a-number"));
        assert_eq!(err.kind, SchemaErrorKind::BadValue);
        assert!(err.to_string().contains("jobs"));
    }

    #[test]
    fn decode_reports_missing_fields() {
        let err = decode_row::<JobRecord>(vec!["1".to_owned()]).unwrap_err();
        assert!(err.value.is_none());
        assert_eq!(err.kind, SchemaErrorKind::MissingField);
        assert!(err.to_string().contains("missing field"));
    }

    #[test]
    fn header_row_is_checked() {
        let j = sample_job();
        assert_eq!(
            decode_csv::<JobRecord>(JobRecord::HEADER, &[j.encode()]).unwrap(),
            vec![j]
        );
        assert!(decode_csv::<JobRecord>(&["nope"], &[]).is_err());
    }

    // -- ColumnMap --------------------------------------------------------

    #[test]
    fn column_map_identity_on_exact_header() {
        let header: Vec<&str> = JobRecord::HEADER.to_vec();
        let cols = ColumnMap::resolve::<JobRecord>(&header).unwrap();
        assert!(cols.is_identity());
        assert_eq!(cols.len(), JobRecord::HEADER.len());
        assert_eq!(cols.file_index(4), 4);
    }

    #[test]
    fn column_map_routes_permuted_headers() {
        // Reverse the declared order: still the same table, so the
        // resolved map must route every field home.
        let mut header: Vec<&str> = TaskRecord::HEADER.to_vec();
        header.reverse();
        let cols = ColumnMap::resolve::<TaskRecord>(&header).unwrap();
        assert!(!cols.is_identity());
        let last = TaskRecord::HEADER.len() - 1;
        assert_eq!(cols.file_index(0), last);
        assert_eq!(cols.file_index(last), 0);
    }

    #[test]
    fn permuted_header_decodes_every_field() {
        let t = sample_job();
        let mut header = JobRecord::HEADER.to_vec();
        let mut row = t.encode();
        header.swap(0, 1);
        row.swap(0, 1);
        assert_eq!(decode_csv::<JobRecord>(&header, &[row]).unwrap(), vec![t]);
    }

    #[test]
    fn unknown_column_gets_a_distinct_error() {
        // A header with a name the table does not declare used to fall
        // through to a "missing field" error via a usize::MAX lookup;
        // it must be reported as an unknown column.
        let mut header: Vec<&str> = JobRecord::HEADER.to_vec();
        header[1] = "userz";
        let err = decode_csv::<JobRecord>(&header, &[]).unwrap_err();
        assert_eq!(err.kind, SchemaErrorKind::UnknownColumn);
        assert_eq!(err.value.as_deref(), Some("userz"));
        assert!(err.to_string().contains("unknown column"));
    }

    #[test]
    fn duplicate_and_short_headers_are_header_errors() {
        let mut dup: Vec<&str> = IoRecord::HEADER.to_vec();
        dup[1] = dup[0];
        assert_eq!(
            decode_csv::<IoRecord>(&dup, &[]).unwrap_err().kind,
            SchemaErrorKind::Header
        );
        let short: Vec<&str> = IoRecord::HEADER[..3].to_vec();
        assert_eq!(
            decode_csv::<IoRecord>(&short, &[]).unwrap_err().kind,
            SchemaErrorKind::Header
        );
    }
}
