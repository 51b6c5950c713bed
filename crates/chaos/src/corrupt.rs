//! The byte-level corruption engine.
//!
//! Every mode is *outcome-predicting*: it does not just damage bytes, it
//! records — in the returned [`TableLedger`] — exactly what the
//! ingestion pipeline must do with every original row (keep it, lose it,
//! reject it at the CSV layer, reject it at schema decode, or keep it
//! with shifted timestamps). The chaos corpus asserts the pipeline's
//! accounting against this ledger to the row.
//!
//! Mode mechanics rest on three properties of the CSV layer:
//!
//! * Records are isolated by newlines and quote *parity*; corruption
//!   that touches neither newlines nor quote bytes damages exactly one
//!   record.
//! * Setting the high bit of one ASCII byte always produces invalid
//!   UTF-8 (a lone continuation byte, or a lead byte followed by ASCII),
//!   which rejects that record and only that record.
//! * An unbalanced opening quote swallows everything to end-of-file, so
//!   truncating inside a quoted field rejects the victim and removes all
//!   rows after it; spliced garbage must therefore be quote-balanced to
//!   leave its neighbors alive.

use std::fs;
use std::io;
use std::path::Path;

use crate::rng::SplitMix64;

/// The four tables of an on-disk dataset, in load order.
pub const TABLES: [&str; 4] = ["jobs", "ras", "tasks", "io"];

/// Every way the engine can damage a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CorruptionMode {
    /// Cut the file at a record boundary: clean loss of a tail.
    TruncateAtRecord,
    /// Cut inside an unquoted record: the victim decodes short
    /// (schema reject), everything after it is gone.
    TruncateMidRecord,
    /// Cut inside a quoted field: the victim becomes an unterminated
    /// quote swallowing the rest of the file (CSV reject).
    TruncateMidQuote,
    /// Set the high bit of one safe ASCII byte in a few records:
    /// invalid UTF-8, each victim rejected at the CSV layer alone.
    BitRot,
    /// Remove a few records cleanly.
    DropRecords,
    /// Write a few records twice.
    DuplicateRecords,
    /// Permute the record order.
    ShuffleRecords,
    /// Insert quote-balanced garbage lines between records; originals
    /// all survive, the garbage is rejected.
    SpliceGarbage,
    /// Shift every timestamp field of a few records by one uniform
    /// delta; the rows stay valid but move in time.
    ScrambleTimestamps,
    /// Delete the whole table file.
    DeleteTable,
}

/// All modes, in a fixed order the corpus indexes by seed.
pub const ALL_MODES: [CorruptionMode; 10] = [
    CorruptionMode::TruncateAtRecord,
    CorruptionMode::TruncateMidRecord,
    CorruptionMode::TruncateMidQuote,
    CorruptionMode::BitRot,
    CorruptionMode::DropRecords,
    CorruptionMode::DuplicateRecords,
    CorruptionMode::ShuffleRecords,
    CorruptionMode::SpliceGarbage,
    CorruptionMode::ScrambleTimestamps,
    CorruptionMode::DeleteTable,
];

impl CorruptionMode {
    /// Stable lowercase name, used in ledger dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CorruptionMode::TruncateAtRecord => "truncate_at_record",
            CorruptionMode::TruncateMidRecord => "truncate_mid_record",
            CorruptionMode::TruncateMidQuote => "truncate_mid_quote",
            CorruptionMode::BitRot => "bit_rot",
            CorruptionMode::DropRecords => "drop_records",
            CorruptionMode::DuplicateRecords => "duplicate_records",
            CorruptionMode::ShuffleRecords => "shuffle_records",
            CorruptionMode::SpliceGarbage => "splice_garbage",
            CorruptionMode::ScrambleTimestamps => "scramble_timestamps",
            CorruptionMode::DeleteTable => "delete_table",
        }
    }
}

/// What must happen to one original data row after corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowFate {
    /// Survives byte-identical (possibly reordered or duplicated — see
    /// [`TableLedger::survivors`]).
    Kept,
    /// No longer present in the file at all.
    Removed,
    /// Present but structurally damaged: the CSV layer rejects it.
    RejectedCsv,
    /// Present and well-formed CSV, but schema decode rejects it.
    RejectedSchema,
    /// Survives with every timestamp field shifted by `delta_s` seconds.
    TimeShifted {
        /// The uniform shift applied, in seconds.
        delta_s: i64,
    },
}

impl RowFate {
    fn json(self) -> String {
        match self {
            RowFate::Kept => "\"kept\"".to_owned(),
            RowFate::Removed => "\"removed\"".to_owned(),
            RowFate::RejectedCsv => "\"rejected_csv\"".to_owned(),
            RowFate::RejectedSchema => "\"rejected_schema\"".to_owned(),
            RowFate::TimeShifted { delta_s } => format!("\"time_shifted({delta_s})\""),
        }
    }
}

/// The engine's exact prediction for one corrupted table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableLedger {
    /// Table (file stem) corrupted.
    pub table: &'static str,
    /// Mode applied.
    pub mode: CorruptionMode,
    /// Seed the mode drew its choices from.
    pub seed: u64,
    /// Original data rows (header excluded).
    pub rows: usize,
    /// Fate of every original row, by original index.
    pub fates: Vec<RowFate>,
    /// Original-row indices of the rows that must decode successfully,
    /// in file order. Duplicated rows appear twice; time-shifted rows
    /// appear with their shift applied.
    pub survivors: Vec<usize>,
    /// Spliced garbage lines the CSV layer must reject.
    pub extra_csv_rejects: usize,
    /// Spliced garbage lines schema decode must reject.
    pub extra_schema_rejects: usize,
    /// The whole file was deleted.
    pub deleted: bool,
}

impl TableLedger {
    fn clean(table: &'static str, mode: CorruptionMode, seed: u64, rows: usize) -> Self {
        TableLedger {
            table,
            mode,
            seed,
            rows,
            fates: vec![RowFate::Kept; rows],
            survivors: (0..rows).collect(),
            extra_csv_rejects: 0,
            extra_schema_rejects: 0,
            deleted: false,
        }
    }

    /// Rows a resilient load must deliver.
    #[must_use]
    pub fn expected_rows(&self) -> usize {
        self.survivors.len()
    }

    /// Rows the CSV layer must reject (damaged originals + garbage).
    #[must_use]
    pub fn expected_rejected_csv(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, RowFate::RejectedCsv))
            .count()
            + self.extra_csv_rejects
    }

    /// Rows schema decode must reject (damaged originals + garbage).
    #[must_use]
    pub fn expected_rejected_schema(&self) -> usize {
        self.fates
            .iter()
            .filter(|f| matches!(f, RowFate::RejectedSchema))
            .count()
            + self.extra_schema_rejects
    }

    /// `true` when every original row survives unmodified exactly once
    /// — i.e. corruption touched only rows that end up rejected, only
    /// the on-disk row order (loads normalize at the persistence
    /// boundary, so a permutation is invisible downstream), or nothing
    /// at all — so an analysis over the survivors must be bit-identical
    /// to the clean baseline.
    #[must_use]
    pub fn preserves_all_rows(&self) -> bool {
        if self.deleted
            || self.survivors.len() != self.rows
            || !self.fates.iter().all(|f| matches!(f, RowFate::Kept))
        {
            return false;
        }
        let mut seen = vec![false; self.rows];
        self.survivors
            .iter()
            .all(|&i| i < self.rows && !std::mem::replace(&mut seen[i], true))
    }

    /// One-object JSON rendering, for the replay artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fates: Vec<String> = self.fates.iter().map(|f| f.json()).collect();
        let survivors: Vec<String> = self.survivors.iter().map(usize::to_string).collect();
        format!(
            "{{\"table\":\"{}\",\"mode\":\"{}\",\"seed\":{},\"rows\":{},\
             \"deleted\":{},\"extra_csv_rejects\":{},\"extra_schema_rejects\":{},\
             \"survivors\":[{}],\"fates\":[{}]}}",
            self.table,
            self.mode.name(),
            self.seed,
            self.rows,
            self.deleted,
            self.extra_csv_rejects,
            self.extra_schema_rejects,
            survivors.join(","),
            fates.join(",")
        )
    }
}

/// A whole corpus case: the seed plus every table ledger it produced.
#[derive(Debug, Clone, Default)]
pub struct ChaosLedger {
    /// Corpus seed.
    pub seed: u64,
    /// One ledger per corrupted table.
    pub tables: Vec<TableLedger>,
}

impl ChaosLedger {
    /// JSON rendering of the full case, for the on-failure artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let tables: Vec<String> = self.tables.iter().map(TableLedger::to_json).collect();
        format!(
            "{{\"seed\":{},\"tables\":[{}]}}",
            self.seed,
            tables.join(",")
        )
    }
}

/// The (table, mode) pair a corpus seed exercises: mode cycles fastest,
/// so 40 consecutive seeds cross every mode with every table.
#[must_use]
pub fn plan_for_seed(seed: u64) -> (&'static str, CorruptionMode) {
    let mode = ALL_MODES[(seed % ALL_MODES.len() as u64) as usize];
    let table = TABLES[((seed / ALL_MODES.len() as u64) % TABLES.len() as u64) as usize];
    (table, mode)
}

/// Timestamp field indices per table (encode order).
fn timestamp_columns(table: &str) -> &'static [usize] {
    match table {
        "jobs" => &[7, 8, 9], // queued_at, started_at, ended_at
        "ras" => &[5],        // event_time
        "tasks" => &[4, 5],   // started_at, ended_at
        _ => &[],
    }
}

/// Splits file bytes into physical records: groups of newline-terminated
/// lines closed when the running quote count is even — the same rule the
/// scanner uses, so "one record" here is "one record" there.
fn split_records(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    let mut current: Vec<u8> = Vec::new();
    let mut quotes = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        current.extend_from_slice(line);
        quotes += line.iter().filter(|&&b| b == b'"').count();
        if quotes.is_multiple_of(2) {
            records.push(std::mem::take(&mut current));
            quotes = 0;
        }
    }
    if !current.is_empty() {
        records.push(current);
    }
    records
}

/// Byte positions in `record` that can be bit-rotted safely: printable
/// ASCII, not a quote (parity!), so the damage stays inside this record.
fn rot_candidates(record: &[u8]) -> Vec<usize> {
    record
        .iter()
        .enumerate()
        .filter(|(_, &b)| (0x20..=0x7e).contains(&b) && b != b'"')
        .map(|(i, _)| i)
        .collect()
}

/// Byte offset just past the `n`-th comma of `record`, if it has one.
fn after_nth_comma(record: &[u8], n: usize) -> Option<usize> {
    record
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b',')
        .nth(n)
        .map(|(i, _)| i + 1)
}

/// Applies `mode` to `<dir>/<table>.csv` and returns the exact outcome
/// prediction. The header record is never touched (header damage is the
/// fault layer's job); an empty table is a no-op for every mode.
///
/// # Errors
///
/// Forwards filesystem errors reading or rewriting the table.
pub fn corrupt_table(
    dir: &Path,
    table: &'static str,
    mode: CorruptionMode,
    seed: u64,
) -> io::Result<TableLedger> {
    let path = dir.join(format!("{table}.csv"));
    let bytes = fs::read(&path)?;
    let mut records = split_records(&bytes);
    let n = records.len().saturating_sub(1); // data rows, header excluded
    let mut rng = SplitMix64::new(seed ^ fnv1a(table.as_bytes()));
    let mut ledger = TableLedger::clean(table, mode, seed, n);

    if mode == CorruptionMode::DeleteTable {
        fs::remove_file(&path)?;
        ledger.deleted = true;
        ledger.fates = vec![RowFate::Removed; n];
        ledger.survivors.clear();
        return Ok(ledger);
    }
    if n == 0 {
        return Ok(ledger);
    }
    let data = &mut records[1..];

    match mode {
        CorruptionMode::TruncateAtRecord => {
            let k = rng.below(n + 1);
            for f in ledger.fates.iter_mut().skip(k) {
                *f = RowFate::Removed;
            }
            ledger.survivors.truncate(k);
            records.truncate(1 + k);
        }
        CorruptionMode::TruncateMidRecord => {
            let v = rng.below(n);
            // Cut just past the second comma: the victim decodes to
            // three fields (every table has more), a schema reject.
            let cut = after_nth_comma(&data[v], 1).unwrap_or(data[v].len() / 2);
            data[v].truncate(cut);
            ledger.fates[v] = RowFate::RejectedSchema;
            for f in ledger.fates.iter_mut().skip(v + 1) {
                *f = RowFate::Removed;
            }
            ledger.survivors = (0..v).collect();
            records.truncate(1 + v + 1);
        }
        CorruptionMode::TruncateMidQuote => {
            // Prefer a genuinely quoted victim; without one, fall back
            // to a mid-record cut (same "victim + lost tail" shape,
            // different rejecting layer).
            let quoted: Vec<usize> = (0..n).filter(|&i| data[i].contains(&b'"')).collect();
            if let Some(&v) = quoted
                .get(rng.below(quoted.len().max(1)))
                .or(quoted.first())
            {
                let q = data[v].iter().position(|&b| b == b'"').unwrap();
                data[v].truncate(q + 1);
                ledger.fates[v] = RowFate::RejectedCsv;
                for f in ledger.fates.iter_mut().skip(v + 1) {
                    *f = RowFate::Removed;
                }
                ledger.survivors = (0..v).collect();
                records.truncate(1 + v + 1);
            } else {
                let v = rng.below(n);
                let cut = after_nth_comma(&data[v], 1).unwrap_or(data[v].len() / 2);
                data[v].truncate(cut);
                ledger.fates[v] = RowFate::RejectedSchema;
                for f in ledger.fates.iter_mut().skip(v + 1) {
                    *f = RowFate::Removed;
                }
                ledger.survivors = (0..v).collect();
                records.truncate(1 + v + 1);
            }
        }
        CorruptionMode::BitRot => {
            let k = 1 + rng.below(3.min(n));
            for v in rng.distinct(k, n) {
                let candidates = rot_candidates(&data[v]);
                let pos = candidates[rng.below(candidates.len())];
                data[v][pos] |= 0x80;
                ledger.fates[v] = RowFate::RejectedCsv;
            }
            ledger.survivors = (0..n)
                .filter(|&i| ledger.fates[i] == RowFate::Kept)
                .collect();
        }
        CorruptionMode::DropRecords => {
            let k = 1 + rng.below((n / 4).max(1).min(n));
            let victims = rng.distinct(k, n);
            for &v in &victims {
                ledger.fates[v] = RowFate::Removed;
            }
            ledger.survivors = (0..n)
                .filter(|&i| ledger.fates[i] == RowFate::Kept)
                .collect();
            // Rebuild: header + surviving records.
            let kept: Vec<Vec<u8>> = ledger.survivors.iter().map(|&i| data[i].clone()).collect();
            records.truncate(1);
            records.extend(kept);
        }
        CorruptionMode::DuplicateRecords => {
            let k = 1 + rng.below(3.min(n));
            let victims = rng.distinct(k, n);
            let mut out = Vec::with_capacity(n + k);
            let mut survivors = Vec::with_capacity(n + k);
            for (i, rec) in data.iter().enumerate() {
                out.push(rec.clone());
                survivors.push(i);
                if victims.contains(&i) {
                    out.push(rec.clone());
                    survivors.push(i);
                }
            }
            ledger.survivors = survivors;
            records.truncate(1);
            records.extend(out);
        }
        CorruptionMode::ShuffleRecords => {
            let perm = rng.permutation(n);
            let shuffled: Vec<Vec<u8>> = perm.iter().map(|&i| data[i].clone()).collect();
            ledger.survivors = perm;
            records.truncate(1);
            records.extend(shuffled);
        }
        CorruptionMode::SpliceGarbage => {
            let g = 1 + rng.below(3);
            let mut inserts: Vec<(usize, Vec<u8>, bool)> = Vec::new(); // (pos, line, is_csv_reject)
            for _ in 0..g {
                // Insertion point among data records — never before the
                // header, which would be mistaken for it.
                let pos = rng.below(n + 1);
                let (line, csv_reject): (Vec<u8>, bool) = match rng.below(3) {
                    0 => (b"%%%garbage-not-a-row%%%\n".to_vec(), false),
                    1 => (b"\xff\xfe\x80 bitstream noise\n".to_vec(), true),
                    _ => (b"x,y,z\n".to_vec(), false),
                };
                if csv_reject {
                    ledger.extra_csv_rejects += 1;
                } else {
                    ledger.extra_schema_rejects += 1;
                }
                inserts.push((pos, line, csv_reject));
            }
            // Insert from the highest position down so indices stay valid.
            inserts.sort_by_key(|b| std::cmp::Reverse(b.0));
            for (pos, line, _) in inserts {
                records.insert(1 + pos, line);
            }
        }
        CorruptionMode::ScrambleTimestamps => {
            let cols = timestamp_columns(table);
            if !cols.is_empty() {
                let mut delta = 0i64;
                while delta == 0 {
                    delta = rng.range_i64(-86_400, 86_400);
                }
                let k = 1 + rng.below(3.min(n));
                for v in rng.distinct(k, n) {
                    if shift_timestamps(&mut data[v], cols, delta) {
                        ledger.fates[v] = RowFate::TimeShifted { delta_s: delta };
                    }
                }
            }
        }
        CorruptionMode::DeleteTable => unreachable!("handled above"),
    }

    fs::write(&path, records.concat())?;
    Ok(ledger)
}

/// Shifts the integer-seconds fields at `cols` of one record by
/// `delta`. Splitting on raw commas is safe here because every
/// timestamp column sits before any quoted field (the only field that
/// may carry commas — the RAS message — is last). Returns `false` and
/// leaves the record alone if any targeted field fails to parse.
fn shift_timestamps(record: &mut Vec<u8>, cols: &[usize], delta: i64) -> bool {
    let ends_nl = record.last() == Some(&b'\n');
    let body = if ends_nl {
        &record[..record.len() - 1]
    } else {
        &record[..]
    };
    let mut pieces: Vec<Vec<u8>> = body.split(|&b| b == b',').map(<[u8]>::to_vec).collect();
    for &c in cols {
        let Some(piece) = pieces.get(c) else {
            return false;
        };
        let Ok(text) = std::str::from_utf8(piece) else {
            return false;
        };
        let Ok(secs) = text.parse::<i64>() else {
            return false;
        };
        pieces[c] = (secs + delta).to_string().into_bytes();
    }
    let mut out = pieces.join(&b","[..]);
    if ends_nl {
        out.push(b'\n');
    }
    *record = out;
    true
}

/// FNV-1a over bytes: folds the table name into the seed so the same
/// seed makes independent choices per table.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_table(dir: &Path, table: &str, text: &str) {
        fs::create_dir_all(dir).unwrap();
        fs::write(dir.join(format!("{table}.csv")), text).unwrap();
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bgq-chaos-{tag}-{}", std::process::id()))
    }

    const IO_TABLE: &str = "job_id,bytes_read,bytes_written,files_read,files_written,io_time_s\n\
         1,10,20,1,2,0.5\n\
         2,30,40,3,4,1.5\n\
         3,50,60,5,6,2.5\n";

    #[test]
    fn split_records_groups_quoted_newlines() {
        let recs = split_records(b"h1,h2\na,\"multi\nline\"\nb,c\n");
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1], b"a,\"multi\nline\"\n");
    }

    #[test]
    fn delete_table_removes_file_and_ledgers_every_row() {
        let dir = tmp("delete");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::DeleteTable, 1).unwrap();
        assert!(!dir.join("io.csv").exists());
        assert!(ledger.deleted);
        assert_eq!(ledger.fates, vec![RowFate::Removed; 3]);
        assert_eq!(ledger.expected_rows(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_mid_record_predicts_one_schema_reject() {
        let dir = tmp("midrec");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::TruncateMidRecord, 3).unwrap();
        let rejected: Vec<_> = ledger
            .fates
            .iter()
            .filter(|f| **f == RowFate::RejectedSchema)
            .collect();
        assert_eq!(rejected.len(), 1);
        assert_eq!(ledger.expected_rejected_schema(), 1);
        // The file really was cut: fewer bytes than the original.
        let bytes = fs::read(dir.join("io.csv")).unwrap();
        assert!(bytes.len() < IO_TABLE.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_rot_sets_a_high_bit_and_predicts_csv_rejects() {
        let dir = tmp("bitrot");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::BitRot, 7).unwrap();
        let bytes = fs::read(dir.join("io.csv")).unwrap();
        let high = bytes.iter().filter(|&&b| b >= 0x80).count();
        let rejects = ledger.expected_rejected_csv();
        assert!(rejects >= 1);
        assert_eq!(high, rejects, "one damaged byte per rejected record");
        // Newline structure intact: same record count.
        assert_eq!(split_records(&bytes).len(), 4);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn splice_preserves_all_original_rows() {
        let dir = tmp("splice");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::SpliceGarbage, 11).unwrap();
        assert!(ledger.preserves_all_rows());
        assert!(ledger.extra_csv_rejects + ledger.extra_schema_rejects >= 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shuffle_survivors_are_a_permutation() {
        let dir = tmp("shuffle");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::ShuffleRecords, 5).unwrap();
        let mut s = ledger.survivors.clone();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2]);
        // A pure permutation preserves every row: loads normalize, so
        // the shuffle must be invisible to the analysis.
        assert!(ledger.preserves_all_rows());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scramble_shifts_integer_fields_uniformly() {
        let mut rec = b"1,2,3,4,100,200,5,0\n".to_vec();
        assert!(shift_timestamps(&mut rec, &[4, 5], 50));
        assert_eq!(rec, b"1,2,3,4,150,250,5,0\n");
    }

    #[test]
    fn scramble_on_io_table_is_a_no_op() {
        let dir = tmp("scramble-io");
        write_table(&dir, "io", IO_TABLE);
        let ledger = corrupt_table(&dir, "io", CorruptionMode::ScrambleTimestamps, 13).unwrap();
        assert!(ledger.preserves_all_rows());
        assert_eq!(
            fs::read(dir.join("io.csv")).unwrap(),
            IO_TABLE.as_bytes(),
            "no timestamp columns, no change"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn same_seed_same_ledger_and_bytes() {
        let d1 = tmp("det-1");
        let d2 = tmp("det-2");
        write_table(&d1, "io", IO_TABLE);
        write_table(&d2, "io", IO_TABLE);
        let l1 = corrupt_table(&d1, "io", CorruptionMode::BitRot, 99).unwrap();
        let l2 = corrupt_table(&d2, "io", CorruptionMode::BitRot, 99).unwrap();
        assert_eq!(l1, l2);
        assert_eq!(
            fs::read(d1.join("io.csv")).unwrap(),
            fs::read(d2.join("io.csv")).unwrap()
        );
        fs::remove_dir_all(&d1).unwrap();
        fs::remove_dir_all(&d2).unwrap();
    }

    #[test]
    fn plan_for_seed_crosses_modes_and_tables() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            seen.insert(plan_for_seed(seed));
        }
        assert_eq!(seen.len(), 40, "40 seeds cover every (table, mode) pair");
    }

    #[test]
    fn ledger_json_is_wellformed_enough_to_grep() {
        let ledger = TableLedger::clean("io", CorruptionMode::BitRot, 4, 2);
        let json = ledger.to_json();
        assert!(json.contains("\"mode\":\"bit_rot\""));
        assert!(json.contains("\"seed\":4"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
