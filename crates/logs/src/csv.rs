//! A small RFC 4180 CSV codec.
//!
//! The four Mira logs are persisted as CSV; RAS messages contain commas and
//! occasionally quotes, so the codec implements proper quoting: fields
//! containing `,`, `"`, `\r`, or `\n` are quoted, embedded quotes are
//! doubled, and the reader accepts embedded newlines inside quoted fields.
//!
//! [`CsvScanner`] is the streaming, zero-allocation reader. Each call to
//! [`CsvScanner::read_record`] reuses one raw line buffer and one
//! unescaped field buffer and yields a [`RecordView`] of `&str` slices
//! into them; after warm-up a scan performs no per-record heap
//! allocation. The view borrows the scanner, so the borrow checker
//! enforces the streaming contract (a view dies before the next record
//! is read).
//!
//! The scanner strips a UTF-8 byte-order mark from the start of the
//! input, accepts CRLF record terminators, preserves CRLF (and bare
//! newlines) inside quoted fields, and skips blank lines between records.

use std::fmt;
use std::io::{self, BufRead, Write};

/// Error produced while reading CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem in the CSV text.
    Malformed {
        /// 1-based line where the record started.
        line: usize,
        /// What went wrong.
        reason: &'static str,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "csv i/o error: {e}"),
            CsvError::Malformed { line, reason } => {
                write!(f, "malformed csv at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Malformed { .. } => None,
        }
    }
}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Writes one CSV record (fields are quoted only when needed).
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_record<W: Write, S: AsRef<str>>(w: &mut W, fields: &[S]) -> Result<(), CsvError> {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        let f = field.as_ref();
        if f.contains([',', '"', '\n', '\r']) {
            w.write_all(b"\"")?;
            w.write_all(f.replace('"', "\"\"").as_bytes())?;
            w.write_all(b"\"")?;
        } else {
            w.write_all(f.as_bytes())?;
        }
    }
    w.write_all(b"\n")?;
    Ok(())
}

/// One scanned record: borrowed `&str` fields over the scanner's reused
/// buffers.
///
/// Valid until the next [`CsvScanner::read_record`] call (the borrow
/// checker enforces this). Copy out with [`RecordView::to_vec`] to keep
/// a record.
#[derive(Debug, Clone, Copy)]
pub struct RecordView<'a> {
    /// All field bytes of the record, unescaped and concatenated.
    data: &'a str,
    /// `ends[i]` is the exclusive end of field `i` within `data`.
    ends: &'a [usize],
}

impl<'a> RecordView<'a> {
    /// Number of fields in the record (always ≥ 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` for a field-less view (never produced by the scanner: a
    /// non-blank record has at least one field).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Field `i`, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&'a str> {
        let end = *self.ends.get(i)?;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        Some(&self.data[start..end])
    }

    /// Iterates the fields in order.
    #[must_use]
    pub fn iter(&self) -> Fields<'a> {
        Fields {
            data: self.data,
            ends: self.ends,
            next: 0,
            prev_end: 0,
        }
    }

    /// Copies the record out as owned strings.
    #[must_use]
    pub fn to_vec(&self) -> Vec<String> {
        self.iter().map(str::to_owned).collect()
    }

    /// Total unescaped payload bytes across all fields (delimiters and
    /// quoting excluded) — the row-size measure the `store.row_bytes`
    /// histogram records.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }
}

impl<'a> IntoIterator for RecordView<'a> {
    type Item = &'a str;
    type IntoIter = Fields<'a>;

    fn into_iter(self) -> Fields<'a> {
        self.iter()
    }
}

/// Iterator over the fields of a [`RecordView`].
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    data: &'a str,
    ends: &'a [usize],
    next: usize,
    prev_end: usize,
}

impl<'a> Iterator for Fields<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let end = *self.ends.get(self.next)?;
        let field = &self.data[self.prev_end..end];
        self.prev_end = end;
        self.next += 1;
        Some(field)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.ends.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Fields<'_> {}

/// A streaming, zero-allocation CSV scanner over any [`BufRead`].
///
/// The raw record bytes and the unescaped field text live in two buffers
/// owned by the scanner and reused across records, so a full-file scan
/// allocates only while a buffer grows to the longest record seen.
///
/// The scan is byte-level: records are assembled with `read_until` and
/// validated as UTF-8 only once complete, so bit rot that corrupts a
/// record's encoding is a per-record [`CsvError::Malformed`] reject —
/// the rest of the file still loads — rather than a fatal I/O error.
#[derive(Debug)]
pub struct CsvScanner<R> {
    inner: R,
    line: usize,
    /// Raw record bytes as read (may span lines for quoted newlines).
    raw: Vec<u8>,
    /// Unescaped field bytes of the current record, concatenated.
    data: String,
    /// Exclusive end offset of each field within `data`.
    ends: Vec<usize>,
    /// Whether a UTF-8 BOM may still be pending (start of input).
    at_start: bool,
}

/// The UTF-8 encoding of U+FEFF, the byte-order mark.
const BOM: &[u8] = b"\xef\xbb\xbf";

impl<R: BufRead> CsvScanner<R> {
    /// Wraps a buffered reader.
    pub fn new(inner: R) -> Self {
        CsvScanner {
            inner,
            line: 0,
            raw: Vec::new(),
            data: String::new(),
            ends: Vec::new(),
            at_start: true,
        }
    }

    /// Reads the next record into the reused buffers; `Ok(None)` at end
    /// of input. Blank lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::Malformed`] on an unterminated quote, garbage
    /// after a closing quote, or a record that is not valid UTF-8 (the
    /// offending bytes are consumed, so a lenient caller can continue
    /// with the next record) and [`CsvError::Io`] on read failures.
    pub fn read_record(&mut self) -> Result<Option<RecordView<'_>>, CsvError> {
        loop {
            self.raw.clear();
            let start_line = self.line + 1;
            let mut quotes = 0usize;
            loop {
                let before = self.raw.len();
                let n = self.inner.read_until(b'\n', &mut self.raw)?;
                if n == 0 {
                    if self.raw.is_empty() {
                        return Ok(None);
                    }
                    // EOF without trailing newline: fall through and parse.
                    if !quotes.is_multiple_of(2) {
                        return Err(CsvError::Malformed {
                            line: start_line,
                            reason: "unterminated quoted field at end of input",
                        });
                    }
                    break;
                }
                self.line += 1;
                if self.at_start {
                    self.at_start = false;
                    if self.raw.starts_with(BOM) {
                        self.raw.drain(..BOM.len());
                    }
                }
                quotes += count_quotes(&self.raw[before..]);
                // A record is complete when quotes balance.
                if quotes.is_multiple_of(2) {
                    break;
                }
            }
            // Strip the record terminator.
            while self.raw.last() == Some(&b'\n') || self.raw.last() == Some(&b'\r') {
                self.raw.pop();
            }
            if self.raw.is_empty() {
                continue; // blank line between records
            }
            // The record is fully consumed either way, so on invalid
            // UTF-8 the scanner is already positioned at the next record
            // and a lenient caller just counts the reject and moves on.
            let Ok(raw) = std::str::from_utf8(&self.raw) else {
                return Err(CsvError::Malformed {
                    line: start_line,
                    reason: "record is not valid utf-8",
                });
            };
            parse_record(raw, start_line, &mut self.data, &mut self.ends)?;
            return Ok(Some(RecordView {
                data: &self.data,
                ends: &self.ends,
            }));
        }
    }
}

fn count_quotes(s: &[u8]) -> usize {
    s.iter().filter(|&&b| b == b'"').count()
}

/// Parses one raw record (terminator already stripped) into the reused
/// `data`/`ends` buffers. Byte-level: every delimiter is ASCII, so byte
/// scanning is UTF-8 safe and chunks are copied with `push_str`.
fn parse_record(
    raw: &str,
    line: usize,
    data: &mut String,
    ends: &mut Vec<usize>,
) -> Result<(), CsvError> {
    data.clear();
    ends.clear();
    let bytes = raw.as_bytes();
    let mut i = 0usize;
    loop {
        if i >= bytes.len() {
            // Record ends right where a field would start: empty field.
            ends.push(data.len());
            return Ok(());
        }
        if bytes[i] == b'"' {
            // Quoted field: copy chunks between doubled quotes.
            i += 1;
            let mut chunk = i;
            loop {
                let Some(q) = bytes[i..].iter().position(|&b| b == b'"').map(|p| i + p) else {
                    return Err(CsvError::Malformed {
                        line,
                        reason: "unterminated quoted field",
                    });
                };
                data.push_str(&raw[chunk..q]);
                if bytes.get(q + 1) == Some(&b'"') {
                    data.push('"');
                    i = q + 2;
                    chunk = i;
                } else {
                    i = q + 1;
                    break;
                }
            }
            ends.push(data.len());
            match bytes.get(i) {
                None => return Ok(()),
                Some(b',') => i += 1,
                Some(_) => {
                    return Err(CsvError::Malformed {
                        line,
                        reason: "garbage after closing quote",
                    })
                }
            }
        } else {
            // Unquoted field: one chunk up to the comma or record end.
            let end = bytes[i..]
                .iter()
                .position(|&b| b == b',')
                .map_or(bytes.len(), |p| i + p);
            data.push_str(&raw[i..end]);
            ends.push(data.len());
            if end == bytes.len() {
                return Ok(());
            }
            i = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn roundtrip(fields: &[&str]) -> Vec<String> {
        let mut buf = Vec::new();
        write_record(&mut buf, fields).unwrap();
        let mut rows = scan_all(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(rows.len(), 1);
        rows.remove(0)
    }

    /// Scans `text` with the borrowing scanner, copying each view out.
    fn scan_all(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        let mut out = Vec::new();
        while let Some(view) = scanner.read_record()? {
            out.push(view.to_vec());
        }
        Ok(out)
    }

    /// Scans `text` the way a lenient load does: malformed records are
    /// counted and skipped, I/O errors are fatal.
    fn scan_counting(text: &str) -> (Vec<Vec<String>>, usize) {
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        let mut rows = Vec::new();
        let mut rejected = 0usize;
        loop {
            match scanner.read_record() {
                Ok(Some(view)) => rows.push(view.to_vec()),
                Ok(None) => return (rows, rejected),
                Err(CsvError::Malformed { .. }) => rejected += 1,
                Err(e) => panic!("unexpected i/o error: {e}"),
            }
        }
    }

    #[test]
    fn plain_fields() {
        assert_eq!(roundtrip(&["a", "b", "c"]), vec!["a", "b", "c"]);
    }

    #[test]
    fn fields_with_commas_and_quotes() {
        assert_eq!(
            roundtrip(&["hello, world", "say \"hi\"", ""]),
            vec!["hello, world", "say \"hi\"", ""]
        );
    }

    #[test]
    fn embedded_newlines() {
        assert_eq!(roundtrip(&["line1\nline2", "x"]), vec!["line1\nline2", "x"]);
    }

    #[test]
    fn multiple_records_and_blank_lines() {
        assert_eq!(
            scan_all("a,b\n\nc,d\n").unwrap(),
            vec![vec!["a", "b"], vec!["c", "d"]]
        );
        assert_eq!(scan_all("1,2\n3,4\n5,6\n").unwrap().len(), 3);
    }

    #[test]
    fn missing_trailing_newline() {
        assert_eq!(scan_all("a,b").unwrap(), vec![vec!["a", "b"]]);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        assert!(matches!(
            scan_all("\"abc\n"),
            Err(CsvError::Malformed { .. })
        ));
    }

    #[test]
    fn garbage_after_quote_is_an_error() {
        assert!(matches!(
            scan_all("\"abc\"x,y\n"),
            Err(CsvError::Malformed { .. })
        ));
    }

    #[test]
    fn crlf_line_endings() {
        assert_eq!(
            scan_all("a,b\r\nc,d\r\n").unwrap(),
            vec![vec!["a", "b"], vec!["c", "d"]]
        );
    }

    #[test]
    fn counting_scan_skips_malformed_records() {
        // Record 2 has garbage after a closing quote; records 1 and 3
        // survive the scan.
        let (records, rejected) = scan_counting("a,b\n\"x\"y,z\nc,d\n");
        assert_eq!(records, vec![vec!["a", "b"], vec!["c", "d"]]);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn counting_scan_handles_unterminated_quote_at_eof() {
        let (records, rejected) = scan_counting("a,b\n\"unterminated");
        assert_eq!(records, vec![vec!["a", "b"]]);
        assert_eq!(rejected, 1);
    }

    #[test]
    fn counting_scan_of_clean_input_rejects_nothing() {
        let (records, rejected) = scan_counting("1,2\n3,4\n");
        assert_eq!(records.len(), 2);
        assert_eq!(rejected, 0);
    }

    // -- Borrowing scanner ------------------------------------------------

    #[test]
    fn scanner_unescapes_quoted_fields() {
        let text = "a,b,c\n\"q,uo\"\"ted\",plain\n\nlast,\n";
        assert_eq!(
            scan_all(text).unwrap(),
            vec![
                vec!["a", "b", "c"],
                vec!["q,uo\"ted", "plain"],
                vec!["last", ""],
            ]
        );
    }

    #[test]
    fn scanner_view_accessors() {
        let text = "one,two,three\n";
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        let view = scanner.read_record().unwrap().unwrap();
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.get(0), Some("one"));
        assert_eq!(view.get(2), Some("three"));
        assert_eq!(view.get(3), None);
        let fields: Vec<&str> = view.iter().collect();
        assert_eq!(fields, vec!["one", "two", "three"]);
        assert_eq!(view.iter().len(), 3);
    }

    #[test]
    fn scanner_reuses_buffers_across_records() {
        // A long first record followed by a short one: the short view
        // must not see stale bytes from the long record.
        let text = "aaaaaaaaaaaaaaaa,bbbbbbbbbbbbbbbb\nx,y\n";
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        assert_eq!(
            scanner.read_record().unwrap().unwrap().to_vec(),
            vec!["aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"]
        );
        let second = scanner.read_record().unwrap().unwrap();
        assert_eq!(second.to_vec(), vec!["x", "y"]);
        assert!(scanner.read_record().unwrap().is_none());
    }

    #[test]
    fn utf8_bom_on_header_is_stripped() {
        let text = "\u{feff}job_id,user\n1,2\n";
        assert_eq!(
            scan_all(text).unwrap(),
            vec![vec!["job_id", "user"], vec!["1", "2"]]
        );
        // A BOM mid-file is content, not a BOM.
        let mid = "a,b\n\u{feff}c,d\n";
        let rows = scan_all(mid).unwrap();
        assert_eq!(rows[1][0], "\u{feff}c");
    }

    #[test]
    fn crlf_inside_quoted_field_is_preserved() {
        let mut buf = Vec::new();
        write_record(&mut buf, &["head\r\ntail", "x"]).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rows = scan_all(&text).unwrap();
        assert_eq!(rows, vec![vec!["head\r\ntail".to_owned(), "x".to_owned()]]);
    }

    #[test]
    fn scanner_counts_rejects_and_keeps_clean_rows() {
        // Mix of clean rows, garbage-after-quote, and an unterminated
        // quote at EOF.
        let text = "h1,h2\nok,row\n\"x\"y,z\nfine,\"quoted\"\n\"open";
        let (rows, rejected) = scan_counting(text);
        assert_eq!(
            rows,
            vec![vec!["h1", "h2"], vec!["ok", "row"], vec!["fine", "quoted"]]
        );
        assert_eq!(rejected, 2);
    }

    #[test]
    fn scanner_continues_after_malformed_record() {
        let text = "\"bad\"x\ngood,row\n";
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        assert!(matches!(
            scanner.read_record(),
            Err(CsvError::Malformed { .. })
        ));
        assert_eq!(
            scanner.read_record().unwrap().unwrap().to_vec(),
            vec!["good", "row"]
        );
    }

    #[test]
    fn invalid_utf8_rejects_only_the_damaged_record() {
        // Bit rot in record 2 (0x80 is never a valid UTF-8 lead byte);
        // records 1 and 3 must survive and the scanner must stay at a
        // record boundary after the reject.
        let text = b"good,row\nbit\x80rot,here\nstill,fine\n";
        let mut scanner = CsvScanner::new(BufReader::new(&text[..]));
        assert_eq!(
            scanner.read_record().unwrap().unwrap().to_vec(),
            vec!["good", "row"]
        );
        match scanner.read_record() {
            Err(CsvError::Malformed { line, reason }) => {
                assert_eq!(line, 2);
                assert!(reason.contains("utf-8"), "{reason}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert_eq!(
            scanner.read_record().unwrap().unwrap().to_vec(),
            vec!["still", "fine"]
        );
        assert!(scanner.read_record().unwrap().is_none());
    }

    #[test]
    fn invalid_utf8_inside_quoted_multiline_record_is_one_reject() {
        // The damaged bytes sit inside a quoted field spanning two lines:
        // the whole logical record is consumed as one reject.
        let text = b"a,\"span\xffning\nstill quoted\",b\nnext,row\n";
        let mut scanner = CsvScanner::new(BufReader::new(&text[..]));
        assert!(matches!(
            scanner.read_record(),
            Err(CsvError::Malformed { .. })
        ));
        assert_eq!(
            scanner.read_record().unwrap().unwrap().to_vec(),
            vec!["next", "row"]
        );
    }

    #[test]
    fn malformed_error_reports_record_start_line() {
        let text = "ok,row\n\"abc\"x\n";
        let mut scanner = CsvScanner::new(BufReader::new(text.as_bytes()));
        scanner.read_record().unwrap();
        match scanner.read_record() {
            Err(CsvError::Malformed { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
