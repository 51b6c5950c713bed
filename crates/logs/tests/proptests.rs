//! Property tests for the persistence and join substrate.

use std::io::BufReader;

use bgq_logs::csv::{write_record, CsvError, CsvScanner};
use bgq_logs::interval::IntervalIndex;
use bgq_model::{Span, Timestamp};
use proptest::prelude::*;

/// Arbitrary field content, including separators, quotes, and newlines.
fn arb_field() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ -~\n\"]{0,40}").expect("valid regex")
}

/// Arbitrary input bytes, biased toward the characters the scanner's
/// state machine actually branches on (separators, quotes, CR/LF) but
/// also covering the full byte range, including invalid UTF-8.
fn arb_scanner_input() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        Just(b','),
        Just(b'"'),
        Just(b'\n'),
        Just(b'\r'),
        0x20u8..0x7f,
        0u8..=255u8,
    ];
    proptest::collection::vec(byte, 0..600)
}

proptest! {
    #[test]
    fn csv_roundtrips_arbitrary_records(
        records in proptest::collection::vec(proptest::collection::vec(arb_field(), 1..8), 1..20)
    ) {
        let mut buf = Vec::new();
        for rec in &records {
            write_record(&mut buf, rec).unwrap();
        }
        let mut scanner = CsvScanner::new(BufReader::new(&buf[..]));
        let mut parsed = Vec::new();
        while let Some(view) = scanner.read_record().unwrap() {
            parsed.push(view.to_vec());
        }
        // Records consisting solely of one empty field serialize to a blank
        // line, which the scanner (by design) skips; drop them from the
        // expectation.
        let expected: Vec<&Vec<String>> = records
            .iter()
            .filter(|r| !(r.len() == 1 && r[0].is_empty()))
            .collect();
        prop_assert_eq!(parsed.len(), expected.len());
        for (got, want) in parsed.iter().zip(expected) {
            prop_assert_eq!(got, want);
        }
    }

    // The chaos-harness floor for the scanner: *whatever* bytes come in
    // — unbalanced quotes, bare CRs, invalid UTF-8 — the scanner never
    // panics, never loops, and leaves each error at a record boundary so
    // the next call makes progress.
    #[test]
    fn scanner_survives_arbitrary_bytes(bytes in arb_scanner_input()) {
        let mut scanner = CsvScanner::new(BufReader::new(&bytes[..]));
        let mut calls = 0usize;
        loop {
            calls += 1;
            // Every call past EOF-detection consumes at least one input
            // byte (a record, a skipped blank line, or a rejected record),
            // so this bound can only trip on a progress bug.
            prop_assert!(
                calls <= bytes.len() + 2,
                "scanner stopped making progress after {} calls on {} bytes",
                calls,
                bytes.len()
            );
            match scanner.read_record() {
                Ok(None) => break, // clean EOF at a record boundary
                Ok(Some(rec)) => prop_assert!(!rec.is_empty()),
                Err(CsvError::Malformed { line, .. }) => prop_assert!(line >= 1),
                Err(CsvError::Io(e)) => panic!("impossible I/O error over a slice: {e}"),
            }
        }
    }

    /// Same input, read twice: the scanner is deterministic, so the
    /// sequence of (record, error) outcomes must repeat exactly.
    #[test]
    fn scanner_outcomes_are_deterministic(bytes in arb_scanner_input()) {
        let outcomes = |input: &[u8]| {
            let mut scanner = CsvScanner::new(BufReader::new(input));
            let mut seq = Vec::new();
            loop {
                match scanner.read_record() {
                    Ok(None) => break,
                    Ok(Some(rec)) => seq.push(Ok(rec.to_vec())),
                    Err(CsvError::Malformed { line, reason }) => seq.push(Err((line, reason))),
                    Err(CsvError::Io(e)) => panic!("impossible I/O error over a slice: {e}"),
                }
            }
            seq
        };
        prop_assert_eq!(outcomes(&bytes), outcomes(&bytes));
    }

    #[test]
    fn interval_index_matches_brute_force(
        intervals in proptest::collection::vec((0i64..100_000, 0i64..5_000), 0..120),
        queries in proptest::collection::vec(-1000i64..105_000, 1..40),
        width in 1i64..10_000,
    ) {
        let ivs: Vec<(Timestamp, Timestamp)> = intervals
            .iter()
            .map(|&(s, len)| (Timestamp::from_secs(s), Timestamp::from_secs(s + len)))
            .collect();
        let idx = IntervalIndex::build(ivs.clone(), Span::from_secs(width));
        for &q in &queries {
            let t = Timestamp::from_secs(q);
            let brute: Vec<usize> = ivs
                .iter()
                .enumerate()
                .filter(|(_, (s, e))| *s <= t && t < *e)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(idx.stab(t), brute, "stab({})", q);
        }
    }

    #[test]
    fn interval_overlap_matches_brute_force(
        intervals in proptest::collection::vec((0i64..50_000, 1i64..3_000), 0..80),
        ranges in proptest::collection::vec((0i64..55_000, 1i64..5_000), 1..20),
    ) {
        let ivs: Vec<(Timestamp, Timestamp)> = intervals
            .iter()
            .map(|&(s, len)| (Timestamp::from_secs(s), Timestamp::from_secs(s + len)))
            .collect();
        let idx = IntervalIndex::build(ivs.clone(), Span::from_secs(911));
        for &(from, len) in &ranges {
            let (f, t) = (Timestamp::from_secs(from), Timestamp::from_secs(from + len));
            let brute: Vec<usize> = ivs
                .iter()
                .enumerate()
                .filter(|(_, (s, e))| *s < t && f < *e)
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(idx.overlapping(f, t), brute);
        }
    }
}
