//! Seeded corruption of columnar snapshot segments with exact outcome
//! prediction.
//!
//! The CSV engine in [`corrupt`](crate::corrupt) attacks text tables;
//! this module attacks the binary segments of
//! [`bgq_logs::snapshot`]. Every mode predicts its own load outcome
//! to the row: envelope attacks (flipped payload bytes, truncated
//! tails, smashed magic, deleted files) must quarantine the **whole
//! segment** with a specific [`SegmentQuarantine`] reason, while
//! [`PoisonRows`](SegmentCorruption::PoisonRows) rewrites a validated
//! column of chosen rows and [reseals](bgq_logs::snapshot::reseal) the
//! envelope, so the loader must reject **exactly those rows** and keep
//! the rest — exercising the per-segment reject ceiling rather than the
//! checksum.

use std::io;
use std::path::Path;

use bgq_logs::snapshot::{reseal, SegmentLayout, SegmentQuarantine};

use crate::rng::SplitMix64;

/// Byte-level corruption modes over one snapshot segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentCorruption {
    /// XOR one payload byte (or, for an empty payload, a checksum header
    /// byte): the envelope checksum no longer matches.
    FlipPayloadByte,
    /// Cut the file short at a random length: the header's payload
    /// length no longer matches the file size (or the header itself is
    /// gone).
    TruncateTail,
    /// Smash the first magic byte: the file is not recognizably a
    /// segment.
    BadMagic,
    /// Delete the segment file outright.
    DeleteSegment,
    /// Rewrite a validated column of `1..=3` random rows to an
    /// impossible value and reseal the envelope: the segment passes
    /// every structural check and fails per-row validation on exactly
    /// the poisoned rows.
    PoisonRows,
    /// Rewrite the `resubmit_of` lineage column of `1..=3` random job
    /// rows to all-ones and reseal: a forward-pointing chain link no
    /// real log can carry, so the loader must reject exactly those rows
    /// (never panic, never follow the link) and keep the rest.
    PoisonLineage,
}

/// Every segment corruption mode, in a stable order.
pub const ALL_SEGMENT_MODES: [SegmentCorruption; 6] = [
    SegmentCorruption::FlipPayloadByte,
    SegmentCorruption::TruncateTail,
    SegmentCorruption::BadMagic,
    SegmentCorruption::DeleteSegment,
    SegmentCorruption::PoisonRows,
    SegmentCorruption::PoisonLineage,
];

impl SegmentCorruption {
    /// Stable name for ledgers and failure dumps.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SegmentCorruption::FlipPayloadByte => "flip_payload_byte",
            SegmentCorruption::TruncateTail => "truncate_tail",
            SegmentCorruption::BadMagic => "bad_magic",
            SegmentCorruption::DeleteSegment => "delete_segment",
            SegmentCorruption::PoisonRows => "poison_rows",
            SegmentCorruption::PoisonLineage => "poison_lineage",
        }
    }

    /// Whether the mode can attack a segment of this shape.
    ///
    /// `PoisonRows` needs rows to poison and a validated column to
    /// poison them through — the I/O table has neither enums nor blocks,
    /// so every bit pattern decodes and it cannot be row-poisoned.
    /// `PoisonLineage` attacks the jobs table's `resubmit_of` column,
    /// which no other table carries.
    #[must_use]
    pub fn applicable(self, table: &str, rows: usize) -> bool {
        match self {
            SegmentCorruption::PoisonRows => rows > 0 && poison_column(table).is_some(),
            SegmentCorruption::PoisonLineage => rows > 0 && table == "jobs",
            _ => true,
        }
    }
}

/// The column `PoisonRows` rewrites for each table, with the poison
/// value: a byte pattern no valid row can carry.
///
/// * jobs: `mode` — 0xEE is not a power of two, so `Mode::new` rejects;
/// * ras: `severity` — 0xEE is far past the 3-entry enum table;
/// * tasks: `block_len` — a zero-length block is structurally invalid;
/// * io: none — every field is a plain integer/float, any bits decode.
fn poison_column(table: &str) -> Option<(&'static str, &'static [u8])> {
    match table {
        "jobs" => Some(("mode", &[0xEE])),
        "ras" => Some(("severity", &[0xEE])),
        "tasks" => Some(("block_len", &[0x00, 0x00])),
        _ => None,
    }
}

/// What loading a corrupted segment must do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentFate {
    /// The whole segment is dropped with this reason under a degraded
    /// load (and fails the load outright under a strict one).
    Quarantined(SegmentQuarantine),
    /// Exactly this many rows are rejected; the rest of the segment
    /// loads (unless the caller's per-segment reject ceiling is lower
    /// than the implied ratio, which upgrades the segment to a
    /// [`SegmentQuarantine::RejectRatio`] quarantine).
    RowsRejected(usize),
}

/// What one segment corruption did and what the loader must therefore do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentLedger {
    /// Table the attacked segment belongs to.
    pub table: &'static str,
    /// Partition day of the attacked segment.
    pub day: i64,
    /// The corruption applied.
    pub mode: SegmentCorruption,
    /// Rows the segment held before the attack.
    pub rows: usize,
    /// The predicted load outcome.
    pub fate: SegmentFate,
}

impl SegmentLedger {
    /// One-line JSON for failure dumps, mirroring
    /// [`TableLedger::to_json`](crate::corrupt::TableLedger::to_json).
    #[must_use]
    pub fn to_json(&self) -> String {
        let fate = match self.fate {
            SegmentFate::Quarantined(q) => format!("{{\"quarantined\":\"{q}\"}}"),
            SegmentFate::RowsRejected(n) => format!("{{\"rows_rejected\":{n}}}"),
        };
        format!(
            "{{\"table\":\"{}\",\"day\":{},\"mode\":\"{}\",\"rows\":{},\"fate\":{}}}",
            self.table,
            self.day,
            self.mode.name(),
            self.rows,
            fate
        )
    }
}

/// Applies `mode` to the segment file at `path`, deterministically under
/// `rng`, and returns the ledger predicting the load outcome.
///
/// # Errors
///
/// Returns the underlying I/O error when the file cannot be read or
/// rewritten, or an [`io::ErrorKind::InvalidData`] error when `path`
/// does not hold a well-formed segment or `mode` is not
/// [applicable](SegmentCorruption::applicable) to it.
pub fn corrupt_segment(
    path: &Path,
    mode: SegmentCorruption,
    rng: &mut SplitMix64,
) -> io::Result<SegmentLedger> {
    let mut bytes = std::fs::read(path)?;
    let layout =
        SegmentLayout::parse(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    if !mode.applicable(layout.table, layout.rows) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not applicable to {}", mode.name(), layout.table),
        ));
    }
    let fate = match mode {
        SegmentCorruption::FlipPayloadByte => {
            let header_len = bytes.len() - layout.payload_len;
            if layout.payload_len > 0 {
                let at = header_len + rng.below(layout.payload_len);
                bytes[at] ^= 0x01;
            } else {
                // Empty payload: flip a stored-checksum byte instead —
                // same mismatch, opposite direction.
                bytes[header_len - 1] ^= 0x01;
            }
            std::fs::write(path, &bytes)?;
            SegmentFate::Quarantined(SegmentQuarantine::Checksum)
        }
        SegmentCorruption::TruncateTail => {
            bytes.truncate(rng.below(bytes.len()));
            std::fs::write(path, &bytes)?;
            SegmentFate::Quarantined(SegmentQuarantine::Header)
        }
        SegmentCorruption::BadMagic => {
            bytes[0] ^= 0xFF;
            std::fs::write(path, &bytes)?;
            SegmentFate::Quarantined(SegmentQuarantine::Header)
        }
        SegmentCorruption::DeleteSegment => {
            std::fs::remove_file(path)?;
            SegmentFate::Quarantined(SegmentQuarantine::Missing)
        }
        SegmentCorruption::PoisonRows => {
            let (col, poison) = poison_column(layout.table).expect("applicability checked");
            let (offset, width) = layout
                .column(col)
                .unwrap_or_else(|| panic!("{} has no column {col}", layout.table));
            assert_eq!(width, poison.len(), "poison must fill the column element");
            let k = 1 + rng.below(layout.rows.min(3));
            for row in rng.distinct(k, layout.rows) {
                let at = offset + row * width;
                bytes[at..at + width].copy_from_slice(poison);
            }
            reseal(&mut bytes);
            std::fs::write(path, &bytes)?;
            SegmentFate::RowsRejected(k)
        }
        SegmentCorruption::PoisonLineage => {
            // All-ones is a forward link (≥ every job id, nonzero), so
            // the loader's backwards-lineage check rejects the row.
            let (offset, width) = layout
                .column("resubmit_of")
                .expect("jobs segments carry the lineage column");
            let k = 1 + rng.below(layout.rows.min(3));
            for row in rng.distinct(k, layout.rows) {
                let at = offset + row * width;
                bytes[at..at + width].fill(0xFF);
            }
            reseal(&mut bytes);
            std::fs::write(path, &bytes)?;
            SegmentFate::RowsRejected(k)
        }
    };
    Ok(SegmentLedger {
        table: layout.table,
        day: layout.day,
        mode,
        rows: layout.rows,
        fate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_rules() {
        for t in ["jobs", "ras", "tasks"] {
            assert!(SegmentCorruption::PoisonRows.applicable(t, 5));
            assert!(!SegmentCorruption::PoisonRows.applicable(t, 0));
        }
        assert!(!SegmentCorruption::PoisonRows.applicable("io", 5));
        assert!(SegmentCorruption::PoisonLineage.applicable("jobs", 5));
        assert!(!SegmentCorruption::PoisonLineage.applicable("jobs", 0));
        for t in ["ras", "tasks", "io"] {
            assert!(!SegmentCorruption::PoisonLineage.applicable(t, 5));
        }
        for m in ALL_SEGMENT_MODES {
            assert!(
                m.applicable("io", 0)
                    || matches!(
                        m,
                        SegmentCorruption::PoisonRows | SegmentCorruption::PoisonLineage
                    )
            );
        }
    }

    #[test]
    fn ledger_json_shape() {
        let ledger = SegmentLedger {
            table: "ras",
            day: 15804,
            mode: SegmentCorruption::PoisonRows,
            rows: 10,
            fate: SegmentFate::RowsRejected(2),
        };
        let json = ledger.to_json();
        assert!(json.contains("\"mode\":\"poison_rows\""), "{json}");
        assert!(json.contains("\"rows_rejected\":2"), "{json}");
        let ledger = SegmentLedger {
            fate: SegmentFate::Quarantined(SegmentQuarantine::Checksum),
            ..ledger
        };
        assert!(
            ledger.to_json().contains("\"quarantined\":"),
            "{}",
            ledger.to_json()
        );
    }
}
