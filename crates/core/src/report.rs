//! Plain-text table rendering for the experiment harness and CLI.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (labels).
    Left,
    /// Right-aligned (numbers).
    Right,
}

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use bgq_core::report::{Align, Table};
///
/// let mut t = Table::new(vec!["size".into(), "jobs".into()], vec![Align::Left, Align::Right]);
/// t.row(vec!["512".into(), "1024".into()]);
/// let text = t.render();
/// assert!(text.contains("size"));
/// assert!(text.contains("1024"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers and per-column alignment.
    ///
    /// # Panics
    ///
    /// Panics if `headers` and `aligns` differ in length.
    pub fn new(headers: Vec<String>, aligns: Vec<Align>) -> Self {
        assert_eq!(headers.len(), aligns.len(), "one alignment per column");
        Table {
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Appends a row; short rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than there are columns.
    pub fn row(&mut self, mut cells: Vec<String>) {
        assert!(cells.len() <= self.headers.len(), "row wider than header");
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String], aligns: &[Align]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                match aligns[i] {
                    Align::Left => {
                        let _ = write!(out, "{cell:<width$}", width = widths[i]);
                    }
                    Align::Right => {
                        let _ = write!(out, "{cell:>width$}", width = widths[i]);
                    }
                }
            }
            // Trim trailing padding.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers, &self.aligns);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row, &self.aligns);
        }
        out
    }
}

/// Formats a count with thousands separators (`1234567` → `1,234,567`).
pub fn group_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Formats a fraction as a percentage with one decimal (`0.994` → `99.4%`).
pub fn percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(
            vec!["name".into(), "count".into()],
            vec![Align::Left, Align::Right],
        );
        t.row(vec!["alpha".into(), "5".into()]);
        t.row(vec!["b".into(), "12345".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("alpha"));
        assert!(lines[3].ends_with("12345"));
        // Right alignment: the count column lines up on the right edge.
        assert_eq!(lines[2].len(), lines[2].trim_end().len());
    }

    #[test]
    fn pads_short_rows() {
        let mut t = Table::new(vec!["a".into(), "b".into()], vec![Align::Left, Align::Left]);
        t.row(vec!["only".into()]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert!(t.render().contains("only"));
    }

    #[test]
    #[should_panic(expected = "row wider than header")]
    fn rejects_wide_rows() {
        let mut t = Table::new(vec!["a".into()], vec![Align::Left]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn thousand_grouping() {
        assert_eq!(group_thousands(0), "0");
        assert_eq!(group_thousands(999), "999");
        assert_eq!(group_thousands(1_000), "1,000");
        assert_eq!(group_thousands(99_245), "99,245");
        assert_eq!(group_thousands(32_440_000_000), "32,440,000,000");
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(percent(0.994), "99.4%");
        assert_eq!(percent(1.0), "100.0%");
        assert_eq!(percent(0.0), "0.0%");
    }
}
