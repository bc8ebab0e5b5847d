//! Tabular output: aligned ASCII tables and CSV, the formats the
//! figure harnesses print and save.

use std::fmt::Write as _;

/// A simple column-aligned table builder.
///
/// # Examples
///
/// ```
/// use aetr_analysis::table::Table;
///
/// let mut t = Table::new(vec!["rate (evt/s)", "power (mW)"]);
/// t.row(vec!["1000".into(), "0.12".into()]);
/// let text = t.to_ascii();
/// assert!(text.contains("rate (evt/s)"));
/// assert!(text.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics on an empty header list.
    pub fn new(headers: Vec<impl Into<String>>) -> Table {
        assert!(!headers.is_empty(), "a table needs at least one column");
        Table { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells, table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Renders as an aligned ASCII table with a separator under the
    /// header.
    pub fn to_ascii(&self) -> String {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| self.rows.iter().map(|r| r[i].len()).chain([h.len()]).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        let render = |cells: &[String], out: &mut String| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>width$}", c, width = widths[i]);
            }
            out.push('\n');
        };
        render(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            render(r, &mut out);
        }
        out
    }

    /// Renders as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let emit = |cells: &[String], out: &mut String| {
            out.push_str("| ");
            out.push_str(&cells.join(" | "));
            out.push_str(" |\n");
        };
        emit(&self.headers, &mut out);
        out.push('|');
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for r in &self.rows {
            emit(r, &mut out);
        }
        out
    }

    /// Renders as CSV (RFC-4180-ish: cells containing commas or quotes
    /// are quoted, quotes doubled).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let emit = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| escape(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        emit(&self.headers, &mut out);
        for r in &self.rows {
            emit(r, &mut out);
        }
        out
    }
}

/// Formats a float with engineering-friendly precision: 4 significant
/// digits, no scientific notation below a million.
pub fn fmt_sig(value: f64) -> String {
    if value == 0.0 {
        return "0".to_owned();
    }
    let magnitude = value.abs().log10().floor() as i32;
    if magnitude >= 6 || magnitude <= -5 {
        format!("{value:.3e}")
    } else {
        let decimals = (3 - magnitude).max(0) as usize;
        format!("{value:.decimals$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_alignment() {
        let mut t = Table::new(vec!["x", "value"]);
        t.row(vec!["1".into(), "10".into()]);
        t.row(vec!["1000".into(), "5".into()]);
        let text = t.to_ascii();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Right-aligned: every line ends in a non-space.
        assert!(lines.iter().all(|l| !l.ends_with(' ')));
        assert!(lines[1].chars().all(|c| c == '-'));
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| a | b |\n|---|---|\n"), "{md}");
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    fn fmt_sig_ranges() {
        assert_eq!(fmt_sig(0.0), "0");
        assert_eq!(fmt_sig(0.012345), "0.01235");
        assert_eq!(fmt_sig(123.456), "123.5");
        assert_eq!(fmt_sig(550_000.0), "550000");
        assert!(fmt_sig(12_345_678.0).contains('e'));
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one".into()]);
    }
}
