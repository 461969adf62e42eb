//! Shared helpers for the figure/table benchmark harness.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure of the
//! paper's evaluation and prints it in a paper-like textual form; the
//! `report` binary runs them all. Absolute values come from the calibrated
//! models; the *shapes* (orderings, ratios, crossovers) are the
//! reproduction targets recorded in `EXPERIMENTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{quick_design, RUNNERS};

/// A simple fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n=== {} ===\n", self.title));
        let line = |cells: &[String], widths: &[usize]| -> String {
            cells.iter().zip(widths).map(|(c, w)| format!("{c:>w$}", w = w)).collect::<Vec<_>>().join("  ")
        };
        out.push_str(&line(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a Mops value.
pub fn mops(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats microseconds.
pub fn us(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a ratio as `x.xx×`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats GB/s.
pub fn gbps(v: f64) -> String {
    format!("{:.2}", v / 1.0e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn bad_row_panics() {
        Table::new("t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(mops(1.234), "1.23");
        assert_eq!(us(10.5), "10.50");
        assert_eq!(ratio(2.0), "2.00x");
        assert_eq!(gbps(3.5e9), "3.50");
    }
}
