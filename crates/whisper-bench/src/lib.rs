//! Shared helpers for the experiment binaries: text tables, progress
//! reporting, and machine-readable run reports.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md`'s per-experiment index); run them with
//! `cargo run -p whisper-bench --bin <name>`. Besides the human-readable
//! stdout output, every binary writes a [`RunReport`] JSON file to
//! `target/reports/<bin>.json` (overridable with `TET_REPORT_DIR`) via
//! [`write_report`].

#![warn(missing_docs)]

pub mod baseline;
pub mod telemetry;

pub use tet_obs::{Progress, RunReport};

/// Renders an aligned text table.
///
/// # Examples
///
/// ```
/// use whisper_bench::Table;
///
/// let mut t = Table::new(&["CPU", "result"]);
/// t.row(&["i7-7700", "ok"]);
/// let s = t.render();
/// assert!(s.contains("i7-7700"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells render empty).
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        self.rows
            .push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of owned strings.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Renders with per-column alignment and a separator line.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!("{cell:<w$}"));
                if i + 1 < widths.len() {
                    line.push_str("  ");
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Formats a ✓/✗ cell from a success flag (ASCII-safe).
pub fn tick(ok: bool) -> &'static str {
    if ok {
        "yes"
    } else {
        "no"
    }
}

/// Prints a titled section header to stdout.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Writes a run report to `target/reports/<name>.json` (or
/// `TET_REPORT_DIR`) and notes the path on stderr (`TET_QUIET=1`
/// silences the note, not the write). IO failure warns instead of
/// failing the experiment — the report is a byproduct, not the result.
pub fn write_report(report: &RunReport) {
    match report.write_default() {
        Ok(path) => {
            if !tet_obs::quiet() {
                eprintln!("report: {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not write report {:?}: {e}", report.name),
    }
}

/// The directory sidecar exports (`.prom`, flight JSONL)
/// share with the JSON reports: `TET_REPORT_DIR` or `target/reports`,
/// created on demand.
pub fn report_dir() -> std::path::PathBuf {
    let dir = std::env::var_os("TET_REPORT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/reports"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Writes a sidecar export next to the JSON reports and notes the path
/// on stderr (quiet-gated, like [`write_report`]).
pub fn write_sidecar(name: &str, contents: &str) {
    let path = report_dir().join(name);
    match std::fs::write(&path, contents) {
        Ok(()) => {
            if !tet_obs::quiet() {
                eprintln!("export: {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not write export {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["xxxx", "y"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     bbbb"));
        assert!(lines[2].starts_with("xxxx  y"));
    }

    #[test]
    fn tick_values() {
        assert_eq!(tick(true), "yes");
        assert_eq!(tick(false), "no");
    }
}
