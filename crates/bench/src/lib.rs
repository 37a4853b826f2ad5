//! Shared harness utilities for the ARFS experiment binaries.
//!
//! Every table and figure of the DSN 2005 paper is regenerated by a
//! binary in `src/bin/`; see `EXPERIMENTS.md` at the workspace root for
//! the index. This library provides the common output machinery: aligned
//! text tables for the console and JSON artifacts under `results/` for
//! reproducibility.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// A simple aligned text table.
#[derive(Debug, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", cell, width = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.headers);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<width$}", "", width = w + 2);
            if i == widths.len() - 1 {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// The directory experiment artifacts are written to (`results/` next to
/// the workspace root, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = match std::env::var("ARFS_RESULTS_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => PathBuf::from("results"),
    };
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a JSON artifact into [`results_dir`], returning its path.
///
/// # Panics
///
/// Panics if serialization or the write fails — experiment binaries want
/// loud failures, not silent missing artifacts.
pub fn write_json(name: &str, value: &impl serde::Serialize) -> PathBuf {
    let path = results_dir().join(name);
    let json = serde_json::to_string_pretty(value).expect("serializable artifact");
    fs::write(&path, json).expect("writable results directory");
    path
}

/// Writes a JSON artifact with [`write_json`] on a full run only. A
/// smoke run leaves the committed full-scale artifact, which the next
/// full run's gates and comparisons read, and the tree as they were.
pub fn write_full_run_artifact(name: &str, artifact: &impl serde::Serialize, smoke: bool) {
    if smoke {
        println!("\nsmoke run: results/{name} left as committed");
    } else {
        println!("\nartifact: {}", write_json(name, artifact).display());
    }
}

/// Writes a plain-text artifact (e.g. a JSON-Lines journal) into
/// [`results_dir`], returning its path.
///
/// # Panics
///
/// Panics if the write fails — experiment binaries want loud failures,
/// not silent missing artifacts.
pub fn write_text(name: &str, body: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, body).expect("writable results directory");
    path
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===\n");
}

/// Prints a pass/fail verdict line.
pub fn verdict(label: &str, ok: bool) {
    println!("[{}] {label}", if ok { "PASS" } else { "FAIL" });
}

/// The median and the interquartile range (third minus first quartile,
/// linearly interpolated) of a sample: what a wall-clock gate compares
/// and the noise band it tolerates.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn median_iqr(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quantile = |p: f64| {
        let at = p * (sorted.len() - 1) as f64;
        let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
    };
    (quantile(0.5), quantile(0.75) - quantile(0.25))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(["frame", "message"]);
        t.row(["0", "failure signal"]);
        t.row(["1", "halt"]);
        let s = t.render();
        assert!(s.contains("| frame | message"));
        assert!(s.contains("| 1     | halt"));
        assert!(s.lines().count() >= 4);
        assert_eq!(s, t.to_string());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = TextTable::new(["a", "b", "c"]);
        t.row(["x"]);
        assert!(t.render().contains("| x | "));
    }

    #[test]
    fn median_iqr_interpolates_quartiles() {
        assert_eq!(median_iqr(&[3.0]), (3.0, 0.0));
        assert_eq!(median_iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), (3.0, 2.0));
        assert_eq!(median_iqr(&[1.0, 2.0, 3.0, 4.0]), (2.5, 1.5));
    }

    #[test]
    fn write_json_roundtrips() {
        std::env::set_var(
            "ARFS_RESULTS_DIR",
            std::env::temp_dir().join("arfs-test-results"),
        );
        let path = write_json("test.json", &vec![1, 2, 3]);
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains('1'));
        let path = write_text("test.jsonl", "{\"frame\":0}\n");
        let body = std::fs::read_to_string(path).unwrap();
        assert_eq!(body, "{\"frame\":0}\n");
        std::env::remove_var("ARFS_RESULTS_DIR");
    }
}
