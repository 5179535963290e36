//! # lattice-bench
//!
//! The paper-reproduction harness: one binary per table/figure of the
//! paper's evaluation (see EXPERIMENTS.md for the index). These print
//! model-clock results; host-clock timing of the kernels, farm and
//! daemon is the `benchmark/` package's job.
//!
//! Every binary prints a [`Table`] in markdown (default) or CSV
//! (`--csv`), with the paper's reported values alongside ours where the
//! paper gives numbers.
//!
//! | binary | experiment |
//! |--------|------------|
//! | `fig_wsa_design_space`       | E1 — §6.1 design curves, WSA corner |
//! | `fig_spa_design_space`       | E2 — §6.2 design curves, SPA corner |
//! | `tab_architecture_comparison`| E3 — §6.3 optimized comparison |
//! | `tab_wsae_vs_spa`            | E4 — §6.3 WSA-E vs SPA scaling |
//! | `tab_span_bounds`            | E5 — Theorem 1 span bounds |
//! | `fig_pebbling_bound`         | E6 — §7 `R = O(B·S^{1/d})` |
//! | `tab_prototype`              | E7 — §8 prototype derating |
//! | `tab_model_vs_sim`           | E8 — analytical vs measured |
//! | `tab_farm_scaling`           | E9 — board-farm scaling vs links-per-board model |
//! | `tab_tech_scaling`           | ablation — §8 feature-size scaling |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Output format for experiment tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// GitHub-flavored markdown (default).
    Markdown,
    /// Comma-separated values.
    Csv,
}

/// Parses the standard experiment-binary CLI: `[--csv]`.
pub fn format_from_args() -> Format {
    if std::env::args().any(|a| a == "--csv") {
        Format::Csv
    } else {
        Format::Markdown
    }
}

/// A simple experiment table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: &[&dyn Display]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Appends a pre-formatted row of strings.
    pub fn row_strings(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Adds a footnote line.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders in the requested format.
    pub fn render(&self, fmt: Format) -> String {
        match fmt {
            Format::Markdown => self.markdown(),
            Format::Csv => self.csv(),
        }
    }

    /// Renders as markdown with aligned columns.
    pub fn markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("## {}\n\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<1$}|", "", w + 2));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for n in &self.notes {
            out.push_str(&format!("\n*{n}*\n"));
        }
        out
    }

    /// Renders as CSV (title and notes as `#` comments).
    pub fn csv(&self) -> String {
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = format!("# {}\n", self.title);
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out
    }

    /// Prints to stdout in the requested format.
    pub fn print(&self, fmt: Format) {
        print!("{}", self.render(fmt));
        println!();
    }
}

/// Formats a float with `digits` significant decimals, trimming noise.
pub fn fnum(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Fits the slope of `log(y)` against `log(x)` by least squares — used
/// by the pebbling experiment to recover the `1/d` exponent.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2);
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|p| p.0).sum();
    let sy: f64 = logs.iter().map(|p| p.1).sum();
    let sxx: f64 = logs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = logs.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.row(&[&1, &"x"]);
        t.row(&[&22, &"yy"]);
        t.note("a note");
        let md = t.markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| a  | bb |"));
        assert!(md.contains("| 22 | yy |"));
        assert!(md.contains("*a note*"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_rendering_escapes() {
        let mut t = Table::new("T", &["x", "y"]);
        t.row_strings(vec!["a,b".into(), "q\"q".into()]);
        let csv = t.csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
        assert!(csv.starts_with("# T\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        Table::new("T", &["x", "y"]).row(&[&1]);
    }

    #[test]
    fn loglog_slope_recovers_exponents() {
        let half: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i as f64).sqrt() * 3.0)).collect();
        assert!((loglog_slope(&half) - 0.5).abs() < 1e-9);
        let cube: Vec<(f64, f64)> =
            (1..=10).map(|i| (i as f64, (i as f64).powf(1.0 / 3.0))).collect();
        assert!((loglog_slope(&cube) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fnum_formats() {
        assert_eq!(fnum(1.23456, 2), "1.23");
        assert_eq!(fnum(2.0, 0), "2");
    }

    #[test]
    fn render_dispatch() {
        let mut t = Table::new("T", &["x"]);
        t.row(&[&5]);
        assert_eq!(t.render(Format::Csv), t.csv());
        assert_eq!(t.render(Format::Markdown), t.markdown());
    }
}
