//! Aligned text tables — the unit a paper "table" is made of.

use serde::Serialize;

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TextTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TextTable {
        TextTable {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics in debug builds if the arity mismatches the
    /// header (a malformed table is a harness bug, not a data condition).
    pub fn row(&mut self, cells: &[String]) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity must match header");
        self.rows.push(cells.to_vec());
    }

    /// Render as a GitHub-flavoured markdown table (title as a heading),
    /// for reports destined for READMEs / PR bodies rather than consoles.
    pub fn render_markdown(&self) -> String {
        let cell = |c: &str| c.replace('|', "\\|");
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!(
            "| {} |\n",
            self.headers.iter().map(|h| cell(h)).collect::<Vec<_>>().join(" | ")
        ));
        out.push_str(&format!("|{}\n", " --- |".repeat(self.headers.len())));
        for r in &self.rows {
            out.push_str(&format!("| {} |\n", r.iter().map(|c| cell(c)).collect::<Vec<_>>().join(" | ")));
        }
        out
    }

    /// Render with columns padded to their widest cell.
    pub fn render_text(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = format!("## {}\n", self.title);
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                line.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1))));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("Table II", &["Type", "Point", "Additional Failures", "Execution Time"]);
        t.row(&["YARN".into(), "10%".into(), "2".into(), "429 s".into()]);
        t.row(&["SFM".into(), "10%".into(), "0".into(), "435 s".into()]);
        let txt = t.render_text();
        assert!(txt.contains("Table II"));
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 5); // title, header, rule, 2 rows
                                    // Header columns align with row columns.
        let hpos = lines[1].find("Point").unwrap();
        assert_eq!(&lines[3][hpos..hpos + 3], "10%");
    }

    #[test]
    fn renders_markdown() {
        let mut t = TextTable::new("Table II", &["Type", "Additional Failures"]);
        t.row(&["YARN".into(), "2".into()]);
        t.row(&["SFM|ALG".into(), "0".into()]);
        let md = t.render_markdown();
        assert!(md.starts_with("### Table II\n"));
        assert!(md.contains("| Type | Additional Failures |"));
        assert!(md.contains("| --- | --- |"));
        assert!(md.contains("| SFM\\|ALG | 0 |"), "pipes must be escaped: {md}");
    }
}
