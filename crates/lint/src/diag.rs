//! Structured diagnostics and their rendering.

use alm_metrics::TextTable;

/// One finding: rule code + id, site, and a human-actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Short code, e.g. `L1`.
    pub code: &'static str,
    /// Rule id as used in `allow(...)` annotations, e.g. `lock-order`.
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub message: String,
}

impl Diagnostic {
    pub fn site(&self) -> String {
        format!("{}:{}", self.file, self.line)
    }
}

/// Render diagnostics as the standard report table, sorted for stable output.
pub fn render(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    let mut t = TextTable::new("alm-lint diagnostics", &["rule", "site", "message"]);
    for d in sorted {
        t.row(&[format!("{} {}", d.code, d.rule), d.site(), d.message.clone()]);
    }
    t.render_text()
}

/// Render diagnostics as a machine-readable JSON array with a fixed key
/// order (`file`, `line`, `code`, `rule`, `message`), sorted like the
/// table renderer so the artifact is byte-stable across runs. Hand-rolled:
/// the lint crate stays dependency-free by design.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut sorted: Vec<&Diagnostic> = diags.iter().collect();
    sorted.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    let mut out = String::from("[");
    for (i, d) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"file\": {}, \"line\": {}, \"code\": {}, \"rule\": {}, \"message\": {}}}",
            json_str(&d.file),
            d.line,
            json_str(d.code),
            json_str(d.rule),
            json_str(&d.message)
        ));
    }
    if !sorted.is_empty() {
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_sorted_escaped_and_key_stable() {
        let diags = vec![
            Diagnostic {
                code: "R1",
                rule: "rng-collision",
                file: "b.rs".into(),
                line: 9,
                message: "say \"hi\"".into(),
            },
            Diagnostic { code: "L1", rule: "lock-order", file: "a.rs".into(), line: 3, message: "n".into() },
        ];
        let s = render_json(&diags);
        assert!(s.find("a.rs").unwrap() < s.find("b.rs").unwrap(), "sorted by site");
        assert!(s.contains("\\\"hi\\\""), "quotes escaped: {s}");
        let obj = s.lines().nth(1).unwrap();
        let order: Vec<usize> = ["\"file\"", "\"line\"", "\"code\"", "\"rule\"", "\"message\""]
            .iter()
            .map(|k| obj.find(k).unwrap())
            .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "stable key order: {obj}");
        assert_eq!(render_json(&[]), "[]\n");
    }

    #[test]
    fn render_sorts_by_site() {
        let diags = vec![
            Diagnostic {
                code: "R1",
                rule: "rng-collision",
                file: "b.rs".into(),
                line: 9,
                message: "m".into(),
            },
            Diagnostic { code: "L1", rule: "lock-order", file: "a.rs".into(), line: 3, message: "n".into() },
        ];
        let s = render(&diags);
        assert!(s.find("a.rs:3").unwrap() < s.find("b.rs:9").unwrap());
    }
}
