//! Line-level model of one Rust source file.
//!
//! The linter works on *stripped* source: comments and string/char literals
//! are blanked out (replaced by spaces, so columns and line numbers are
//! preserved) before any rule looks at the text. That keeps token scans from
//! tripping over `"Instant::now"` inside a message string or an example in a
//! doc comment, without pulling in a full parser — the workspace bans new
//! external dependencies, so there is no `syn` here by design.
//!
//! The model also carries the two pieces of per-line context every rule
//! needs: whether a line is test code (inside a `#[cfg(test)]` module, or in
//! a file under a `tests/` directory), and the `// alm-lint: allow(<rule>) —
//! <reason>` escape-hatch annotations with the line each one covers.

/// One `alm-lint: allow(...)` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// 1-based line of the annotation comment itself.
    pub at_line: usize,
    /// 1-based line the annotation covers: the same line for a trailing
    /// comment, the next code line for a whole-line comment.
    pub applies_to: usize,
    /// Rule id inside `allow(...)`, e.g. `lock-order`.
    pub rule: String,
    /// Free-text justification after the closing parenthesis. Mandatory:
    /// an empty reason is itself reported by the linter.
    pub reason: String,
}

/// A parsed source file: raw lines, stripped lines, per-line test flags and
/// allow annotations.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Original text, split into lines.
    pub raw: Vec<String>,
    /// Comment- and literal-stripped text, same line count as `raw`.
    pub code: Vec<String>,
    /// `is_test[i]` is true when line `i+1` is test-only code.
    pub is_test: Vec<bool>,
    /// Escape-hatch annotations found in the file.
    pub allows: Vec<Allow>,
}

impl SourceFile {
    pub fn parse(rel: impl Into<String>, text: &str) -> SourceFile {
        let rel = rel.into();
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let (code, comment_starts) = strip_lines(&raw);
        let in_tests_dir = rel.split('/').any(|c| c == "tests" || c == "benches" || c == "examples");
        let is_test = if in_tests_dir { vec![true; raw.len()] } else { test_mask(&code) };
        let allows = collect_allows(&raw, &code, &comment_starts);
        SourceFile { rel, raw, code, is_test, allows }
    }

    /// Whether `rule` is allowed at 1-based `line` by an annotation.
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows.iter().any(|a| a.rule == rule && a.applies_to == line && !a.reason.is_empty())
    }
}

// ---------------- literal/comment stripping ----------------

#[derive(Clone, Copy, PartialEq)]
enum St {
    Code,
    Block(u32),
    Str,
    RawStr(usize),
}

/// Blank out comments and string/char literals, preserving line shape.
/// Also reports, per line, the char offset where a `//` line comment
/// started (if any) — the annotation parser needs to know the difference
/// between a real comment and the same text inside a string literal.
fn strip_lines(raw: &[String]) -> (Vec<String>, Vec<Option<usize>>) {
    let mut st = St::Code;
    let mut out = Vec::with_capacity(raw.len());
    let mut starts = Vec::with_capacity(raw.len());
    for line in raw {
        let mut comment_at = None;
        out.push(strip_line(line, &mut st, &mut comment_at));
        starts.push(comment_at);
    }
    (out, starts)
}

fn strip_line(line: &str, st: &mut St, comment_at: &mut Option<usize>) -> String {
    let b: Vec<char> = line.chars().collect();
    let mut o: Vec<char> = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        match *st {
            St::Block(depth) => {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    *st = St::Block(depth + 1);
                    o.extend([' ', ' ']);
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    *st = if depth == 1 { St::Code } else { St::Block(depth - 1) };
                    o.extend([' ', ' ']);
                    i += 2;
                } else {
                    o.push(' ');
                    i += 1;
                }
            }
            St::Str => {
                if b[i] == '\\' {
                    o.extend([' ', ' ']);
                    i += 2;
                } else if b[i] == '"' {
                    *st = St::Code;
                    o.push(' ');
                    i += 1;
                } else {
                    o.push(' ');
                    i += 1;
                }
            }
            St::RawStr(hashes) => {
                if b[i] == '"' && b[i + 1..].iter().take_while(|c| **c == '#').count() >= hashes {
                    o.resize(o.len() + hashes + 1, ' ');
                    i += 1 + hashes;
                    *st = St::Code;
                } else {
                    o.push(' ');
                    i += 1;
                }
            }
            St::Code => {
                let c = b[i];
                let prev_ident = i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_');
                if c == '/' && b.get(i + 1) == Some(&'/') {
                    // Line comment: blank the rest of the line.
                    *comment_at = Some(i);
                    while i < b.len() {
                        o.push(' ');
                        i += 1;
                    }
                } else if c == '/' && b.get(i + 1) == Some(&'*') {
                    *st = St::Block(1);
                    o.extend([' ', ' ']);
                    i += 2;
                } else if c == '"' {
                    *st = St::Str;
                    o.push(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_ident {
                    // Possible raw/byte string prefix: r", r#", br", b".
                    let mut j = i + 1;
                    if c == 'b' && b.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let hashes = b[j..].iter().take_while(|ch| **ch == '#').count();
                    let is_raw = (c == 'r' || j > i + 1) && b.get(j + hashes) == Some(&'"');
                    if is_raw {
                        o.resize(o.len() + (j + hashes + 1 - i), ' ');
                        i = j + hashes + 1;
                        *st = St::RawStr(hashes);
                    } else if c == 'b' && b.get(i + 1) == Some(&'"') {
                        o.extend([' ', ' ']);
                        i += 2;
                        *st = St::Str;
                    } else {
                        o.push(c);
                        i += 1;
                    }
                } else if c == '\'' && !prev_ident {
                    // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`).
                    let next = b.get(i + 1).copied();
                    let after = b.get(i + 2).copied();
                    let is_lifetime =
                        matches!(next, Some(n) if n.is_alphabetic() || n == '_') && after != Some('\'');
                    if is_lifetime {
                        o.push(c);
                        i += 1;
                    } else {
                        // Char literal: blank until the closing quote.
                        o.push(' ');
                        i += 1;
                        while i < b.len() {
                            if b[i] == '\\' {
                                o.extend([' ', ' ']);
                                i += 2;
                            } else if b[i] == '\'' {
                                o.push(' ');
                                i += 1;
                                break;
                            } else {
                                o.push(' ');
                                i += 1;
                            }
                        }
                    }
                } else {
                    o.push(c);
                    i += 1;
                }
            }
        }
    }
    // An unterminated line comment never spills over; strings and block
    // comments carry their state into the next line.
    o.into_iter().collect()
}

// ---------------- test-region detection ----------------

/// Mark lines inside `#[cfg(test)] mod … { … }` regions.
fn test_mask(code: &[String]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut depth: i64 = 0;
    // (close_depth) stack of open test regions.
    let mut regions: Vec<i64> = Vec::new();
    let mut pending_cfg_test: Option<usize> = None;
    for (idx, line) in code.iter().enumerate() {
        if let Some(start) = pending_cfg_test {
            // The cfg(test) attribute must be followed by a mod within a
            // few lines (other attributes/doc lines may intervene).
            if line.contains("mod ") && line.contains('{') {
                regions.push(depth);
                pending_cfg_test = None;
            } else if idx > start + 3 || line.contains('}') {
                pending_cfg_test = None;
            }
        }
        if line.contains("#[cfg(test)]") {
            pending_cfg_test = Some(idx);
        }
        if !regions.is_empty() {
            mask[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if regions.last().is_some_and(|open| depth <= *open) {
                        regions.pop();
                    }
                }
                _ => {}
            }
        }
    }
    mask
}

// ---------------- allow annotations ----------------

const MARKER: &str = "alm-lint: allow(";

fn collect_allows(raw: &[String], code: &[String], comment_starts: &[Option<usize>]) -> Vec<Allow> {
    let mut out = Vec::new();
    for (idx, line) in raw.iter().enumerate() {
        let Some(pos) = line.find(MARKER) else { continue };
        // Only a real `//` line comment is a directive: the same text inside
        // a string literal or a `///`/`//!` doc comment (documentation that
        // *mentions* the syntax) must not register as an annotation.
        let Some(start) = comment_starts[idx] else { continue };
        let byte_start = line.char_indices().nth(start).map(|(b, _)| b).unwrap_or(start);
        if pos < byte_start || line[byte_start..].starts_with("///") || line[byte_start..].starts_with("//!")
        {
            continue;
        }
        let rest = &line[pos + MARKER.len()..];
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..]
            .trim_start_matches([' ', '\u{2014}', '\u{2013}', '-', ':', '\t'])
            .trim()
            .to_string();
        // Trailing comment covers its own line; a whole-line comment covers
        // the next line that has any code on it.
        let own_code = code[idx].trim();
        let applies_to = if !own_code.is_empty() {
            idx + 1
        } else {
            let next = (idx + 1..code.len()).find(|&j| !code[j].trim().is_empty());
            next.map(|j| j + 1).unwrap_or(idx + 1)
        };
        out.push(Allow { at_line: idx + 1, applies_to, rule, reason });
    }
    out
}

// ---------------- token helpers shared by rules ----------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `needle` occurs in `hay` delimited by non-identifier characters
/// on both sides — a word-boundary substring match.
pub fn has_token(hay: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = hay[start..].find(needle) {
        let at = start + pos;
        let before_ok = !hay[..at].chars().next_back().map(is_ident_char).unwrap_or(false);
        let end = at + needle.len();
        let after_ok = !hay[end..].chars().next().map(is_ident_char).unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// The identifier ending exactly at byte offset `end` of `s` (exclusive),
/// e.g. `ident_ending_at("self.flows", 10) == Some("flows")`.
pub fn ident_ending_at(s: &str, end: usize) -> Option<&str> {
    let head = &s[..end];
    let start = head.rfind(|c: char| !is_ident_char(c)).map(|p| p + 1).unwrap_or(0);
    let id = &head[start..];
    let first = id.chars().next()?;
    if first.is_alphabetic() || first == '_' {
        Some(id)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_and_strings() {
        let f = SourceFile::parse("x/src/a.rs", "let a = \"Instant::now\"; // Instant::now\nlet b = 1;");
        assert!(!f.code[0].contains("Instant"));
        assert!(f.code[1].contains("let b"));
    }

    #[test]
    fn strips_block_comments_across_lines() {
        let f = SourceFile::parse("x/src/a.rs", "a /* one\ntwo HashMap\nthree */ b");
        assert!(!f.code[1].contains("HashMap"));
        assert!(f.code[2].trim().ends_with('b'));
    }

    #[test]
    fn raw_strings_and_chars_stripped_lifetimes_kept() {
        let f = SourceFile::parse(
            "x/src/a.rs",
            "fn f<'a>(x: &'a str) { let c = '\"'; let s = r#\"thread_rng\"#; }",
        );
        assert!(f.code[0].contains("'a str"), "lifetime survives: {}", f.code[0]);
        assert!(!f.code[0].contains("thread_rng"));
        // The stripped char literal must not open a string state.
        assert!(f.code[0].contains('}'));
    }

    #[test]
    fn test_mask_covers_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n";
        let f = SourceFile::parse("x/src/a.rs", src);
        assert!(!f.is_test[0]);
        assert!(f.is_test[3]);
        assert!(!f.is_test[5]);
    }

    #[test]
    fn tests_dir_is_all_test() {
        let f = SourceFile::parse("crates/x/tests/t.rs", "fn a() {}");
        assert!(f.is_test[0]);
    }

    #[test]
    fn allow_parsing_trailing_and_standalone() {
        let src = "let g = a.lock(); // alm-lint: allow(lock-order) — b is never held here\n\
                   // alm-lint: allow(golden-emission) — re-bless lands with this change\n\
                   let t = field();\n\
                   // alm-lint: allow(rng-collision)\n\
                   let r = f();\n";
        let f = SourceFile::parse("x/src/a.rs", src);
        assert!(f.allowed("lock-order", 1));
        assert!(f.allowed("golden-emission", 3));
        assert!(!f.allowed("rng-collision", 5), "missing reason never suppresses");
        assert_eq!(f.allows.len(), 3);
        assert!(f.allows[2].reason.is_empty());
    }

    #[test]
    fn token_helpers() {
        assert!(has_token("a Instant b", "Instant"));
        assert!(!has_token("MyInstant", "Instant"));
        assert_eq!(ident_ending_at("self.att.flows.iter", 14), Some("flows"));
        assert_eq!(ident_ending_at("(&flows", 7), Some("flows"));
    }
}
