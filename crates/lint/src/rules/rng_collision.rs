//! R1 `rng-collision`: named RNG streams must actually be distinct.
//!
//! Every generator is seeded (the in-repo `rand` has no entropy source) and
//! engine draws go through `alm_des::rng::stream(seed, label)`, but a
//! named stream is only as independent as its name: two call sites deriving
//! the same (seed, label) silently consume *one* stream — correlated
//! "independent" randomness that poisons differential comparisons — and a
//! label built inside a loop that omits the loop variable derives the
//! identical stream every iteration. This rule statically collects all
//! stream call sites (literal labels, inline `format!` labels, and labels
//! bound to a nearby `let <var> = format!(…)`), normalizes each to a
//! (seed-expression, label-shape) pair, then flags (a) two sites in one
//! crate with the same pair and (b) labels that omit an enclosing `for`
//! loop variable.
//!
//! Label text lives inside string literals, which the stripped view blanks;
//! stripping preserves columns, so structure (parens, commas) is balanced
//! on stripped chars while text is read from the raw line at the same
//! offsets.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::source::{has_token, SourceFile};
use crate::Workspace;

use super::Rule;

#[derive(Default)]
pub struct RngCollision;

const CALL: &str = "rng::stream(";

struct CallSite {
    file: String,
    line: usize,
    krate: String,
    seed: String,
    /// Label shape with every `format!` hole normalized to `{}`; `None`
    /// when the label could not be resolved statically.
    skeleton: Option<String>,
    /// Identifiers feeding the label: hole names plus format arguments.
    vars: BTreeSet<String>,
    /// Variables of enclosing `for` loops at the call site.
    loop_vars: Vec<String>,
    allowed: bool,
}

impl Rule for RngCollision {
    fn id(&self) -> &'static str {
        "rng-collision"
    }

    fn code(&self) -> &'static str {
        "R1"
    }

    fn description(&self) -> &'static str {
        "no two rng::stream call sites share a (seed, label) shape; loop labels name their loop variable"
    }

    fn check(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut sites = Vec::new();
        for file in &ws.files {
            collect_sites(file, &mut sites);
        }
        let mut out = Vec::new();

        // (a) collisions: same crate, same normalized seed, same skeleton.
        let mut groups: BTreeMap<(String, String, String), Vec<usize>> = BTreeMap::new();
        for (i, s) in sites.iter().enumerate() {
            if let Some(sk) = &s.skeleton {
                groups.entry((s.krate.clone(), s.seed.clone(), sk.clone())).or_default().push(i);
            }
        }
        for ((_, seed, sk), members) in &groups {
            if members.len() < 2 {
                continue;
            }
            for &i in members {
                let s = &sites[i];
                if s.allowed {
                    continue;
                }
                let other = members.iter().map(|&j| &sites[j]).find(|o| o.line != s.line || o.file != s.file);
                let Some(other) = other else { continue };
                out.push(Diagnostic {
                    code: self.code(),
                    rule: self.id(),
                    file: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "derives the same RNG stream as {}:{} — seed `{seed}` with label \
                         shape `{sk}` on both sites silently correlates two \"independent\" \
                         streams; add a distinguishing label component or annotate with a reason",
                        other.file, other.line
                    ),
                });
            }
        }

        // (b) loop-variable omission: every enclosing `for` variable must
        // appear in the label holes/args or in the seed expression.
        for s in &sites {
            if s.allowed || s.skeleton.is_none() {
                continue;
            }
            let missing: Vec<&str> = s
                .loop_vars
                .iter()
                .filter(|lv| !s.vars.contains(*lv) && !has_token(&s.seed, lv))
                .map(|s| s.as_str())
                .collect();
            if !missing.is_empty() {
                out.push(Diagnostic {
                    code: self.code(),
                    rule: self.id(),
                    file: s.file.clone(),
                    line: s.line,
                    message: format!(
                        "stream label `{}` omits enclosing loop variable{} {} — every \
                         iteration derives the identical stream; include {} in the label \
                         (or annotate with a reason if reuse is intended)",
                        s.skeleton.as_deref().unwrap_or(""),
                        if missing.len() > 1 { "s" } else { "" },
                        missing.iter().map(|m| format!("`{m}`")).collect::<Vec<_>>().join(", "),
                        if missing.len() > 1 { "them" } else { "it" },
                    ),
                });
            }
        }
        out
    }
}

fn crate_of(rel: &str) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    if parts.len() > 1 && parts[0] == "crates" {
        parts[1].to_string()
    } else {
        parts[0].to_string()
    }
}

fn collect_sites(file: &SourceFile, sites: &mut Vec<CallSite>) {
    let krate = crate_of(&file.rel);
    // Track enclosing `for` loops by brace depth as we walk the file.
    let mut depth: i64 = 0;
    let mut loops: Vec<(i64, String)> = Vec::new();
    for (idx, code) in file.code.iter().enumerate() {
        if !file.is_test[idx] {
            let mut from = 0;
            while let Some(pos) = code[from..].find(CALL) {
                let at = from + pos;
                from = at + CALL.len();
                if let Some(mut site) = parse_site(file, idx, at) {
                    site.krate = krate.clone();
                    site.loop_vars = loops.iter().map(|(_, v)| v.clone()).collect();
                    site.allowed = file.allowed("rng-collision", idx + 1);
                    sites.push(site);
                }
            }
        }
        // `for <pat> in …` opening a body on this line registers its
        // pattern idents at the pre-brace depth.
        if has_token(code, "for") && code.contains('{') {
            if let Some(fpos) = code.find("for ") {
                if let Some(inpos) = code[fpos..].find(" in ") {
                    let pat = &code[fpos + 4..fpos + inpos];
                    for var in idents_in(pat) {
                        loops.push((depth, var));
                    }
                }
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        loops.retain(|(open, _)| *open < depth);
    }
}

/// Identifier tokens in `s`, excluding `self`/`ctx`/`mut`/`ref` and `_`.
fn idents_in(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in s.chars().chain(std::iter::once(' ')) {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else if let Some(first) = cur.chars().next() {
            if (first.is_alphabetic() || first == '_')
                && !matches!(cur.as_str(), "self" | "ctx" | "mut" | "ref" | "_")
            {
                out.push(std::mem::take(&mut cur));
            } else {
                cur.clear();
            }
        }
    }
    out
}

/// Parse one `rng::stream(` call starting at char offset `at` of line
/// `idx` (0-based). Single-line calls only — every real site is; a call
/// split across lines simply yields no site.
fn parse_site(file: &SourceFile, idx: usize, at: usize) -> Option<CallSite> {
    let code: Vec<char> = file.code[idx].chars().collect();
    let raw: Vec<char> = file.raw[idx].chars().collect();
    let args_start = at + CALL.len();
    // Balance on stripped chars (literals are blanked, so their parens
    // cannot skew the depth) to find the top-level comma and close paren.
    let mut bal: i64 = 0;
    let mut comma = None;
    let mut close = None;
    for (i, &c) in code.iter().enumerate().skip(args_start) {
        match c {
            '(' | '[' | '{' => bal += 1,
            ')' | ']' | '}' if bal > 0 => bal -= 1,
            ')' => {
                close = Some(i);
                break;
            }
            ',' if bal == 0 && comma.is_none() => comma = Some(i),
            _ => {}
        }
    }
    let (comma, close) = (comma?, close?);
    let seed_raw: String = raw.get(args_start..comma)?.iter().collect();
    let seed = normalize_seed(&seed_raw);
    let label_code: String = code[comma + 1..close].iter().collect();
    let label_raw: String = raw.get(comma + 1..close)?.iter().collect();

    let (skeleton, vars) = if let Some(fpos) = label_code.find("format!") {
        parse_format(&label_raw, &label_code, fpos)
    } else if label_raw.contains('"') {
        // Plain literal label.
        let lit = read_string_lit(&label_raw, 0);
        (lit.map(|(s, _)| s), BTreeSet::new())
    } else {
        // Variable label: resolve a nearby `let <var> = format!(…)`.
        resolve_variable_label(file, idx, &label_raw)
    };
    Some(CallSite {
        file: file.rel.clone(),
        line: idx + 1,
        krate: String::new(),
        seed,
        skeleton,
        vars,
        loop_vars: Vec::new(),
        allowed: false,
    })
}

/// Strip whitespace and receiver prefixes so `self.seed` and `seed`
/// compare equal — they usually denote the same job seed.
fn normalize_seed(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_whitespace())
        .collect::<String>()
        .trim_start_matches('&')
        .replace("self.", "")
        .replace("ctx.", "")
}

/// The first string literal in `raw` at or after char offset `from`:
/// `(content, char_offset_past_closing_quote)`.
fn read_string_lit(raw: &str, from: usize) -> Option<(String, usize)> {
    let chars: Vec<char> = raw.chars().collect();
    let open = (from..chars.len()).find(|&i| chars[i] == '"')?;
    let mut out = String::new();
    let mut i = open + 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                out.push(chars[i]);
                if let Some(&n) = chars.get(i + 1) {
                    out.push(n);
                }
                i += 2;
            }
            '"' => return Some((out, i + 1)),
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
    None
}

/// Parse a `format!("…{hole}…", args)` region: skeleton with holes
/// normalized to `{}`, plus the identifier set from holes and args.
fn parse_format(raw: &str, _code: &str, fpos: usize) -> (Option<String>, BTreeSet<String>) {
    let Some((lit, lit_end)) = read_string_lit(raw, fpos) else {
        return (None, BTreeSet::new());
    };
    let mut skeleton = String::new();
    let mut vars = BTreeSet::new();
    let chars: Vec<char> = lit.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        match chars[i] {
            '{' if chars.get(i + 1) == Some(&'{') => {
                skeleton.push('{');
                i += 2;
            }
            '{' => {
                let end = (i + 1..chars.len()).find(|&j| chars[j] == '}').unwrap_or(chars.len());
                let hole: String = chars[i + 1..end].iter().collect();
                let name = hole.split(':').next().unwrap_or("");
                for v in idents_in(name) {
                    vars.insert(v);
                }
                skeleton.push_str("{}");
                i = end + 1;
            }
            '}' if chars.get(i + 1) == Some(&'}') => {
                skeleton.push('}');
                i += 2;
            }
            c => {
                skeleton.push(c);
                i += 1;
            }
        }
    }
    // Positional/named args after the literal also distinguish streams.
    let args: String = raw.chars().skip(lit_end).collect();
    for v in idents_in(&args) {
        vars.insert(v);
    }
    (Some(skeleton), vars)
}

/// Resolve `&label` at line `idx` by scanning backwards (within the
/// enclosing fn) for `label = format!(…)`. Unresolvable labels return
/// `(None, …)` and are exempt from both checks — a site the rule cannot
/// reason about is not a finding.
fn resolve_variable_label(
    file: &SourceFile,
    idx: usize,
    label_raw: &str,
) -> (Option<String>, BTreeSet<String>) {
    let var = idents_in(label_raw).into_iter().next_back();
    let Some(var) = var else { return (None, BTreeSet::new()) };
    let assign = format!("{var} =");
    for back in (0..idx).rev() {
        let code = &file.code[back];
        if code.contains("fn ") && code.contains('(') {
            break;
        }
        if has_token(code, &var) && code.contains(&assign) {
            if let Some(fpos) = code.find("format!") {
                return parse_format(&file.raw[back], code, fpos);
            }
            break;
        }
    }
    (None, BTreeSet::new())
}
