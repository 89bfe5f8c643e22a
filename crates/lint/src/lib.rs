//! alm-lint: workspace static-analysis pass machine-checking the invariants
//! the test suite can only sample.
//!
//! The repo's correctness story rests on properties that are global and
//! structural rather than local and behavioral. This crate keeps the three
//! that only a cross-file scan can state: named RNG streams actually being
//! distinct (R1), lock acquisition staying acyclic through the transitive
//! call graph (L1), and canonical_json emissions staying golden-gate safe
//! (G1). Each is enforced here as a line/token-level scan over stripped
//! source — no `syn`, because the workspace bans new external
//! dependencies. What the toolchain *can* say is left to it (DESIGN.md,
//! "Enforced by the compiler"): both engines covering the whole fault
//! vocabulary, every config field validated, every report counter consumed
//! (`rustc`: wildcard-free matches, rest-free destructuring); no hash
//! container and no host-clock read outside `crates/runtime` (clippy's
//! `disallowed-types` / `disallowed-methods`, root `clippy.toml`); no
//! unseeded generator (the in-repo `rand` has no entropy source).
//!
//! Escape hatch: `// alm-lint: allow(<rule-id>) — <reason>`. The reason is
//! mandatory; the linter reports annotations with unknown rule ids or
//! missing reasons so the allowlist itself cannot rot.

#![forbid(unsafe_code)]

pub mod diag;
pub mod rules;
pub mod source;
pub mod walker;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use diag::{render, render_json, Diagnostic};
use rules::Rule;
use source::SourceFile;

/// The loaded file set all rules run against. `aux` holds non-source
/// inputs rules may need to diff against (today: the committed golden
/// campaign baselines, which the walker deliberately excludes from the
/// `.rs` scan), keyed by workspace-relative path.
pub struct Workspace {
    pub root: PathBuf,
    pub files: Vec<SourceFile>,
    pub aux: std::collections::BTreeMap<String, String>,
}

impl Workspace {
    /// Load every in-scope `.rs` file under `root` via the shared walker,
    /// plus the golden baselines as auxiliary texts.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        for rel in walker::rust_sources(root)? {
            let text = fs::read_to_string(root.join(&rel))?;
            files.push(SourceFile::parse(rel, &text));
        }
        let mut aux = std::collections::BTreeMap::new();
        for rel in walker::golden_baselines(root) {
            aux.insert(rel.clone(), fs::read_to_string(root.join(&rel))?);
        }
        Ok(Workspace { root: root.to_path_buf(), files, aux })
    }

    /// Build a workspace from in-memory `(rel_path, text)` pairs — the
    /// fixture-test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Workspace {
        Self::from_sources_with_aux(sources, &[])
    }

    /// Fixture entry point that also supplies auxiliary (non-source) texts
    /// such as a golden baseline JSON.
    pub fn from_sources_with_aux(sources: &[(&str, &str)], aux: &[(&str, &str)]) -> Workspace {
        Workspace {
            root: PathBuf::new(),
            files: sources.iter().map(|(rel, text)| SourceFile::parse(*rel, text)).collect(),
            aux: aux.iter().map(|(rel, text)| (rel.to_string(), text.to_string())).collect(),
        }
    }
}

/// A configured set of rules plus the annotation-hygiene pass.
pub struct Linter {
    rules: Vec<Box<dyn Rule>>,
}

impl Default for Linter {
    fn default() -> Self {
        Linter { rules: rules::default_rules() }
    }
}

impl Linter {
    pub fn new() -> Linter {
        Linter::default()
    }

    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Linter {
        Linter { rules }
    }

    pub fn rules(&self) -> &[Box<dyn Rule>] {
        &self.rules
    }

    /// Run every rule plus annotation hygiene; diagnostics come back sorted
    /// by (file, line, code) so output is stable across runs.
    pub fn run(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = self.check_annotations(ws);
        for rule in &self.rules {
            out.extend(rule.check(ws));
        }
        out.sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
        out
    }

    /// The allowlist must not rot: unknown rule ids and empty reasons are
    /// themselves findings.
    fn check_annotations(&self, ws: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for file in &ws.files {
            for a in &file.allows {
                if !self.rules.iter().any(|r| r.id() == a.rule) {
                    out.push(Diagnostic {
                        code: "A0",
                        rule: "allow-syntax",
                        file: file.rel.clone(),
                        line: a.at_line,
                        message: format!(
                            "annotation names unknown rule `{}` — it suppresses nothing",
                            a.rule
                        ),
                    });
                } else if a.reason.is_empty() {
                    out.push(Diagnostic {
                        code: "A0",
                        rule: "allow-syntax",
                        file: file.rel.clone(),
                        line: a.at_line,
                        message: format!(
                            "allow({}) has no reason — a justification is mandatory \
                             and the annotation suppresses nothing without one",
                            a.rule
                        ),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_hygiene_reports_unknown_rule_and_missing_reason() {
        // The retired ids name contracts rustc, clippy and the `rand` shim
        // now carry, not rules: annotations naming them are unknown.
        let retired = [
            "counter-parity",
            "fault-vocab",
            "config-coverage",
            "unordered-iter",
            "wall-clock",
            "rng-stream",
        ];
        let mut src = "// alm-lint: allow(no-such-rule) — because\nfn a() {}\n\
                       // alm-lint: allow(lock-order)\nfn b() {}\n"
            .to_string();
        for id in retired {
            src.push_str(&format!("// alm-lint: allow({id}) — retired\nfn f() {{}}\n"));
        }
        let ws = Workspace::from_sources(&[("crates/x/src/a.rs", &src)]);
        let diags = Linter::new().run(&ws);
        let a0: Vec<_> = diags.iter().filter(|d| d.code == "A0").collect();
        assert_eq!(a0.len(), 2 + retired.len(), "{diags:?}");
        assert!(a0[0].message.contains("no-such-rule"));
        assert!(a0[1].message.contains("no reason"));
        for (d, retired) in a0[2..].iter().zip(retired) {
            assert!(d.message.contains(&format!("unknown rule `{retired}`")), "{d:?}");
        }
    }

    #[test]
    fn clean_source_has_no_diagnostics() {
        // G1 intentionally reports its anchor files as missing on a
        // synthetic workspace (so a rename cannot silently disable it);
        // run the path-independent rules here.
        let ws = Workspace::from_sources(&[(
            "crates/des/src/a.rs",
            "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n",
        )]);
        let mut rules = rules::default_rules();
        rules.retain(|r| r.code() != "G1");
        assert!(Linter::with_rules(rules).run(&ws).is_empty());
    }
}
