//! Shared file discovery.
//!
//! Every rule sees the same file set, collected by this one walker, so the
//! exclusions (build output, vendored shims, golden reports, the lint's own
//! fixture corpus) are stated exactly once and no rule can accidentally
//! scan a vendored or generated file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Path prefixes (workspace-relative, `/`-separated) that are never
/// scanned. `target` and hidden directories are excluded wherever they
/// appear; the rest are exact prefixes.
const EXCLUDED_PREFIXES: &[&str] = &[
    // Vendored API-compatible stand-ins for crates.io deps: not ours.
    "shims/",
    // Checked-in golden campaign reports (JSON today, but the exclusion is
    // the guarantee, not the file extension).
    "crates/bench/golden/",
    // The lint's fixture corpus: deliberately violating sources.
    "crates/lint/tests/fixtures/",
    // The benchmark package: a cargo workspace of its own that neither
    // `cargo clippy --workspace` nor this scan covers. It is frozen between
    // benchmark-defining changes, and its one `allow(wall-clock)` annotation
    // names a rule clippy's `disallowed-methods` has since replaced.
    "benchmark/",
];

/// Recursively collect workspace-relative paths of `.rs` sources under
/// `root`, honoring the shared exclusions, in sorted (deterministic) order.
pub fn rust_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    out.sort();
    Ok(out)
}

/// Workspace-relative directory of the committed golden baselines. The
/// directory is *excluded* from source scanning (the reports are generated
/// JSON, not code) but the G1 emission-safety rule needs the baseline key
/// set, so the walker exposes it as auxiliary (non-source) files.
pub const GOLDEN_DIR: &str = "crates/bench/golden/";

/// Collect workspace-relative paths of `.json` golden baselines, sorted.
/// An absent golden directory is not an error — the rule that consumes
/// these reports the missing baseline itself.
pub fn golden_baselines(root: &Path) -> Vec<String> {
    let dir = root.join(GOLDEN_DIR);
    let Ok(entries) = fs::read_dir(&dir) else { return Vec::new() };
    let mut out: Vec<String> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| format!("{GOLDEN_DIR}{}", p.file_name().unwrap_or_default().to_string_lossy()))
        .collect();
    out.sort();
    out
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with('.') || name == "target" {
            continue;
        }
        let rel = rel_of(root, &path);
        if EXCLUDED_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Workspace-relative `/`-separated path.
fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = rel.components().map(|c| c.as_os_str().to_string_lossy()).collect::<Vec<_>>().join("/");
    if path.is_dir() {
        s.push('/');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excludes_are_prefixes_of_the_real_layout() {
        // Guard against the exclusion list silently rotting if directories
        // are renamed: each prefix names a path segment structure that the
        // walker compares literally.
        for p in EXCLUDED_PREFIXES {
            assert!(p.ends_with('/'), "{p} must be a directory prefix");
        }
    }

    #[test]
    fn walks_and_excludes() {
        let dir = std::env::temp_dir().join(format!("alm-lint-walk-{}", std::process::id()));
        let mk = |rel: &str, body: &str| {
            let p = dir.join(rel);
            fs::create_dir_all(p.parent().unwrap()).unwrap();
            fs::write(p, body).unwrap();
        };
        mk("crates/a/src/lib.rs", "");
        mk("crates/bench/golden/x.rs", "");
        mk("crates/lint/tests/fixtures/f.rs", "");
        mk("shims/rand/src/lib.rs", "");
        mk("benchmark/src/main.rs", "");
        mk("target/debug/build.rs", "");
        mk("src/lib.rs", "");
        mk("notes.md", "");
        let got = rust_sources(&dir).unwrap();
        fs::remove_dir_all(&dir).ok();
        assert_eq!(got, vec!["crates/a/src/lib.rs".to_string(), "src/lib.rs".to_string()]);
    }
}
