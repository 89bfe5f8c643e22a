//! CLI driver: `alm-lint [--check] [--json] [--root <dir>] [--rule <id>]…`
//!
//! `--check` is the CI mode: exit 1 when any diagnostic is produced.
//! Without it the tool reports and exits 0, for local exploration.
//! `--json` swaps the human table for a machine-readable report on stdout
//! (stable key order, byte-stable across runs) — the CI artifact format.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use alm_lint::{render, render_json, Linter, Workspace};

fn main() -> ExitCode {
    let mut check = false;
    let mut json = false;
    let mut list = false;
    let mut root: Option<PathBuf> = None;
    let mut only: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--json" => json = true,
            "--list-rules" => list = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root needs a directory"),
            },
            "--rule" => match args.next() {
                Some(id) => only.push(id),
                None => return usage("--rule needs a rule id"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let linter = if only.is_empty() {
        Linter::new()
    } else {
        let mut rules = alm_lint::rules::default_rules();
        rules.retain(|r| only.iter().any(|id| id == r.id() || id == r.code()));
        if rules.is_empty() {
            return usage(&format!("no rule matches {only:?}"));
        }
        Linter::with_rules(rules)
    };

    if list {
        for r in linter.rules() {
            println!("{:<3} {:<16} {}", r.code(), r.id(), r.description());
        }
        return ExitCode::SUCCESS;
    }

    let root = root.unwrap_or_else(find_workspace_root);
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("alm-lint: cannot load workspace at {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let diags = linter.run(&ws);
    if json {
        // The JSON report goes to stdout (the artifact); the summary goes
        // to stderr so redirection captures pure JSON.
        print!("{}", render_json(&diags));
        eprintln!("alm-lint: {} diagnostic(s) across {} files", diags.len(), ws.files.len());
        return if check && !diags.is_empty() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    }
    if diags.is_empty() {
        // A0 annotation hygiene runs alongside the coded rules.
        println!("alm-lint: {} files clean ({} invariants)", ws.files.len(), linter.rules().len() + 1);
        return ExitCode::SUCCESS;
    }
    println!("{}", render(&diags));
    println!("alm-lint: {} diagnostic(s) across {} files", diags.len(), ws.files.len());
    if check {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Walk up from the current directory to the first `Cargo.toml` declaring a
/// `[workspace]`, so the tool works from any subdirectory.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("alm-lint: {err}");
    }
    eprintln!(
        "usage: alm-lint [--check] [--json] [--root <dir>] [--rule <id-or-code>]... [--list-rules]\n\
         \n\
         --check        exit nonzero when any diagnostic is produced (CI mode)\n\
         --json         machine-readable report on stdout (stable key order)\n\
         --root <dir>   workspace root (default: nearest [workspace] Cargo.toml)\n\
         --rule <id>    run only the named rule(s); accepts ids or codes (L1, G1, ...)\n\
         --list-rules   print the rule table and exit"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
