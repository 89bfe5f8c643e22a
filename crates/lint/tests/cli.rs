//! End-to-end tests of the `alm-lint` binary: the seeded fixture workspace
//! must fail `--check` with every rule firing, and the real workspace must
//! pass it — the self-test that keeps the repo lint-clean.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_alm-lint"))
        .args(extra)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run alm-lint")
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad_workspace")
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn seeded_fixture_fails_check_with_every_rule_firing() {
    let out = lint(&fixture_root(), &["--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "seeded violations must fail --check:\n{stdout}");
    for code in ["L1", "A0", "G1", "R1"] {
        assert!(stdout.contains(code), "code {code} missing from report:\n{stdout}");
    }
    // Each seed lands where it was planted.
    for site in [
        "crates/core/src/rng.rs",
        "crates/runtime/src/am.rs",
        "crates/chaos/src/campaign.rs",
        "crates/sched/src/campaign.rs",
    ] {
        assert!(stdout.contains(site), "site {site} missing from report:\n{stdout}");
    }
    // The golden-gate seed fires on the unguarded novel key, not on the
    // baseline keys and not on the guarded one.
    assert!(stdout.contains("stall_ratio"), "seeded emission gap missing:\n{stdout}");
    assert!(!stdout.contains("degraded_drops"), "guarded emission must not fire:\n{stdout}");
    // The RNG seeds: a label-shape collision and a loop-invariant label.
    assert!(stdout.contains("warehouse-jitter"), "seeded stream collision missing:\n{stdout}");
    assert!(stdout.contains("loop variable `t`"), "seeded loop-label gap missing:\n{stdout}");
}

#[test]
fn without_check_the_fixture_still_reports_but_exits_zero() {
    let out = lint(&fixture_root(), &[]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "report mode never fails the build:\n{stdout}");
    assert!(stdout.contains("diagnostic(s)"), "{stdout}");
}

#[test]
fn rule_filter_restricts_the_report() {
    let out = lint(&fixture_root(), &["--check", "--rule", "L1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success());
    assert!(stdout.contains("lock-order"), "{stdout}");
    assert!(!stdout.contains("golden-emission"), "only the selected rule runs:\n{stdout}");
}

#[test]
fn real_workspace_passes_check() {
    let out = lint(&workspace_root(), &["--check"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "the workspace must stay lint-clean — fix the finding or annotate with a reason:\n{stdout}"
    );
    assert!(stdout.contains("files clean (4 invariants)"), "{stdout}");
}

#[test]
fn list_rules_names_exactly_the_three_coded_rules() {
    let out =
        Command::new(env!("CARGO_BIN_EXE_alm-lint")).arg("--list-rules").output().expect("run alm-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    let listed: Vec<(&str, &str)> = stdout
        .lines()
        .map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next().unwrap_or(""), cols.next().unwrap_or(""))
        })
        .collect();
    assert_eq!(
        listed,
        [("L1", "lock-order"), ("G1", "golden-emission"), ("R1", "rng-collision")],
        "{stdout}"
    );
}

#[test]
fn json_mode_emits_stable_machine_readable_diagnostics() {
    let out = lint(&fixture_root(), &["--json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "json without --check exits zero:\n{stdout}");
    // stdout is pure JSON (the summary moves to stderr so pipes stay clean).
    assert!(stdout.trim_start().starts_with('['), "stdout must be a JSON array:\n{stdout}");
    assert!(stderr.contains("diagnostic(s)"), "summary goes to stderr:\n{stderr}");
    // Fixed key order per object, so diffs of CI artifacts are meaningful.
    let first = stdout.find("{\"file\":").expect("at least one diagnostic object");
    let obj = &stdout[first..];
    let pos = |k: &str| obj.find(k).unwrap_or_else(|| panic!("key {k} missing:\n{obj}"));
    assert!(pos("\"file\":") < pos("\"line\":"));
    assert!(pos("\"line\":") < pos("\"code\":"));
    assert!(pos("\"code\":") < pos("\"rule\":"));
    assert!(pos("\"rule\":") < pos("\"message\":"));
    // --check still gates in json mode.
    let gated = lint(&fixture_root(), &["--check", "--json"]);
    assert!(!gated.status.success(), "seeded fixture must fail --check --json");
}
