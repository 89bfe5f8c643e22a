//! Reproduce the paper's figures and tables: the full evaluation of §V
//! plus the motivation figures of §II. Each report is printed to stdout
//! and its JSON twin written to `target/experiments/<id>.json`, the
//! machine-readable source of EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p alm-bench --release --bin all_figures -- [--seed N] [--quick] [--fcm-cap N] [ID...]
//! ```
//!
//! With no ids every figure runs; otherwise only the named ones. Either
//! way they run in the order of [`FIGURES`]. An unknown id exits 2 and
//! lists the valid ones. `--quick` shortens the input-size sweep of
//! figs. 11 and 13, and `--fcm-cap N` ablates the FCM cap (Algorithm 1
//! line 16) in fig. 14. `fig10` prints the proactive run and then the
//! ablation without proactive MapTask regeneration.

#![forbid(unsafe_code)]

use alm_metrics::ExperimentReport;
use alm_sim::experiment as ex;
use std::path::PathBuf;

struct Opts {
    seed: u64,
    /// Input-size sweep (GB) for the scaling figures 11 and 13.
    sizes_gb: &'static [u64],
    fcm_cap: Option<usize>,
}

type Figure = (&'static str, fn(&Opts) -> Vec<ExperimentReport>);

const FIGURES: [Figure; 13] = [
    ("fig1", |o| vec![ex::fig1(o.seed)]),
    ("fig2", |o| vec![ex::fig2(o.seed)]),
    ("fig3", |o| vec![ex::fig3(o.seed)]),
    ("fig4", |o| vec![ex::fig4(o.seed)]),
    ("fig8", |o| vec![ex::fig8(o.seed)]),
    ("fig9", |o| vec![ex::fig9(o.seed)]),
    ("fig10", |o| vec![ex::fig10(o.seed, true), ex::fig10(o.seed + 1000, false)]),
    ("table2", |o| vec![ex::table2(o.seed)]),
    ("fig11", |o| vec![ex::fig11(o.seed, o.sizes_gb)]),
    ("fig12", |o| vec![ex::fig12(o.seed)]),
    ("fig13", |o| vec![ex::fig13(o.seed, o.sizes_gb)]),
    ("fig14", |o| vec![ex::fig14(o.seed, o.fcm_cap)]),
    ("fig15", |o| vec![ex::fig15(o.seed)]),
];

fn main() {
    let mut opts = Opts { seed: 42, sizes_gb: &[10, 20, 40, 80, 160, 320], fcm_cap: None };
    let mut only = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => opts.seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(opts.seed),
            "--quick" => opts.sizes_gb = &[10, 40, 160],
            "--fcm-cap" => opts.fcm_cap = args.next().and_then(|v| v.parse().ok()),
            id if FIGURES.iter().any(|(known, _)| *known == id) => only.push(a),
            other => {
                let ids: Vec<&str> = FIGURES.iter().map(|(id, _)| *id).collect();
                eprintln!("all_figures: unknown figure id {other:?}; valid ids: {}", ids.join(" "));
                std::process::exit(2);
            }
        }
    }
    for (id, run) in FIGURES {
        if only.is_empty() || only.iter().any(|o| o == id) {
            run(&opts).iter().for_each(emit);
        }
    }
}

/// Print the report and persist its JSON twin.
fn emit(report: &ExperimentReport) {
    println!("{}", report.render_text());
    let dir = PathBuf::from("target/experiments");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{}.json", report.id));
        if std::fs::write(&path, report.to_json()).is_ok() {
            eprintln!("(json written to {})", path.display());
        }
    }
}
