//! Command-line surface. Every flag takes a value; an unknown flag, a
//! missing value or an unparsable number is an error, never a silent
//! fallback to the default.

use std::path::PathBuf;

pub const DEFAULT_SEED: u64 = 42;
/// Matches `run_seconds` in the root `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 12;

pub const USAGE: &str = "usage: alm-benchmark --workload NAME [--seed S] [--seconds N] [--trace 0|1] \
[--repeat N] [--seed-step K] [--out-dir DIR]";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub workload: String,
    /// Every generated input derives from this.
    pub seed: u64,
    /// Minimum measured time; the timed loop stops at the first cycle
    /// boundary past it.
    pub seconds: u64,
    /// Record spans and run the layer replays; prints the per-layer
    /// metrics instead of the end-to-end ones.
    pub trace: bool,
    /// Run the workload this many times as child processes and print each
    /// metric's median, quartiles and relative spread.
    pub repeat: u32,
    /// Added to the seed between repeats (0 repeats one seed).
    pub seed_step: u64,
    /// Where a traced run writes `trace-<workload>.json`, relative to the
    /// current directory (the repo root, for the documented commands).
    pub out_dir: PathBuf,
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: `{value}` is not a valid number"))
}

impl Args {
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            repeat: 1,
            seed_step: 0,
            out_dir: PathBuf::from("benchmark/out"),
        };
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = number(&flag, &value)?,
                "--seconds" => args.seconds = number(&flag, &value)?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                    }
                }
                "--repeat" => {
                    args.repeat = number(&flag, &value)?;
                    if args.repeat == 0 {
                        return Err("--repeat: must be at least 1".into());
                    }
                }
                "--seed-step" => args.seed_step = number(&flag, &value)?,
                "--out-dir" => args.out_dir = PathBuf::from(value),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let a = parse(&["--workload", "sim-campaign"]).unwrap();
        assert_eq!(a.workload, "sim-campaign");
        assert_eq!(a.seed, DEFAULT_SEED);
        assert_eq!(a.seconds, DEFAULT_SECONDS);
        assert!(!a.trace);
        assert_eq!(a.repeat, 1);
        assert_eq!(a.seed_step, 0);
        assert_eq!(a.out_dir, PathBuf::from("benchmark/out"));
    }

    #[test]
    fn overrides_replace_every_default() {
        let a = parse(&[
            "--seed",
            "7",
            "--workload",
            "warehouse",
            "--trace",
            "1",
            "--repeat",
            "5",
            "--seconds",
            "3",
            "--seed-step",
            "1",
            "--out-dir",
            "/tmp/x",
        ])
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "warehouse".into(),
                seed: 7,
                seconds: 3,
                trace: true,
                repeat: 5,
                seed_step: 1,
                out_dir: PathBuf::from("/tmp/x"),
            }
        );
        // The driver spells tracing off explicitly.
        assert!(!parse(&["--workload", "w", "--trace", "0"]).unwrap().trace);
    }

    #[test]
    fn malformed_input_is_an_error_not_a_default() {
        assert!(parse(&[]).unwrap_err().contains("--workload"));
        assert!(parse(&["--workload"]).unwrap_err().contains("missing value"));
        assert!(parse(&["--workload", "w", "--seed", "abc"]).unwrap_err().contains("--seed"));
        assert!(parse(&["--workload", "w", "--trace", "yes"]).unwrap_err().contains("--trace"));
        assert!(parse(&["--workload", "w", "--repeat", "0"]).unwrap_err().contains("--repeat"));
        assert!(parse(&["--workload", "w", "--warmup", "3"]).unwrap_err().contains("unknown flag"));
    }
}
