//! Host-side measurement primitives: the benchmark's only wall-clock read,
//! process CPU time and peak resident memory.
//!
//! Every timing in this package goes through [`now`], so the D2 wall-clock
//! lint has exactly one annotated line to audit.

use std::time::Instant;

/// The single wall-clock read of the benchmark.
pub fn now() -> Instant {
    Instant::now() // alm-lint: allow(wall-clock) — the benchmark measures host time by design; all reads funnel through this helper
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. Linux fixes
/// `USER_HZ` at 100 on every architecture this repo builds for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process so far, including
/// threads that have already been joined (10 ms resolution).
pub fn process_cpu_secs() -> f64 {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_stat_cpu_ticks(&s)).unwrap_or(0) as f64
        / USER_HZ
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size (`VmHWM`) of this process in MB, or 0 when the
/// kernel does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status").ok().and_then(|s| parse_vm_hwm_kb(&s)).unwrap_or(0) as f64
        / 1024.0
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let line = "42 (a b) c)) S 1 42 42 0 -1 4194560 100 0 0 0 17 5 0 0 20 0 3 0 100 1000 10 \
                    18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(22));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n"), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_readings_are_sane_on_linux() {
        assert!(peak_rss_mb() > 0.0);
        let t0 = now();
        assert!(secs_since(t0) >= 0.0);
        assert!(process_cpu_secs() >= 0.0);
    }
}
