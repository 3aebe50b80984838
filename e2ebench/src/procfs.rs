//! Process counters read from `/proc/self`: minor page faults and user /
//! system CPU time (`stat`), and the resident-set high-water mark
//! (`status`, `VmHWM`). The counters cover every thread of the process.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields. Linux exports
/// them in `USER_HZ`, which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// One reading of the cumulative process counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcSample {
    /// Minor page faults so far.
    pub minflt: u64,
    /// User-mode CPU time so far (ms).
    pub user_ms: f64,
    /// Kernel-mode CPU time so far (ms).
    pub sys_ms: f64,
}

impl ProcSample {
    /// Reads `/proc/self/stat` now.
    ///
    /// # Panics
    ///
    /// Panics when the file is unreadable or malformed (the benchmark
    /// runs on Linux only).
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
        parse_stat(&text).expect("/proc/self/stat has the documented layout")
    }

    /// The sum of two counter growths.
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt + other.minflt,
            user_ms: self.user_ms + other.user_ms,
            sys_ms: self.sys_ms + other.sys_ms,
        }
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }
}

/// Parses the minor-fault and CPU-time fields of a `/proc/<pid>/stat`
/// line. The command name (field 2) is parenthesised and may itself hold
/// spaces or parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcSample> {
    let rest = &text[text.rfind(')')? + 1..];
    // After the name: state(3) ppid pgrp session tty_nr tpgid flags
    // minflt(10) cminflt majflt cmajflt utime(14) stime(15).
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |n: usize| -> Option<u64> { fields.get(n - 3)?.parse().ok() };
    Some(ProcSample {
        minflt: field(10)?,
        user_ms: field(14)? as f64 * 1000.0 / USER_HZ,
        sys_ms: field(15)? as f64 * 1000.0 / USER_HZ,
    })
}

/// Parses `VmHWM` (peak resident set, kB) out of a `/proc/<pid>/status`
/// text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

/// The process's peak resident set so far, in MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> f64 {
    let text = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kb(&text).expect("/proc/self/status reports VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (my (odd) bin) R 1 4242 4242 0 -1 4194304 \
        1234 0 5 0 250 37 0 0 20 0 3 0 100 1000000 500 18446744073709551615";

    #[test]
    fn stat_fields_are_counted_after_the_last_paren() {
        let s = parse_stat(STAT).expect("parses");
        assert_eq!(s.minflt, 1234);
        assert_eq!(s.user_ms, 2500.0);
        assert_eq!(s.sys_ms, 370.0);
    }

    #[test]
    fn malformed_stat_is_rejected() {
        assert_eq!(parse_stat("no paren here"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
        assert_eq!(parse_stat("1 (x) R 1 2 3 4 5 6 many 0 0 0 1 2"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kilobytes() {
        let status = "Name:\tbench\nVmPeak:\t  90000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(51200));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_counters_only_grow() {
        let a = ProcSample::now();
        let v: Vec<u8> = vec![1; 1 << 20];
        std::hint::black_box(&v);
        let b = ProcSample::now();
        let d = b.since(&a);
        assert!(d.user_ms >= 0.0 && d.sys_ms >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
