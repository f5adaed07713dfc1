//! Process accounting read from `/proc/self`: CPU time and peak RSS.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture (it is an ABI constant, not the kernel's HZ).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`.
///
/// The second field (`comm`) is wrapped in parentheses and may itself
/// contain spaces and parentheses, so fields are counted from the *last*
/// `)`: `utime` and `stime` are the 12th and 13th fields after it.
pub fn parse_stat_cpu_secs(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size in MiB from the text of `/proc/<pid>/status`.
pub fn parse_status_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used so far.
pub fn cpu_secs() -> Option<f64> {
    parse_stat_cpu_secs(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// This process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_status_peak_rss_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_survives_hostile_comm() {
        let stat = "4242 (led ger) (x)) S 1 4242 4242 0 -1 4194304 523 0 0 0 \
                    150 25 0 0 20 0 3 0 12345 1000000 256 18446744073709551615";
        assert_eq!(parse_stat_cpu_secs(stat), Some(1.75));
        assert_eq!(parse_stat_cpu_secs("no parens here"), None);
        assert_eq!(parse_stat_cpu_secs("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_peak_rss_reads_vmhwm() {
        let status = "Name:\tledger\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_peak_rss_mb(status), Some(20.0));
        assert_eq!(parse_status_peak_rss_mb("Name:\tx\n"), None);
    }

    #[test]
    fn live_proc_reads_are_sane() {
        assert!(cpu_secs().is_some_and(|s| s >= 0.0));
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
