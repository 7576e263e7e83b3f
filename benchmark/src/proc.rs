//! Process-level readings for the per-layer table (Linux `/proc`; both read
//! `0.0` where `/proc` is unavailable, and neither is an end-to-end metric).

/// Kernel clock ticks per second. `sysconf(_SC_CLK_TCK)` is 100 on every
/// Linux this benchmark targets; there is no libc here to ask.
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) the whole process has consumed so far.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat").ok().and_then(|s| parse_cpu_s(&s)).unwrap_or(0.0)
}

/// Peak resident set size of the process in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_peak_rss_mib(&s))
        .unwrap_or(0.0)
}

/// Logical CPUs available to the process (reported with every result that
/// depends on threads).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn parse_cpu_s(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may contain spaces;
    // fields are counted from the last ')'. utime and stime are fields 14
    // and 15, i.e. the 12th and 13th after the command.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLK_TCK)
}

fn parse_peak_rss_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let stat = "4242 (ags bench (x)) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        assert_eq!(parse_cpu_s(stat), Some(3.0));
        assert_eq!(parse_cpu_s("garbage"), None);
        assert_eq!(parse_cpu_s("1 (x) S 1 2"), None);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_peak_rss_mib(status), Some(20.0));
        assert_eq!(parse_peak_rss_mib("Name: x\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpus() >= 1);
        assert!(cpu_s() >= 0.0);
        assert!(peak_rss_mib() >= 0.0);
    }
}
