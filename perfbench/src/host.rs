//! Host-noise record and process memory, read from `/proc`.
//!
//! Every run prints the CPU steal share and the load average next to its
//! metrics, so a slow run on a busy host can be told from a slow program.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the current totals (zeros when `/proc/stat` is unreadable).
    #[must_use]
    pub fn now() -> Self {
        fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| parse_cpu_line(text.lines().next()?))
            .unwrap_or_default()
    }

    /// Steal time as a percentage of all CPU time elapsed since `earlier`.
    #[must_use]
    pub fn steal_pct_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// Parses `cpu  user nice system idle iowait irq softirq steal ...`.
fn parse_cpu_line(line: &str) -> Option<CpuTimes> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    let values: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
    // guest/guest_nice (fields 9-10) are already counted in user/nice.
    let total = values.iter().take(8).sum();
    Some(CpuTimes {
        total,
        steal: values.get(7).copied().unwrap_or(0),
    })
}

/// This thread's time on a CPU and waiting in a run queue, in seconds
/// (`/proc/thread-self/schedstat`; zeros when unreadable).
#[must_use]
pub fn thread_sched_secs() -> (f64, f64) {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / 1e9);
    (fields.next().unwrap_or(0.0), fields.next().unwrap_or(0.0))
}

/// The 1-minute load average.
#[must_use]
pub fn load_average() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (VmHWM) of process `pid` (`"self"` for this
/// process) in MB, or `None` when it cannot be read.
#[must_use]
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets this process's peak-RSS high-water mark to its current RSS, so
/// a later [`peak_rss_mb`] covers only what follows. Returns whether the
/// kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_two_samples() {
        let a = parse_cpu_line("cpu  100 0 50 800 10 0 0 40 0 0").unwrap();
        let b = parse_cpu_line("cpu  200 0 100 1600 20 0 0 80 7 0").unwrap();
        assert_eq!(a.total, 1000);
        assert!((b.steal_pct_since(&a) - 4.0).abs() < 1e-12);
        assert!(parse_cpu_line("cpu0 1 2 3").is_none());
    }
}
