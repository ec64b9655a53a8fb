//! Process accounting read from `/proc/self` (Linux): peak resident
//! set, CPU seconds and page faults of this workload process.

/// Cumulative process counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSnapshot {
    pub cpu_user_s: f64,
    pub cpu_sys_s: f64,
    pub minor_faults: u64,
}

impl std::ops::Sub for ProcSnapshot {
    type Output = ProcSnapshot;
    fn sub(self, rhs: ProcSnapshot) -> ProcSnapshot {
        ProcSnapshot {
            cpu_user_s: self.cpu_user_s - rhs.cpu_user_s,
            cpu_sys_s: self.cpu_sys_s - rhs.cpu_sys_s,
            minor_faults: self.minor_faults - rhs.minor_faults,
        }
    }
}

/// Kernel clock ticks per second: `USER_HZ` is 100 on every Linux
/// configuration the repo targets.
const TICKS_PER_S: f64 = 100.0;

/// Parses the fields of `/proc/<pid>/stat` that follow the command
/// name (which may itself contain spaces and parentheses).
fn parse_stat(stat: &str) -> Option<ProcSnapshot> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // After the command: state(0) … minflt(7) … utime(11) stime(12).
    Some(ProcSnapshot {
        minor_faults: f.get(7)?.parse().ok()?,
        cpu_user_s: f.get(11)?.parse::<f64>().ok()? / TICKS_PER_S,
        cpu_sys_s: f.get(12)?.parse::<f64>().ok()? / TICKS_PER_S,
    })
}

/// Reads this process's counters; zeros where `/proc` is unavailable.
pub fn snapshot() -> ProcSnapshot {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (VmHWM) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Threads the host can run at once; stamped on every result because
/// the serve workloads and `train_dist` depend on it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 667563 0 0 0 321 110 0 0 20 0 3 0 100 1 2";
        let s = parse_stat(stat).unwrap();
        assert_eq!(s.minor_faults, 667_563);
        assert_eq!(s.cpu_user_s, 3.21);
        assert_eq!(s.cpu_sys_s, 1.10);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn live_counters_are_readable_here() {
        assert!(peak_rss_mb() > 0.0);
        assert!(host_cores() >= 1);
        let a = snapshot();
        let b = snapshot();
        assert!((b - a).cpu_user_s >= 0.0);
    }
}
