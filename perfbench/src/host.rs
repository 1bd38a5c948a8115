//! Host fingerprint and process memory, read from the OS.

use std::fs;

/// What a result depends on besides the code: the machine and the
/// resolved simulation thread count.
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// The cgroup CPU quota (`cpu.max` on cgroup v2, quota/period on v1).
    pub cpu_max: String,
    /// Simulation threads the program resolves with the current
    /// environment (`MET_THREADS`, else available parallelism).
    pub sim_threads: usize,
    /// Source revision, as handed in by the launcher.
    pub commit: String,
}

impl Host {
    /// Reads the fingerprint of the running host.
    pub fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            cpu_max: cgroup_cpu_max().unwrap_or_else(|| "unavailable".into()),
            sim_threads: simcore::par::met_threads(),
            commit: std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
        }
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn cgroup_cpu_max() -> Option<String> {
    if let Ok(s) = fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        return Some(s.trim().to_string());
    }
    let quota = fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    Some(format!("{} {}", quota.trim(), period.trim()))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
