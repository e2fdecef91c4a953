//! What the kernel exports about a process, read from `/proc`: the
//! outside view of memory, CPU time and sleeps, for this process and for
//! the spawned daemon alike.

use std::fs;

fn field_kb(status: &str, key: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn field_u64(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].trim().parse().ok()
}

/// Peak resident set (`VmHWM`) of `pid` (`None` = this process), MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    field_kb(&fs::read_to_string(path).ok()?, "VmHWM:").map(|kb| kb / 1024.0)
}

/// On-CPU nanoseconds of the calling thread (`schedstat`, first field).
pub fn thread_cpu_ns() -> Option<u64> {
    cpu_ns_at("/proc/thread-self/schedstat")
}

fn cpu_ns_at(path: &str) -> Option<u64> {
    fs::read_to_string(path)
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// One thread of a process, as `/proc/<pid>/task/<tid>` shows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Task {
    /// Thread name (`Name:`), e.g. `mantled` or `mantled-engine`.
    pub name: String,
    /// Voluntary context switches: times the thread went to sleep.
    pub voluntary_switches: u64,
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
}

/// Every thread of `pid`.
pub fn tasks(pid: u32) -> Vec<Task> {
    let Ok(dir) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|entry| {
            let base = entry.path();
            let status = fs::read_to_string(base.join("status")).ok()?;
            Some(Task {
                name: status
                    .lines()
                    .find_map(|l| l.strip_prefix("Name:"))?
                    .trim()
                    .to_string(),
                voluntary_switches: field_u64(&status, "voluntary_ctxt_switches:")?,
                cpu_ns: cpu_ns_at(base.join("schedstat").to_str()?)?,
            })
        })
        .collect()
}

/// Cores the host offers (recorded with every result that depends on
/// threads).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mib(None).expect("VmHWM is exported") > 0.0);
        let before = thread_cpu_ns().expect("schedstat is exported");
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns().unwrap() >= before);
        let me = tasks(std::process::id());
        assert!(!me.is_empty(), "a process has at least one task");
        assert_eq!(field_kb("VmHWM:\t    1672 kB\n", "VmHWM:"), Some(1672.0));
    }
}
