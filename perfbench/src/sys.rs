//! Process facts read from `/proc`: peak RSS and per-thread CPU time.

use std::fs;

/// Worker count the benchmark uses: the machine's available
/// parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time a thread has run, nanoseconds: the first field of its
/// `schedstat` (nanosecond resolution, unlike the tick-based `stat`).
fn schedstat_ns(path: &str) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Filesystem type and device of the mount holding the current
/// directory (where the benchmark writes its store), from
/// `/proc/self/mounts`.
pub fn cwd_filesystem() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let mounts = fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (device, point, kind) = (fields.next()?, fields.next()?, fields.next()?);
            cwd.starts_with(point)
                .then(|| (point.len(), format!("{kind} on {device}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown filesystem".to_string(), |(_, fs)| fs)
}

/// CPU time of the calling thread, nanoseconds.
pub fn this_thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// Summed CPU time of every live thread of this process whose name
/// starts with `prefix`, nanoseconds.
pub fn threads_cpu_ns(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with(prefix))
        })
        .map(|task| schedstat_ns(&task.path().join("schedstat").to_string_lossy()))
        .sum()
}
