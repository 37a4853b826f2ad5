//! Host-noise record kept beside every run, so that a run disturbed by
//! the scheduler can be told apart from one slowed by host speed.
//!
//! Everything is read from `/proc`; a missing file reads as zero.

use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/*/stat` time fields
/// (`USER_HZ`, 100 on every mainstream Linux build).
const USER_HZ: f64 = 100.0;

/// Counters sampled at the start and end of a measured interval.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    at: Instant,
    /// User + system CPU seconds of the whole process, exited threads
    /// included.
    process_cpu_s: f64,
    /// On-CPU and run-queue-wait nanoseconds of the calling thread.
    thread_cpu_ns: u64,
    thread_wait_ns: u64,
    /// Host-wide steal seconds (all CPUs).
    steal_s: f64,
}

impl HostSample {
    pub fn now() -> HostSample {
        let (thread_cpu_ns, thread_wait_ns) = thread_schedstat();
        HostSample {
            at: Instant::now(),
            process_cpu_s: process_cpu_s(),
            thread_cpu_ns,
            thread_wait_ns,
            steal_s: steal_s(),
        }
    }

    /// The record of the interval from `self` to now, as one JSON
    /// object.
    pub fn record_since(&self) -> String {
        let end = HostSample::now();
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"wall_s\": {:.6}, \"process_cpu_s\": {:.2}, \
             \"main_thread_cpu_s\": {:.6}, \"main_thread_runqueue_wait_s\": {:.6}, \
             \"steal_s\": {:.2}, \"procs_running\": {}, \"loadavg_1m\": {}}}",
            nproc(),
            cpu_model().replace(['"', '\\'], ""),
            end.at.duration_since(self.at).as_secs_f64(),
            end.process_cpu_s - self.process_cpu_s,
            end.thread_cpu_ns.saturating_sub(self.thread_cpu_ns) as f64 / 1e9,
            end.thread_wait_ns.saturating_sub(self.thread_wait_ns) as f64 / 1e9,
            end.steal_s - self.steal_s,
            procs_running(),
            loadavg_1m(),
        )
    }
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<f64> = rest
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    match (fields.get(11), fields.get(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

fn thread_schedstat() -> (u64, u64) {
    let s = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|f| f.parse().unwrap_or(0));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

fn steal_s() -> f64 {
    let s = fs::read_to_string("/proc/stat").unwrap_or_default();
    s.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |t| t / USER_HZ)
}

fn procs_running() -> u64 {
    let s = fs::read_to_string("/proc/stat").unwrap_or_default();
    s.lines()
        .find_map(|l| l.strip_prefix("procs_running "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

fn loadavg_1m() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|f| f.parse().ok()))
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
