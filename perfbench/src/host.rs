//! Host readings from `/proc` (Linux): the process's memory, the machine's
//! CPU steal and the calling thread's run-queue wait. They let a contended
//! run be recognised instead of silently averaged in. Off Linux every
//! reading is 0. Also pins the process to one CPU.

use std::time::Instant;

/// A `VmXxx:` line of `/proc/self/status`, in KiB.
fn status_kib(key: &str) -> u64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") as f64 / 1024.0
}

/// Current resident set size (`VmRSS`), in KiB.
pub fn rss_kib() -> f64 {
    status_kib("VmRSS:") as f64
}

/// Number of CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 CPUs, one bit each.
    pub type CpuSet = [u64; 16];

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
}

/// Pins the calling thread, and every thread it starts afterwards, to the
/// lowest-numbered CPU it may run on, and returns that CPU (`None` when
/// the host refuses, or off Linux). With the whole process on one CPU, a
/// round trip between client and server threads is a context switch
/// instead of a wake-up of another virtual CPU (see NOTES.md).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        use affinity::{sched_getaffinity, sched_setaffinity, CpuSet};
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes; pid
        // 0 is the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return None;
        }
        let cpu = (0..allowed.len() * 64).find(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable `cpu_set_t` of `size` bytes.
        (unsafe { sched_setaffinity(0, size, &one) } == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// One reading of the counters that [`Contention`] differences.
#[derive(Clone, Copy)]
pub struct HostSample {
    cpu_ticks: u64,
    steal_ticks: u64,
    runqueue_ns: u64,
    at: Instant,
}

/// Reads the machine-wide CPU tick counters and the calling thread's
/// scheduler statistics. Take both samples of a pair on the same thread.
pub fn sample() -> HostSample {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
    // guest time is already counted in user, so the first 8 fields are all.
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    // "time on cpu (ns), time waiting on a run queue (ns), timeslices".
    let runqueue_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0);
    HostSample {
        cpu_ticks: ticks.iter().sum(),
        steal_ticks: ticks.get(7).copied().unwrap_or(0),
        runqueue_ns,
        at: Instant::now(),
    }
}

/// Host contention over an interval.
#[derive(Clone, Copy, Default)]
pub struct Contention {
    /// Share of all CPU time the hypervisor gave to other guests.
    pub steal_frac: f64,
    /// Seconds the sampling thread was runnable but waiting for a CPU.
    pub runqueue_wait_s: f64,
    /// Wall seconds between the two samples.
    pub wall_s: f64,
}

impl Contention {
    /// Contention between two samples taken on the same thread.
    pub fn between(a: &HostSample, b: &HostSample) -> Self {
        let ticks = b.cpu_ticks.saturating_sub(a.cpu_ticks);
        let steal = b.steal_ticks.saturating_sub(a.steal_ticks);
        Self {
            steal_frac: if ticks == 0 {
                0.0
            } else {
                steal as f64 / ticks as f64
            },
            runqueue_wait_s: b.runqueue_ns.saturating_sub(a.runqueue_ns) as f64 * 1e-9,
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
        }
    }
}
