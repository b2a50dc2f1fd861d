//! Host counters: process CPU time, machine steal time from `/proc/stat`
//! and the process's peak resident set.

use std::os::raw::{c_int, c_long};

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// User + system CPU seconds of this process at nanosecond resolution, all
/// threads included (also threads that already exited, such as GEMM band
/// and eigensolve batch workers). Time the hypervisor steals from a vCPU is
/// not charged to the threads that were running on it.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the duration
    // of the call, and the clock id is a constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Machine-wide `(steal, total)` jiffies from the aggregate `cpu` line of
/// `/proc/stat` (user, nice, system, idle, iowait, irq, softirq, steal).
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let line = stat.lines().next().expect("empty /proc/stat");
    let v: Vec<u64> =
        line.split_whitespace().skip(1).take(8).map(|x| x.parse().unwrap_or(0)).collect();
    (v.get(7).copied().unwrap_or(0), v.iter().sum())
}

/// Share of machine CPU time stolen by the hypervisor between two
/// [`cpu_jiffies`] readings.
pub fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set (`VmHWM`) of this process in bytes.
pub fn rss_peak_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .expect("VmHWM in /proc/self/status")
}
