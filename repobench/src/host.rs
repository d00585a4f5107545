//! What the host looked like while a run measured: core counts, kernel,
//! CPU model, process CPU time, peak RSS, and the machine-wide steal and
//! other-tenant load taken from `/proc/stat` across the run.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user plus system CPU of every thread.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// Linux `_SC_CLK_TCK`.
const SC_CLK_TCK: i32 = 2;

/// User plus system CPU this process has used so far, nanosecond
/// resolution (the rusage tick counters are only 10 ms).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the
    // duration of the call, and the clock id is a Linux constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Clock ticks per second of the `/proc/stat` counters.
fn clock_ticks() -> f64 {
    // SAFETY: `sysconf` only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The aggregate `cpu` line of `/proc/stat`, in ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    busy: u64,
    steal: u64,
    total: u64,
}

impl CpuTicks {
    /// Reads the counters now (zeros where `/proc/stat` is unreadable).
    pub fn read() -> CpuTicks {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .find(|l| l.starts_with("cpu "))
            .map(|l| l.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect())
            .unwrap_or_default();
        let at = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already inside user and nice).
        let busy = at(0) + at(1) + at(2) + at(5) + at(6);
        let steal = at(7);
        CpuTicks { busy, steal, total: busy + at(3) + at(4) + steal }
    }
}

/// Machine load over one run, as shares of all CPU time on the host.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Time the hypervisor ran someone else on our vCPUs.
    pub steal_share: f64,
    /// Busy time of other processes (machine busy minus our own CPU).
    pub other_share: f64,
    /// Elapsed ticks the shares are taken over.
    pub ticks: u64,
}

impl Load {
    /// The load between two readings, given the CPU this process used in
    /// between.
    pub fn between(start: CpuTicks, end: CpuTicks, own_cpu: Duration) -> Load {
        let total = end.total.saturating_sub(start.total);
        let busy = end.busy.saturating_sub(start.busy) as f64;
        let steal = end.steal.saturating_sub(start.steal) as f64;
        let own = own_cpu.as_secs_f64() * clock_ticks();
        let share = |x: f64| if total > 0 { (x / total as f64).max(0.0) } else { 0.0 };
        Load { steal_share: share(steal), other_share: share(busy - own), ticks: total }
    }
}

/// The host a result came from.
#[derive(Clone, Debug)]
pub struct Host {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `std::thread::available_parallelism` (affinity and cgroup quota).
    pub available_parallelism: usize,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// The first `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl Host {
    /// Probes the running host.
    pub fn probe() -> Host {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let nproc = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed:"))
            .map(|mask| {
                mask.trim()
                    .chars()
                    .filter_map(|c| c.to_digit(16))
                    .map(|d| d.count_ones() as usize)
                    .sum()
            })
            .unwrap_or(0);
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        Host {
            nproc,
            available_parallelism: workers(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_default(),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
                .unwrap_or_default(),
        }
    }
}

/// Worker threads, serve workers and farm endpoints: one per core the
/// process may use.
pub fn workers() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}
