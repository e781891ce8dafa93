//! Host clocks read with the standard library alone: process CPU time
//! through `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` declared as a bare
//! `extern`, peak resident memory (`VmHWM`) from `/proc/self/status`, and
//! the hypervisor's steal time from `/proc/stat`. (`/proc/self/schedstat`
//! reads 0 on some virtualised hosts, so it is not used.)
//!
//! On a shared virtual machine the hypervisor takes CPU time from the
//! guest's virtual CPUs at will ("steal"), and how much varies by tens of
//! percent from one minute to the next. Wall metrics are therefore
//! reported net of steal: wall time scaled by the share of each virtual
//! CPU's time that was not stolen. For work that keeps every CPU busy —
//! the benchmark's rank drives and crash points — that removes the delay
//! steal caused; for a phase that keeps fewer CPUs busy it removes less.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `struct timespec` on Linux: `time_t` and `long` are both C `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `_SC_CLK_TCK` from `<unistd.h>` on Linux.
const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// User + system CPU time consumed by every thread of this process, in
/// seconds.
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout for
    // the whole call, and the clock id is one the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time the hypervisor has stolen from this machine since boot, per
/// virtual CPU, in seconds (0 where the kernel does not report it).
pub fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    // SAFETY: `sysconf` takes any int and only reads process-wide limits.
    let ticks_per_sec = unsafe { sysconf(SC_CLK_TCK) };
    parse_steal_ticks_per_cpu(&stat).unwrap_or(0.0) / ticks_per_sec.max(1) as f64
}

/// The steal value (eighth) of the aggregate `cpu` line of `/proc/stat`,
/// divided by the number of per-CPU lines.
fn parse_steal_ticks_per_cpu(stat: &str) -> Option<f64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l[3..].starts_with(|c: char| c.is_ascii_digit()))
        .count();
    Some(ticks as f64 / cpus.max(1) as f64)
}

/// A point on the wall, process-CPU and per-CPU steal clocks.
#[derive(Clone, Copy, Debug)]
pub struct Stamp {
    at: Instant,
    cpu: f64,
    steal: f64,
}

impl Stamp {
    pub fn now() -> Stamp {
        Stamp {
            at: Instant::now(),
            cpu: process_cpu_secs(),
            steal: steal_secs(),
        }
    }

    /// The interval from this stamp to now.
    pub fn elapsed(&self) -> Interval {
        let now = Stamp::now();
        Interval {
            wall: (now.at - self.at).as_secs_f64(),
            cpu: now.cpu - self.cpu,
            steal: now.steal - self.steal,
        }
    }
}

/// Wall, process-CPU and stolen seconds of one measured interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct Interval {
    pub wall: f64,
    pub cpu: f64,
    pub steal: f64,
}

impl Interval {
    /// Share of each virtual CPU's time the hypervisor left to the
    /// machine over all the intervals. The steal counter ticks in
    /// hundredths of a second, so the share is taken over many intervals
    /// at once, not per interval.
    pub fn kept_share(intervals: &[Interval]) -> f64 {
        let wall: f64 = intervals.iter().map(|i| i.wall).sum();
        let steal: f64 = intervals.iter().map(|i| i.steal.max(0.0)).sum();
        if wall > 0.0 {
            (1.0 - steal / wall).max(0.0)
        } else {
            1.0
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_secs();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_secs() > before);
    }

    #[test]
    fn steal_parses_and_discounts() {
        let stat = "cpu  310218 0 10909 307911 641 0 114 12066 0 0\n\
                    cpu0 1 2 3 4 5 6 7 6000 0 0\ncpu1 1 2 3 4 5 6 7 6066 0 0\nctxt 9\n";
        assert_eq!(parse_steal_ticks_per_cpu(stat), Some(6033.0));
        assert!(steal_secs() >= 0.0);
        let busy = Interval {
            wall: 1.0,
            cpu: 1.8,
            steal: 0.1,
        };
        assert!((Interval::kept_share(&[busy, busy]) - 0.9).abs() < 1e-12);
        assert_eq!(Interval::kept_share(&[]), 1.0);
    }

    #[test]
    fn vm_hwm_parses() {
        assert_eq!(
            parse_vm_hwm_kib("Name:\tx\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n"),
            Some(2048)
        );
        assert!(peak_rss_mib() > 0.0);
    }
}
