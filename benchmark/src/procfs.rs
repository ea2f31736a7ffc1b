//! Readers for what Linux reports about this process: peak resident memory
//! (`VmHWM` in `/proc/self/status`) and user/system CPU time (`utime` and
//! `stime` in `/proc/self/stat`). The parsers take the file's text so the
//! tests can feed them fixed input.

/// Ticks per second of `utime`/`stime`. Linux reports them in `USER_HZ`,
/// which is 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// CPU seconds this process has used, all threads included.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// CPU time used between `earlier` and `self`.
    #[must_use]
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Extracts `VmHWM` (peak resident set size) in MiB from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// Extracts `utime` and `stime` from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
#[must_use]
pub fn parse_cpu_times(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // after_comm starts at field 3 (state); utime and stime are fields 14, 15
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// Peak resident set size of this process so far, in MiB.
///
/// # Panics
/// Panics where `/proc/self/status` is missing or has no `VmHWM` line: the
/// benchmark gates on this number and must not report a made-up one.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mib(&status).expect("VmHWM line in /proc/self/status")
}

/// CPU time this process has used so far.
///
/// # Panics
/// Panics where `/proc/self/stat` is missing or malformed.
#[must_use]
pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_times(&stat).expect("utime and stime in /proc/self/stat")
}
