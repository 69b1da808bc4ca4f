//! Process counters from `/proc/self/{stat,io,status}`, read around the
//! calls the benchmark times.  Everything here is Linux-specific; on a
//! system without these files every counter reads zero and the run
//! descriptor says so.

use std::fs;

/// `/proc` reports CPU times in `USER_HZ` clock ticks, which the kernel
/// ABI fixes at 100 per second on every mainstream architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// One reading of the process's CPU and I/O counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    /// CPU seconds in user mode, this process's own threads.
    pub user_s: f64,
    /// CPU seconds in kernel mode, this process's own threads.
    pub sys_s: f64,
    /// User plus kernel CPU seconds of reaped child processes.
    pub children_cpu_s: f64,
    /// Bytes passed to `read`-like syscalls (page cache included).
    pub rchar: u64,
    /// Bytes passed to `write`-like syscalls.
    pub wchar: u64,
    /// Read syscalls.
    pub syscr: u64,
    /// Write syscalls.
    pub syscw: u64,
}

impl ProcSample {
    /// Reads the current counters.
    pub fn now() -> Self {
        let mut sample = ProcSample::default();
        if let Ok(stat) = fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name start at field 3
            // (state); utime, stime, cutime and cstime are fields 14–17.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) {
                let fields: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| {
                    fields
                        .get(i)
                        .and_then(|f| f.parse::<f64>().ok())
                        .unwrap_or(0.0)
                        / TICKS_PER_SECOND
                };
                sample.user_s = ticks(11);
                sample.sys_s = ticks(12);
                sample.children_cpu_s = ticks(13) + ticks(14);
            }
        }
        if let Ok(io) = fs::read_to_string("/proc/self/io") {
            for line in io.lines() {
                let Some((key, value)) = line.split_once(':') else {
                    continue;
                };
                let value = value.trim().parse().unwrap_or(0);
                match key {
                    "rchar" => sample.rchar = value,
                    "wchar" => sample.wchar = value,
                    "syscr" => sample.syscr = value,
                    "syscw" => sample.syscw = value,
                    _ => {}
                }
            }
        }
        sample
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            children_cpu_s: self.children_cpu_s - earlier.children_cpu_s,
            rchar: self.rchar.saturating_sub(earlier.rchar),
            wchar: self.wchar.saturating_sub(earlier.wchar),
            syscr: self.syscr.saturating_sub(earlier.syscr),
            syscw: self.syscw.saturating_sub(earlier.syscw),
        }
    }

    /// Adds `other`'s counters into `self` (deltas only).
    pub fn add(&mut self, other: &ProcSample) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
        self.children_cpu_s += other.children_cpu_s;
        self.rchar += other.rchar;
        self.wchar += other.wchar;
        self.syscr += other.syscr;
        self.syscw += other.syscw;
    }
}

/// Whether `/proc/self/io` is readable (it is not in every container).
pub fn io_counters_available() -> bool {
    fs::read_to_string("/proc/self/io").is_ok()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}
