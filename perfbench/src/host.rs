//! Facts about the host recorded with every result.

use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    /// Cores the process may use (`available_parallelism`).
    pub nproc: usize,
    /// Worker threads `Parallelism::Auto` resolves to (rayon's count,
    /// which honours `RAYON_NUM_THREADS`).
    pub workers: usize,
    /// `git rev-parse HEAD` of the checkout, or `unknown` outside git.
    pub git_rev: String,
    /// Whether tracked files differ from HEAD; `None` outside git.
    pub dirty: Option<bool>,
}

impl Host {
    /// Probes the host. Git is asked only when the working directory is
    /// itself a repository root, so the probe never looks above it.
    pub fn probe() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = imp_sim::Parallelism::Auto.workers();
        let git = |args: &[&str]| -> Option<String> {
            if !Path::new(".git").exists() {
                return None;
            }
            let out = Command::new("git").args(args).output().ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        };
        Host {
            nproc,
            workers,
            git_rev: git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
            dirty: git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"workers\":{},\"git_rev\":\"{}\",\"dirty\":{}}}",
            self.nproc,
            self.workers,
            self.git_rev,
            self.dirty.map_or("null".to_string(), |d| d.to_string())
        )
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc `M_TRIM_THRESHOLD` and `M_MMAP_THRESHOLD`.
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Fixes glibc's allocator thresholds for the whole run.
///
/// By default glibc raises its mmap threshold the first time a large
/// block is freed, so whether the simulator's multi-megabyte buffers are
/// mapped fresh (and page-faulted in again) on every job depends on the
/// order of the first frees. Measured on a 2-vCPU VM, that left the
/// page faults of one set-up at about 2,400 in some processes and 7,100
/// in others. With both thresholds fixed, freed memory is reused from the
/// heap in every process alike. Returns false where `mallopt` refused.
pub fn pin_allocator() -> bool {
    // SAFETY: `mallopt` only sets allocator parameters; it is called
    // before the process starts any other thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by every thread of this process, in nanoseconds.
///
/// Jobs are timed with this clock rather than the wall clock. When the
/// hypervisor takes a virtual machine's vCPUs away (steal time: 30–60% of
/// all ticks on a busy 2-vCPU VM), wall time mostly measures the other
/// guests; the kernel leaves steal out of a task's CPU time.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on 64-bit Linux) through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// `(steal, total)` clock ticks of all CPUs since boot, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
