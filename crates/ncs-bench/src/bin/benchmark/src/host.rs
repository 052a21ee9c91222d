//! The host as the benchmark sees it: CPU pinning, the fingerprint stamped
//! into every result, and the `/proc` readers behind the `proc.*` metrics.
//!
//! Linux only — the numbers come from `/proc`, `sched_setaffinity(2)` and
//! `sched_setscheduler(2)`.

use std::fs;

// Declared locally (std already links libc) so the benchmark needs no
// crate the container does not have.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_BATCH` of `<sched.h>`.
const SCHED_BATCH: i32 = 3;

/// 1024 CPUs, the kernel's default `CPU_SETSIZE`.
const MASK_WORDS: usize = 16;

/// Pins the calling thread — and so every thread it later spawns — to the
/// highest CPU of its allowed mask, and returns that CPU.
///
/// Must run before any NCS thread exists: the reactor sizes itself from
/// `available_parallelism`, which honours the mask, so a pinned process
/// runs `default_shards() == 1`.
fn pin_to_highest_cpu() -> Result<usize, String> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = highest_set_bit(&mask).ok_or("empty CPU affinity mask")?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the size passed and names
    // one CPU taken from the allowed mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Puts the calling thread — and so every thread it later spawns — under
/// `SCHED_BATCH` (unprivileged), and says whether the kernel agreed.
///
/// Under the default policy a thread that wakes another may be preempted by
/// it there and then, or not, as the scheduler's lag bookkeeping has it; with
/// every thread on one CPU that makes who-runs-when chaotic (a window of 64
/// `isend`s takes 1.4 or 3 ms). A batch thread runs until it blocks, so
/// the order of hand-offs is the program's.
fn use_batch_scheduling() -> bool {
    // `struct sched_param` is one int; batch threads have priority 0.
    let priority = 0i32;
    // SAFETY: `priority` is a live `sched_param`; pid 0 names the calling
    // thread.
    unsafe { sched_setscheduler(0, SCHED_BATCH, &priority) == 0 }
}

/// How the process was set up before any NCS thread existed.
#[derive(Debug, Clone, Copy)]
pub struct Isolation {
    /// The one CPU every thread runs on.
    pub cpu: usize,
    /// Whether the threads run under `SCHED_BATCH`.
    pub batch: bool,
}

/// [`pin_to_highest_cpu`] and [`use_batch_scheduling`]; a kernel that
/// refuses the policy gets a warning, not a failed run.
pub fn isolate() -> Result<Isolation, String> {
    let cpu = pin_to_highest_cpu()?;
    let batch = use_batch_scheduling();
    if !batch {
        eprintln!(
            "warning: sched_setscheduler(SCHED_BATCH): {}; hand-off order is the scheduler's, \
             expect noisier numbers",
            std::io::Error::last_os_error()
        );
    }
    Ok(Isolation { cpu, batch })
}

fn highest_set_bit(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// The value of a `Key:   value ...` line of a `/proc` status file.
fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

fn leading_u64(s: &str) -> u64 {
    s.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = read("/proc/self/status");
    leading_u64(status_field(&status, "VmHWM").unwrap_or("0")) as f64 / 1024.0
}

/// Scheduler accounting summed over the live threads of this process.
///
/// A thread that exits takes its counts with it, so snapshots bracket a
/// phase during which no thread is torn down.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSnapshot {
    /// Voluntary context switches (a thread blocked).
    pub vol_ctx: u64,
    /// Involuntary context switches (a thread was preempted).
    pub invol_ctx: u64,
    /// Nanoseconds on a CPU (`schedstat` field 1).
    pub cpu_ns: u64,
    /// Live threads.
    pub threads: u64,
}

impl ProcSnapshot {
    pub fn take() -> Self {
        let mut snap = ProcSnapshot::default();
        let Ok(tasks) = fs::read_dir("/proc/self/task") else {
            return snap;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let status = fs::read_to_string(dir.join("status")).unwrap_or_default();
            snap.vol_ctx +=
                leading_u64(status_field(&status, "voluntary_ctxt_switches").unwrap_or("0"));
            snap.invol_ctx +=
                leading_u64(status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or("0"));
            snap.cpu_ns +=
                leading_u64(&fs::read_to_string(dir.join("schedstat")).unwrap_or_default());
            snap.threads += 1;
        }
        snap
    }
}

/// One-minute load average.
pub fn load_average() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// What a reader needs to judge whether two results are comparable.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_commit: String,
}

impl Fingerprint {
    /// Call before pinning: `nproc` is the unpinned CPU count.
    pub fn collect() -> Self {
        let cpuinfo = read("/proc/cpuinfo");
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: status_field(&cpuinfo, "model name\t")
                .unwrap_or("unknown")
                .to_owned(),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_owned(),
            git_commit: std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
                .unwrap_or_else(|| "unknown".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn highest_bit_picks_last_cpu() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(highest_set_bit(&mask), None);
        mask[0] = 0b1011;
        assert_eq!(highest_set_bit(&mask), Some(3));
        mask[1] = 1;
        assert_eq!(highest_set_bit(&mask), Some(64));
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(text, "VmHWM"), Some("2048 kB"));
        assert_eq!(leading_u64(status_field(text, "VmHWM").unwrap()), 2048);
        assert_eq!(status_field(text, "Missing"), None);
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let snap = ProcSnapshot::take();
        assert!(snap.threads >= 1);
    }
}
