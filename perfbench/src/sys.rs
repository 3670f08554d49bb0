//! Process counters from `/proc/self` and the run's scratch directory.

use std::path::{Path, PathBuf};

fn status_field(name: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Threads in this process.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// Voluntary plus involuntary context switches of the whole process
/// (summed over `/proc/self/task/*`, since `/proc/self/status` counts only
/// the calling thread).
pub fn context_switches() -> u64 {
    let mut total = 0;
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    for task in tasks.flatten() {
        let Ok(text) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in text.lines() {
            if let Some(rest) = line
                .strip_prefix("voluntary_ctxt_switches:")
                .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
            {
                total += rest.trim().parse::<u64>().unwrap_or(0);
            }
        }
    }
    total
}

/// Clock ticks per second of `/proc` CPU times (USER_HZ, 100 on every
/// Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by the process so far.
pub fn cpu_seconds() -> f64 {
    let Ok(text) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after
    // the parenthesised command name.
    let Some(after) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / USER_HZ
}

/// CPU and context-switch counters sampled at the start of a timed phase.
pub struct ProcSample {
    cpu: f64,
    ctxsw: u64,
    at: std::time::Instant,
}

impl ProcSample {
    /// Samples now.
    pub fn now() -> Self {
        Self {
            cpu: cpu_seconds(),
            ctxsw: context_switches(),
            at: std::time::Instant::now(),
        }
    }

    /// `(cpu_frac, context switches)` since this sample: CPU seconds per
    /// wall second (up to the core count) and switches.
    pub fn since(&self) -> (f64, u64) {
        let wall = self.at.elapsed().as_secs_f64().max(1e-9);
        let cpu = (cpu_seconds() - self.cpu) / wall;
        (cpu, context_switches().saturating_sub(self.ctxsw))
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.perfbench/<label>-<pid>` under the working directory.
    pub fn new(label: &str) -> Result<Self, String> {
        let path = PathBuf::from(".perfbench").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
