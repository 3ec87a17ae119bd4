//! The process's surroundings: environment hygiene, the per-process work
//! directory, peak memory and the host record printed with every run.

use mcsched_workload::json::Json;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Environment variables that would change what the scheduler does or
/// records (profiling, obs exports, a shared cell cache) and so falsify a
/// measurement. `MCSCHED_OBS` covers every `MCSCHED_OBS*` variable.
const FORBIDDEN_ENV: [&str; 3] = ["MCSCHED_PROFILE", "MCSCHED_OBS", "MCSCHED_CACHE_DIR"];

/// The first forbidden variable among `vars`, if any.
pub fn forbidden_env(vars: impl IntoIterator<Item = String>) -> Option<String> {
    vars.into_iter().find(|name| {
        FORBIDDEN_ENV
            .iter()
            .any(|&f| name == f || (f == "MCSCHED_OBS" && name.starts_with(f)))
    })
}

/// The threads a two-thread workload may use here: `min(2, cores)`.
#[must_use]
pub fn two_threads() -> usize {
    available_parallelism().min(2)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A per-process scratch directory under `.bench_work/` in the current
/// directory (the benchmark reads and writes nothing outside it). Removed,
/// with `.bench_work/` itself once empty, when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates a fresh directory.
    ///
    /// # Errors
    ///
    /// When the current directory is unknown or the directory cannot be
    /// created.
    pub fn create() -> Result<Self, String> {
        static UNIQUE: AtomicU64 = AtomicU64::new(0);
        let root = std::env::current_dir()
            .map_err(|e| format!("current directory: {e}"))?
            .join(".bench_work");
        let dir = root.join(format!(
            "{}-{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(root) = self.0.parent() {
            // Fails, harmlessly, while another process still uses it.
            let _ = std::fs::remove_dir(root);
        }
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
///
/// # Errors
///
/// When the directory cannot be listed.
pub fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(entries
        .filter_map(Result::ok)
        .filter_map(|entry| entry.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|meta| meta.len())
        .sum())
}

/// The process's peak resident set size (`VmHWM`), in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The time [`calibration_s`] takes on the baseline host when nothing else
/// runs (a 2-vCPU Intel Xeon VM, see `README.md`).
pub const CALIBRATION_NOMINAL_S: f64 = 0.018;

/// Times a fixed, self-contained loop — integer hashing, random access to
/// an L2-sized table, a floating-point chain and a small binary heap, the
/// kinds of work the scheduler does — that shares no code with it. On a
/// shared host, other tenants slow this loop and the scheduler alike; the
/// ratio of the two is far steadier than either.
#[must_use]
pub fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 1 << 15];
    let mut heap = std::collections::BinaryHeap::with_capacity(513);
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0.0f64;
    for i in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (table.len() - 1);
        table[slot] = table[slot].wrapping_add(i);
        if table[slot] & 1 == 0 {
            acc = acc * 0.999 + (slot as f64).sqrt();
        } else {
            acc -= 1.0;
        }
        heap.push(x >> 40);
        if heap.len() > 512 {
            heap.pop();
        }
    }
    std::hint::black_box((acc, &table, heap.len()));
    start.elapsed().as_secs_f64()
}

/// Mean cost in nanoseconds of one disabled `mcsched_obs::span!` site over
/// `iters` calls: what every instrumented hot loop pays with tracing off.
#[must_use]
pub fn obs_disabled_span_ns(iters: u64) -> f64 {
    mcsched_obs::disable_tracing();
    let start = Instant::now();
    for i in 0..iters {
        let span = mcsched_obs::span!("bench-probe", "i" = i);
        std::hint::black_box(&span);
    }
    start.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// The host record printed before every result.
#[must_use]
pub fn host_json(disabled_span_ns: f64) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpus = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_default();
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::num_usize(available_parallelism()),
        ),
        ("cpus_online".into(), Json::num_usize(cpus)),
        ("cpu_model".into(), Json::Str(model)),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
        (
            "obs_disabled_span_ns".into(),
            Json::num_f64(disabled_span_ns),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_obs_and_cache_variables_are_refused_by_name() {
        let names = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>();
        assert_eq!(
            forbidden_env(names(&["PATH", "MCSCHED_PROFILE"])),
            Some("MCSCHED_PROFILE".into())
        );
        assert_eq!(
            forbidden_env(names(&["MCSCHED_OBS_TRACE"])),
            Some("MCSCHED_OBS_TRACE".into())
        );
        assert_eq!(
            forbidden_env(names(&["MCSCHED_CACHE_DIR"])),
            Some("MCSCHED_CACHE_DIR".into())
        );
        assert_eq!(forbidden_env(names(&["MCSCHED_QUIET", "HOME"])), None);
    }

    #[test]
    fn work_dirs_are_distinct_and_removed_on_drop() {
        let a = WorkDir::create().unwrap();
        let b = WorkDir::create().unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("f"), b"12345").unwrap();
        assert_eq!(dir_bytes(a.path()).unwrap(), 5);
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
