//! What the benchmark records about the machine and the build, and the
//! small statistics every report uses.

use crate::json::Json;
use numa_topology::{affinity, probe};

/// The CPUs the workers pin to: the first `threads` online CPUs.
pub fn worker_cpus(threads: usize) -> Vec<usize> {
    probe::online_cpus().into_iter().take(threads).collect()
}

/// Keeps the calling thread on the first online CPU until dropped, then
/// lets it run on any CPU again (threads it spawns later inherit that).
///
/// The thread that sets a workload up must not be placed by luck:
/// starting a worker on the CPU one is on takes ~25 µs here, waking an
/// idle CPU for it ~75 µs, and `setup_s` of the lock workloads is little
/// else.
pub struct OnFirstCpu {
    online: Vec<usize>,
    /// Whether the pin took effect.
    pub pinned: bool,
}

impl OnFirstCpu {
    pub fn enter() -> OnFirstCpu {
        let online = probe::online_cpus();
        let pinned = online
            .first()
            .is_some_and(|&cpu| affinity::pin_to_cpus(&[cpu]).is_ok());
        OnFirstCpu { online, pinned }
    }
}

impl Drop for OnFirstCpu {
    fn drop(&mut self) {
        // Failing to widen the mask again only costs later cells a CPU
        // choice; there is nobody to report it to from here.
        let _ = affinity::pin_to_cpus(&self.online);
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout (the
/// driver's checkouts are plain directories).
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    read(git.join("HEAD"))
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => read(git.join(r)),
            None => Some(head),
        })
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything two result files must share before their numbers may be
/// compared: CPU model, online CPUs, whether the workers were pinned,
/// compiler and profile.
pub fn fingerprint(pinned: bool) -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("cpu_model", Json::Str(cpu_model)),
        ("online_cpus", (probe::online_cpus().len() as u64).into()),
        ("pinned", pinned.into()),
        ("rustc", env!("BENCH_RUSTC").into()),
        ("profile", env!("BENCH_PROFILE").into()),
    ])
}

/// Nearest-rank percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures before it asks.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here is the
/// spread the driver computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }
}
