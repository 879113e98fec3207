//! Result sets and `--compare`.
//!
//! A result set is one JSON file holding the runs of one host and build:
//! `--out FILE` appends each run to it. `--compare A B` takes, per
//! workload and end-to-end metric, the median over each set's untraced
//! runs — the comparison the driver makes — and holds B's median to
//! the bound `BENCHMARK.json` gives the metric.

use crate::host;
use crate::json::Json;
use crate::spec::{Better, Spec};
use std::path::Path;

/// Appends `run` to the result set at `path`, creating it with
/// `fingerprint` if needed. A set never mixes hosts or builds.
pub fn append_run(path: &Path, fingerprint: &Json, run: Json) -> Result<(), String> {
    let mut runs = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        let set = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if set.get("fingerprint") != Some(fingerprint) {
            return Err(format!(
                "{} was recorded with another fingerprint ({}), this run has {fingerprint}; \
                 write to a new file",
                path.display(),
                set.get("fingerprint").unwrap_or(&Json::Null),
            ));
        }
        runs = set
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `runs` list", path.display()))?
            .to_vec();
    }
    runs.push(run);
    let set = Json::obj([
        ("fingerprint", fingerprint.clone()),
        ("runs", Json::Arr(runs)),
    ]);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, set.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of `metric` over the untraced runs of `workload` in `set`.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    set.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("traced") == Some(&Json::Bool(false))
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Interquartile range as a share of the median (`None` below 2 runs).
fn spread(values: &[f64]) -> Option<f64> {
    (values.len() >= 2).then(|| {
        let (q1, q3) = host::quartiles(values);
        (q3 - q1) / host::median(values)
    })
}

/// What `--compare` concluded.
#[derive(Debug, PartialEq, Eq)]
pub enum Comparison {
    /// Every metric of every workload within its bound.
    Within,
    /// At least one metric worse than its bound allows.
    Regressed,
}

/// Compares set `b` against baseline `a`, printing one row per workload
/// and end-to-end metric. `Err` when the sets cannot be compared:
/// unreadable, unlike fingerprints, or a workload missing from one.
pub fn compare(spec: &Spec, a: &Path, b: &Path) -> Result<Comparison, String> {
    let load = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (set_a, set_b) = (load(a)?, load(b)?);
    let (fp_a, fp_b) = (set_a.get("fingerprint"), set_b.get("fingerprint"));
    if fp_a.is_none() || fp_a != fp_b {
        return Err(format!(
            "refusing to compare results of unlike hosts or builds:\n  {}: {}\n  {}: {}",
            a.display(),
            fp_a.unwrap_or(&Json::Null),
            b.display(),
            fp_b.unwrap_or(&Json::Null),
        ));
    }
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "bound%", "A iqr%", "B iqr%"
    );
    let mut outcome = Comparison::Within;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(&set_a, workload, &metric.name),
                values(&set_b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}.{}: {} runs in {}, {} in {}; both sets need every workload",
                    metric.name,
                    va.len(),
                    a.display(),
                    vb.len(),
                    b.display()
                ));
            }
            let (ma, mb) = (host::median(&va), host::median(&vb));
            let worse = match metric.better {
                Better::Higher => (ma - mb) / ma,
                Better::Lower => (mb - ma) / ma,
            };
            let bound = metric.bound.unwrap_or(0.0);
            let within = worse <= bound;
            if !within {
                outcome = Comparison::Regressed;
            }
            let pct = |s: Option<f64>| s.map_or("-".to_string(), |s| format!("{:.2}", s * 100.0));
            println!(
                "{workload:<18} {:<12} {ma:>14.4} {mb:>14.4} {:>8.2} {:>7.1} {:>8} {:>8}  {}",
                metric.name,
                worse * 100.0,
                bound * 100.0,
                pct(spread(&va)),
                pct(spread(&vb)),
                if within { "ok" } else { "REGRESSED" }
            );
        }
    }
    Ok(outcome)
}
