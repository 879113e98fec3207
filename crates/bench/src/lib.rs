//! Shared machinery for the figure/table regeneration exhibits.
//!
//! Every entry of [`exhibits::ALL`] regenerates one exhibit of the
//! paper's evaluation (see docs/ARCHITECTURE.md, "Producing and
//! regenerating `results/*.csv`", for the index); the one `exhibit`
//! binary runs them by name (`cargo run --release --bin exhibit --
//! fig2`, or `-- all`). Each entry *declares* an [`Exhibit`] — locks ×
//! grid × scenario × tables × self-checks — and the single
//! [`exhibit::run_exhibit`] driver does the sweeping, progress
//! reporting, table rendering ([`Grid`]), CSV writing, and acceptance
//! checking. This module carries the environment knobs the declarations
//! share.
//!
//! Environment knobs (all optional):
//!
//! * `LBENCH_THREADS` — comma-separated thread counts
//!   (default `1,2,4,8,16,32,64`; the paper sweeps to 256 — set e.g.
//!   `1,16,64,128,256` on a big host).
//! * `LBENCH_WINDOW_MS` — virtual measurement window per cell in
//!   milliseconds (default 10; the paper measured 60 s of wall time).
//! * `LBENCH_CLUSTERS` — NUMA clusters (default 4, the T5440).
//! * `LBENCH_ABLATION_THREADS` — thread count of the single-count
//!   exhibits (default 32; see [`ablation_threads`]).
//! * `LBENCH_PROBE_SKIP` — `1` makes `fig_topology` write its virtual
//!   fallback without probing the machine (CI).
//! * `RESULTS_DIR` — where CSV copies are written (default `results/`).
//!
//! Knob parsing is strict (`lbench::env`): a present-but-malformed value
//! aborts the binary with an error naming the knob and the accepted
//! syntax, instead of being silently ignored. So are the names: the
//! `exhibit` binary refuses a set `LBENCH_*` or `KV_*` variable that is
//! not in [`KNOBS`].

pub mod exhibit;
pub mod exhibits;
pub mod grid;
pub mod schema;

pub use exhibit::{
    find, find_where, long_table, metric_table, no_cell_columns, run_exhibit, throughput_table,
    verdict, Check, Exhibit, Measurement, TableSpec,
};
pub use grid::{emit, Cell, Grid};

use lbench::env::{
    env_positive_usize, env_positive_usize_list, env_range_u64, env_u64, EnvKnobError,
};
use lbench::LBenchConfig;
use std::time::Duration;

/// Every environment knob the exhibits read (besides `RESULTS_DIR`).
pub const KNOBS: [&str; 7] = [
    "LBENCH_THREADS",
    "LBENCH_WINDOW_MS",
    "LBENCH_CLUSTERS",
    "LBENCH_ABLATION_THREADS",
    "LBENCH_PROBE_SKIP",
    "LBENCH_SHARDS",
    "LBENCH_SHARD_CLIENTS",
];

/// Unwraps an env-knob parse, aborting the binary with the knob-naming
/// error message on failure — a typo'd knob must never be silently
/// ignored (the run would measure a configuration the operator did not
/// ask for).
pub fn knob_or_die<T>(parsed: Result<T, EnvKnobError>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Thread-count grid for the sweeps (`LBENCH_THREADS`; malformed or zero
/// entries abort).
pub fn thread_grid() -> Vec<usize> {
    knob_or_die(env_positive_usize_list("LBENCH_THREADS"))
        .unwrap_or_else(|| vec![1, 2, 4, 8, 16, 32, 64])
}

/// Virtual measurement window per cell (`LBENCH_WINDOW_MS`; malformed
/// values abort).
pub fn window_ns() -> u64 {
    knob_or_die(env_u64("LBENCH_WINDOW_MS")).unwrap_or(10) * 1_000_000
}

/// Cluster count (the T5440 had 4; `LBENCH_CLUSTERS` outside 1..=32
/// aborts through the same knob error path as every other knob).
pub fn clusters() -> usize {
    knob_or_die(env_range_u64("LBENCH_CLUSTERS", 1..=32))
        .map(|c| c as usize)
        .unwrap_or(4)
}

/// The default LBench configuration for the figure sweeps.
pub fn base_config(threads: usize) -> LBenchConfig {
    LBenchConfig {
        threads,
        clusters: clusters(),
        window_ns: window_ns(),
        max_wall: Duration::from_secs(60),
        ..Default::default()
    }
}

/// Thread count of the exhibits that measure at one thread count — the
/// two ablations, `fig_rw`, and `fig_scenarios`' contended cells
/// (`LBENCH_ABLATION_THREADS`, default 32; malformed or zero values
/// abort).
pub fn ablation_threads() -> usize {
    knob_or_die(env_positive_usize("LBENCH_ABLATION_THREADS")).unwrap_or(32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Every `.rs` file under `dir`, recursively.
    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }

    #[test]
    fn thread_grid_default_is_sane() {
        // (Env-dependent in principle; the default grid starts at 1.)
        let g = thread_grid();
        assert!(!g.is_empty());
        assert!(g.iter().all(|&t| t >= 1));
    }

    #[test]
    fn every_knob_literal_in_the_sources_is_listed() {
        let mut files = Vec::new();
        for krate in std::fs::read_dir(repo_root().join("crates")).expect("crates/") {
            let src = krate.expect("crate entry").path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
        let mut checked = 0;
        for file in files {
            let text = std::fs::read_to_string(&file).expect("readable source");
            // scripts/nontest-lines.sh's rule: the code before the first
            // column-0 `#[cfg(test)]`.
            let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
            for prefix in ["\"LBENCH_", "\"KV_"] {
                for rest in code.split(prefix).skip(1) {
                    let len = rest
                        .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                        .unwrap_or(rest.len());
                    if len > 0 && rest[len..].starts_with('"') {
                        let knob = format!("{}{}", &prefix[1..], &rest[..len]);
                        assert!(KNOBS.contains(&knob.as_str()), "{file:?} reads {knob}");
                        checked += 1;
                    }
                }
            }
        }
        // `KNOBS` itself, then at least one read.
        assert!(checked > KNOBS.len(), "the scan found no knob read");
    }

    #[test]
    fn the_readme_knob_table_is_knobs_plus_results_dir() {
        let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
        let rows = readme
            .lines()
            .skip_while(|l| !l.starts_with("| Knob |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'));
        let mut listed: Vec<&str> = rows.filter_map(|l| l.split('`').nth(1)).collect();
        let mut want = KNOBS.to_vec();
        want.push("RESULTS_DIR");
        listed.sort_unstable();
        want.sort_unstable();
        assert_eq!(listed, want);
    }
}
