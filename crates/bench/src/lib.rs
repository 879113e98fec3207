//! Shared machinery for the figure/table regeneration binaries.
//!
//! Every binary in this crate regenerates one exhibit of the paper's
//! evaluation (see docs/ARCHITECTURE.md, "Producing and regenerating
//! `results/*.csv`", for the index). Each binary *declares*
//! an [`Exhibit`] — locks × grid × scenario × tables × self-checks —
//! and the single [`exhibit::run_exhibit`] driver does the sweeping,
//! progress reporting, table rendering ([`Grid`]), CSV writing, and
//! acceptance checking. This module carries the environment knobs the
//! declarations share.
//!
//! Environment knobs (all optional):
//!
//! * `LBENCH_THREADS` — comma-separated thread counts
//!   (default `1,2,4,8,16,32,64`; the paper sweeps to 256 — set e.g.
//!   `1,16,64,128,256` on a big host).
//! * `LBENCH_WINDOW_MS` — virtual measurement window per cell in
//!   milliseconds (default 10; the paper measured 60 s of wall time).
//! * `LBENCH_CLUSTERS` — NUMA clusters (default 4, the T5440).
//! * `LBENCH_COST_MODE` — `realtime` (default) or `modelled`: switches
//!   the scenario exhibits to the deterministic modelled-coherence
//!   substrate (see [`cost_mode`]).
//! * `LBENCH_TOPOLOGY` — `virtual` (default) or `measured`: run every
//!   exhibit on the probed core-to-core latency cluster map with
//!   physical thread pinning (see [`topology_mode`]);
//!   `LBENCH_PROBE_SKIP=1` forces the virtual fallback without probing
//!   (CI).
//! * `RESULTS_DIR` — where CSV copies are written (default `results/`).
//!
//! Knob parsing is strict (`lbench::env`): a present-but-malformed value
//! aborts the binary with an error naming the knob and the accepted
//! syntax, instead of being silently ignored.

pub mod exhibit;
pub mod grid;
pub mod model_exhibit;
pub mod schema;

pub use exhibit::{
    cluster_thread_grid, exhibit_main, find, find_where, long_table, measure_cell, metric_table,
    migrations_detail, no_cell_columns, policy_exhibit, run_exhibit, saturation_threads,
    steady_sweep, throughput_floor_check, throughput_table, verdict, Check, ClusterThreads,
    Exhibit, Measurement, TableSpec,
};
pub use grid::{emit, Cell, Grid};
pub use model_exhibit::{
    measure_model_cell, model_cells, model_cells_at, model_exhibit, model_locks, model_long_table,
    ModelCell,
};

use coherence_sim::CostModel;
use lbench::env::{
    env_choice, env_positive_usize, env_positive_usize_list, env_range_u64, env_u64, EnvKnobError,
};
use lbench::{CostMode, LBenchConfig, TopologyMode};
use std::time::Duration;

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

/// Topology backend for the sweeps (`LBENCH_TOPOLOGY`): `virtual` (the
/// default — round-robin virtual clusters) or `measured` (probe the
/// machine's core-to-core latencies once per process, run on the
/// discovered cluster map with workers pinned to physical CPUs; falls
/// back to virtual clusters with a logged reason when probing is
/// impossible). Any other value aborts through the strict knob path.
pub fn topology_mode() -> TopologyMode {
    knob_or_die(TopologyMode::from_env())
}

/// The default LBench configuration for the figure sweeps (the
/// topology backend is applied by [`measure_cell`], to every exhibit).
pub fn base_config(threads: usize) -> LBenchConfig {
    LBenchConfig {
        threads,
        clusters: clusters(),
        window_ns: window_ns(),
        max_wall: Duration::from_secs(60),
        ..Default::default()
    }
}

/// Cost mode for the scenario exhibits (`LBENCH_COST_MODE`):
/// `realtime` (the default — real threads, modelled prices) or
/// `modelled` (the deterministic discrete-event substrate under
/// [`CostModel::disaggregated`]; two runs of the same cell then produce
/// byte-identical CSVs). Any other value aborts through the strict knob
/// path, naming the accepted spellings.
pub fn cost_mode() -> CostMode {
    match knob_or_die(env_choice("LBENCH_COST_MODE", &["realtime", "modelled"])) {
        Some("modelled") => CostMode::Modelled(CostModel::disaggregated()),
        _ => CostMode::RealTime,
    }
}

/// Thread count for the ablation binaries (`LBENCH_ABLATION_THREADS`,
/// default 32; malformed or zero values abort).
pub fn ablation_threads() -> usize {
    knob_or_die(env_positive_usize("LBENCH_ABLATION_THREADS")).unwrap_or(32)
}

/// Acceptance floor of a fissile lock's uncontended throughput against
/// plain MCS — the single source both `fig_fissile` and the
/// `fig_scenarios` fissile row assert against (the fast path exists to
/// *erase* the two-level tax, so the floor is near-parity rather than
/// the paper's 0.75× amortization margin).
pub const FISSILE_UNCONTENDED_FLOOR: f64 = 0.95;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_grid_default_is_sane() {
        // (Env-dependent in principle; the default grid starts at 1.)
        let g = thread_grid();
        assert!(!g.is_empty());
        assert!(g.iter().all(|&t| t >= 1));
    }
}
