//! Exhibit Topology: the measured cluster map of this machine.
//!
//! Runs the core-to-core latency probe (`numa_topology::probe` — CAS
//! ping-pong on a `CachePadded` line between every pair of online CPUs,
//! threads pinned via `sched_setaffinity`), clusters the latency matrix
//! at its largest gap (`numa_topology::measured`), and emits the matrix
//! *and* the cluster map as one long-form CSV
//! ([`schema::FIG_TOPOLOGY_HEADER`]): one row per CPU pair with the
//! one-way latency in ns and the cluster each endpoint landed in.
//!
//! On machines where probing is impossible — a single-CPU container, a
//! cpuset that rejects pinning, or `LBENCH_PROBE_SKIP=1` — the binary
//! logs the reason and falls back to the *virtual* topology: one
//! synthetic CPU per virtual cluster, pair latencies priced by the
//! T5440 cost model (`local_ns` within a cluster, `remote_ns` across).
//! The CSV stays valid and schema-stable either way, which is what the
//! CI smoke job asserts.
//!
//! When the probe finds ≥ 2 clusters, the binary then re-runs the
//! `fig_scenarios` saturation cell **on the measured clusters** (workers
//! pinned to their cluster's physical CPUs via
//! `LBenchConfig::topology = Measured`) and self-checks the paper's core
//! claim on real hardware: C-BO-MCS throughput ≥ plain MCS. On
//! single-cluster machines the check is skipped with a logged reason —
//! there is no locality for cohorting to exploit.
//!
//! Environment: `LBENCH_PROBE_SKIP` (force the virtual fallback without
//! probing), plus the usual `LBENCH_*` knobs for the re-run cells and
//! `RESULTS_DIR`.

use coherence_sim::CostModel;
use cohort_bench::{
    base_config, clusters, emit, knob_or_die, schema, topology_mode, verdict, Cell, Grid,
};
use lbench::env::env_bool;
use lbench::phys::measured_topology;
use lbench::{run_scenario, AnyLockKind, LockKind, Scenario, TopologyMode};
use numa_topology::MeasuredTopology;
use std::sync::Arc;

/// The matrix + cluster-map rows for a successful probe: the upper
/// triangle (including the zero diagonal) of the measured matrix.
fn measured_rows(m: &MeasuredTopology) -> Vec<Vec<Cell>> {
    let matrix = m.matrix();
    let mut rows = Vec::new();
    for i in 0..matrix.n() {
        for j in i..matrix.n() {
            let (a, b) = (matrix.cpus()[i], matrix.cpus()[j]);
            rows.push(vec![
                Cell::text("measured"),
                Cell::Int(a as u64),
                Cell::Int(b as u64),
                Cell::Int(matrix.get(i, j)),
                Cell::Int(m.cluster_of(a).unwrap_or(0) as u64),
                Cell::Int(m.cluster_of(b).unwrap_or(0) as u64),
            ]);
        }
    }
    rows
}

/// The fallback rows: one synthetic CPU per virtual cluster, pair
/// latencies from the cost model (within-cluster = `local_ns`,
/// cross-cluster = `remote_ns`).
fn virtual_rows(n_clusters: usize) -> Vec<Vec<Cell>> {
    let cost = CostModel::t5440();
    let mut rows = Vec::new();
    for a in 0..n_clusters {
        for b in a..n_clusters {
            let lat = if a == b {
                cost.local_ns
            } else {
                cost.remote_ns
            };
            rows.push(vec![
                Cell::text("virtual"),
                Cell::Int(a as u64),
                Cell::Int(b as u64),
                Cell::Int(lat),
                Cell::Int(a as u64),
                Cell::Int(b as u64),
            ]);
        }
    }
    rows
}

/// Re-runs the fig_scenarios saturation cell (steady load, `2 ×
/// clusters` threads) on the measured map and checks the cohort edge.
/// Returns `Ok(msg)` / `Err(msg)` in the exhibit check idiom.
fn measured_saturation_check(m: &MeasuredTopology) -> Result<String, String> {
    let n = m.clusters();
    if n < 2 {
        return Ok(format!(
            "measured cohort edge skipped ({n} measured cluster(s): no cross-cluster \
             locality to exploit)"
        ));
    }
    let threads = 2 * n;
    let run = |kind: LockKind| {
        let mut cfg = base_config(threads);
        // Run on the measured map with physical pinning regardless of
        // how LBENCH_TOPOLOGY was set for the other exhibits — this
        // check *is* the measured rerun.
        cfg.topology = TopologyMode::Measured;
        cfg.clusters = n;
        run_scenario(AnyLockKind::Excl(kind), &Scenario::steady(), &cfg)
    };
    let cohort = run(LockKind::CBoMcs);
    let mcs = run(LockKind::Mcs);
    let msg = format!(
        "C-BO-MCS vs MCS on {n} measured clusters ({threads} pinned threads): {:.2}x \
         ({} vs {} migrations)",
        cohort.throughput / mcs.throughput.max(1.0),
        cohort.migrations,
        mcs.migrations
    );
    verdict(cohort.throughput >= mcs.throughput, msg)
}

fn main() {
    // Strict-knob contract: this binary probes directly rather than
    // through `base_config`, so validate the topology knobs up front —
    // a misspelt `LBENCH_TOPOLOGY=mesured` or `LBENCH_PROBE_SKIP=maybe`
    // must abort with the knob-naming error (exit 2), exactly like
    // every other exhibit, not be silently ignored or panic later.
    let _ = topology_mode();
    let _ = knob_or_die(env_bool("LBENCH_PROBE_SKIP"));

    let probed: Result<Arc<MeasuredTopology>, String> = measured_topology();

    let (rows, source_note) = match &probed {
        Ok(m) => {
            let matrix = m.matrix();
            (
                measured_rows(m),
                format!(
                    "measured: {} CPUs probed, {} cluster(s) {:?}",
                    matrix.n(),
                    m.clusters(),
                    m.cluster_cpus()
                ),
            )
        }
        Err(reason) => {
            println!("fig_topology: probe unavailable ({reason}); emitting virtual fallback");
            (
                virtual_rows(clusters()),
                format!("virtual fallback: {} env-knob clusters", clusters()),
            )
        }
    };
    println!("fig_topology: {source_note}");

    let grid = Grid {
        title: format!("Exhibit Topology: core-to-core latency map ({source_note})"),
        columns: schema::FIG_TOPOLOGY_HEADER
            .split(',')
            .map(str::to_string)
            .collect(),
        rows,
    };
    emit(&grid, Some("fig_topology"), true);

    let check = match &probed {
        Ok(m) => measured_saturation_check(m),
        Err(reason) => Ok(format!(
            "measured cohort edge skipped (probe unavailable: {reason})"
        )),
    };
    match check {
        Ok(msg) => println!("check: {msg} ok"),
        Err(msg) => {
            println!("check: {msg} FAILED");
            std::process::exit(1);
        }
    }
}
