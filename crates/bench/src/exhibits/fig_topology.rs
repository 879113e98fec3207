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
//! cpuset that rejects pinning, or `LBENCH_PROBE_SKIP=1` — the exhibit
//! logs the reason and falls back to the *virtual* topology: one
//! synthetic CPU per virtual cluster, pair latencies priced by the
//! T5440 cost model (`local_ns` within a cluster, `remote_ns` across).
//! The CSV stays valid and schema-stable either way, which is what the
//! CI smoke job asserts.
//!
//! Environment: `LBENCH_PROBE_SKIP` (force the virtual fallback without
//! probing), `LBENCH_CLUSTERS` (the fallback's cluster count) and
//! `RESULTS_DIR`.

use crate::{clusters, emit, knob_or_die, schema, Cell, Grid};
use coherence_sim::CostModel;
use lbench::env::env_bool;
use numa_topology::probe::{online_cpus, probe_machine};
use numa_topology::{MeasuredTopology, ProbeConfig};

/// Probes and clusters this machine, or says why it cannot: the probe
/// skipped (`LBENCH_PROBE_SKIP`, parsed strictly — a malformed value
/// exits 2), too few CPUs, or pinning rejected.
fn measured_topology() -> Result<MeasuredTopology, String> {
    if knob_or_die(env_bool("LBENCH_PROBE_SKIP")) {
        return Err("probe skipped (LBENCH_PROBE_SKIP)".to_string());
    }
    let cpus = online_cpus();
    if cpus.len() < 2 {
        return Err(format!("only {} online CPU(s)", cpus.len()));
    }
    let matrix = probe_machine(&ProbeConfig::default()).map_err(|e| e.to_string())?;
    Ok(MeasuredTopology::from_matrix(matrix))
}

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

pub fn run() -> bool {
    let (rows, source_note) = match measured_topology() {
        Ok(m) => {
            let matrix = m.matrix();
            (
                measured_rows(&m),
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
    true
}
