//! Exhibit Fissile: the fast-path graft, across threads × clusters.
//!
//! The cohort transformation pays a two-level acquire on every
//! operation; *Fissile Locks* (Dice & Kogan, arXiv:2003.05025) erase the
//! uncontended tax by trying a TATAS word first and falling into the
//! cohort slow path only on failure. This exhibit races, for every
//! cluster count:
//!
//! * `TATAS` — the raw fast path alone (collapses under saturation);
//! * `MCS` — the NUMA-oblivious queue baseline;
//! * `C-BO-MCS` — the two-level slow path alone (pays the tax always);
//! * `Fis-BO-MCS` — the graft: one CAS uncontended, cohort behavior at
//!   saturation, fast-vs-slow split in the `fast_acqs`/`slow_acqs`
//!   columns.
//!
//! Environment (strict `lbench::env` parsing, like every knob):
//!
//! * `LBENCH_FISSILE_CLUSTERS` — comma-separated cluster counts
//!   (default `1,2,4`);
//! * `LBENCH_FISSILE_FAST_SPINS` — fast-path probe budget before a
//!   thread fissions into the slow path (default
//!   [`FissileTuning::DEFAULT_FAST_ATTEMPTS`]; zero aborts);
//! * `LBENCH_FISSILE_BYPASS_BOUND` — failed word-claim rounds the
//!   slow-path holder tolerates before raising the anti-starvation
//!   fence (default [`FissileTuning::DEFAULT_BYPASS_BOUND`]; zero
//!   aborts);
//! * plus the usual `LBENCH_*` knobs and `RESULTS_DIR`.
//!
//! The binary **self-checks** the two acceptance shapes of the fissile
//! design and exits non-zero on failure:
//!
//! 1. **uncontended**: at 1 thread, Fis-BO-MCS must hold ≥ 0.95× the
//!    plain MCS throughput at every swept cluster count — the whole
//!    point of the fast path is that the NUMA machinery costs nothing
//!    when nobody contends;
//! 2. **saturation**: at every swept cluster count ≥ 2 (check cell
//!    `threads = 8 × clusters` — the lightest cell where the offered
//!    load reliably saturates the lock; at `2 × clusters` even the pure
//!    cohort lock holds no edge over TATAS, so a check there measures
//!    noise), Fis-BO-MCS must hold ≥ the plain TATAS throughput —
//!    falling into the slow path must buy cohort locality, not just add
//!    a word.

use cohort::{FisBoMcs, FisTktMcs, FissileTuning, PolicySpec};
use cohort_bench::{
    base_config, cluster_thread_grid, exhibit_main, knob_or_die, long_table, migrations_detail,
    saturation_threads, schema, throughput_floor_check, throughput_table, Cell, Check,
    ClusterThreads, Exhibit, Measure, Measurement, TableSpec, FISSILE_UNCONTENDED_FLOOR,
};
use lbench::env::{env_positive_usize_list, env_range_u64};
use lbench::{
    run_scenario, run_scenario_on, AnyLockKind, BenchRwLock, LockKind, RawAdapter, Scenario,
    ScenarioResult,
};
use numa_topology::Topology;
use std::sync::Arc;

fn fissile_clusters() -> Vec<usize> {
    knob_or_die(env_positive_usize_list("LBENCH_FISSILE_CLUSTERS")).unwrap_or_else(|| vec![1, 2, 4])
}

/// Fast-path tuning from the environment (defaults are the library's).
fn tuning() -> FissileTuning {
    let knob_u32 = |knob: &str, default: u32| -> u32 {
        knob_or_die(env_range_u64(knob, 1..=u64::from(u32::MAX)))
            .map(|v| v as u32)
            .unwrap_or(default)
    };
    FissileTuning {
        fast_attempts: knob_u32(
            "LBENCH_FISSILE_FAST_SPINS",
            FissileTuning::DEFAULT_FAST_ATTEMPTS,
        ),
        bypass_bound: knob_u32(
            "LBENCH_FISSILE_BYPASS_BOUND",
            FissileTuning::DEFAULT_BYPASS_BOUND,
        ),
    }
}

/// Measures one (lock, cell) pair. Non-fissile kinds go through the
/// plain registry path; the fissile row honors the `LBENCH_FISSILE_*`
/// tuning knobs by building its lock directly when they deviate from
/// the library defaults (the registry constructs defaults only).
fn measure(kind: AnyLockKind, cell: &ClusterThreads) -> ScenarioResult {
    let mut cfg = base_config(cell.threads);
    cfg.clusters = cell.clusters;
    let scenario = Scenario::steady();
    let tuned = tuning();
    if tuned != FissileTuning::default() {
        // Dispatch on the *concrete* kind: the measured lock must be
        // exactly what the row is labeled as, even if FIG_FISSILE ever
        // grows a second fissile composition.
        let topo = Arc::new(Topology::new(cfg.clusters));
        let lock: Option<Arc<dyn BenchRwLock>> = match kind {
            AnyLockKind::Excl(LockKind::FisBoMcs) => Some(Arc::new(RawAdapter::new(
                FisBoMcs::with_tuning(Arc::clone(&topo), PolicySpec::paper_default(), tuned),
            ))),
            AnyLockKind::Excl(LockKind::FisTktMcs) => Some(Arc::new(RawAdapter::new(
                FisTktMcs::with_tuning(Arc::clone(&topo), PolicySpec::paper_default(), tuned),
            ))),
            _ => None,
        };
        if let Some(lock) = lock {
            return run_scenario_on(kind, lock, topo, &scenario, &cfg);
        }
    }
    run_scenario(kind, &scenario, &cfg)
}

/// Self-check 1: the fast path erases the uncontended two-level tax
/// (floor shared with the `fig_scenarios` fissile row:
/// [`FISSILE_UNCONTENDED_FLOOR`]).
fn uncontended_check(clusters: usize) -> Check<ClusterThreads> {
    let cell = ClusterThreads {
        clusters,
        threads: 1,
    };
    throughput_floor_check(
        cell,
        LockKind::FisBoMcs,
        LockKind::Mcs,
        FISSILE_UNCONTENDED_FLOOR,
        |fissile, _| {
            format!(
                "{} fast / {} slow acquisitions",
                fissile.fast_acquisitions, fissile.slow_acquisitions
            )
        },
    )
}

/// Self-check 2: the slow path buys cohort locality under saturation.
fn saturation_check(clusters: usize) -> Check<ClusterThreads> {
    let cell = ClusterThreads {
        clusters,
        threads: saturation_threads(clusters),
    };
    throughput_floor_check(
        cell,
        LockKind::FisBoMcs,
        LockKind::Tatas,
        1.0,
        migrations_detail,
    )
}

fn main() {
    let cluster_counts = fissile_clusters();
    // The uncontended cell and the saturation check cell ride along with
    // the global grid.
    let grid = cluster_thread_grid(&cluster_counts, |c| vec![1, saturation_threads(c)]);
    exhibit_main(Exhibit {
        name: "fig_fissile",
        banner: format!(
            "fig_fissile: {} locks x {:?} clusters, tuning {:?}",
            LockKind::FIG_FISSILE.len(),
            cluster_counts,
            tuning()
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_FISSILE),
        grid,
        measure: Measure::Custom(Box::new(|kind, cell: &ClusterThreads| measure(kind, cell))),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Fissile: throughput (ops/s) by clusters x threads"),
            TableSpec {
                csv: Some("fig_fissile".into()),
                text: false,
                build: long_table(
                    schema::FIG_FISSILE_HEADER,
                    |m: &Measurement<ClusterThreads>| {
                        let r = &m.result;
                        vec![
                            Cell::text(r.kind.name()),
                            Cell::Int(m.cell.clusters as u64),
                            Cell::Int(r.threads as u64),
                            Cell::num(r.throughput, 0),
                            Cell::Int(r.acquisitions),
                            Cell::Int(r.migrations),
                            Cell::num(r.misses_per_cs, 4),
                            Cell::Int(r.tenures),
                            Cell::Int(r.local_handoffs),
                            Cell::num(r.mean_streak, 2),
                            Cell::Int(r.max_streak),
                            Cell::Int(r.fast_acquisitions),
                            Cell::Int(r.slow_acquisitions),
                            Cell::text(r.policy.as_deref().unwrap_or("-")),
                        ]
                    },
                ),
            },
        ],
        checks: cluster_counts
            .iter()
            .map(|&c| uncontended_check(c))
            .chain(
                cluster_counts
                    .iter()
                    .filter(|&&c| c >= 2)
                    .map(|&c| saturation_check(c)),
            )
            .collect(),
        epilogue: None,
    });
}
