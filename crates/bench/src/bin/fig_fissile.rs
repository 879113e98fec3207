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
//! Environment: `LBENCH_FISSILE_CLUSTERS` (comma-separated cluster
//! counts, default `1,2,4`), plus the usual `LBENCH_*` knobs and
//! `RESULTS_DIR`. The fissile rows run the library's default
//! `FissileTuning` (fast-path probe budget, bypass bound), like every
//! registry kind; `FissileLock::with_tuning` is the constructor for
//! anything else.
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

use cohort_bench::{
    cluster_thread_grid, exhibit_main, knob_or_die, long_table, migrations_detail,
    saturation_threads, schema, throughput_floor_check, throughput_table, Check, ClusterThreads,
    Exhibit, TableSpec, FISSILE_UNCONTENDED_FLOOR,
};
use lbench::env::env_positive_usize_list;
use lbench::{AnyLockKind, LockKind};

fn fissile_clusters() -> Vec<usize> {
    knob_or_die(env_positive_usize_list("LBENCH_FISSILE_CLUSTERS")).unwrap_or_else(|| vec![1, 2, 4])
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
            "fig_fissile: {} locks x {:?} clusters",
            LockKind::FIG_FISSILE.len(),
            cluster_counts
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_FISSILE),
        grid,
        measure: Box::new(ClusterThreads::steady),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Fissile: throughput (ops/s) by clusters x threads"),
            TableSpec {
                csv: Some("fig_fissile".into()),
                text: false,
                build: long_table(schema::FIG_FISSILE_HEADER, ClusterThreads::cell_columns),
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
