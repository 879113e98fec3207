//! Exhibit Fissile: the fast-path graft, across threads × clusters.
//!
//! The cohort transformation pays a two-level acquire on every
//! operation; *Fissile Locks* (Dice & Kogan, arXiv:2003.05025) erase the
//! uncontended tax by trying a TATAS word first and falling into the
//! cohort slow path only on failure. This exhibit races, for every
//! cluster count in [`CLUSTER_COUNTS`]:
//!
//! * `TATAS` — the raw fast path alone (collapses under saturation);
//! * `MCS` — the NUMA-oblivious queue baseline;
//! * `C-BO-MCS` — the two-level slow path alone (pays the tax always);
//! * `Fis-BO-MCS` — the graft: one CAS uncontended, cohort behavior at
//!   saturation, fast-vs-slow split in the `fast_acqs`/`slow_acqs`
//!   columns.
//!
//! The fissile rows run the library's default `FissileTuning` (fast-path
//! probe budget, bypass bound), like every registry kind;
//! `FissileLock::with_tuning` is the constructor for anything else.
//!
//! The exhibit **self-checks** the two acceptance shapes of the fissile
//! design:
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

use crate::{
    cluster_thread_grid, long_table, migrations_detail, run_exhibit, saturation_threads, schema,
    throughput_floor_check, throughput_table, Check, ClusterThreads, Exhibit, TableSpec,
    CLUSTER_COUNTS, FISSILE_UNCONTENDED_FLOOR,
};
use lbench::{AnyLockKind, LockKind};

/// Self-check 1: the fast path erases the uncontended two-level tax
/// (floor [`FISSILE_UNCONTENDED_FLOOR`]).
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

pub fn run() -> bool {
    // The uncontended cell and the saturation check cell ride along with
    // the global grid.
    let grid = cluster_thread_grid(&CLUSTER_COUNTS, |c| vec![1, saturation_threads(c)]);
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_fissile: {} locks x {:?} clusters",
            LockKind::FIG_FISSILE.len(),
            CLUSTER_COUNTS
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
        checks: CLUSTER_COUNTS
            .iter()
            .map(|&c| uncontended_check(c))
            .chain(
                CLUSTER_COUNTS
                    .iter()
                    .filter(|&&c| c >= 2)
                    .map(|&c| saturation_check(c)),
            )
            .collect(),
        epilogue: None,
    })
}
