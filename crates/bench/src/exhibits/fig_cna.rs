//! Exhibit CNA: cohorting vs. compaction, across threads × clusters.
//!
//! The paper's missing modern comparison: the Compact NUMA-Aware lock
//! (Dice & Kogan, EuroSys 2019) achieves cohort-like intra-node handoff
//! with a *single-word* MCS-shaped lock by splicing remote waiters onto a
//! secondary queue. This exhibit races, for every cluster count in
//! [`CLUSTER_COUNTS`]:
//!
//! * `MCS` — the NUMA-oblivious queue lock both designs build on;
//! * `C-BO-MCS` — the paper's best cohort lock (two-level);
//! * `CNA` — compaction at the paper-comparable threshold (64 local
//!   handoffs, the same knob as the cohort locks' `count(64)` policy);
//! * `CNA (t=4)` — a tight threshold, showing the fairness/locality
//!   trade-off inside one lock family.
//!
//! Expected shape: at 1 cluster all four meet (there is no locality to
//! exploit — CNA degenerates to MCS); from 2 clusters up, CNA and the
//! cohort lock pull away from MCS as local handoffs replace cross-cluster
//! migrations, with CNA paying no two-level indirection.
//!
//! The exhibit **self-checks** its acceptance shape and fails if CNA
//! trails plain MCS at any swept cluster count ≥ 2 (measured at the
//! check cell `threads = 2 × clusters`, the smallest configuration where
//! every cluster has a cohort-mate), or if a CNA streak ever exceeds its
//! configured threshold.

use crate::{
    cluster_thread_grid, long_table, migrations_detail, run_exhibit, schema,
    throughput_floor_check, throughput_table, Check, ClusterThreads, Exhibit, Measurement,
    TableSpec, CLUSTER_COUNTS,
};
use lbench::{AnyLockKind, LockKind};

/// Self-check 1: the CNA fairness threshold really bounds streaks
/// (thresholds come from the registry, the single source of truth).
fn streak_check() -> Check<ClusterThreads> {
    Box::new(|ms: &[Measurement<ClusterThreads>]| {
        for m in ms {
            let kind = match m.result.kind {
                AnyLockKind::Excl(k) => k,
                AnyLockKind::Rw(_) => continue,
            };
            let bound = match kind.cna_threshold() {
                Some(b) => b,
                None => continue,
            };
            if m.result.max_streak > bound {
                return Err(format!(
                    "{kind} at {}: streak {} exceeds threshold {bound}",
                    m.cell, m.result.max_streak
                ));
            }
        }
        Ok("CNA streaks within their thresholds".to_string())
    })
}

/// Self-check 2: compaction must not trail plain MCS once there is
/// locality to exploit (clusters >= 2), measured where every cluster has
/// a cohort-mate.
fn cna_vs_mcs_check(clusters: usize) -> Check<ClusterThreads> {
    let cell = ClusterThreads {
        clusters,
        threads: 2 * clusters,
    };
    throughput_floor_check(cell, LockKind::Cna, LockKind::Mcs, 1.0, migrations_detail)
}

pub fn run() -> bool {
    // The `2 × clusters` check cell rides along with the global grid.
    let grid = cluster_thread_grid(&CLUSTER_COUNTS, |clusters| vec![2 * clusters]);
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_cna: {} locks x {:?} clusters",
            LockKind::FIG_CNA.len(),
            CLUSTER_COUNTS
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_CNA),
        grid,
        measure: Box::new(ClusterThreads::steady),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit CNA: throughput (ops/s) by clusters x threads"),
            TableSpec {
                csv: Some("fig_cna".into()),
                text: false,
                build: long_table(schema::FIG_CNA_HEADER, ClusterThreads::cell_columns),
            },
        ],
        checks: std::iter::once(streak_check())
            .chain(
                CLUSTER_COUNTS
                    .iter()
                    .filter(|&&c| c >= 2)
                    .map(|&c| cna_vs_mcs_check(c)),
            )
            .collect(),
        epilogue: None,
    })
}
