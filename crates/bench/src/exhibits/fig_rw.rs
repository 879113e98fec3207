//! Exhibit RW: cohort reader-writer locks across read/write mixes.
//!
//! The paper's Table 1 emphasizes read-heavy workloads (90% gets); its
//! follow-on work (*NUMA-Aware Reader-Writer Locks*, PPoPP 2013) shows
//! the cohorting transformation pays off even more once readers get a
//! genuinely shared path. This exhibit sweeps read ratios 0/50/90/99%
//! over:
//!
//! * `std-RwLock` — `std::sync::RwLock`, the NUMA-oblivious baseline;
//! * `C-BO-MCS (excl)` — the single-writer cohort baseline (reads taken
//!   exclusively: what every workload here did before the C-RW layer);
//! * `C-RW-WP-BO-MCS` / `C-RW-N-BO-MCS` — the cohort RW lock under
//!   writer preference and neutral fairness;
//! * `C-RW-WP-TKT-MCS` — the ticket-global variant.
//!
//! Expected shape: all locks meet at 0% reads (the RW machinery costs
//! little over the plain cohort lock); as the read ratio grows, the
//! shared read path decouples reader throughput from the lock and the
//! C-RW locks pull away from both exclusive baselines. The CSV carries
//! modelled acquisition-latency percentiles over the exclusive
//! (handoff-charged) acquisitions.
//!
//! Environment: `LBENCH_ABLATION_THREADS` (default 32), plus the usual
//! `LBENCH_*` knobs and `RESULTS_DIR`.
//!
//! The exhibit **self-checks** its acceptance shape: at read-mostly
//! ratios (90/99%) the C-RW locks must not trail the single-writer
//! cohort baseline.

use crate::{
    ablation_threads, base_config, find, long_table, metric_table, no_cell_columns, run_exhibit,
    schema, verdict, Check, Exhibit, Measurement, TableSpec,
};
use lbench::{AnyLockKind, RwLockKind, Scenario};

/// The swept read percentages (0 = LBench's pure-mutex shape; 99 ≈ the
/// read-mostly regime NUMA-RW locks target).
const READ_RATIOS: [u32; 4] = [0, 50, 90, 99];

/// The acceptance check at one read ratio: `kind` must not trail the
/// single-writer cohort baseline.
fn crw_check(kind: RwLockKind, read_pct: u32) -> Check<u32> {
    Box::new(move |ms: &[Measurement<u32>]| {
        let baseline = find(ms, read_pct, RwLockKind::MutexCBoMcs);
        let crw = find(ms, read_pct, kind);
        let msg = format!(
            "{kind} vs {} at {read_pct}% reads: {:.2}x",
            RwLockKind::MutexCBoMcs,
            crw.throughput / baseline.throughput.max(1.0)
        );
        verdict(crw.throughput >= baseline.throughput, msg)
    })
}

pub fn run() -> bool {
    let threads = ablation_threads();
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_rw: {} locks x {:?} read ratios, {threads} threads",
            RwLockKind::FIG_RW.len(),
            READ_RATIOS
        ),
        locks: RwLockKind::FIG_RW
            .iter()
            .copied()
            .map(AnyLockKind::Rw)
            .collect(),
        grid: READ_RATIOS.to_vec(),
        measure: Box::new(move |&read_pct| {
            (
                Scenario::steady().with_read_pct(read_pct),
                base_config(threads),
            )
        }),
        unit: "ops/s",
        tables: vec![
            TableSpec {
                csv: None,
                text: true,
                build: metric_table(
                    format!("Exhibit RW: throughput (ops/s) by read ratio, {threads} threads"),
                    "read %",
                    0,
                    |r| r.throughput,
                ),
            },
            TableSpec {
                csv: Some("fig_rw".into()),
                text: false,
                build: long_table(schema::FIG_RW_HEADER, no_cell_columns),
            },
        ],
        checks: [90u32, 99]
            .iter()
            .flat_map(|&pct| {
                [
                    crw_check(RwLockKind::CRwWpBoMcs, pct),
                    crw_check(RwLockKind::CRwNeutralBoMcs, pct),
                ]
            })
            .collect(),
        epilogue: None,
    })
}
