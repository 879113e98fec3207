//! Table 1: memcached-style key-value store scalability — speedup over
//! the 1-thread pthread run, for read-heavy (90% get), mixed (50%) and
//! write-heavy (10% get) mixes.
//!
//! Paper shape: read-heavy — every decent lock plateaus around the same
//! Amdahl ceiling; write-heavy — NUMA-aware locks out-scale the oblivious
//! ones by ≥20%, with untuned HBO and C-BO-BO lagging everywhere.
//!
//! One [`Exhibit`] per mix: the [`KvWorkload`] translates into a keyed
//! scenario (the kvstore service factory behind the engine's one
//! measurement loop), so this exhibit shares every line of measurement
//! machinery with the synthetic ones. The `kv_scenario_parity` test
//! pins that these cells reproduce the retired hand-rolled driver's
//! numbers exactly.

use crate::{clusters, metric_table, run_exhibit, thread_grid, window_ns, Exhibit, TableSpec};
use cohort_kvstore::workload::KvWorkload;
use lbench::{AnyLockKind, LockKind};
use std::time::Duration;

fn workload(get_pct: u32, threads: usize) -> KvWorkload {
    KvWorkload {
        get_pct,
        threads,
        clusters: clusters(),
        window_ns: window_ns(),
        max_wall: Duration::from_secs(30),
        ..Default::default()
    }
}

pub fn run() -> bool {
    let grid: Vec<usize> = thread_grid().into_iter().filter(|&t| t <= 128).collect();
    let mut ok = true;
    for &(get_pct, label) in &[
        (90u32, "90% gets / 10% sets"),
        (50, "50/50"),
        (10, "10% gets / 90% sets"),
    ] {
        // Baseline: pthread at 1 thread.
        let base_thr = workload(get_pct, 1)
            .run(LockKind::Pthread)
            .throughput
            .max(1.0);
        ok &= run_exhibit(&Exhibit {
            banner: format!("table1: mix {label}"),
            locks: AnyLockKind::excl(&LockKind::TABLES),
            grid: grid.clone(),
            measure: Box::new(move |&threads| {
                let w = workload(get_pct, threads);
                (w.scenario(), w.lbench_config())
            }),
            unit: "ops/s",
            tables: vec![TableSpec {
                csv: Some(format!("table1_get{get_pct}")),
                text: true,
                build: metric_table(
                    format!("Table 1 ({label}): speedup over 1-thread pthread"),
                    "threads",
                    2,
                    move |r| r.throughput / base_thr,
                ),
            }],
            checks: vec![],
            epilogue: None,
        });
    }
    ok
}
