//! Table 2: the mmicro allocator stress test — malloc-free pairs per
//! millisecond under the single-lock libc-style allocator.
//!
//! Paper shape: non-cohort locks cap out around 2× the single-thread
//! rate; cohort locks reach 5–6×, because lock batching keeps the splay
//! tree's hot nodes and the recycled blocks inside one cluster.
//!
//! The [`MmicroWorkload`] translates into a keyless keyed scenario (one
//! op = one malloc-free pair inside the allocator service), so the
//! engine's throughput channel carries pairs per second and the table
//! converts to Table 2's pairs-per-ms metric. Parity with the retired
//! hand-rolled driver is pinned by the `kv_scenario_parity` test.

use crate::{clusters, metric_table, run_exhibit, thread_grid, window_ns, Exhibit, TableSpec};
use cohort_alloc::workload::MmicroWorkload;
use lbench::{AnyLockKind, LockKind};
use std::time::Duration;

pub fn run() -> bool {
    run_exhibit(&Exhibit {
        banner: "table2: mmicro malloc-free pairs per millisecond".into(),
        locks: AnyLockKind::excl(&LockKind::TABLES),
        grid: thread_grid(),
        measure: Box::new(|&threads| {
            let w = MmicroWorkload {
                threads,
                clusters: clusters(),
                window_ns: window_ns(),
                max_wall: Duration::from_secs(30),
                ..Default::default()
            };
            (w.scenario(), w.lbench_config())
        }),
        unit: "pairs/s",
        tables: vec![TableSpec {
            csv: Some("table2_mmicro".into()),
            text: true,
            build: metric_table(
                "Table 2: mmicro throughput (malloc-free pairs per ms)".into(),
                "threads",
                0,
                // The engine's throughput channel is pairs per *second*.
                |r| r.throughput / 1e3,
            ),
        }],
        checks: vec![],
        epilogue: None,
    })
}
