//! Figure 3: L2 coherence misses per critical section (log-scale in the
//! paper), same run configuration as Figure 2.
//!
//! Paper shape: MCS highest (fair FIFO ⇒ a migration nearly every
//! handoff); HBO good until high thread counts; HCLH high; FC-MCS degrades
//! gradually; cohort locks lower than everything by 2× or more.

use cohort_bench::{
    base_config, exhibit_main, metric_table, thread_grid, Exhibit, Measure, TableSpec,
};
use lbench::{AnyLockKind, LockKind, Scenario};

fn main() {
    exhibit_main(Exhibit {
        name: "fig3",
        banner: "fig3: coherence misses per critical section".into(),
        locks: AnyLockKind::excl(&LockKind::FIG2),
        grid: thread_grid(),
        measure: Measure::Scenario(Box::new(|&threads| {
            (Scenario::steady(), base_config(threads))
        })),
        unit: "ops/s",
        tables: vec![TableSpec {
            csv: Some("fig3_misses_per_cs".into()),
            text: true,
            build: metric_table(
                "Figure 3: coherence misses per critical section".into(),
                "threads",
                3,
                |r| r.misses_per_cs,
            ),
        }],
        checks: vec![],
        epilogue: None,
    });
}
