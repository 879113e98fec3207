//! Figure 3: L2 coherence misses per critical section (log-scale in the
//! paper), same run configuration as Figure 2.
//!
//! Paper shape: MCS highest (fair FIFO ⇒ a migration nearly every
//! handoff); HBO good until high thread counts; HCLH high; FC-MCS degrades
//! gradually; cohort locks lower than everything by 2× or more.

use cohort_bench::{exhibit_main, metric_table, steady_sweep, TableSpec};
use lbench::LockKind;

fn main() {
    exhibit_main(steady_sweep(
        "fig3",
        "fig3: coherence misses per critical section".into(),
        &LockKind::FIG2,
        vec![TableSpec {
            csv: Some("fig3_misses_per_cs".into()),
            text: true,
            build: metric_table(
                "Figure 3: coherence misses per critical section".into(),
                "threads",
                3,
                |r| r.misses_per_cs,
            ),
        }],
    ));
}
