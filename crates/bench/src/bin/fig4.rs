//! Figure 4: the low-contention zoom of Figure 2 (threads 1–16).
//!
//! Paper shape: despite the two-level acquisition, cohort locks stay
//! competitive with single-level locks at low thread counts — the extra
//! cost "withers away as background noise" next to the critical and
//! non-critical work.

use cohort_bench::{base_config, exhibit_main, metric_table, Exhibit, TableSpec};
use lbench::{AnyLockKind, LockKind, Scenario};

fn main() {
    exhibit_main(Exhibit {
        name: "fig4",
        banner: "fig4: low-contention throughput (1..16 threads)".into(),
        locks: AnyLockKind::excl(&LockKind::FIG2),
        grid: vec![1usize, 2, 4, 8, 12, 16],
        measure: Box::new(|&threads| (Scenario::steady(), base_config(threads))),
        unit: "ops/s",
        tables: vec![TableSpec {
            csv: Some("fig4_low_contention".into()),
            text: true,
            build: metric_table(
                "Figure 4: low-contention throughput (ops/sec)".into(),
                "threads",
                0,
                |r| r.throughput,
            ),
        }],
        checks: vec![],
        epilogue: None,
    });
}
