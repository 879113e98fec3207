//! Figure 2: LBench throughput (critical+non-critical pairs per second)
//! versus thread count, for the nine non-abortable locks.
//!
//! Paper shape: MCS flat/worst; HBO/HCLH middle; FC-MCS best prior;
//! cohort locks on top, C-BO-MCS leading (~60% over FC-MCS at high
//! thread counts).
//!
//! Companion CSVs: modelled acquisition-latency percentiles (p50/p99,
//! virtual nanoseconds from acquisition start to clearing the handoff
//! channel's queue-wait catch-up) per cell.

use cohort_bench::{exhibit_main, metric_table, steady_sweep, TableSpec};
use lbench::LockKind;

fn main() {
    exhibit_main(steady_sweep(
        "fig2",
        format!(
            "fig2: LBench throughput sweep ({} locks)",
            LockKind::FIG2.len()
        ),
        &LockKind::FIG2,
        vec![
            TableSpec {
                csv: Some("fig2_throughput".into()),
                text: true,
                build: metric_table(
                    "Figure 2: LBench throughput (ops/sec)".into(),
                    "threads",
                    0,
                    |r| r.throughput,
                ),
            },
            TableSpec {
                csv: Some("fig2_lat_p50".into()),
                text: false,
                build: metric_table(
                    "Figure 2 (companion): acquisition latency p50 (modelled ns)".into(),
                    "threads",
                    0,
                    |r| r.lat_p50_ns as f64,
                ),
            },
            TableSpec {
                csv: Some("fig2_lat_p99".into()),
                text: false,
                build: metric_table(
                    "Figure 2 (companion): acquisition latency p99 (modelled ns)".into(),
                    "threads",
                    0,
                    |r| r.lat_p99_ns as f64,
                ),
            },
        ],
    ));
}
