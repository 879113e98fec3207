//! Figure 5: fairness — standard deviation of per-thread throughput as a
//! percentage of the mean (lower = fairer), same runs as Figure 2.
//!
//! Paper shape: HBO by far the least fair (starvation); C-BO-MCS next
//! (global BO arbitration unfairness); MCS/HCLH/FC-MCS/C-TKT-TKT well
//! under 5%; cohort locks bounded by the 64-handoff policy.

use cohort_bench::{exhibit_main, metric_table, steady_sweep, TableSpec};
use lbench::LockKind;

fn main() {
    exhibit_main(steady_sweep(
        "fig5",
        "fig5: fairness (stddev % of per-thread throughput)".into(),
        &LockKind::FIG2,
        vec![TableSpec {
            csv: Some("fig5_fairness".into()),
            text: true,
            build: metric_table(
                "Figure 5: per-thread throughput stddev (% of mean)".into(),
                "threads",
                1,
                |r| r.stddev_pct,
            ),
        }],
    ));
}
