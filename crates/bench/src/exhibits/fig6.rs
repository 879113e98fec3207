//! Figure 6: abortable lock throughput (A-CLH, A-HBO, A-C-BO-BO,
//! A-C-BO-CLH), patience-based timeouts, abort rate kept ~1% like the
//! paper's.
//!
//! Paper shape: the abortable cohort locks beat A-CLH and A-HBO by up to
//! 6×; A-HBO additionally starves (high abort rates under load).

use crate::{base_config, metric_table, run_exhibit, thread_grid, Exhibit, TableSpec};
use lbench::{AnyLockKind, LockKind, Scenario};

/// 5 ms of virtual patience: far longer than a full cohort tenure
/// (64 handoffs ≈ 10 µs modelled) *including* the startup storm in the
/// paced real-time frame, keeping spurious timeouts at zero. This
/// matters most for A-C-BO-CLH, whose aborts are the expensive kind —
/// each one conservatively forces a global release (§3.6.2), so a burst
/// of early timeouts can cascade into tenure collapse.
const PATIENCE_NS: u64 = 5_000_000;

pub fn run() -> bool {
    run_exhibit(&Exhibit {
        banner: format!("fig6: abortable lock throughput (patience {PATIENCE_NS} ns)"),
        locks: AnyLockKind::excl(&LockKind::FIG6),
        grid: thread_grid(),
        measure: Box::new(|&threads| {
            let mut cfg = base_config(threads);
            // The abort charge equals the patience; keep the measurement
            // window comfortably larger so one abort cannot end a run.
            cfg.window_ns = cfg.window_ns.max(3 * PATIENCE_NS);
            (Scenario::steady().with_patience(PATIENCE_NS), cfg)
        }),
        unit: "ops/s",
        tables: vec![
            TableSpec {
                csv: Some("fig6_abortable".into()),
                text: true,
                build: metric_table(
                    "Figure 6: abortable throughput (ops/sec)".into(),
                    "threads",
                    0,
                    |r| r.throughput,
                ),
            },
            TableSpec {
                csv: Some("fig6_abort_rate".into()),
                text: true,
                build: metric_table(
                    "Figure 6 (companion): abort rate (%)".into(),
                    "threads",
                    2,
                    |r| r.abort_rate * 100.0,
                ),
            },
        ],
        checks: vec![],
        epilogue: None,
    })
}
