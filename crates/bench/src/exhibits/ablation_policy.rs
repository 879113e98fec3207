//! Ablations A (§3.7) and D: the handoff-policy space on the paper's two
//! best locks (C-BO-MCS and C-TKT-MCS), one grid.
//!
//! The paper fixes fairness with one number — 64 consecutive local
//! handoffs — and reports that the unbounded ("deeply unfair") variant
//! is only ~10% faster while allowing batches of hundreds of thousands.
//! This exhibit sweeps that bound and compares the other [`PolicySpec`]
//! families against it:
//!
//! * `count(1|4|16|64|256)` — locality bounded by handoff count (§3.7's
//!   tradeoff curve; 64 is the paper's rule);
//! * `time(50µs)` — tenure bounded by 50 µs of wall-clock time (a lock's
//!   tenure book reads the wall clock, even when the harness prices the
//!   run in virtual time);
//! * `adaptive(8..1024)` — AIMD bound following observed demand;
//! * `unbounded` / `never-pass` — the locality ceiling and floor.
//!
//! Expected shape: `unbounded` sets the throughput ceiling with the worst
//! fairness (huge streaks), `never-pass` the floor; `count`, `time` and
//! `adaptive` should sit near the ceiling while keeping mean streaks
//! short — `adaptive` trading a little fairness for throughput when local
//! demand is sustained.
//!
//! Environment: `LBENCH_ABLATION_THREADS` (default 32), plus the usual
//! `LBENCH_*` knobs. Writes `ablation_policy.csv` under the pinned
//! [`crate::schema::POLICY_HEADER`].

use crate::{
    ablation_threads, base_config, long_table, no_cell_columns, run_exhibit, schema, Cell, Exhibit,
    Grid, TableSpec,
};
use lbench::{AnyLockKind, LockKind, PolicySpec, Scenario};

pub fn run() -> bool {
    let threads = ablation_threads();
    let locks = [LockKind::CBoMcs, LockKind::CTktMcs];
    let policies: Vec<PolicySpec> = [1u64, 4, 16, 64, 256]
        .map(|bound| PolicySpec::Count { bound })
        .into_iter()
        .chain([
            PolicySpec::Time { budget_ns: 50_000 },
            PolicySpec::Adaptive { min: 8, max: 1024 },
            PolicySpec::Unbounded,
            PolicySpec::NeverPass,
        ])
        .collect();
    let title = format!("Ablations A+D: handoff policies ({threads} threads)");
    run_exhibit(&Exhibit {
        banner: format!(
            "ablation_policy: {} locks x {} policies, {threads} threads",
            locks.len(),
            policies.len()
        ),
        locks: AnyLockKind::excl(&locks),
        grid: policies,
        measure: Box::new(move |&policy| {
            let mut cfg = base_config(threads);
            cfg.policy = Some(policy);
            (Scenario::steady(), cfg)
        }),
        unit: "ops/s",
        tables: vec![
            TableSpec {
                csv: None,
                text: true,
                build: Box::new(move |ms| Grid {
                    title: title.clone(),
                    columns: [
                        "lock",
                        "policy",
                        "ops/sec",
                        "stddev %",
                        "mean batch",
                        "misses/CS",
                        "mean streak",
                        "migr/tenure",
                    ]
                    .map(str::to_string)
                    .to_vec(),
                    rows: ms
                        .iter()
                        .map(|m| {
                            let r = &m.result;
                            vec![
                                Cell::text(r.kind.name()),
                                Cell::Text(m.cell.to_string()),
                                Cell::num(r.throughput, 0),
                                Cell::num(r.stddev_pct, 1),
                                Cell::num(r.mean_batch, 1),
                                Cell::num(r.misses_per_cs, 3),
                                Cell::num(r.mean_streak, 1),
                                Cell::num(r.migrations_per_tenure, 2),
                            ]
                        })
                        .collect(),
                }),
            },
            TableSpec {
                csv: Some("ablation_policy".into()),
                text: false,
                build: long_table(schema::POLICY_HEADER, no_cell_columns),
            },
        ],
        checks: vec![],
        epilogue: None,
    })
}
