//! Ablation C: how NUMA does the machine have to be?
//!
//! Sweeps the remote/local latency ratio of the cost model from 1×
//! (uniform memory) to 16× and reports the cohort lock's advantage over
//! MCS at a fixed thread count. The paper's premise — cohort locks win
//! *because* remote accesses are expensive — predicts the advantage
//! grows monotonically from ≈1× at uniform memory.

use coherence_sim::CostModel;
use cohort_bench::{
    ablation_threads, base_config, exhibit_main, find, Cell, Exhibit, Grid, Measurement, TableSpec,
};
use lbench::{AnyLockKind, LockKind, Scenario};

fn main() {
    let threads = ablation_threads();
    exhibit_main(Exhibit {
        name: "ablation_numa",
        banner: format!("ablation C: remote/local ratio sweep, {threads} threads"),
        locks: vec![
            AnyLockKind::Excl(LockKind::Mcs),
            AnyLockKind::Excl(LockKind::CBoMcs),
        ],
        grid: vec![1u64, 2, 4, 8, 16],
        measure: Box::new(move |&ratio| {
            let mut cfg = base_config(threads);
            cfg.cost = CostModel::t5440_light().with_remote_ratio(ratio);
            (Scenario::steady(), cfg)
        }),
        unit: "ops/s",
        tables: vec![TableSpec {
            csv: None,
            text: true,
            build: Box::new(move |ms: &[Measurement<u64>]| {
                // Ratio rows with the cross-column advantage appended —
                // a bespoke layout the generic matrix cannot express.
                let cell = |ratio: u64, kind: LockKind| find(ms, ratio, kind).throughput;
                let mut ratios: Vec<u64> = Vec::new();
                for m in ms {
                    if !ratios.contains(&m.cell) {
                        ratios.push(m.cell);
                    }
                }
                Grid {
                    title: format!("Ablation C: NUMA-ness vs cohort advantage ({threads} threads)"),
                    columns: ["ratio", "MCS ops/s", "C-BO-MCS ops/s", "advantage"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                    rows: ratios
                        .iter()
                        .map(|&ratio| {
                            let mcs = cell(ratio, LockKind::Mcs);
                            let cohort = cell(ratio, LockKind::CBoMcs);
                            vec![
                                Cell::Text(format!("{ratio}x")),
                                Cell::num(mcs, 0),
                                Cell::num(cohort, 0),
                                Cell::Text(format!("{:.2}x", cohort / mcs.max(1.0))),
                            ]
                        })
                        .collect(),
                }
            }),
        }],
        checks: vec![],
        epilogue: None,
    });
}
