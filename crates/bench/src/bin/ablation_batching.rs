//! Ablation B (§4.1.2): dynamic batch growth.
//!
//! The paper attributes cohort locks' miss rates to batches that *grow*
//! with contention, in contrast to the static batches of HCLH/FC-MCS.
//! This ablation prints the mean batch length per lock as the thread count
//! grows, plus the full batch-length histogram at the top thread count.

use cohort_bench::{exhibit_main, metric_table, steady_sweep, Measurement, TableSpec};
use lbench::LockKind;

const LOCKS: [LockKind; 5] = [
    LockKind::Mcs,
    LockKind::Hclh,
    LockKind::FcMcs,
    LockKind::CBoMcs,
    LockKind::CTktTkt,
];

fn main() {
    let mut exhibit = steady_sweep(
        "ablation_batching",
        "ablation B: batch growth with contention".into(),
        &LOCKS,
        vec![TableSpec {
            csv: None,
            text: true,
            build: metric_table(
                "Ablation B: mean same-cluster batch length".into(),
                "threads",
                1,
                |r| r.mean_batch,
            ),
        }],
    );
    let top = exhibit.grid.last().copied().unwrap_or(1);
    exhibit.epilogue = Some(Box::new(move |ms: &[Measurement<usize>]| {
        println!("\nBatch-length histograms at {top} threads (bucket = [2^i, 2^(i+1))):");
        for m in ms.iter().filter(|m| m.cell == top) {
            let trimmed: Vec<String> = m
                .result
                .batch_hist
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, c)| format!("2^{i}:{c}"))
                .collect();
            println!("  {:>10}: {}", m.result.kind.name(), trimmed.join(" "));
        }
    }));
    exhibit_main(exhibit);
}
