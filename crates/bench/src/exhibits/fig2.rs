//! Figures 2–5 and Ablation B: one steady sweep of the nine
//! non-abortable locks, seven tables.
//!
//! The paper's Figures 3 and 5 come from the same runs as Figure 2, and
//! Figure 4 is its 1–16-thread zoom, so the grid is the `LBENCH_THREADS`
//! grid ∪ {1, 2, 4, 8, 12, 16}, measured once:
//!
//! * **Figure 2** — LBench throughput (critical+non-critical pairs per
//!   second). Paper shape: MCS flat/worst; HBO/HCLH middle; FC-MCS best
//!   prior; cohort locks on top, C-BO-MCS leading (~60% over FC-MCS at
//!   high thread counts). Companion CSVs: modelled acquisition-latency
//!   percentiles (p50/p99, virtual nanoseconds from acquisition start to
//!   clearing the handoff channel's queue-wait catch-up) per cell.
//! * **Figure 3** — L2 coherence misses per critical section (log-scale
//!   in the paper). Paper shape: MCS highest (fair FIFO ⇒ a migration
//!   nearly every handoff); HBO good until high thread counts; HCLH high;
//!   FC-MCS degrades gradually; cohort locks lower than everything by 2×
//!   or more.
//! * **Figure 4** — the low-contention zoom (rows with threads ≤ 16).
//!   Paper shape: despite the two-level acquisition, cohort locks stay
//!   competitive with single-level locks at low thread counts — the extra
//!   cost "withers away as background noise" next to the critical and
//!   non-critical work.
//! * **Figure 5** — fairness: standard deviation of per-thread
//!   throughput as a percentage of the mean (lower = fairer). Paper
//!   shape: HBO by far the least fair (starvation); C-BO-MCS next (global
//!   BO arbitration unfairness); MCS/HCLH/FC-MCS/C-TKT-TKT well under 5%;
//!   cohort locks bounded by the 64-handoff policy.
//! * **Ablation B** (§4.1.2) — dynamic batch growth. The paper
//!   attributes cohort locks' miss rates to batches that *grow* with
//!   contention, in contrast to the static batches of HCLH/FC-MCS: the
//!   mean batch length of [`BATCHING`] per thread count, plus the full
//!   batch-length histogram at the top thread count.

use crate::{metric_table, run_exhibit, Exhibit, Measurement, TableSpec};
use lbench::{AnyLockKind, LockKind, Scenario, ScenarioResult};

/// The locks of the batch-growth ablation (in [`LockKind::FIG2`] order,
/// the order their columns print in).
const BATCHING: [LockKind; 5] = [
    LockKind::Mcs,
    LockKind::Hclh,
    LockKind::FcMcs,
    LockKind::CTktTkt,
    LockKind::CBoMcs,
];

/// Whether `m` measured one of the [`BATCHING`] locks.
fn batching(m: &Measurement<usize>) -> bool {
    matches!(m.result.kind, AnyLockKind::Excl(k) if BATCHING.contains(&k))
}

/// A `threads` × lock table of `metric`, written to `csv` when set.
fn table(
    csv: Option<&str>,
    text: bool,
    title: &str,
    precision: usize,
    metric: fn(&ScenarioResult) -> f64,
) -> TableSpec<usize> {
    TableSpec {
        csv: csv.map(str::to_string),
        text,
        build: metric_table(title.into(), "threads", precision, metric),
    }
}

/// `spec` over the measurements `keep` accepts.
fn only(keep: fn(&Measurement<usize>) -> bool, spec: TableSpec<usize>) -> TableSpec<usize> {
    let build = spec.build;
    TableSpec {
        build: Box::new(move |ms| {
            let kept: Vec<Measurement<usize>> = ms
                .iter()
                .filter(|m| keep(m))
                .map(|m| Measurement {
                    cell: m.cell,
                    result: m.result.clone(),
                })
                .collect();
            build(&kept)
        }),
        ..spec
    }
}

pub fn run() -> bool {
    let mut grid = crate::thread_grid();
    grid.extend([1, 2, 4, 8, 12, 16]);
    grid.sort_unstable();
    grid.dedup();
    let top = *grid.last().expect("the zoom rows are always swept");
    run_exhibit(&Exhibit {
        banner: format!(
            "fig2: LBench steady sweep ({} locks x {grid:?} threads; Figures 2-5, ablation B)",
            LockKind::FIG2.len()
        ),
        locks: AnyLockKind::excl(&LockKind::FIG2),
        grid,
        measure: Box::new(|&threads| (Scenario::steady(), crate::base_config(threads))),
        unit: "ops/s",
        tables: vec![
            table(
                Some("fig2_throughput"),
                true,
                "Figure 2: LBench throughput (ops/sec)",
                0,
                |r| r.throughput,
            ),
            table(
                Some("fig2_lat_p50"),
                false,
                "Figure 2 (companion): acquisition latency p50 (modelled ns)",
                0,
                |r| r.lat_p50_ns as f64,
            ),
            table(
                Some("fig2_lat_p99"),
                false,
                "Figure 2 (companion): acquisition latency p99 (modelled ns)",
                0,
                |r| r.lat_p99_ns as f64,
            ),
            table(
                Some("fig3_misses_per_cs"),
                true,
                "Figure 3: coherence misses per critical section",
                3,
                |r| r.misses_per_cs,
            ),
            only(
                |m| m.cell <= 16,
                table(
                    Some("fig4_low_contention"),
                    true,
                    "Figure 4: low-contention throughput (ops/sec)",
                    0,
                    |r| r.throughput,
                ),
            ),
            table(
                Some("fig5_fairness"),
                true,
                "Figure 5: per-thread throughput stddev (% of mean)",
                1,
                |r| r.stddev_pct,
            ),
            only(
                batching,
                table(
                    None,
                    true,
                    "Ablation B: mean same-cluster batch length",
                    1,
                    |r| r.mean_batch,
                ),
            ),
        ],
        checks: vec![],
        epilogue: Some(Box::new(move |ms: &[Measurement<usize>]| {
            println!("\nBatch-length histograms at {top} threads (bucket = [2^i, 2^(i+1))):");
            for m in ms.iter().filter(|m| m.cell == top && batching(m)) {
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
        })),
    })
}
