//! Exhibit GCR: the admission layer under oversubscription, on the wall
//! clock.
//!
//! When runnable threads far outnumber cores, every spin lock collapses:
//! waiters burn the quanta the holder needs, and preempted holders strand
//! the whole queue (the lock-holder/lock-waiter preemption problem).
//! *Generic Concurrency Restriction* (Dice & Kogan, arXiv:1905.10818)
//! caps the number of threads competing for the lock and queues the
//! surplus passively, rotating it back in for long-term fairness. This
//! exhibit sweeps thread counts **past** the host's CPU count
//! (oversubscription 1×–8× of `std::thread::available_parallelism`) for
//! each bare lock next to its GCR-wrapped form:
//!
//! * `MCS` vs `GCR-MCS` — the queue baseline, bare and admission-capped;
//! * `C-BO-MCS` vs `GCR-C-BO-MCS` — the cohort lock under both regimes;
//! * `Fis-BO-MCS` vs `GCR-Fis-BO-MCS` — fast-path graft, bare and capped.
//!
//! Every cell runs on the wall clock (`TimeMode::Wall`): GCR's claim is
//! about preemption and scheduler churn, which virtual time cannot show.
//! Environment: the usual `LBENCH_*` knobs and `RESULTS_DIR` (the
//! measurement window is stretched 10× over `LBENCH_WINDOW_MS` — see
//! [`WINDOW_STRETCH`]).
//!
//! The exhibit **self-checks** the acceptance shapes of the GCR design.
//! Each check is a throughput ratio read as the median of [`TRIALS`]
//! measurements (see [`ratio_check`]):
//!
//! 1. **no collapse**: each GCR-wrapped kind's 8× cell holds ≥ 0.5× its
//!    own 1× cell;
//! 2. **beats the bare queue**: GCR-MCS ≥ MCS at 8×, where the bare
//!    queue lock hands over to preempted successors;
//! 3. **uncontended**: at 1 thread, each GCR-wrapped kind holds ≥ 0.95×
//!    its bare inner lock — admission is one CAS and one `fetch_sub`.

use crate::{
    base_config, clusters, find, long_table, measure_cell, no_cell_columns, run_exhibit, schema,
    throughput_table, verdict, Cell, Check, Exhibit, Measurement, TableSpec,
};
use lbench::{AnyLockKind, LBenchConfig, LockKind, Scenario, TimeMode};

/// Oversubscription factors swept (threads = factor × CPUs).
const OVERSUB: &[usize] = &[1, 2, 4, 8];

/// The checked factor: where the bare queue lock has collapsed.
const CHECK_OVERSUB: usize = 8;

/// Floor of a GCR kind's 8× cell against its own 1× cell.
const GCR_COLLAPSE_FLOOR: f64 = 0.5;

/// Floor of GCR-MCS against bare MCS at the 8× cell.
const GCR_MCS_FLOOR: f64 = 1.0;

/// Floor of a GCR kind's single-thread cell against its bare inner lock.
const GCR_UNCONTENDED_FLOOR: f64 = 0.95;

/// The `(wrapped, bare)` pairs the checks compare.
const PAIRS: &[(LockKind, LockKind)] = &[
    (LockKind::GcrMcs, LockKind::Mcs),
    (LockKind::GcrCBoMcs, LockKind::CBoMcs),
    (LockKind::GcrFisBoMcs, LockKind::FisBoMcs),
];

/// Window stretch over `LBENCH_WINDOW_MS` for this exhibit. Whether an
/// oversubscribed cell catches a convoy (a queue handing over to
/// preempted successors) is decided a few scheduler time slices at a
/// time, so a cell needs a window of many slices: 100 ms by default.
const WINDOW_STRETCH: u64 = 10;

/// Measurements per check ratio: the grid's own plus re-measured pairs.
/// On a 2-vCPU host one wall-clock ratio in ten or so lands on the wrong
/// side of its floor (a convoy-free stretch of bare MCS at 8×, another
/// tenant's burst during a 1-thread cell); the median of three does not
/// move with one such outlier, in either direction.
const TRIALS: usize = 3;

/// One grid cell: an oversubscription factor at its thread count
/// (`oversub == 0` is the single-thread uncontended check cell).
#[derive(Clone, Copy, PartialEq, Eq)]
struct GcrCell {
    oversub: usize,
    threads: usize,
}

impl std::fmt::Display for GcrCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.oversub == 0 {
            write!(f, "uncontended t={}", self.threads)
        } else {
            write!(f, "{}x t={}", self.oversub, self.threads)
        }
    }
}

/// The single-thread check cell.
const UNCONTENDED: GcrCell = GcrCell {
    oversub: 0,
    threads: 1,
};

/// The cell at `oversub` × `cpus` threads.
fn at(oversub: usize, cpus: usize) -> GcrCell {
    GcrCell {
        oversub,
        threads: oversub * cpus,
    }
}

/// A cell's scenario and config: steady load on the wall clock.
fn build(cell: &GcrCell) -> (Scenario, LBenchConfig) {
    let mut cfg = base_config(cell.threads);
    cfg.window_ns *= WINDOW_STRETCH;
    cfg.mode = TimeMode::Wall;
    (Scenario::steady(), cfg)
}

/// Every self-check: `num`'s throughput over `den`'s (each a lock at a
/// cell) must reach `floor`. The ratio is the median of [`TRIALS`]: the
/// grid's measurement, then the pair re-measured inline.
fn ratio_check(num: (LockKind, GcrCell), den: (LockKind, GcrCell), floor: f64) -> Check<GcrCell> {
    Box::new(move |ms: &[Measurement<GcrCell>]| {
        let grid = find(ms, num.1, num.0);
        let first = grid.throughput / find(ms, den.1, den.0).throughput.max(1.0);
        let mut ratios: Vec<f64> = std::iter::once(first)
            .chain((1..TRIALS).map(|_| {
                let n = measure_cell(num.0.into(), build(&num.1));
                let d = measure_cell(den.0.into(), build(&den.1));
                n.throughput / d.throughput.max(1.0)
            }))
            .collect();
        ratios.sort_by(f64::total_cmp);
        let ratio = ratios[TRIALS / 2];
        let msg = format!(
            "{} at {} vs {} at {}: median {ratio:.3}x of {ratios:.3?} (floor {floor}x, \
             {} parks / {} promotions)",
            num.0, num.1, den.0, den.1, grid.passive_parks, grid.promotions
        );
        verdict(ratio >= floor, msg)
    })
}

pub fn run() -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let grid: Vec<GcrCell> = std::iter::once(UNCONTENDED)
        .chain(OVERSUB.iter().map(|&oversub| at(oversub, cpus)))
        .collect();
    let checked = at(CHECK_OVERSUB, cpus);
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_gcr: {} locks x oversub {:?} ({} CPUs, wall clock)",
            LockKind::FIG_GCR.len(),
            OVERSUB,
            cpus
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_GCR),
        grid,
        measure: Box::new(build),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit GCR: throughput (ops/s) by oversubscription"),
            TableSpec {
                csv: Some("fig_gcr".into()),
                text: false,
                build: long_table(
                    schema::FIG_GCR_HEADER,
                    |m: &Measurement<GcrCell>, column| match column {
                        "oversub" => Cell::Int(m.cell.oversub as u64),
                        "clusters" => Cell::Int(clusters() as u64),
                        // Rate, not the column table's fixed precision: the
                        // CSV field carries the same unit-promoted figure as
                        // the printed table.
                        "throughput" => Cell::Rate(m.result.throughput),
                        _ => no_cell_columns(m, column),
                    },
                ),
            },
        ],
        checks: PAIRS
            .iter()
            .map(|&(gcr, _)| ratio_check((gcr, checked), (gcr, at(1, cpus)), GCR_COLLAPSE_FLOOR))
            .chain(std::iter::once(ratio_check(
                (LockKind::GcrMcs, checked),
                (LockKind::Mcs, checked),
                GCR_MCS_FLOOR,
            )))
            .chain(PAIRS.iter().map(|&(gcr, bare)| {
                ratio_check(
                    (gcr, UNCONTENDED),
                    (bare, UNCONTENDED),
                    GCR_UNCONTENDED_FLOOR,
                )
            }))
            .collect(),
        epilogue: None,
    })
}
