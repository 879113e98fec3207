//! Exhibit GCR: the admission layer under oversubscription.
//!
//! When runnable threads far outnumber cores, every spin lock collapses:
//! waiters burn the quanta the holder needs, and preempted holders strand
//! the whole queue (the lock-holder/lock-waiter preemption problem).
//! *Generic Concurrency Restriction* (Dice & Kogan, arXiv:1905.10818)
//! caps the number of threads competing for the lock at ~one waiter per
//! cluster and parks the surplus on passive lists, rotating them back in
//! periodically for long-term fairness. This exhibit sweeps thread counts
//! **past** the base count (oversubscription 1×–8×) for each bare lock
//! next to its GCR-wrapped form:
//!
//! * `MCS` vs `GCR-MCS` — the queue baseline, bare and admission-capped;
//! * `C-BO-MCS` vs `GCR-C-BO-MCS` — the cohort lock under both regimes;
//! * `Fis-BO-MCS` vs `GCR-Fis-BO-MCS` — fast-path graft, bare and capped.
//!
//! Environment: `LBENCH_GCR_BASE_THREADS` — the 1× thread count the
//! oversubscription factors multiply (default 8; zero aborts) — plus the
//! usual `LBENCH_*` knobs and `RESULTS_DIR` (the measurement window is
//! stretched 4× over `LBENCH_WINDOW_MS` — see [`WINDOW_STRETCH`]). The
//! GCR rows run the library's default `GcrTuning` (active-set size,
//! rotation epoch, passive spins), like every registry kind;
//! `GcrLock::with_tuning` is the constructor for anything else.
//!
//! The binary **self-checks** the two acceptance shapes of the GCR
//! design and exits non-zero on failure:
//!
//! 1. **no collapse**: each GCR-wrapped kind must hold ≥ 0.9× its own
//!    peak-throughput cell at 4× oversubscription — the admission layer
//!    exists to keep the curve flat where the bare lock is allowed to
//!    fall off a cliff;
//! 2. **uncontended**: at 1 thread, each GCR-wrapped kind must hold
//!    ≥ 0.95× its bare inner lock — a disengaged admission layer is one
//!    `try_lock` on the inner lock, nothing more.

use cohort_bench::{
    base_config, clusters, exhibit_main, find, knob_or_die, long_table, no_cell_columns, schema,
    throughput_floor_check, throughput_table, verdict, Cell, Check, Exhibit, Measurement,
    TableSpec,
};
use lbench::env::env_positive_usize;
use lbench::{AnyLockKind, LockKind, Scenario};

/// Oversubscription factors swept (threads = factor × base threads).
const OVERSUB: &[usize] = &[1, 2, 4, 8];

/// The collapse-check factor: where the bare lock is allowed to have
/// collapsed, the GCR row must still be near its peak.
const CHECK_OVERSUB: usize = 4;

/// Floor of a GCR kind's 4×-oversubscription cell against its own peak.
const GCR_COLLAPSE_FLOOR: f64 = 0.9;

/// Floor of a GCR kind's single-thread cell against its bare inner lock.
const GCR_UNCONTENDED_FLOOR: f64 = 0.95;

/// The `(wrapped, bare)` pairs the uncontended check compares.
const PAIRS: &[(LockKind, LockKind)] = &[
    (LockKind::GcrMcs, LockKind::Mcs),
    (LockKind::GcrCBoMcs, LockKind::CBoMcs),
    (LockKind::GcrFisBoMcs, LockKind::FisBoMcs),
];

/// Window stretch over `LBENCH_WINDOW_MS` for this exhibit. A GCR cell
/// measures a small admitted set serializing on the inner lock; its
/// throughput estimate converges slower than the full-population cells
/// of the other exhibits, and the self-check floors need the estimate
/// stable run-to-run (at the default 10 ms window a single sample can
/// swing ~20%; at 4x it settles within ~1%).
const WINDOW_STRETCH: u64 = 4;

/// The 1× thread count (stands in for the core count of the paper's
/// host; the sweep multiplies it by [`OVERSUB`]).
fn base_threads() -> usize {
    knob_or_die(env_positive_usize("LBENCH_GCR_BASE_THREADS")).unwrap_or(8)
}

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

/// Self-check 1: the admission layer keeps the curve flat — the 4×
/// oversubscription cell holds [`GCR_COLLAPSE_FLOOR`] of the kind's own
/// peak across the swept factors.
fn collapse_check(kind: LockKind, base: usize) -> Check<GcrCell> {
    Box::new(move |ms: &[Measurement<GcrCell>]| {
        let at = |oversub: usize| {
            find(
                ms,
                GcrCell {
                    oversub,
                    threads: oversub * base,
                },
                kind,
            )
        };
        let peak = OVERSUB
            .iter()
            .map(|&f| at(f).throughput)
            .fold(f64::MIN, f64::max);
        let checked = at(CHECK_OVERSUB);
        let ratio = checked.throughput / peak.max(1.0);
        let msg = format!(
            "{} at {CHECK_OVERSUB}x oversub vs own peak: {ratio:.3}x \
             (floor {GCR_COLLAPSE_FLOOR}x, {} parks / {} promotions)",
            kind.name(),
            checked.passive_parks,
            checked.promotions
        );
        verdict(ratio >= GCR_COLLAPSE_FLOOR, msg)
    })
}

/// Self-check 2: disengaged, the wrapper costs one inner `try_lock` —
/// near-parity with the bare inner lock at a single thread.
fn uncontended_check(wrapped: LockKind, bare: LockKind) -> Check<GcrCell> {
    let cell = GcrCell {
        oversub: 0,
        threads: 1,
    };
    throughput_floor_check(cell, wrapped, bare, GCR_UNCONTENDED_FLOOR, |gcr, _| {
        format!("{} parks", gcr.passive_parks)
    })
}

fn main() {
    let base = base_threads();
    let grid: Vec<GcrCell> = std::iter::once(GcrCell {
        oversub: 0,
        threads: 1,
    })
    .chain(OVERSUB.iter().map(|&oversub| GcrCell {
        oversub,
        threads: oversub * base,
    }))
    .collect();
    exhibit_main(Exhibit {
        name: "fig_gcr",
        banner: format!(
            "fig_gcr: {} locks x oversub {:?} (base {} threads)",
            LockKind::FIG_GCR.len(),
            OVERSUB,
            base
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_GCR),
        grid,
        measure: Box::new(|cell: &GcrCell| {
            let mut cfg = base_config(cell.threads);
            cfg.window_ns *= WINDOW_STRETCH;
            (Scenario::steady(), cfg)
        }),
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
            .map(|&(wrapped, _)| collapse_check(wrapped, base))
            .chain(
                PAIRS
                    .iter()
                    .map(|&(wrapped, bare)| uncontended_check(wrapped, bare)),
            )
            .collect(),
        epilogue: None,
    });
}
