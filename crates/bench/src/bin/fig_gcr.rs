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
//! Environment (strict `lbench::env` parsing, like every knob):
//!
//! * `LBENCH_GCR_BASE_THREADS` — the 1× thread count the
//!   oversubscription factors multiply (default 8; zero aborts);
//! * `LBENCH_GCR_ACTIVE` — admission slots per cluster (1..=1024;
//!   default [`GcrTuning::DEFAULT_ACTIVE_PER_CLUSTER`]);
//! * `LBENCH_GCR_EPOCH_US` — rotation epoch in virtual microseconds
//!   (1..=1000000; default [`GcrTuning::DEFAULT_EPOCH_NS`] ÷ 1000);
//! * `LBENCH_GCR_SPINS` — passive spin-hint rounds before a parked
//!   thread yields each poll (1..=1000000; default
//!   [`GcrTuning::DEFAULT_PASSIVE_SPINS`]);
//! * plus the usual `LBENCH_*` knobs and `RESULTS_DIR` (the measurement
//!   window is stretched 4× over `LBENCH_WINDOW_MS` — see
//!   [`WINDOW_STRETCH`]).
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

use base_locks::McsLock;
use cohort::{CBoMcs, FisBoMcs, GcrLock, GcrTuning};
use cohort_bench::{
    base_config, exhibit_main, find, knob_or_die, long_table, schema, throughput_floor_check,
    throughput_table, verdict, Cell, Check, Exhibit, Measure, Measurement, TableSpec,
};
use lbench::env::{env_positive_usize, env_range_u64};
use lbench::{
    run_scenario, run_scenario_on, AnyLockKind, BenchRwLock, LockKind, RawAdapter, Scenario,
    ScenarioResult,
};
use numa_topology::Topology;
use std::sync::Arc;

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

/// Admission tuning from the environment (defaults are the library's).
fn tuning() -> GcrTuning {
    let mut t = GcrTuning::default();
    if let Some(v) = knob_or_die(env_range_u64("LBENCH_GCR_ACTIVE", 1..=1_024)) {
        t.active_per_cluster = v as u32;
    }
    if let Some(us) = knob_or_die(env_range_u64("LBENCH_GCR_EPOCH_US", 1..=1_000_000)) {
        t.epoch_ns = us * 1_000;
    }
    if let Some(v) = knob_or_die(env_range_u64("LBENCH_GCR_SPINS", 1..=1_000_000)) {
        t.passive_spins = v as u32;
    }
    t
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

/// Measures one (lock, cell) pair. Non-GCR kinds go through the plain
/// registry path; the GCR rows honor the `LBENCH_GCR_*` tuning knobs by
/// building their lock directly when they deviate from the library
/// defaults (the registry constructs defaults only).
fn measure(kind: AnyLockKind, cell: &GcrCell) -> ScenarioResult {
    let mut cfg = base_config(cell.threads);
    cfg.window_ns *= WINDOW_STRETCH;
    let scenario = Scenario::steady();
    let tuned = tuning();
    if tuned != GcrTuning::default() {
        // Dispatch on the *concrete* kind: the measured lock must be
        // exactly what the row is labeled as.
        let topo = Arc::new(Topology::new(cfg.clusters));
        let lock: Option<Arc<dyn BenchRwLock>> = match kind {
            AnyLockKind::Excl(LockKind::GcrMcs) => Some(Arc::new(RawAdapter::new(
                GcrLock::with_tuning(Arc::clone(&topo), McsLock::new(), tuned),
            ))),
            AnyLockKind::Excl(LockKind::GcrCBoMcs) => Some(Arc::new(RawAdapter::new(
                GcrLock::with_tuning(Arc::clone(&topo), CBoMcs::new(Arc::clone(&topo)), tuned),
            ))),
            AnyLockKind::Excl(LockKind::GcrFisBoMcs) => Some(Arc::new(RawAdapter::new(
                GcrLock::with_tuning(Arc::clone(&topo), FisBoMcs::new(Arc::clone(&topo)), tuned),
            ))),
            _ => None,
        };
        if let Some(lock) = lock {
            return run_scenario_on(kind, lock, topo, &scenario, &cfg);
        }
    }
    run_scenario(kind, &scenario, &cfg)
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
            "fig_gcr: {} locks x oversub {:?} (base {} threads), tuning {:?}",
            LockKind::FIG_GCR.len(),
            OVERSUB,
            base,
            tuning()
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_GCR),
        grid,
        measure: Measure::Custom(Box::new(|kind, cell: &GcrCell| measure(kind, cell))),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit GCR: throughput (ops/s) by oversubscription"),
            TableSpec {
                csv: Some("fig_gcr".into()),
                text: false,
                build: long_table(schema::FIG_GCR_HEADER, |m: &Measurement<GcrCell>| {
                    let r = &m.result;
                    vec![
                        Cell::text(r.kind.name()),
                        Cell::Int(m.cell.oversub as u64),
                        Cell::Int(r.threads as u64),
                        Cell::Int(cohort_bench::clusters() as u64),
                        // Rate, not num: the CSV field carries the same
                        // unit-promoted figure as the printed table.
                        Cell::Rate(r.throughput),
                        Cell::Int(r.acquisitions),
                        Cell::Int(r.migrations),
                        Cell::num(r.misses_per_cs, 4),
                        Cell::Int(r.tenures),
                        Cell::Int(r.local_handoffs),
                        Cell::num(r.mean_streak, 2),
                        Cell::Int(r.max_streak),
                        Cell::Int(r.fast_acquisitions),
                        Cell::Int(r.slow_acquisitions),
                        Cell::Int(r.passive_parks),
                        Cell::Int(r.promotions),
                        Cell::text(r.policy.as_deref().unwrap_or("-")),
                    ]
                }),
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
