//! Exhibit Compare: the three PAPERS.md comparisons in one sweep.
//!
//! The paper predates three designs that attack the same cost — lock
//! handover across clusters — from other sides. This exhibit races them
//! against cohorting over one clusters × threads × mode grid and writes
//! one CSV per comparison:
//!
//! * `fig_cna.csv` — cohorting vs. compaction: the Compact NUMA-Aware
//!   lock (Dice & Kogan, EuroSys 2019) gets cohort-like intra-node
//!   handoff from a *single-word* MCS-shaped lock by splicing remote
//!   waiters onto a secondary queue. MCS, C-BO-MCS, `CNA` (threshold 64,
//!   the cohort locks' `count(64)`) and `CNA (t=4)` (a tight threshold:
//!   the fairness/locality trade-off inside one family).
//! * `fig_fissile.csv` — the fast-path graft: *Fissile Locks* (Dice &
//!   Kogan, arXiv:2003.05025) try a TATAS word first and fall into the
//!   cohort slow path only on failure. TATAS, MCS, C-BO-MCS and
//!   Fis-BO-MCS at the library's default `FissileTuning`, with the
//!   fast-vs-slow split in `fast_acqs`/`slow_acqs`.
//! * `fig_recip.csv` — constant-coherence handover: *Reciprocating
//!   Locks* (Dice & Kogan, arXiv:2501.02380) make each handover touch a
//!   constant number of cache lines whatever the queue depth, via a
//!   one-word arrivals stack whose detached segments are admitted in
//!   reversed order. TATAS, MCS, CNA, Fis-BO-MCS, `Recip` (the paper's
//!   base algorithm, no era bound) and `C-Recip-MCS` (Recip in the
//!   *global* position of a cohort: its two-plain-word token is
//!   thread-oblivious for free, the §3.4 requirement).
//!
//! Every cell runs twice: with real threads (`mode=realtime`) and on the
//! deterministic modelled substrate (`mode=modelled`, disaggregated cost
//! model, zero think time), where the **succession census**
//! (`succ_transitions`) counts the cache lines each release's admission
//! decision fans out to — the quantity the constant-coherence claim is
//! about. The first two CSVs take the realtime rows only.
//!
//! The thread counts at each cluster count `c` are `LBENCH_THREADS` plus
//! the two check cells: `2c`, the smallest cell where every cluster has
//! a cohort-mate, and `8c`, the lightest where the offered load reliably
//! saturates the lock (at `2c` even C-BO-MCS holds no edge over TATAS).
//!
//! At one thread no kind differs from another here: the virtual clock
//! never charges a lock's own instructions. The uncontended claims of
//! Fissile and Reciprocating Locks are wall-clock quantities, measured
//! per kind by the benchmark's `*.uncontended_ns` rows.
//!
//! The exhibit **self-checks**:
//!
//! 1. **CNA streaks (realtime)**: no CNA streak exceeds its registered
//!    threshold;
//! 2. **compaction pays (realtime)**: at `2c`, CNA ≥ MCS for every
//!    `c ≥ 2`;
//! 3. **the slow path buys locality (realtime)**: at `8c`, Fis-BO-MCS ≥
//!    TATAS for every `c ≥ 2`;
//! 4. **flat handover (exact, modelled)**: at every modelled cell the
//!    Recip census stays ≤ 2 transitions per acquisition;
//! 5. **FIFO growth (exact, modelled)**: MCS's census per acquisition
//!    grows with the thread count and exceeds Recip's at saturation —
//!    the separation the constant-coherence claim needs;
//! 6. **cohortization pays (exact, modelled)**: at `8c`, C-Recip-MCS
//!    completes at least as many ops as plain Recip for every `c ≥ 2`;
//! 7. **Recip beats the centralized word (realtime)**: at `8c`, Recip ≥
//!    TATAS for every `c ≥ 2`, best of 5 (a realtime saturation cell is
//!    scheduler-noisy on a shared host; the exact separation claims are
//!    4–6). The re-measures run at least [`RETRY_WINDOW_NS`].

use crate::{
    base_config, find, long_table, no_cell_columns, run_exhibit, schema, thread_grid,
    throughput_table, verdict, Cell, Check, Exhibit, Measurement, TableSpec,
};
use coherence_sim::CostModel;
use lbench::{run_scenario, AnyLockKind, LBenchConfig, LockKind, Scenario, ScenarioResult};

/// The swept cluster counts.
const CLUSTER_COUNTS: [usize; 3] = [1, 2, 4];

/// The shortest window of a check's re-measured cell: 10 ms.
const RETRY_WINDOW_NS: u64 = 10_000_000;

/// One grid cell: (cluster count, thread count), in real-time or
/// modelled cost mode.
#[derive(Clone, Copy, PartialEq, Eq)]
struct CompareCell {
    clusters: usize,
    threads: usize,
    modelled: bool,
}

impl CompareCell {
    fn mode(&self) -> &'static str {
        if self.modelled {
            "modelled"
        } else {
            "realtime"
        }
    }
}

impl std::fmt::Display for CompareCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} c={} t={}", self.mode(), self.clusters, self.threads)
    }
}

/// Thread counts swept at one cluster count: `LBENCH_THREADS` plus the
/// check cells `2c` and `8c`, deduplicated and sorted.
fn threads_for(clusters: usize) -> Vec<usize> {
    let mut threads = thread_grid();
    threads.extend([2 * clusters, 8 * clusters]);
    threads.sort_unstable();
    threads.dedup();
    threads
}

/// The scenario and config of one cell. Modelled cells run saturated
/// (`noncs_max_ns = 0`) under the disaggregated model so admission
/// order — and the succession census — decides everything.
fn build(cell: &CompareCell) -> (Scenario, LBenchConfig) {
    let mut cfg = base_config(cell.threads);
    cfg.clusters = cell.clusters;
    if !cell.modelled {
        return (Scenario::steady(), cfg);
    }
    cfg.noncs_max_ns = 0;
    (Scenario::steady().modelled(CostModel::disaggregated()), cfg)
}

/// The one `cell_columns` hook of the three CSVs.
fn cell_columns(m: &Measurement<CompareCell>, column: &str) -> Cell {
    match column {
        "mode" => Cell::text(m.cell.mode()),
        "clusters" => Cell::Int(m.cell.clusters as u64),
        _ => no_cell_columns(m, column),
    }
}

/// The long-form CSV `name` under `header`: the rows of `locks`, in
/// sweep order, realtime only unless `modelled`.
fn csv(
    name: &str,
    header: &'static str,
    locks: &'static [LockKind],
    modelled: bool,
) -> TableSpec<CompareCell> {
    let build = long_table(header, cell_columns);
    TableSpec {
        csv: Some(name.into()),
        text: false,
        build: Box::new(move |ms| {
            let mut grid = build(ms);
            let mut keep = ms.iter().map(|m| {
                (modelled || !m.cell.modelled)
                    && locks.iter().any(|&k| m.result.kind == AnyLockKind::Excl(k))
            });
            grid.rows.retain(|_| keep.next() == Some(true));
            grid
        }),
    }
}

/// Self-check 1: the CNA fairness threshold really bounds streaks
/// (thresholds come from the registry, the single source of truth).
fn streak_check() -> Check<CompareCell> {
    Box::new(|ms: &[Measurement<CompareCell>]| {
        for m in ms.iter().filter(|m| !m.cell.modelled) {
            let AnyLockKind::Excl(kind) = m.result.kind else {
                continue;
            };
            let Some(bound) = kind.cna_threshold() else {
                continue;
            };
            if m.result.max_streak > bound {
                return Err(format!(
                    "{kind} at {}: streak {} exceeds threshold {bound}",
                    m.cell, m.result.max_streak
                ));
            }
        }
        Ok("CNA streaks within their thresholds".to_string())
    })
}

/// Self-checks 2, 3 and 7 (realtime): at `clusters` × `threads`, `kind`
/// holds at least the throughput of `baseline`. The grid measurement is
/// the first of `trials`; until `kind` clears `baseline` the pair is
/// re-measured at a window of at least [`RETRY_WINDOW_NS`].
fn at_least_check(
    kind: LockKind,
    baseline: LockKind,
    clusters: usize,
    threads: usize,
    trials: usize,
) -> Check<CompareCell> {
    let cell = CompareCell {
        clusters,
        threads,
        modelled: false,
    };
    let rerun = move |k: LockKind| {
        let (scenario, mut cfg) = build(&cell);
        cfg.window_ns = cfg.window_ns.max(RETRY_WINDOW_NS);
        run_scenario(k.into(), &scenario, &cfg)
    };
    Box::new(move |ms: &[Measurement<CompareCell>]| {
        let compare = |lock: &ScenarioResult, base: &ScenarioResult| {
            let ratio = lock.throughput / base.throughput.max(1.0);
            (ratio, lock.migrations, base.migrations)
        };
        let mut outcome = compare(find(ms, cell, kind), find(ms, cell, baseline));
        let mut trial = 1;
        while outcome.0 < 1.0 && trial < trials {
            trial += 1;
            outcome = compare(&rerun(kind), &rerun(baseline));
        }
        let (ratio, lock_migrations, base_migrations) = outcome;
        let msg = format!(
            "{kind} vs {baseline} at {cell}: {ratio:.3}x (floor 1x, {lock_migrations} vs \
             {base_migrations} migrations, trial {trial}/{trials})"
        );
        verdict(ratio >= 1.0, msg)
    })
}

/// Succession transitions per acquisition of one modelled cell.
fn census_ratio(r: &ScenarioResult) -> f64 {
    r.succ_transitions as f64 / r.acquisitions.max(1) as f64
}

/// The modelled cell at `clusters` × `threads`.
fn modelled(clusters: usize, threads: usize) -> CompareCell {
    CompareCell {
        clusters,
        threads,
        modelled: true,
    }
}

/// Self-check 4 (exact, modelled): Recip's handover coherence cost is
/// constant — at most 2 succession transitions per acquisition at
/// *every* swept thread count.
fn flat_handover_check(clusters: usize) -> Check<CompareCell> {
    Box::new(move |ms: &[Measurement<CompareCell>]| {
        let mut worst = 0.0f64;
        for &threads in &threads_for(clusters) {
            let r = find(ms, modelled(clusters, threads), LockKind::Recip);
            if r.succ_transitions > 2 * r.acquisitions {
                return Err(format!(
                    "Recip census not flat at c={clusters} t={threads}: \
                     {} transitions over {} acquisitions (> 2/acq)",
                    r.succ_transitions, r.acquisitions
                ));
            }
            worst = worst.max(census_ratio(r));
        }
        Ok(format!(
            "Recip modelled census flat at c={clusters}: worst {worst:.3} transitions/acq \
             (exact bound 2) across t={:?}",
            threads_for(clusters)
        ))
    })
}

/// Self-check 5 (exact, modelled): the FIFO/centralized census grows
/// with the thread count and exceeds Recip's at the largest cell —
/// without this separation, "constant" would be vacuous.
fn fifo_growth_check(clusters: usize) -> Check<CompareCell> {
    Box::new(move |ms: &[Measurement<CompareCell>]| {
        let contended: Vec<usize> = threads_for(clusters)
            .into_iter()
            .filter(|&t| t >= 2)
            .collect();
        let (&lo, &hi) = match (contended.first(), contended.last()) {
            (Some(lo), Some(hi)) if lo != hi => (lo, hi),
            _ => {
                return Ok(format!(
                    "FIFO census growth skipped at c={clusters} \
                     (fewer than two contended thread counts swept)"
                ))
            }
        };
        let census = |threads, kind| census_ratio(find(ms, modelled(clusters, threads), kind));
        let (mcs_lo, mcs_hi) = (census(lo, LockKind::Mcs), census(hi, LockKind::Mcs));
        let recip_hi = census(hi, LockKind::Recip);
        let msg = format!(
            "MCS census grows at c={clusters}: {mcs_lo:.2}/acq at t={lo} -> {mcs_hi:.2}/acq \
             at t={hi} (Recip stays at {recip_hi:.2})"
        );
        verdict(mcs_hi > mcs_lo + 1.0 && mcs_hi > recip_hi, msg)
    })
}

/// Self-check 6 (exact, modelled): cohortizing Recip must pay where
/// there is locality — C-Recip-MCS >= plain Recip at `8c`.
fn cohortized_check(clusters: usize) -> Check<CompareCell> {
    Box::new(move |ms: &[Measurement<CompareCell>]| {
        let cell = modelled(clusters, 8 * clusters);
        let recip = find(ms, cell, LockKind::Recip);
        let crecip = find(ms, cell, LockKind::CRecipMcs);
        let msg = format!(
            "C-Recip-MCS vs Recip modelled at c={clusters} t={}: {} vs {} ops \
             ({} vs {} migrations)",
            cell.threads, crecip.total_ops, recip.total_ops, crecip.migrations, recip.migrations
        );
        verdict(crecip.total_ops >= recip.total_ops, msg)
    })
}

pub fn run() -> bool {
    let grid: Vec<CompareCell> = CLUSTER_COUNTS
        .iter()
        .flat_map(|&clusters| {
            threads_for(clusters).into_iter().flat_map(move |threads| {
                [false, true].into_iter().map(move |modelled| CompareCell {
                    clusters,
                    threads,
                    modelled,
                })
            })
        })
        .collect();
    let mut checks = vec![streak_check()];
    for &c in &CLUSTER_COUNTS {
        checks.push(flat_handover_check(c));
        checks.push(fifo_growth_check(c));
    }
    for c in CLUSTER_COUNTS.into_iter().filter(|&c| c >= 2) {
        checks.extend([
            at_least_check(LockKind::Cna, LockKind::Mcs, c, 2 * c, 1),
            at_least_check(LockKind::FisBoMcs, LockKind::Tatas, c, 8 * c, 1),
            cohortized_check(c),
            at_least_check(LockKind::Recip, LockKind::Tatas, c, 8 * c, 5),
        ]);
    }
    run_exhibit(&Exhibit {
        banner: format!(
            "fig_compare: {} locks x {CLUSTER_COUNTS:?} clusters x realtime+modelled",
            LockKind::FIG_COMPARE.len()
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_COMPARE),
        grid,
        measure: Box::new(build),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Compare: throughput (ops/s) by mode x clusters x threads"),
            csv("fig_cna", schema::FIG_CNA_HEADER, &LockKind::FIG_CNA, false),
            csv(
                "fig_fissile",
                schema::FIG_FISSILE_HEADER,
                &LockKind::FIG_FISSILE,
                false,
            ),
            csv(
                "fig_recip",
                schema::FIG_RECIP_HEADER,
                &LockKind::FIG_RECIP,
                true,
            ),
        ],
        checks,
        epilogue: None,
    })
}
