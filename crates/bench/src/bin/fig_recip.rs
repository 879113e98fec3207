//! Exhibit Recip: constant-coherence handover, plain and cohortized.
//!
//! Reciprocating Locks (Dice & Kogan, arXiv:2501.02380) attack the
//! paper's central cost — coherence traffic per lock handover — from the
//! other side: instead of *localizing* the traffic (cohorting), they
//! make each handover touch a **constant** number of cache lines
//! regardless of queue depth, via a one-word arrivals stack whose
//! detached segments are admitted in reversed (palindromic) order. This
//! exhibit races, for every cluster count:
//!
//! * `TATAS` — the centralized word every spinner invalidates;
//! * `MCS` — the NUMA-oblivious queue baseline;
//! * `CNA` — the single-word compaction competitor;
//! * `Fis-BO-MCS` — the fissile fast-path graft;
//! * `Recip` — the reciprocating lock, plain;
//! * `C-Recip-MCS` — the same lock in the *global* position of a cohort
//!   composition (its two-plain-word token is thread-oblivious for
//!   free, the §3.4 requirement).
//!
//! Every cell runs twice: once with real threads (`mode=realtime`, the
//! throughput floors) and once on the deterministic modelled substrate
//! (`mode=modelled`, disaggregated cost model, zero think time), where
//! the **succession census** (`succ_transitions`) counts the cache
//! lines each release's admission decision fans out to — the exact
//! quantity the constant-coherence claim is about.
//!
//! Environment: `LBENCH_RECIP_CLUSTERS` (comma-separated cluster counts,
//! default `1,2,4`), plus the usual `LBENCH_*` knobs and `RESULTS_DIR`.
//! Both modes run the paper's base algorithm — one detached segment
//! serves all its admissions, no era bound — which is the registry's
//! `Recip`; `ReciprocatingLock::with_era_bound` is the constructor for a
//! bounded one.
//!
//! The binary **self-checks** the acceptance shapes and exits non-zero
//! on failure:
//!
//! 1. **flat handover (exact, modelled)**: at every modelled cell the
//!    Recip succession census stays ≤ 2 transitions per acquisition —
//!    constant in the thread count;
//! 2. **FIFO growth (exact, modelled)**: MCS's census per acquisition
//!    grows with the thread count (and exceeds Recip's at saturation) —
//!    the separation the constant-coherence claim needs;
//! 3. **cohortization pays (exact, modelled)**: at ≥ 2 clusters,
//!    C-Recip-MCS completes at least as many ops as plain Recip at the
//!    saturation cell — putting Recip *under* cluster batching must not
//!    cost throughput where there is locality to exploit;
//! 4. **uncontended floor (realtime)**: Recip holds ≥ 0.95× plain MCS
//!    at one thread — the arrivals-stack fast path is one CAS;
//! 5. **saturation floor (realtime)**: at ≥ 2 clusters, Recip holds ≥
//!    the TATAS throughput at `threads = 8 × clusters`, enforced
//!    best-of-5 (realtime saturation cells are scheduler-noisy on
//!    shared hosts; the exact separation claims are checks 1–3).

use coherence_sim::CostModel;
use cohort_bench::{
    base_config, cluster_thread_grid, exhibit_main, find, knob_or_die, long_table, measure_cell,
    no_cell_columns, saturation_threads, schema, throughput_floor_check, throughput_table, verdict,
    Cell, Check, Exhibit, Measurement, TableSpec, FISSILE_UNCONTENDED_FLOOR,
};
use lbench::env::env_positive_usize_list;
use lbench::{AnyLockKind, LBenchConfig, LockKind, Scenario, ScenarioResult};

fn recip_clusters() -> Vec<usize> {
    knob_or_die(env_positive_usize_list("LBENCH_RECIP_CLUSTERS")).unwrap_or_else(|| vec![1, 2, 4])
}

/// Thread counts swept at one cluster count: the global grid plus the
/// uncontended cell (1) and the saturation check cell (same rationale
/// as `fig_fissile`).
fn grid_for(clusters: usize) -> Vec<usize> {
    cluster_thread_grid(&[clusters], |c| vec![1, saturation_threads(c)])
        .into_iter()
        .map(|cell| cell.threads)
        .collect()
}

/// One grid cell: (cluster count, thread count), in real-time or
/// modelled cost mode.
#[derive(Clone, Copy, PartialEq, Eq)]
struct RecipCell {
    clusters: usize,
    threads: usize,
    modelled: bool,
}

impl RecipCell {
    fn mode(&self) -> &'static str {
        if self.modelled {
            "modelled"
        } else {
            "realtime"
        }
    }
}

impl std::fmt::Display for RecipCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} c={} t={}", self.mode(), self.clusters, self.threads)
    }
}

/// The scenario and config of one cell. Modelled cells run saturated
/// (`noncs_max_ns = 0`) under the disaggregated model so admission
/// order — and the succession census — decides everything.
fn build(cell: &RecipCell) -> (Scenario, LBenchConfig) {
    let mut cfg = base_config(cell.threads);
    cfg.clusters = cell.clusters;
    if !cell.modelled {
        return (Scenario::steady(), cfg);
    }
    cfg.noncs_max_ns = 0;
    (Scenario::steady().modelled(CostModel::disaggregated()), cfg)
}

/// Succession transitions per acquisition of one modelled cell.
fn census_ratio(r: &ScenarioResult) -> f64 {
    r.succ_transitions as f64 / r.acquisitions.max(1) as f64
}

/// Self-check 1 (exact, modelled): Recip's handover coherence cost is
/// constant — at most 2 succession transitions per acquisition at
/// *every* swept thread count.
fn flat_handover_check(clusters: usize) -> Check<RecipCell> {
    Box::new(move |ms: &[Measurement<RecipCell>]| {
        let mut worst = 0.0f64;
        for &threads in &grid_for(clusters) {
            let cell = RecipCell {
                clusters,
                threads,
                modelled: true,
            };
            let r = find(ms, cell, LockKind::Recip);
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
            grid_for(clusters)
        ))
    })
}

/// Self-check 2 (exact, modelled): the FIFO/centralized census grows
/// with the thread count and exceeds Recip's at the saturation cell —
/// without this separation, "constant" would be vacuous.
fn fifo_growth_check(clusters: usize) -> Check<RecipCell> {
    Box::new(move |ms: &[Measurement<RecipCell>]| {
        let cell = |threads| RecipCell {
            clusters,
            threads,
            modelled: true,
        };
        let contended: Vec<usize> = grid_for(clusters).into_iter().filter(|&t| t >= 2).collect();
        let (&lo, &hi) = match (contended.first(), contended.last()) {
            (Some(lo), Some(hi)) if lo != hi => (lo, hi),
            _ => {
                return Ok(format!(
                    "FIFO census growth skipped at c={clusters} \
                     (fewer than two contended thread counts swept)"
                ))
            }
        };
        let mcs_lo = census_ratio(find(ms, cell(lo), LockKind::Mcs));
        let mcs_hi = census_ratio(find(ms, cell(hi), LockKind::Mcs));
        let recip_hi = census_ratio(find(ms, cell(hi), LockKind::Recip));
        let msg = format!(
            "MCS census grows at c={clusters}: {mcs_lo:.2}/acq at t={lo} -> {mcs_hi:.2}/acq \
             at t={hi} (Recip stays at {recip_hi:.2})"
        );
        verdict(mcs_hi > mcs_lo + 1.0 && mcs_hi > recip_hi, msg)
    })
}

/// Self-check 3 (exact, modelled): cohortizing Recip must pay where
/// there is locality — C-Recip-MCS >= plain Recip at the saturation
/// cell whenever there are >= 2 clusters.
fn cohortized_check(clusters: usize) -> Check<RecipCell> {
    Box::new(move |ms: &[Measurement<RecipCell>]| {
        let cell = RecipCell {
            clusters,
            threads: saturation_threads(clusters),
            modelled: true,
        };
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

/// Self-check 4 (realtime): the arrivals-stack fast path is one CAS, so
/// uncontended Recip must hold the same floor the fissile fast path is
/// held to.
fn uncontended_check(clusters: usize) -> Check<RecipCell> {
    let cell = RecipCell {
        clusters,
        threads: 1,
        modelled: false,
    };
    throughput_floor_check(
        cell,
        LockKind::Recip,
        LockKind::Mcs,
        FISSILE_UNCONTENDED_FLOOR,
        |recip, mcs| format!("{:.0} vs {:.0} ops/s", recip.throughput, mcs.throughput),
    )
}

/// Self-check 5 (realtime): the palindromic queue must beat the
/// centralized word under saturation whenever there are >= 2 clusters.
/// Realtime saturation cells are wall-clock measurements of dozens of
/// OS threads, so a single short window is scheduler-noisy (the *exact*
/// separation claims live on the modelled substrate, checks 1–3); the
/// floor is therefore enforced best-of-5: the grid measurement counts
/// as the first trial and the cell pair is re-measured inline until
/// Recip clears TATAS or the trials run out.
fn saturation_check(clusters: usize) -> Check<RecipCell> {
    const TRIALS: usize = 5;
    Box::new(move |ms: &[Measurement<RecipCell>]| {
        let cell = RecipCell {
            clusters,
            threads: saturation_threads(clusters),
            modelled: false,
        };
        let recip = find(ms, cell, LockKind::Recip);
        let tatas = find(ms, cell, LockKind::Tatas);
        let mut ratio = recip.throughput / tatas.throughput.max(1.0);
        let mut trial = 1;
        while ratio < 1.0 && trial < TRIALS {
            trial += 1;
            let recip = measure_cell(LockKind::Recip.into(), build(&cell));
            let tatas = measure_cell(LockKind::Tatas.into(), build(&cell));
            ratio = recip.throughput / tatas.throughput.max(1.0);
        }
        let msg = format!(
            "Recip vs TATAS at c={clusters} t={}: {ratio:.2}x (trial {trial}/{TRIALS})",
            cell.threads,
        );
        verdict(ratio >= 1.0, msg)
    })
}

fn main() {
    let cluster_counts = recip_clusters();
    let grid: Vec<RecipCell> = cluster_counts
        .iter()
        .flat_map(|&clusters| {
            grid_for(clusters).into_iter().flat_map(move |threads| {
                [false, true].into_iter().map(move |modelled| RecipCell {
                    clusters,
                    threads,
                    modelled,
                })
            })
        })
        .collect();
    exhibit_main(Exhibit {
        name: "fig_recip",
        banner: format!(
            "fig_recip: {} locks x {:?} clusters x realtime+modelled",
            LockKind::FIG_RECIP.len(),
            cluster_counts
        ),
        locks: AnyLockKind::excl(&LockKind::FIG_RECIP),
        grid,
        measure: Box::new(build),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Recip: throughput (ops/s) by mode x clusters x threads"),
            TableSpec {
                csv: Some("fig_recip".into()),
                text: false,
                build: long_table(
                    schema::FIG_RECIP_HEADER,
                    |m: &Measurement<RecipCell>, column| match column {
                        "mode" => Cell::text(m.cell.mode()),
                        "clusters" => Cell::Int(m.cell.clusters as u64),
                        _ => no_cell_columns(m, column),
                    },
                ),
            },
        ],
        checks: cluster_counts
            .iter()
            .map(|&c| flat_handover_check(c))
            .chain(cluster_counts.iter().map(|&c| fifo_growth_check(c)))
            .chain(
                cluster_counts
                    .iter()
                    .filter(|&&c| c >= 2)
                    .map(|&c| cohortized_check(c)),
            )
            .chain(cluster_counts.iter().map(|&c| uncontended_check(c)))
            .chain(
                cluster_counts
                    .iter()
                    .filter(|&&c| c >= 2)
                    .map(|&c| saturation_check(c)),
            )
            .collect(),
        epilogue: None,
    });
}
