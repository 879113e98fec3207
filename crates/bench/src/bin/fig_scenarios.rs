//! Exhibit Scenarios: one engine, many load shapes.
//!
//! The paper's grid (§4) is steady-state only; this exhibit exercises
//! the scenario engine's other shapes over the six lock families —
//! NUMA-oblivious (MCS, TATAS), cohort (C-BO-MCS, plus the C-RW-WP
//! reader-writer composition), fissile fast-path (Fis-BO-MCS),
//! compaction (CNA), admission (GCR-C-BO-MCS), and reciprocating
//! (Recip, plus its cohortized form C-Recip-MCS):
//!
//! * `steady` — the paper's shape, at the contended thread count;
//! * `uncontended` — a single thread (*Fissile Locks* territory: where
//!   NUMA-aware machinery historically loses to TATAS on pure overhead);
//! * `bursty` — on/off arrival (*Avoiding Scalability Collapse…*'s
//!   regime: queues form in storms at each burst front);
//! * `phased` — a repeating 90%/10% read-ratio schedule (reads are
//!   shared on the C-RW column, exclusive elsewhere);
//! * `light` — thread-asymmetric idling thins the offered load to a few
//!   hot threads (the light-contention fast-path regime);
//! * `oversub` — steady arrival at 4× the contended thread count
//!   (threads ≫ cores: the scalability-collapse regime the GCR
//!   admission layer exists for — the grid carries a `GCR-C-BO-MCS` row
//!   next to the bare locks).
//!
//! Environment (strict `lbench::env` parsing, like every knob):
//!
//! * `LBENCH_SCENARIO` — comma-separated subset of the scenario names
//!   above (default: all; unknown names abort, listing the accepted
//!   ones);
//! * `LBENCH_BURST_ON_US` / `LBENCH_BURST_OFF_US` — burst window lengths
//!   in virtual microseconds (default 200/200; zero aborts);
//! * `LBENCH_SCENARIO_THREADS` — contended-cell thread count (default:
//!   `LBENCH_ABLATION_THREADS`, raised to `2 × clusters` so every
//!   cluster has a cohort-mate);
//! * `LBENCH_COST_MODE` — `realtime` (default) or `modelled`: runs the
//!   whole sweep on the deterministic modelled substrate instead of
//!   real threads (the `--modelled` variant of this exhibit);
//! * plus the usual `LBENCH_*` knobs and `RESULTS_DIR`.
//!
//! The binary **self-checks** three acceptance shapes (exit non-zero on
//! failure): the cohort lock keeps its edge over MCS under *bursty* load
//! whenever there are ≥ 2 clusters; the uncontended low-overhead claims
//! (the paper's Figure 4 "withers away" statement for C-BO-MCS and the
//! fissile fast path's near-parity promise) are asserted **exactly** on
//! the modelled substrate — at one thread a modelled run is
//! kind-invariant, so both locks must reproduce plain MCS's op count to
//! the bit; and one *real-time* smoke floor survives on the C-BO-MCS
//! row (0.5× MCS) so the real-thread path keeps a sanity bound. The two
//! tight real-time floors this replaces (0.75× and 0.95×) were the
//! noisiest checks in the suite — single-thread wall-time ratios
//! flapped with host scheduling jitter, while the modelled statement
//! cannot.

use coherence_sim::CostModel;
use cohort_bench::{
    ablation_threads, base_config, clusters, cost_mode, exhibit_main, find_where, knob_or_die,
    long_table, measure_cell, metric_table, no_cell_columns, schema, verdict, Cell, Check, Exhibit,
    Measurement, TableSpec,
};
use lbench::env::{env_choice_list, env_positive_u64, env_positive_usize};
use lbench::{AnyLockKind, LockKind, Phase, RwLockKind, Scenario};

/// The scenario names, in presentation order (also the `LBENCH_SCENARIO`
/// vocabulary).
const SCENARIOS: &[&str] = &[
    "steady",
    "uncontended",
    "bursty",
    "phased",
    "light",
    "oversub",
];

/// One grid cell: a named scenario at a thread count.
#[derive(Clone)]
struct ScenCell {
    name: &'static str,
    threads: usize,
    scenario: Scenario,
}

impl std::fmt::Display for ScenCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// Contended-cell thread count: the ablation default raised to
/// `2 × clusters`, so every cluster has a cohort-mate and batching can
/// actually form.
fn scenario_threads() -> usize {
    knob_or_die(env_positive_usize("LBENCH_SCENARIO_THREADS"))
        .unwrap_or_else(ablation_threads)
        .max(2 * clusters())
}

fn burst_us(knob: &str, default_us: u64) -> u64 {
    knob_or_die(env_positive_u64(knob)).unwrap_or(default_us)
}

fn cells() -> Vec<ScenCell> {
    let t = scenario_threads();
    let mode = cost_mode();
    let on_ns = burst_us("LBENCH_BURST_ON_US", 200) * 1_000;
    let off_ns = burst_us("LBENCH_BURST_OFF_US", 200) * 1_000;
    let wanted = knob_or_die(env_choice_list("LBENCH_SCENARIO", SCENARIOS));
    SCENARIOS
        .iter()
        .filter(|name| match &wanted {
            Some(list) => list.contains(name),
            None => true,
        })
        .map(|&name| {
            let (threads, scenario) = match name {
                "steady" => (t, Scenario::steady()),
                "uncontended" => (1, Scenario::steady()),
                "bursty" => (t, Scenario::bursty(on_ns, off_ns)),
                "phased" => (
                    t,
                    Scenario::phased(vec![
                        Phase {
                            dur_ns: 1_000_000,
                            read_pct: 90,
                        },
                        Phase {
                            dur_ns: 1_000_000,
                            read_pct: 10,
                        },
                    ]),
                ),
                "light" => (t, Scenario::steady().with_asymmetry(8.0)),
                "oversub" => (4 * t, Scenario::steady()),
                _ => unreachable!("name comes from SCENARIOS"),
            };
            ScenCell {
                name,
                threads,
                scenario: scenario.with_cost_mode(mode),
            }
        })
        .collect()
}

/// Self-check 1: cohorting keeps its edge under bursty arrival whenever
/// there is locality to exploit.
fn bursty_edge_check() -> Check<ScenCell> {
    Box::new(|ms: &[Measurement<ScenCell>]| {
        if clusters() < 2 {
            return Ok("bursty cohort edge skipped (1 cluster: no locality)".into());
        }
        let (cohort, mcs) = match (
            find_where(ms, LockKind::CBoMcs, |c| c.name == "bursty"),
            find_where(ms, LockKind::Mcs, |c| c.name == "bursty"),
        ) {
            (Some(c), Some(m)) => (c, m),
            _ => return Ok("bursty cohort edge skipped (scenario filtered out)".into()),
        };
        let msg = format!(
            "C-BO-MCS vs MCS under bursty load ({} clusters): {:.2}x ({} vs {} migrations)",
            clusters(),
            cohort.throughput / mcs.throughput.max(1.0),
            cohort.migrations,
            mcs.migrations
        );
        verdict(cohort.throughput >= mcs.throughput, msg)
    })
}

/// Self-check 2: the low-contention claims, asserted **exactly** on the
/// modelled substrate.
///
/// This replaces the two noisiest checks in the suite — the real-time
/// 0.75× (C-BO-MCS) and 0.95× (Fis-BO-MCS) uncontended floors. A
/// single-thread wall-time ratio is at the mercy of host scheduling
/// jitter, so those floors had to leave 5–25% of slack and still
/// flapped on loaded CI runners. The modelled statement needs no slack:
/// at one thread the admission order is irrelevant, so a modelled run
/// is *kind-invariant* — C-BO-MCS and Fis-BO-MCS must reproduce plain
/// MCS's op count and throughput **to the bit**, and each must
/// reproduce *itself* to the bit across two runs. Any real uncontended
/// overhead regression (an extra charged access, a changed RNG program)
/// breaks the equality outright instead of hiding inside a noise
/// margin. One loose real-time smoke floor survives below
/// ([`uncontended_floor_check`]) so the real-thread path keeps a sanity
/// bound.
fn uncontended_modelled_exact_check() -> Check<ScenCell> {
    Box::new(|_ms: &[Measurement<ScenCell>]| {
        let run = |kind: LockKind| {
            let mut cfg = base_config(1);
            cfg.noncs_max_ns = 0;
            let scenario = Scenario::steady().modelled(CostModel::disaggregated());
            measure_cell(kind.into(), (scenario, cfg))
        };
        let mcs = run(LockKind::Mcs);
        for kind in [LockKind::CBoMcs, LockKind::FisBoMcs] {
            let a = run(kind);
            let b = run(kind);
            if let Some(diff) = a.first_divergence(&b) {
                return Err(format!(
                    "modelled uncontended {} not reproducible: {diff}",
                    kind.name()
                ));
            }
            if a.total_ops != mcs.total_ops || a.throughput.to_bits() != mcs.throughput.to_bits() {
                return Err(format!(
                    "modelled uncontended {} != MCS: {} vs {} ops ({} vs {} ops/s)",
                    kind.name(),
                    a.total_ops,
                    mcs.total_ops,
                    a.throughput,
                    mcs.throughput
                ));
            }
        }
        Ok(format!(
            "modelled uncontended cell is exact: C-BO-MCS and Fis-BO-MCS == MCS \
             ({} ops each, bit-reproducible)",
            mcs.total_ops
        ))
    })
}

/// Self-check 3: the surviving *real-time* smoke floor — the
/// uncontended single-thread cell must hold `floor ×` the plain MCS
/// throughput for `kind`. The tight per-lock margins moved to
/// [`uncontended_modelled_exact_check`]; this loose floor only proves
/// the real-thread path hasn't catastrophically regressed.
fn uncontended_floor_check(kind: LockKind, floor: f64) -> Check<ScenCell> {
    Box::new(move |ms: &[Measurement<ScenCell>]| {
        let (lock, mcs) = match (
            find_where(ms, kind, |c| c.name == "uncontended"),
            find_where(ms, LockKind::Mcs, |c| c.name == "uncontended"),
        ) {
            (Some(c), Some(m)) => (c, m),
            _ => {
                return Ok(format!(
                    "{} uncontended floor skipped (scenario filtered out)",
                    kind.name()
                ))
            }
        };
        let ratio = lock.throughput / mcs.throughput.max(1.0);
        let msg = format!(
            "{} single-thread vs MCS: {ratio:.3}x (floor {floor}x, \
             {} fast / {} slow acquisitions)",
            kind.name(),
            lock.fast_acquisitions,
            lock.slow_acquisitions
        );
        verdict(ratio >= floor, msg)
    })
}

fn main() {
    let grid = cells();
    exhibit_main(Exhibit {
        name: "fig_scenarios",
        banner: format!(
            "fig_scenarios: {} scenarios x 9 locks, {} threads contended, {} clusters",
            grid.len(),
            scenario_threads(),
            clusters()
        ),
        locks: vec![
            AnyLockKind::Excl(LockKind::Mcs),
            AnyLockKind::Excl(LockKind::Tatas),
            AnyLockKind::Excl(LockKind::CBoMcs),
            AnyLockKind::Excl(LockKind::FisBoMcs),
            AnyLockKind::Excl(LockKind::Cna),
            AnyLockKind::Excl(LockKind::GcrCBoMcs),
            AnyLockKind::Excl(LockKind::Recip),
            AnyLockKind::Excl(LockKind::CRecipMcs),
            AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
        ],
        grid,
        measure: Box::new(|cell: &ScenCell| (cell.scenario.clone(), base_config(cell.threads))),
        unit: "ops/s",
        tables: vec![
            TableSpec {
                csv: None,
                text: true,
                build: metric_table(
                    "Exhibit Scenarios: throughput (ops/s) by load shape".into(),
                    "scenario",
                    0,
                    |r| r.throughput,
                ),
            },
            TableSpec {
                csv: Some("fig_scenarios".into()),
                text: false,
                build: long_table(
                    schema::FIG_SCENARIOS_HEADER,
                    |m: &Measurement<ScenCell>, column| match column {
                        "scenario" => Cell::text(m.cell.name),
                        "shape" => Cell::text(m.cell.scenario.shape.label()),
                        "clusters" => Cell::Int(clusters() as u64),
                        _ => no_cell_columns(m, column),
                    },
                ),
            },
        ],
        checks: vec![
            bursty_edge_check(),
            uncontended_modelled_exact_check(),
            uncontended_floor_check(LockKind::CBoMcs, 0.5),
        ],
        epilogue: None,
    });
}
