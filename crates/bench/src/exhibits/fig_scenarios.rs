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
//! * `uncontended` — a single thread (*Fissile Locks* territory). On this
//!   virtual-time substrate the row is the same for every kind: a lone
//!   thread never waits, and the virtual clock never charges a lock's own
//!   instructions. The uncontended cost itself is wall-clock, measured
//!   per kind by the benchmark's `*.uncontended_ns` rows;
//! * `bursty` — on/off arrival, 200 µs on / 200 µs off (*Avoiding
//!   Scalability Collapse…*'s regime: queues form in storms at each
//!   burst front);
//! * `phased` — a repeating 90%/10% read-ratio schedule (reads are
//!   shared on the C-RW column, exclusive elsewhere);
//! * `light` — thread-asymmetric idling thins the offered load to a few
//!   hot threads (the light-contention fast-path regime);
//! * `oversub` — steady arrival at 4× the contended thread count
//!   (threads ≫ cores: the scalability-collapse regime the GCR
//!   admission layer exists for — the grid carries a `GCR-C-BO-MCS` row
//!   next to the bare locks).
//!
//! The contended thread count is `LBENCH_ABLATION_THREADS`, raised to
//! `2 × clusters` so every cluster has a cohort-mate; plus the usual
//! `LBENCH_*` knobs and `RESULTS_DIR`.
//!
//! The exhibit **self-checks** one acceptance shape: the cohort lock
//! keeps its edge over MCS under *bursty* load whenever there are ≥ 2
//! clusters.

use crate::{
    ablation_threads, base_config, clusters, find_where, long_table, metric_table, no_cell_columns,
    run_exhibit, schema, verdict, Cell, Check, Exhibit, Measurement, TableSpec,
};
use lbench::{AnyLockKind, LockKind, Phase, RwLockKind, Scenario, ScenarioResult};

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
    ablation_threads().max(2 * clusters())
}

/// The six scenarios, in presentation order.
fn cells() -> Vec<ScenCell> {
    let t = scenario_threads();
    let phases =
        [(90, 1_000_000), (10, 1_000_000)].map(|(read_pct, dur_ns)| Phase { dur_ns, read_pct });
    [
        ("steady", t, Scenario::steady()),
        ("uncontended", 1, Scenario::steady()),
        ("bursty", t, Scenario::bursty(200_000, 200_000)),
        ("phased", t, Scenario::phased(phases.to_vec())),
        ("light", t, Scenario::steady().with_asymmetry(8.0)),
        ("oversub", 4 * t, Scenario::steady()),
    ]
    .map(|(name, threads, scenario)| ScenCell {
        name,
        threads,
        scenario,
    })
    .to_vec()
}

/// `kind`'s result in the scenario called `name`.
fn at<'m>(ms: &'m [Measurement<ScenCell>], kind: LockKind, name: &str) -> &'m ScenarioResult {
    find_where(ms, kind, |c| c.name == name).expect("every scenario is swept")
}

/// The self-check: cohorting keeps its edge under bursty arrival whenever
/// there is locality to exploit.
fn bursty_edge_check() -> Check<ScenCell> {
    Box::new(|ms: &[Measurement<ScenCell>]| {
        if clusters() < 2 {
            return Ok("bursty cohort edge skipped (1 cluster: no locality)".into());
        }
        let (cohort, mcs) = (
            at(ms, LockKind::CBoMcs, "bursty"),
            at(ms, LockKind::Mcs, "bursty"),
        );
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

pub fn run() -> bool {
    let grid = cells();
    run_exhibit(&Exhibit {
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
        checks: vec![bursty_edge_check()],
        epilogue: None,
    })
}
