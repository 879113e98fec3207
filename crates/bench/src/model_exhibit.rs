//! The shared declaration behind the `fig_model` exhibit: deterministic
//! modelled-coherence cells with **exact** self-checks.
//!
//! Every other exhibit prices real thread interleavings, so its
//! self-checks are ratio *floors* with slack for scheduling noise. The
//! cells here run in [`lbench::CostMode::Modelled`] — a single-threaded
//! discrete-event simulation under [`CostModel::disaggregated`] — and
//! are therefore bit-reproducible, which upgrades the checks to exact
//! statements:
//!
//! * **determinism** — re-measuring any cell reproduces the first
//!   [`lbench::ScenarioResult`] to the bit
//!   ([`ScenarioResult::first_divergence`] returns `None`);
//! * **separation** — at saturation the cohort lock's migration *rate*
//!   (migrations ÷ acquisitions) sits below `1/32` while FIFO MCS
//!   migrates on most handoffs, and the cohort lock completes > 10× the
//!   MCS ops under the disaggregated model's 40× remote penalty. Rates,
//!   not raw counts: the two kinds complete vastly different numbers of
//!   acquisitions in the same virtual window, so absolute migration
//!   counts are not comparable;
//! * **batching** — the saturated cohort cell's median closed batch
//!   ([`ScenarioResult::batch_p50_floor`]) reaches the handoff policy's
//!   pass bound ([`lbench::PolicySpec::PAPER_BOUND`]);
//! * **kind-invariance** — at one thread the admission order is
//!   irrelevant, so every *exclusive* kind produces the identical op
//!   count, throughput bits, and latency percentiles. (The C-RW row is
//!   excluded: RW kinds draw the per-op read/write coin even at
//!   `read_pct = 0` — the rule the committed `results/fig_model.csv`
//!   was generated under, and now pins — which shifts the RNG program,
//!   not the semantics.)
//!
//! The module lives in the library (rather than the binary) so the
//! `modelled_determinism` integration test drives the *same* cells and
//! table builder the binary emits — the committed
//! `results/fig_model.csv` and the test can never diverge.

use crate::exhibit::{
    find_where, long_table, measure_cell, no_cell_columns, throughput_table, verdict, GridBuilder,
};
use crate::{base_config, clusters, schema, Cell, Check, Exhibit, Measurement, TableSpec};
use coherence_sim::CostModel;
use lbench::{AnyLockKind, LBenchConfig, LockKind, RwLockKind, Scenario, ScenarioResult};

/// One modelled cell: a named scenario at a thread count with a pinned
/// non-critical idle bound.
#[derive(Clone)]
pub struct ModelCell {
    /// Row label (`uncontended` / `saturated` / `bursty` / `readmix`).
    pub name: &'static str,
    /// Thread count of the cell.
    pub threads: usize,
    /// Non-critical idle bound (`0` keeps the lock saturated so
    /// batching actually engages — at the harness default the lock idles
    /// often enough that every release finds an empty queue).
    pub noncs_max_ns: u64,
    /// The scenario, already switched to modelled cost accounting.
    pub scenario: Scenario,
}

impl std::fmt::Display for ModelCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// The lock set of the exhibit: the NUMA-oblivious baselines (MCS,
/// TATAS), the cohort lock, the compaction lock, and the reader-writer
/// cohort composition.
pub fn model_locks() -> Vec<AnyLockKind> {
    vec![
        AnyLockKind::Excl(LockKind::Mcs),
        AnyLockKind::Excl(LockKind::Tatas),
        AnyLockKind::Excl(LockKind::CBoMcs),
        AnyLockKind::Excl(LockKind::Cna),
        AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
    ]
}

/// The modelled grid at an explicit contended thread count (the
/// determinism test sweeps this; the binary uses [`model_cells`]).
pub fn model_cells_at(contended_threads: usize) -> Vec<ModelCell> {
    let t = contended_threads;
    let model = CostModel::disaggregated();
    vec![
        ModelCell {
            name: "uncontended",
            threads: 1,
            noncs_max_ns: 0,
            scenario: Scenario::steady().modelled(model),
        },
        ModelCell {
            name: "saturated",
            threads: t,
            noncs_max_ns: 0,
            scenario: Scenario::steady().modelled(model),
        },
        ModelCell {
            name: "bursty",
            threads: t,
            noncs_max_ns: 0,
            scenario: Scenario::bursty(200_000, 200_000).modelled(model),
        },
        ModelCell {
            name: "readmix",
            threads: t,
            noncs_max_ns: 0,
            scenario: Scenario::steady().with_read_pct(90).modelled(model),
        },
    ]
}

/// The binary's grid: contended cells at `2 × clusters` threads, so
/// every cluster has a cohort-mate and batching can form.
pub fn model_cells() -> Vec<ModelCell> {
    model_cells_at(2 * clusters())
}

/// The scenario and config of one cell — the exhibit's builder.
fn build(cell: &ModelCell) -> (Scenario, LBenchConfig) {
    let mut cfg = base_config(cell.threads);
    cfg.noncs_max_ns = cell.noncs_max_ns;
    (cell.scenario.clone(), cfg)
}

/// Measures one (lock, cell) pair as the exhibit sweep does — what the
/// determinism re-runs (the check below, the integration test) re-drive.
pub fn measure_model_cell(kind: AnyLockKind, cell: &ModelCell) -> ScenarioResult {
    measure_cell(kind, build(cell))
}

/// The exhibit's CSV table ([`schema::FIG_MODEL_HEADER`]). Every column
/// is deterministic; the result's `wall` field is not a column at all.
pub fn model_long_table() -> GridBuilder<ModelCell> {
    long_table(
        schema::FIG_MODEL_HEADER,
        |m: &Measurement<ModelCell>, column| match column {
            "scenario" => Cell::text(m.cell.name),
            "clusters" => Cell::Int(clusters() as u64),
            _ => no_cell_columns(m, column),
        },
    )
}

/// Exact check 1: re-measuring every cell reproduces the sweep's result
/// bit for bit (the in-process half of the determinism contract; CI
/// additionally byte-diffs the CSV across two whole-process runs).
fn rerun_determinism_check() -> Check<ModelCell> {
    Box::new(|ms: &[Measurement<ModelCell>]| {
        for m in ms {
            let again = measure_model_cell(m.result.kind, &m.cell);
            if let Some(diff) = m.result.first_divergence(&again) {
                return Err(format!(
                    "modelled re-run of [{} {}] diverged at {diff}",
                    m.result.kind.name(),
                    m.cell.name
                ));
            }
        }
        Ok(format!(
            "all {} modelled cells re-measure bit-identically",
            ms.len()
        ))
    })
}

/// Exact check 2: the saturated cell separates cohort from FIFO by
/// *rates* — migration rate and completed ops — not by raw migration
/// counts (which are incomparable across kinds: MCS completes far fewer
/// acquisitions in the same virtual window).
fn saturated_separation_check() -> Check<ModelCell> {
    Box::new(|ms: &[Measurement<ModelCell>]| {
        if clusters() < 2 {
            return Ok("saturated separation skipped (1 cluster: no locality)".into());
        }
        let (cbo, mcs) = match (
            find_where(ms, LockKind::CBoMcs, |c| c.name == "saturated"),
            find_where(ms, LockKind::Mcs, |c| c.name == "saturated"),
        ) {
            (Some(c), Some(m)) => (c, m),
            _ => return Err("saturated cell missing from the sweep".into()),
        };
        let msg = format!(
            "saturated separation: C-BO-MCS {}/{} migrations/acqs vs MCS {}/{}, \
             ops {} vs {}",
            cbo.migrations,
            cbo.acquisitions,
            mcs.migrations,
            mcs.acquisitions,
            cbo.total_ops,
            mcs.total_ops
        );
        // Cohort: mean batch >= 32, i.e. migration rate < 1/32. FIFO MCS
        // round-robins clusters, migrating on most handoffs. Under the
        // disaggregated model (40x remote penalty) that locality gap is
        // worth over an order of magnitude of completed ops.
        let ok = cbo.migrations * 32 < cbo.acquisitions
            && mcs.migrations * 2 > mcs.acquisitions
            && cbo.total_ops > 10 * mcs.total_ops;
        verdict(ok, msg)
    })
}

/// Exact check 3: the saturated cohort cell's median closed batch runs
/// to the pass policy's bound — §4.1.2's dynamic batching, stated
/// exactly because modelled batch lengths are deterministic.
fn batch_bound_check() -> Check<ModelCell> {
    Box::new(|ms: &[Measurement<ModelCell>]| {
        if clusters() < 2 {
            return Ok("batch p50 bound skipped (1 cluster: batches never close)".into());
        }
        let cbo = match find_where(ms, LockKind::CBoMcs, |c| c.name == "saturated") {
            Some(c) => c,
            None => return Err("saturated C-BO-MCS cell missing from the sweep".into()),
        };
        let bound = lbench::PolicySpec::PAPER_BOUND;
        let p50 = cbo.batch_p50_floor();
        let msg = format!("saturated C-BO-MCS batch p50 floor {p50} vs pass bound {bound}");
        verdict(p50 >= bound, msg)
    })
}

/// Exact check 4: at one thread the admission order cannot matter, so
/// every exclusive kind's modelled run is identical in ops, throughput
/// bits, and latency percentiles. (See the module docs for why the C-RW
/// row is excluded: its coin draw shifts the RNG program.)
fn uncontended_invariance_check() -> Check<ModelCell> {
    Box::new(|ms: &[Measurement<ModelCell>]| {
        let mcs = match find_where(ms, LockKind::Mcs, |c| c.name == "uncontended") {
            Some(m) => m,
            None => return Err("uncontended MCS cell missing from the sweep".into()),
        };
        for m in ms {
            if m.cell.name != "uncontended" || !matches!(m.result.kind, AnyLockKind::Excl(_)) {
                continue;
            }
            let r = &m.result;
            let same = r.total_ops == mcs.total_ops
                && r.acquisitions == mcs.acquisitions
                && r.throughput.to_bits() == mcs.throughput.to_bits()
                && r.lat_p50_ns == mcs.lat_p50_ns
                && r.lat_p99_ns == mcs.lat_p99_ns;
            if !same {
                return Err(format!(
                    "uncontended {} != MCS: {} vs {} ops, {} vs {} ops/s",
                    r.kind.name(),
                    r.total_ops,
                    mcs.total_ops,
                    r.throughput,
                    mcs.throughput
                ));
            }
        }
        Ok(format!(
            "uncontended cell is kind-invariant across exclusive kinds ({} ops each)",
            mcs.total_ops
        ))
    })
}

/// The full `fig_model` declaration — consumed by the binary's
/// `exhibit_main` and re-driven cell by cell by the determinism test.
pub fn model_exhibit() -> Exhibit<ModelCell> {
    let grid = model_cells();
    Exhibit {
        name: "fig_model",
        banner: format!(
            "fig_model: {} modelled cells x {} locks, {} threads contended, {} clusters \
             (disaggregated cost model, bit-reproducible)",
            grid.len(),
            model_locks().len(),
            2 * clusters(),
            clusters()
        ),
        locks: model_locks(),
        grid,
        measure: Box::new(build),
        unit: "ops/s",
        tables: vec![
            throughput_table("Exhibit Model: modelled throughput (ops/s) by cell"),
            TableSpec {
                csv: Some("fig_model".into()),
                text: false,
                build: model_long_table(),
            },
        ],
        checks: vec![
            rerun_determinism_check(),
            saturated_separation_check(),
            batch_bound_check(),
            uncontended_invariance_check(),
        ],
        epilogue: None,
    }
}
