//! Integration: the modelled cost mode's determinism contract, held
//! against the *actual* `fig_model` exhibit cells.
//!
//! The contract (see `docs/ARCHITECTURE.md`, "Modelled coherence mode"):
//! a modelled scenario run is a single-threaded discrete-event
//! simulation that never reads the wall clock, so re-running any cell —
//! in the same process, at any thread count — reproduces every field of
//! the [`lbench::ScenarioResult`] bit for bit, and the CSV the exhibit
//! writes is byte-identical across sweeps. The cells, lock set, and row
//! builder come from `cohort_bench::model_exhibit`, the same module the
//! `fig_model` binary runs, so what this test pins is exactly what the
//! committed `results/fig_model.csv` and the CI byte-diff exercise.
//!
//! On failure the assertions print the **first diverging field**
//! ([`lbench::ScenarioResult::first_divergence`]) rather than a blob of
//! two full results.
//!
//! Re-run identity cannot see a change that moves *both* runs, so one
//! test also pins absolute numbers: the benchmark's `des_4096` cell
//! (4096 logical threads) for four lock kinds.
//!
//! Two single-thread cells close the file: the one regime where the
//! real-time engine, too, is reproducible (one seeded RNG, virtual time
//! only, nothing to race), next to the modelled twin of the same cell.

use coherence_sim::CostModel;
use cohort_bench::{
    measure_model_cell, model_cells_at, model_csv_row, model_locks, schema, Grid, Measurement,
    ModelCell,
};
use lbench::{run_scenario, AnyLockKind, LBenchConfig, LockKind, Scenario};
use std::time::Duration;

/// Runs the full exhibit sweep at one contended thread count.
fn sweep(contended_threads: usize) -> Vec<Measurement<ModelCell>> {
    let mut ms = Vec::new();
    for cell in model_cells_at(contended_threads) {
        for &kind in &model_locks() {
            ms.push(Measurement {
                result: measure_model_cell(kind, &cell),
                cell: cell.clone(),
            });
        }
    }
    ms
}

/// Builds the exhibit's pinned-schema grid from a sweep.
fn grid(ms: &[Measurement<ModelCell>]) -> Grid {
    Grid {
        title: String::new(),
        columns: schema::FIG_MODEL_HEADER
            .split(',')
            .map(str::to_string)
            .collect(),
        rows: ms.iter().map(model_csv_row).collect(),
    }
}

#[test]
fn every_exhibit_cell_reruns_bit_identically() {
    for cell in model_cells_at(8) {
        for &kind in &model_locks() {
            let a = measure_model_cell(kind, &cell);
            let b = measure_model_cell(kind, &cell);
            assert_eq!(
                a.first_divergence(&b),
                None,
                "[{} {}] diverged on re-run",
                kind.name(),
                cell.name
            );
            assert!(
                a.total_ops > 0,
                "[{} {}] measured nothing",
                kind.name(),
                cell.name
            );
        }
    }
}

#[test]
fn determinism_holds_across_thread_counts() {
    // Each thread count is its own deterministic universe: runs at the
    // same count are twins, runs at different counts are (of course)
    // different measurements.
    let mut per_count_ops = Vec::new();
    for threads in [2usize, 4, 8] {
        let cell = model_cells_at(threads)
            .into_iter()
            .find(|c| c.name == "saturated")
            .expect("exhibit grid carries a saturated cell");
        for &kind in &model_locks() {
            let a = measure_model_cell(kind, &cell);
            let b = measure_model_cell(kind, &cell);
            assert_eq!(
                a.first_divergence(&b),
                None,
                "[{} saturated t={threads}] diverged on re-run",
                kind.name()
            );
        }
        let mcs = measure_model_cell(model_locks()[0], &cell);
        per_count_ops.push(mcs.total_ops);
    }
    per_count_ops.dedup();
    assert!(
        per_count_ops.len() > 1,
        "thread counts should produce distinct measurements: {per_count_ops:?}"
    );
}

/// The simulated numbers of the 4096-thread / 4-cluster / 1 ms /
/// `noncs = 0` disaggregated cell, one row per admission class plus an
/// abortable kind whose 20 µs patience withdraws ~200 k waiters from the
/// middle of the waiting set. A change to the simulator's data
/// structures must leave every one of them where it is; the C-BO-MCS row
/// is the cell `benchmark/golden/des_4096.json` pins.
#[test]
fn des_4096_cells_match_their_pinned_numbers() {
    // (kind, patience, acquisitions, migrations, total_ops, aborts,
    //  succ_transitions, lat_p50_ns, lat_p99_ns)
    #[rustfmt::skip]
    let golden = [
        (LockKind::Mcs,     None,         4252, 4251, 4252,      0, 9_025_381, 13_632_000, 26_275_920),
        (LockKind::CBoMcs,  None,         7781,  120, 7781,      0, 5_867_988,  1_054_700,  1_128_588),
        (LockKind::Recip,   None,         4252, 4250, 4252,      0,     4_254, 13_632_000, 26_725_216),
        (LockKind::ACBoClh, Some(20_000), 3764,   57, 3764, 201_232, 3_773_639,     19_996,     22_368),
    ];
    let cfg = LBenchConfig {
        threads: 4096,
        clusters: 4,
        window_ns: 1_000_000,
        noncs_max_ns: 0,
        ..Default::default()
    };
    for (kind, patience, acquisitions, migrations, total_ops, aborts, succ, p50, p99) in golden {
        let mut scenario = Scenario::steady().modelled(CostModel::disaggregated());
        if let Some(p) = patience {
            scenario = scenario.with_patience(p);
        }
        let r = run_scenario(AnyLockKind::Excl(kind), &scenario, &cfg);
        assert_eq!(
            (
                r.acquisitions,
                r.migrations,
                r.total_ops,
                r.aborts,
                r.succ_transitions,
                r.lat_p50_ns,
                r.lat_p99_ns
            ),
            (acquisitions, migrations, total_ops, aborts, succ, p50, p99),
            "[{} t=4096] (acquisitions, migrations, total_ops, aborts, \
             succ_transitions, lat_p50_ns, lat_p99_ns)",
            kind.name()
        );
    }
}

#[test]
fn full_sweep_writes_byte_identical_csv() {
    let base = std::env::temp_dir().join(format!("modelled-determinism-{}", std::process::id()));
    let (d1, d2) = (base.join("run1"), base.join("run2"));
    let p1 = grid(&sweep(8)).write_csv_in(&d1, "fig_model").unwrap();
    let p2 = grid(&sweep(8)).write_csv_in(&d2, "fig_model").unwrap();
    let (b1, b2) = (std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
    // Byte-level diff message: find the first differing row instead of
    // dumping both files.
    if b1 != b2 {
        let (s1, s2) = (String::from_utf8_lossy(&b1), String::from_utf8_lossy(&b2));
        for (i, (l1, l2)) in s1.lines().zip(s2.lines()).enumerate() {
            assert_eq!(l1, l2, "first diverging CSV line is {}", i + 1);
        }
        panic!(
            "CSV runs differ only in length: {} vs {} bytes",
            b1.len(),
            b2.len()
        );
    }
    // And the header is the pinned schema (what csv_schema checks for
    // the committed copy).
    let head = String::from_utf8_lossy(&b1);
    assert_eq!(head.lines().next(), Some(schema::FIG_MODEL_HEADER));
    let _ = std::fs::remove_dir_all(base);
}

/// One thread over a 2 ms virtual window.
fn single_thread_cfg() -> LBenchConfig {
    LBenchConfig {
        threads: 1,
        window_ns: 2_000_000,
        max_wall: Duration::from_secs(30),
        ..Default::default()
    }
}

#[test]
fn single_thread_runs_are_reproducible_at_all() {
    // Real threads, real lock: the same seed really does reproduce the
    // same run when one thread eliminates scheduling.
    let c = single_thread_cfg();
    let kind = AnyLockKind::Excl(LockKind::Ticket);
    let a = run_scenario(kind, &Scenario::steady(), &c);
    let b = run_scenario(kind, &Scenario::steady(), &c);
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.throughput, b.throughput);
}

#[test]
fn modelled_single_thread_is_bit_exact_across_repeats() {
    // The modelled cost mode's determinism contract at the same cell
    // size: every repeat is a bit-identical twin — not just total_ops,
    // but every deterministic field (first_divergence compares floats by
    // to_bits and covers the whole result surface except the diagnostic
    // wall field).
    for kind in [LockKind::Mcs, LockKind::CBoMcs, LockKind::Cna] {
        let c = single_thread_cfg();
        let s = Scenario::steady().modelled(CostModel::disaggregated());
        let a = run_scenario(AnyLockKind::Excl(kind), &s, &c);
        let b = run_scenario(AnyLockKind::Excl(kind), &s, &c);
        assert_eq!(a.first_divergence(&b), None, "{kind}");
        assert!(a.total_ops > 0, "{kind}");
    }
}
