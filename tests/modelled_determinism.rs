//! Integration: the modelled cost mode's determinism contract, held
//! against the *actual* `fig_model` exhibit cells.
//!
//! The contract (see `docs/ARCHITECTURE.md`, "Modelled coherence mode"):
//! a modelled scenario run is a single-threaded discrete-event
//! simulation that never reads the wall clock, so re-running any cell —
//! in the same process, at any thread count — reproduces every field of
//! the [`lbench::ScenarioResult`] bit for bit, and the CSV the exhibit
//! writes is byte-identical across sweeps. The cells, lock set, and table
//! builder come from `cohort_bench::exhibits::fig_model`, the same module
//! the `fig_model` exhibit runs, so what this test pins is exactly what
//! the committed `results/fig_model.csv` and the CI byte-diff exercise.
//!
//! On failure the assertions print the **first diverging field**
//! ([`lbench::ScenarioResult::first_divergence`]) rather than a blob of
//! two full results.
//!
//! Re-run identity cannot see a change that moves *both* runs, so two
//! tests also pin absolute numbers — the benchmark's `des_4096` cell
//! (4096 logical threads) for four lock kinds, and thirteen cells over
//! the regimes it never reaches (bursts, idle draws, three clusters,
//! patience under bursts, read mixes) —
//! and the 126 modelled rows of the committed `results/fig_recip.csv`
//! are re-simulated (the other two modelled CSVs are `cmp`'d in CI).
//!
//! Single-thread cells close the file: the one regime where the
//! real-time engine, too, is reproducible (one seeded RNG, virtual time
//! only, nothing to race). There the real threads and the modelled
//! executors run the same op program, so 50 cells hold them to each
//! other: a draw-order drift on either side shows up as a diverging
//! count or percentile.

use coherence_sim::CostModel;
use cohort_alloc::workload::MmicroWorkload;
use cohort_bench::exhibits::fig_model::{
    measure_model_cell, model_cells_at, model_locks, model_long_table, ModelCell,
};
use cohort_bench::{schema, Grid, Measurement};
use cohort_kvstore::workload::KvWorkload;
use cohort_kvstore::KvConfig;
use lbench::{
    run_scenario, AnyLockKind, KeyDist, LBenchConfig, LockKind, Phase, RwLockKind, Scenario,
};
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

/// Builds the exhibit's pinned-schema grid from a sweep, through the
/// exhibit's own table builder.
fn grid(ms: &[Measurement<ModelCell>]) -> Grid {
    model_long_table()(ms)
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

/// The regimes the simulator's waiting queues and two-lane event queue
/// are sensitive to and the saturated cells above never reach — all
/// disaggregated, 4 clusters unless stated, values printed by `87e0cc3`:
///
/// * **burst start** (`bursty(100 µs, 100 µs)`, 2 ms): every thread comes
///   back from a gap at the same instant in *admission* order, so
///   ~1 000-long equal-arrival runs enter each cluster's queue out of tid
///   order;
/// * **idle draws** (steady, `noncs` 4 µs): restarts land in the future,
///   so future-heap and same-timestamp events interleave;
/// * **3 clusters, 1000 threads**: the burst shape on an uneven
///   thread-to-cluster split;
/// * **patience under bursts**: withdrawals from the middle of tie runs;
/// * **50 % reads**: shared reads of an RW kind go around the queue,
///   exclusive reads of a plain kind through it.
#[test]
fn des_regime_cells_match_their_pinned_numbers() {
    let excl = AnyLockKind::Excl;
    let burst = || Scenario::bursty(100_000, 100_000);
    let impatient = || Scenario::bursty(50_000, 150_000).with_patience(20_000);
    let half_reads = || Scenario::steady().with_read_pct(50);
    // (kind, scenario, threads, clusters, window_ns, noncs_max_ns,
    //  (acquisitions, migrations, total_ops, aborts, succ_transitions,
    //   lat_p50_ns, lat_p99_ns), (tenures, local_handoffs, max_streak))
    #[rustfmt::skip]
    let golden = [
        (excl(LockKind::CBoMcs),  burst(),           4096, 4, 2_000_000,     0, (11087,  171, 11087,     0, 9_087_430,  1_063_228,  1_128_588), (172, 10915, 64)),
        (excl(LockKind::Mcs),     burst(),           4096, 4, 2_000_000,     0, ( 4392, 4391,  4392,     0, 9_597_646, 14_081_120, 26_275_920), (  0,     0,  0)),
        (excl(LockKind::Recip),   burst(),           4096, 4, 2_000_000,     0, ( 4392, 4378,  4392,     0,     4_394, 14_081_120, 27_535_744), (  0,     0,  0)),
        (excl(LockKind::CBoMcs),  Scenario::steady(), 4096, 4, 1_000_000, 4_000, ( 7775,  120,  7775,     0, 5_828_206,  1_054_172,  1_127_300), (121,  7654, 64)),
        (excl(LockKind::Mcs),     Scenario::steady(), 4096, 4, 1_000_000, 4_000, ( 4251, 4250,  4251,     0, 9_021_286, 13_632_000, 26_274_858), (  0,     0,  0)),
        (excl(LockKind::Recip),   Scenario::steady(), 4096, 4, 1_000_000, 4_000, ( 4252, 4250,  4252,     0,     4_254, 13_632_000, 26_723_731), (  0,     0,  0)),
        (excl(LockKind::CBoMcs),  burst(),           1000, 3, 2_000_000,   500, ( 8280,  113,  8280,     0, 2_357_503,    238_428,    307_840), (130,  8150, 64)),
        (excl(LockKind::Mcs),     burst(),           1000, 3, 2_000_000,   500, ( 1296, 1294,  1296,     0,   794_170,  4_149_152,  6_405_719), (  0,     0,  0)),
        (excl(LockKind::Recip),   burst(),           1000, 3, 2_000_000,   500, ( 1297, 1286,  1297,     0,     1_299,  4_149_328,  8_107_156), (  0,     0,  0)),
        (excl(LockKind::ACBoClh), impatient(),       4096, 4, 1_000_000,     0, ( 1305,   21,  1305, 60_660, 1_166_527,     15_536,     22_368), ( 25,  1280, 64)),
        (excl(LockKind::ACBoBo),  impatient(),       4096, 4, 1_000_000, 2_000, ( 1294,   22,  1294, 60_620, 1_138_707,     14_812,     22_131), ( 25,  1269, 64)),
        (AnyLockKind::Rw(RwLockKind::CRwWpBoMcs), half_reads(), 4096, 4, 1_000_000, 0, (7345, 111, 14742, 0, 5_420_849, 1_082_392, 1_239_232), (114, 7231, 64)),
        (excl(LockKind::CBoMcs),  half_reads(),       512, 4, 1_000_000, 1_000, ( 3827,   58,  3827,     0,   446_579,    155_323,    167_676), ( 59,  3768, 64)),
    ];
    for (kind, scenario, threads, clusters, window_ns, noncs_max_ns, counts, tenure) in golden {
        let cfg = LBenchConfig {
            threads,
            clusters,
            window_ns,
            noncs_max_ns,
            ..Default::default()
        };
        let scenario = scenario.modelled(CostModel::disaggregated());
        let r = run_scenario(kind, &scenario, &cfg);
        assert_eq!(
            (
                (
                    r.acquisitions,
                    r.migrations,
                    r.total_ops,
                    r.aborts,
                    r.succ_transitions,
                    r.lat_p50_ns,
                    r.lat_p99_ns
                ),
                (r.tenures, r.local_handoffs, r.max_streak)
            ),
            (counts, tenure),
            "[{} t={threads} c={clusters} noncs={noncs_max_ns} {:?}] (acquisitions, \
             migrations, total_ops, aborts, succ_transitions, lat_p50_ns, lat_p99_ns), \
             (tenures, local_handoffs, max_streak)",
            kind.name(),
            scenario.shape
        );
    }
}

/// Re-simulates every `,modelled,` row of the committed
/// `results/fig_recip.csv` — the third modelled pin; `fig_model.csv` and
/// `fig_shards.csv` are `cmp`'d whole in CI, but `fig_recip.csv` also
/// carries real-time rows, which no two runs reproduce. Each cell is
/// built as `fig_compare`'s `build` builds a modelled cell at default
/// knobs (10 ms window, saturated, disaggregated model) and must print
/// the committed fields.
#[test]
fn committed_fig_recip_modelled_rows_resimulate_exactly() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/fig_recip.csv");
    let csv = std::fs::read_to_string(path).unwrap();
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let mut rows = 0;
    for line in lines {
        let field: Vec<&str> = line.split(',').collect();
        if field[col("mode")] != "modelled" {
            continue;
        }
        rows += 1;
        let name = field[col("lock")];
        let kind = LockKind::ALL.into_iter().find(|k| k.name() == name);
        let cfg = LBenchConfig {
            threads: field[col("threads")].parse().unwrap(),
            clusters: field[col("clusters")].parse().unwrap(),
            window_ns: 10_000_000,
            noncs_max_ns: 0,
            ..Default::default()
        };
        let r = run_scenario(
            AnyLockKind::Excl(kind.expect("a registry name")),
            &Scenario::steady().modelled(CostModel::disaggregated()),
            &cfg,
        );
        let resimulated = [
            ("throughput", format!("{:.0}", r.throughput)),
            ("acquisitions", r.acquisitions.to_string()),
            ("migrations", r.migrations.to_string()),
            ("succ_transitions", r.succ_transitions.to_string()),
            ("tenures", r.tenures.to_string()),
            ("local_handoffs", r.local_handoffs.to_string()),
            ("max_streak", r.max_streak.to_string()),
            ("lat_p50_ns", r.lat_p50_ns.to_string()),
            ("lat_p99_ns", r.lat_p99_ns.to_string()),
        ];
        for (column, value) in resimulated {
            assert_eq!(
                value,
                field[col(column)],
                "[{name} c={} t={}] {column}",
                cfg.clusters,
                cfg.threads
            );
        }
    }
    assert_eq!(rows, 126, "modelled rows of {path}");
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

/// What a real-thread run and the modelled run of the same single-thread
/// cell must agree on. One thread has nothing to race, so both execute
/// the same op program on the same seeded RNG and differ only in the
/// *boundary op*: a real thread never checks the window before starting
/// an op, a modelled one retires on `clock >= window`. That op takes the
/// lock `acquisitions_per_op` times at most (an allocator pair twice).
fn assert_modelled_plus_the_boundary_op(
    cell: &str,
    real: &lbench::ScenarioResult,
    modelled: &lbench::ScenarioResult,
    acquisitions_per_op: u64,
) {
    assert_eq!(real.total_ops, modelled.total_ops + 1, "[{cell}] total_ops");
    assert_eq!(real.lat_p50_ns, modelled.lat_p50_ns, "[{cell}] lat_p50_ns");
    assert_eq!(real.lat_p99_ns, modelled.lat_p99_ns, "[{cell}] lat_p99_ns");
    assert_eq!(
        real.remote_misses, modelled.remote_misses,
        "[{cell}] remote_misses"
    );
    assert_eq!(real.aborts, modelled.aborts, "[{cell}] aborts");
    for (field, real, modelled, boundary) in [
        (
            "acquisitions",
            real.acquisitions,
            modelled.acquisitions,
            acquisitions_per_op,
        ),
        ("read_ops", real.read_ops, modelled.read_ops, 1),
    ] {
        assert!(
            (modelled..=modelled + boundary).contains(&real),
            "[{cell}] {field}: {real} vs {modelled}"
        );
    }
}

#[test]
fn single_thread_realtime_is_the_modelled_run_plus_the_boundary_op() {
    // 40 LBench cells: 4 kinds x 5 scenarios x 2 cost models. The burst
    // period is chosen so the window ends inside an on-window (a run that
    // ends in a gap has no boundary op on either executor).
    let kinds = [
        AnyLockKind::Excl(LockKind::Mcs),
        AnyLockKind::Excl(LockKind::CBoMcs),
        AnyLockKind::Excl(LockKind::ACBoClh),
        AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
    ];
    let phases =
        [(200_000, 90), (130_000, 10)].map(|(dur_ns, read_pct)| Phase { dur_ns, read_pct });
    let scenarios = [
        ("steady", Scenario::steady()),
        ("read-50", Scenario::steady().with_read_pct(50)),
        ("bursty", Scenario::bursty(200_000, 130_000)),
        ("phased", Scenario::phased(phases.to_vec())),
        ("patience", Scenario::steady().with_patience(50_000)),
    ];
    let models = [
        ("t5440", CostModel::t5440()),
        ("disaggregated", CostModel::disaggregated()),
    ];
    for kind in kinds {
        for (shape, scenario) in &scenarios {
            for (model_name, model) in models {
                let cfg = LBenchConfig {
                    pace_wall: false,
                    cost: model,
                    ..single_thread_cfg()
                };
                let real = run_scenario(kind, scenario, &cfg);
                let modelled = run_scenario(kind, &scenario.clone().modelled(model), &cfg);
                let cell = format!("{} {shape} {model_name}", kind.name());
                assert_modelled_plus_the_boundary_op(&cell, &real, &modelled, 1);
            }
        }
    }

    // 10 keyed cells: 8 over the KV store (key distributions, shard
    // counts, a C-RW cache lock) and 2 over the allocator.
    let kv = |get_pct, shards, dist| KvWorkload {
        threads: 1,
        get_pct,
        shards,
        dist,
        window_ns: 1_500_000,
        keyspace: 512,
        store: KvConfig {
            buckets: 256,
            capacity: 1024,
            ..Default::default()
        },
        ..Default::default()
    };
    let zipf = KeyDist::Zipfian { theta: 0.9 };
    let hot = KeyDist::HotSet { keys: 16, pct: 90 };
    let (cbomcs, crw) = (
        AnyLockKind::Excl(LockKind::CBoMcs),
        AnyLockKind::Rw(RwLockKind::CRwWpBoMcs),
    );
    let kv_cells = [
        (cbomcs, kv(90, 1, KeyDist::Uniform)),
        (cbomcs, kv(50, 1, KeyDist::Uniform)),
        (LockKind::Pthread.into(), kv(90, 1, KeyDist::Uniform)),
        (cbomcs, kv(90, 4, zipf.clone())),
        (cbomcs, kv(10, 8, hot.clone())),
        (crw, kv(90, 1, KeyDist::Uniform)),
        (crw, kv(50, 2, hot)),
        (LockKind::Mcs.into(), kv(90, 4, zipf)),
    ];
    for (i, (kind, w)) in kv_cells.iter().enumerate() {
        let kind = *kind;
        let real = run_scenario(kind, &w.scenario(), &w.lbench_config());
        let modelled = run_scenario(kind, &w.scenario().modelled(w.cost), &w.lbench_config());
        assert_modelled_plus_the_boundary_op(&format!("kv cell {i}"), &real, &modelled, 1);
    }
    let mm = MmicroWorkload {
        threads: 1,
        window_ns: 1_500_000,
        ..Default::default()
    };
    for kind in [LockKind::Pthread, LockKind::CMcsMcs] {
        let any = AnyLockKind::Excl(kind);
        let real = run_scenario(any, &mm.scenario(), &mm.lbench_config());
        let modelled = run_scenario(any, &mm.scenario().modelled(mm.cost), &mm.lbench_config());
        assert_modelled_plus_the_boundary_op(&format!("mmicro {kind}"), &real, &modelled, 2);
    }
}
