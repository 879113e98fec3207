//! PR 8's parity contract: the keyed scenario engine reproduces the
//! retired hand-rolled kvstore / mmicro drivers' numbers exactly.
//!
//! The golden values below were captured from the drivers *before* the
//! workloads became one `run_scenario` call (same geometry, same seeds).
//! Single-thread runs are deterministic — one thread, virtual clocks, no
//! stop-flag race — so equality is exact, not statistical. If any of
//! these change, the engine's replication of the legacy per-thread
//! program (RNG draw order, pacing, in-lock window checks) has drifted.

use cohort_alloc::workload::MmicroWorkload;
use cohort_kvstore::workload::KvWorkload;
use cohort_kvstore::KvConfig;
use lbench::{KeyDist, LBenchConfig, LoadShape, LockKind, Phase, PolicySpec, RwLockKind};

fn quick(get_pct: u32) -> KvWorkload {
    KvWorkload {
        threads: 1,
        get_pct,
        window_ns: 1_500_000,
        keyspace: 512,
        store: KvConfig {
            buckets: 256,
            capacity: 1024,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn pthread_get90_matches_the_legacy_driver() {
    let r = quick(90).run(LockKind::Pthread);
    assert_eq!(r.total_ops, 235);
    assert_eq!(r.throughput, 156666.66666666666);
    assert_eq!(r.acquisitions, 235);
    assert_eq!(r.migrations, 0);
    assert_eq!(r.tenures, 0, "pthread has no tenure notion");
    assert_eq!(r.policy, None);
}

#[test]
fn cohort_lock_cells_match_the_legacy_driver() {
    // The three Table 1 mixes under the paper's headline lock.
    let r90 = quick(90).run(LockKind::CBoMcs);
    assert_eq!(r90.total_ops, 235);
    assert_eq!(r90.acquisitions, 235);
    assert_eq!(r90.tenures, 236, "ops plus the warm populate tenure");
    assert_eq!(r90.policy.as_deref(), Some("count(64)"));

    let r50 = quick(50).run(LockKind::CBoMcs);
    assert_eq!(r50.total_ops, 234);
    assert_eq!(r50.throughput, 156000.0);
    assert_eq!(r50.acquisitions, 234);
    assert_eq!(r50.tenures, 235);

    let r10 = quick(10).run(LockKind::CBoMcs);
    assert_eq!(r10.total_ops, 234);
    assert_eq!(r10.acquisitions, 234);
    assert_eq!(r10.tenures, 235);
}

#[test]
fn rw_mode_cells_match_the_legacy_driver() {
    // The C-RW cache lock routes gets through the shared side: fewer
    // exclusive acquisitions, slightly more ops (shared gets skip the
    // queue).
    let r = quick(90).run(RwLockKind::CRwWpBoMcs);
    assert_eq!(r.total_ops, 241);
    assert_eq!(r.throughput, 160666.66666666666);
    assert_eq!(r.acquisitions, 19, "only sets charge the channel");
    assert_eq!(r.tenures, 20);
}

/// `cfg` with the handoff policy `NeverPass`.
fn never_pass(cfg: LBenchConfig) -> LBenchConfig {
    LBenchConfig {
        policy: Some(PolicySpec::NeverPass),
        ..cfg
    }
}

#[test]
fn policy_override_cell_matches_the_legacy_driver() {
    let w = quick(50);
    let r = lbench::run_scenario(
        LockKind::CBoMcs.into(),
        &w.scenario(),
        &never_pass(w.lbench_config()),
    );
    assert_eq!(r.total_ops, 234);
    assert_eq!(r.acquisitions, 234);
    assert_eq!(r.tenures, 235, "never-pass: every acquisition a tenure");
    assert_eq!(r.policy.as_deref(), Some("never-pass"));
    assert_eq!(r.mean_streak, 0.0);
}

#[test]
fn keyed_services_build_their_locks_at_the_configured_policy() {
    // Eight threads over four clusters: at the default count(64) a
    // C-BO-MCS cache or allocator lock hands off locally.
    let kv = KvWorkload {
        threads: 8,
        ..quick(50)
    };
    let mm = MmicroWorkload {
        threads: 8,
        window_ns: 1_500_000,
        ..Default::default()
    };
    for (scenario, cfg) in [
        (kv.scenario(), kv.lbench_config()),
        (mm.scenario(), mm.lbench_config()),
    ] {
        let r = lbench::run_scenario(LockKind::CBoMcs.into(), &scenario, &never_pass(cfg));
        assert_eq!(r.policy.as_deref(), Some("never-pass"));
        assert_eq!(r.mean_streak, 0.0, "NeverPass forbids local handoffs");
    }
}

#[test]
fn wrapper_scenario_equals_direct_engine_invocation() {
    // The wrapper must add nothing: building the scenario + config by
    // hand and calling run_scenario directly gives the same cell.
    let w = quick(90);
    let via_wrapper = w.run(LockKind::CBoMcs);
    let direct = lbench::run_scenario(
        lbench::AnyLockKind::Excl(LockKind::CBoMcs),
        &w.scenario(),
        &w.lbench_config(),
    );
    assert_eq!(via_wrapper.total_ops, direct.total_ops);
    assert_eq!(via_wrapper.acquisitions, direct.acquisitions);
    assert_eq!(via_wrapper.throughput, direct.throughput);
    assert_eq!(via_wrapper.tenures, direct.tenures);
}

#[test]
fn single_shard_uniform_is_the_default_and_the_legacy_shape() {
    let w = quick(90);
    assert_eq!(w.shards, 1, "default is the paper's single cache lock");
    assert_eq!(w.dist, KeyDist::Uniform, "default is memaslap's keys");
}

#[test]
fn modelled_fig_shards_cell_is_bit_reproducible() {
    // One fig_shards grid cell (sharded store, skewed keys, closed-loop
    // clients on the modelled substrate) run twice must agree on every
    // deterministic field — the contract behind fig_shards' run-twice
    // `cmp` in CI and its committed wall-free CSV.
    let w = KvWorkload {
        threads: 64,
        shards: 4,
        dist: KeyDist::Zipfian { theta: 0.4 },
        window_ns: 2_000_000,
        ..Default::default()
    };
    let cost = w.cost;
    for kind in [
        lbench::AnyLockKind::Excl(LockKind::CBoMcs),
        lbench::AnyLockKind::Rw(lbench::RwLockKind::CRwWpBoMcs),
    ] {
        let scenario = w.scenario().modelled(cost);
        let a = lbench::run_scenario(kind, &scenario, &w.lbench_config());
        let b = lbench::run_scenario(kind, &scenario, &w.lbench_config());
        assert!(a.total_ops > 0, "{kind:?}: empty cell");
        assert_eq!(a.first_divergence(&b), None, "{kind:?}");
    }
}

#[test]
fn mmicro_cells_match_the_legacy_driver() {
    let w = MmicroWorkload {
        threads: 1,
        window_ns: 1_500_000,
        ..Default::default()
    };
    for kind in [LockKind::Pthread, LockKind::CMcsMcs] {
        let r = w.run(kind);
        assert_eq!(r.total_ops, 327, "{kind}");
        let pairs_per_ms = r.total_ops as f64 / (w.window_ns as f64 / 1e6);
        assert_eq!(pairs_per_ms, 218.0, "{kind}");
        assert_eq!(r.acquisitions, 654, "{kind}: one per malloc + free");
        assert_eq!(r.migrations, 0, "{kind}");
    }
}

/// Runs a keyed cell under a hand-built `shape`, which no `Scenario`
/// constructor has validated: `run_scenario` must reject it for keyed
/// scenarios as it does for LBench ones.
fn run_shaped(shape: LoadShape) {
    let w = quick(90);
    let mut scenario = w.scenario();
    scenario.shape = shape;
    lbench::run_scenario(
        lbench::AnyLockKind::Excl(LockKind::Mcs),
        &scenario,
        &w.lbench_config(),
    );
}

#[test]
#[should_panic(expected = "phase read_pct is a percentage")]
fn keyed_scenario_rejects_a_phase_over_100() {
    // Unchecked, the cell would silently run all-reads.
    run_shaped(LoadShape::Phased {
        phases: vec![Phase {
            dur_ns: 1_000,
            read_pct: 101,
        }],
    });
}

#[test]
#[should_panic(expected = "bursty scenarios need a non-empty on-window")]
fn keyed_scenario_rejects_an_empty_on_window() {
    // Unchecked, the cell would complete zero ops.
    run_shaped(LoadShape::Bursty {
        on_ns: 0,
        off_ns: 1_000,
    });
}
