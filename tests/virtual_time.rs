//! Integration: end-to-end properties of the virtual-time methodology.

use coherence_sim::CostModel;
use lbench::{run_scenario, AnyLockKind, LBenchConfig, LockKind, Scenario, ScenarioResult};

/// The paper's steady exclusive-only scenario.
fn run_steady(kind: LockKind, cfg: &LBenchConfig) -> ScenarioResult {
    run_scenario(AnyLockKind::Excl(kind), &Scenario::steady(), cfg)
}

#[test]
fn numa_benefit_vanishes_on_uniform_memory() {
    // The decisive sanity check for the whole reproduction: on a machine
    // with no remote/local asymmetry, a cohort lock's batching buys
    // (almost) nothing — the benefit must come from the topology, not
    // from an artifact of the harness.
    let mk = |cost| LBenchConfig {
        threads: 16,
        window_ns: 3_000_000,
        cost,
        ..Default::default()
    };
    let mcs_numa = run_steady(LockKind::Mcs, &mk(CostModel::t5440()));
    let cohort_numa = run_steady(LockKind::CTktMcs, &mk(CostModel::t5440()));
    let mcs_uma = run_steady(LockKind::Mcs, &mk(CostModel::uniform(35)));
    let cohort_uma = run_steady(LockKind::CTktMcs, &mk(CostModel::uniform(35)));

    let numa_gain = cohort_numa.throughput / mcs_numa.throughput;
    let uma_gain = cohort_uma.throughput / mcs_uma.throughput;
    assert!(
        numa_gain > uma_gain,
        "NUMA gain {numa_gain:.2} should exceed UMA gain {uma_gain:.2}"
    );
    assert!(
        uma_gain < 1.25,
        "on uniform memory the cohort advantage should be marginal, got {uma_gain:.2}"
    );
}

#[test]
fn migrations_counted_only_across_clusters() {
    let cfg = LBenchConfig {
        threads: 4,
        clusters: 1,
        window_ns: 1_000_000,
        ..Default::default()
    };
    let r = run_steady(LockKind::Mcs, &cfg);
    assert_eq!(r.migrations, 0, "one cluster cannot migrate");
    assert!(r.total_ops > 0);
}

#[test]
fn throughput_is_ops_over_window() {
    let cfg = LBenchConfig {
        threads: 2,
        window_ns: 2_000_000,
        ..Default::default()
    };
    let r = run_steady(LockKind::Ticket, &cfg);
    let expect = r.total_ops as f64 / 0.002;
    assert!((r.throughput - expect).abs() < 1e-6);
}

#[test]
fn blocked_placement_runs() {
    let cfg = LBenchConfig {
        threads: 8,
        placement: lbench::Placement::Blocked,
        window_ns: 1_000_000,
        ..Default::default()
    };
    let r = run_steady(LockKind::CBoBo, &cfg);
    assert!(r.total_ops > 0);
}
