//! Engine behaviour tests inherited from the deleted legacy runner, now
//! driving `run_scenario`: tenure invariants, `NeverPass`, wall mode,
//! hopeless patience, RW mixes, `Blocked` placement. The module keeps
//! the name the tests have always been listed under.

#[cfg(test)]
mod tests {
    use crate::registry::{AnyLockKind, LockKind, RwLockKind};
    use crate::scenario::{
        cluster_for, run_scenario, LBenchConfig, Placement, Scenario, ScenarioResult, TimeMode,
    };
    use std::time::Duration;

    /// The paper's steady exclusive-only scenario.
    fn run_steady(kind: LockKind, cfg: &LBenchConfig) -> ScenarioResult {
        run_scenario(AnyLockKind::Excl(kind), &Scenario::steady(), cfg)
    }

    /// The same, with abortable acquisition (Figure 6's mode).
    fn run_abortable(kind: LockKind, patience_ns: u64, cfg: &LBenchConfig) -> ScenarioResult {
        let scenario = Scenario::steady().with_patience(patience_ns);
        run_scenario(AnyLockKind::Excl(kind), &scenario, cfg)
    }

    /// A steady `read_pct` mix over a reader-writer kind.
    fn run_rw_mix(kind: RwLockKind, read_pct: u32, cfg: &LBenchConfig) -> ScenarioResult {
        let scenario = Scenario::steady().with_read_pct(read_pct);
        run_scenario(AnyLockKind::Rw(kind), &scenario, cfg)
    }

    fn quick_cfg(threads: usize) -> LBenchConfig {
        LBenchConfig {
            threads,
            window_ns: 2_000_000, // 2 ms virtual: fast tests
            max_wall: Duration::from_secs(30),
            ..Default::default()
        }
    }

    #[test]
    fn single_thread_run_produces_ops() {
        let r = run_steady(LockKind::Mcs, &quick_cfg(1));
        assert!(r.total_ops > 10, "got {} ops", r.total_ops);
        assert_eq!(r.migrations, 0, "one thread cannot migrate the lock");
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn multi_thread_run_counts_everything() {
        let r = run_steady(LockKind::CBoMcs, &quick_cfg(4));
        assert_eq!(r.per_thread_ops.len(), 4);
        assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
        assert!(r.acquisitions >= r.total_ops);
        assert!(r.misses_per_cs >= 0.0);
        // Cohort runs report tenure statistics from the policy counters.
        assert_eq!(r.policy.as_deref(), Some("count(64)"));
        assert_eq!(r.tenures + r.local_handoffs, r.total_ops);
        assert!(r.max_streak <= 64);
        assert!(r.mean_streak >= 0.0);
    }

    #[test]
    fn non_cohort_run_has_no_tenure_stats() {
        let r = run_steady(LockKind::Ticket, &quick_cfg(2));
        assert_eq!(r.policy, None);
        assert_eq!(r.tenures, 0);
        assert_eq!(r.local_handoffs, 0);
        assert_eq!(r.migrations_per_tenure, 0.0);
    }

    #[test]
    fn config_policy_is_honored_and_labelled() {
        let mut cfg = quick_cfg(4);
        cfg.policy = Some(cohort::PolicySpec::NeverPass);
        let r = run_steady(LockKind::CTktMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("never-pass"));
        assert_eq!(r.local_handoffs, 0, "NeverPass forbids local handoffs");
        assert_eq!(r.tenures, r.total_ops);

        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        let r = run_steady(LockKind::CBoMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn cohort_lock_migrates_less_than_mcs() {
        // The paper's central claim, in miniature: with 8 threads over 4
        // clusters (two cluster-mates each), plain MCS interleaves
        // clusters while a cohort lock batches them.
        let cfg = quick_cfg(8);
        let mcs = run_steady(LockKind::Mcs, &cfg);
        let cohort = run_steady(LockKind::CTktMcs, &cfg);
        let mcs_rate = mcs.migrations as f64 / mcs.acquisitions.max(1) as f64;
        let cohort_rate = cohort.migrations as f64 / cohort.acquisitions.max(1) as f64;
        assert!(
            cohort_rate < mcs_rate,
            "cohort migration rate {cohort_rate:.3} should undercut MCS {mcs_rate:.3}"
        );
    }

    #[test]
    fn abortable_mode_records_aborts_without_deadlock() {
        // 50 µs of patience: aggressive, forces aborts.
        let r = run_abortable(LockKind::ACBoClh, 50_000, &quick_cfg(4));
        assert!(r.total_ops > 0);
        // abort_rate is well-defined even when zero.
        assert!(r.abort_rate >= 0.0 && r.abort_rate <= 1.0);
    }

    #[test]
    fn wall_mode_runs_and_measures() {
        // Wall mode on 1 CPU is not meaningful as a benchmark, but it must
        // be functional (it is the path for real multi-socket hosts).
        let cfg = LBenchConfig {
            threads: 2,
            window_ns: 30_000_000, // 30 ms wall
            mode: TimeMode::Wall,
            noncs_max_ns: 1_000,
            max_wall: Duration::from_secs(5),
            ..Default::default()
        };
        let r = run_steady(LockKind::Ticket, &cfg);
        assert!(r.total_ops > 0);
        assert!(r.wall >= Duration::from_millis(25));
    }

    #[test]
    fn patience_zero_aborts_do_not_wedge_the_run() {
        let cfg = LBenchConfig {
            threads: 4,
            window_ns: 1_000_000,
            ..Default::default()
        };
        // Hopeless patience: mostly aborts.
        let r = run_abortable(LockKind::ACBoBo, 1, &cfg);
        // The run must terminate (stop flag via abort charges) and count
        // consistently.
        assert!(r.aborts > 0 || r.total_ops > 0);
    }

    #[test]
    fn rw_run_counts_both_sides() {
        let r = run_rw_mix(RwLockKind::CRwWpBoMcs, 50, &quick_cfg(4));
        assert_eq!(r.total_ops, r.read_ops + r.write_ops);
        assert_eq!(r.total_ops, r.per_thread_ops.iter().sum::<u64>());
        assert!(r.read_ops > 0, "mixed load produces reads");
        assert!(r.write_ops > 0, "mixed load produces writes");
        assert_eq!(r.policy.as_deref(), Some("count(64)"));
        // Only writers go through the cohort machinery.
        assert_eq!(r.tenures + r.local_handoffs, r.write_ops);
        assert!(r.max_streak <= 64);
    }

    #[test]
    fn rw_read_only_run_never_writes() {
        let r = run_rw_mix(RwLockKind::CRwNeutralBoMcs, 100, &quick_cfg(4));
        assert!(r.read_ops > 0);
        assert_eq!(r.write_ops, 0);
        assert_eq!(r.tenures, 0, "no writer ever entered");
        assert_eq!(r.acquisitions, 0, "shared reads skip the handoff channel");
    }

    #[test]
    fn rw_exclusive_baseline_charges_reads_through_handoff() {
        let r = run_rw_mix(RwLockKind::MutexCBoMcs, 100, &quick_cfg(2));
        assert!(r.read_ops > 0);
        assert_eq!(
            r.acquisitions, r.read_ops,
            "exclusive 'reads' serialize like writes"
        );
    }

    #[test]
    fn rw_policy_is_honored_for_writer_tenures() {
        let mut cfg = quick_cfg(4);
        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        // Write-heavy so streaks actually form.
        let r = run_rw_mix(RwLockKind::CRwWpTktMcs, 20, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn crw_outruns_exclusive_baseline_when_read_heavy() {
        // The acceptance shape of the fig_rw exhibit, in miniature: at a
        // 90%+ read ratio the shared read path must at least match the
        // single-writer cohort baseline.
        let cfg = quick_cfg(4);
        let crw = run_rw_mix(RwLockKind::CRwWpBoMcs, 90, &cfg);
        let excl = run_rw_mix(RwLockKind::MutexCBoMcs, 90, &cfg);
        assert!(
            crw.throughput >= excl.throughput,
            "C-RW {:.0} ops/s should not trail the exclusive baseline {:.0}",
            crw.throughput,
            excl.throughput
        );
    }

    #[test]
    fn blocked_placement_assigns_contiguously() {
        let cfg = LBenchConfig {
            threads: 8,
            clusters: 4,
            placement: Placement::Blocked,
            ..Default::default()
        };
        assert_eq!(cluster_for(0, &cfg).as_usize(), 0);
        assert_eq!(cluster_for(1, &cfg).as_usize(), 0);
        assert_eq!(cluster_for(2, &cfg).as_usize(), 1);
        assert_eq!(cluster_for(7, &cfg).as_usize(), 3);
    }
}
