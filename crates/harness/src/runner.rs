//! The legacy LBench entry points (§4.1 of the paper), as **thin
//! compatibility wrappers** over the scenario engine.
//!
//! Each thread loops: acquire the central lock → write the shared cache
//! lines (two, in the paper) → release → idle for a random non-critical
//! period (up to 4 µs). The run ends when any thread's **virtual clock**
//! crosses the measurement window (or a wall-clock safety net fires).
//!
//! Time accounting (virtual mode — see docs/ARCHITECTURE.md, "Virtual
//! time, in one paragraph"): critical-section
//! data accesses are charged through the coherence [`Directory`], the lock
//! handoff through the [`HandoffChannel`], and the non-critical section as
//! a plain clock advance. The lock algorithms themselves run for real on
//! real threads; only *time* is modelled, which is what lets a 1-CPU CI
//! container reproduce a 256-thread NUMA machine's throughput *shapes*.
//!
//! In wall mode the same loop runs with real time everywhere (for use on
//! actual multi-socket hardware).
//!
//! Since the scenario refactor the measurement loop itself lives in
//! [`run_scenario`](crate::run_scenario): [`run_lbench`] submits the
//! steady exclusive scenario, [`run_rw_lbench`] the steady `read_pct`
//! mix, and both convert the engine's [`ScenarioResult`] back to the
//! legacy result structs. The `scenario_parity` integration test pins
//! that the wrappers reproduce the pre-refactor drivers' numbers.
//!
//! [`Directory`]: coherence_sim::Directory
//! [`HandoffChannel`]: coherence_sim::HandoffChannel
//! [`ScenarioResult`]: crate::ScenarioResult

use crate::bench_lock::BenchLock;
use crate::bench_rwlock::MutexAsRw;
use crate::registry::{AnyLockKind, LockKind, RwLockKind};
use crate::scenario::{run_scenario, run_scenario_on, Scenario};
use coherence_sim::CostModel;
use cohort::PolicySpec;
use numa_topology::Topology;
use std::sync::Arc;
use std::time::Duration;

/// How threads are laid out over clusters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Thread `i` on cluster `i % clusters` (spread, the default — matches
    /// an OS scheduler distributing threads over sockets).
    RoundRobin,
    /// Fill cluster 0 first, then cluster 1, … (taskset-style packing).
    Blocked,
}

/// Whether time is modelled (virtual) or measured (wall).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeMode {
    /// Virtual clocks + coherence cost model (default; hardware-independent).
    Virtual,
    /// Real time; requires actually-parallel hardware to be meaningful.
    Wall,
}

/// LBench parameters. Defaults reproduce the paper's setup: 2 cache lines
/// written per critical section, ≤4 µs non-critical work, 4 clusters.
#[derive(Clone, Debug)]
pub struct LBenchConfig {
    /// Worker threads.
    pub threads: usize,
    /// NUMA clusters (virtual).
    pub clusters: usize,
    /// Measurement window in (virtual or wall) nanoseconds.
    pub window_ns: u64,
    /// Shared cache lines written inside the critical section.
    pub cs_lines: usize,
    /// Extra modelled compute inside the critical section (the 8 counter
    /// increments of the paper, beyond the line transfers themselves).
    pub cs_extra_ns: u64,
    /// Upper bound of the uniformly-random non-critical section.
    pub noncs_max_ns: u64,
    /// Extra scheduler yields performed *while holding* the lock (virtual
    /// mode only); rarely needed once `pace_wall` is on. Set to 0 on
    /// really-parallel hardware.
    pub cs_yields: u32,
    /// Wall-pacing (virtual mode only, default on): every virtual delay —
    /// the critical section and the non-critical section — is also waited
    /// out for the same number of *wall* nanoseconds (yielding while
    /// waiting). This keeps the real execution's arrival order consistent
    /// with virtual ready times, which matters twice on an oversubscribed
    /// host: (a) FIFO queue locks otherwise admit threads whose virtual
    /// non-critical section has not elapsed yet, stalling the virtual
    /// handoff chain on order inversions, and (b) a TATAS releaser
    /// otherwise instantly re-wins the acquisition race and degenerates
    /// into single-thread lock hogging. With pacing, contention (queue
    /// depth, batch composition) forms in real time exactly when the
    /// modelled load would form it.
    pub pace_wall: bool,
    /// Multiplier applied to every paced duration (`None` = auto-scale
    /// with the thread count). Pacing must out-scale the host's scheduler
    /// round — with T yielding threads on one CPU a "round" costs roughly
    /// T×switch-latency — or the paced waits all collapse to one round and
    /// the modelled utilization ratio is lost. Scaling CS and non-CS by
    /// the same κ preserves the ratio that determines queue depth.
    pub pace_scale: Option<u64>,
    /// Memory-system latency model.
    pub cost: CostModel,
    /// Thread layout.
    pub placement: Placement,
    /// `Some(patience)` switches to abortable acquisition (Figure 6).
    /// Consumed by the [`run_lbench`] wrapper (which forwards it into its
    /// [`Scenario`]); `run_scenario` itself takes patience from the
    /// scenario.
    pub patience_ns: Option<u64>,
    /// Handoff policy for cohort locks (`None` = each lock's default,
    /// i.e. the paper's `CountBound(64)`). Ignored by non-cohort locks.
    pub policy: Option<PolicySpec>,
    /// Percentage of operations taking the **read** side (0–100). Only
    /// meaningful to [`run_rw_lbench`] (which forwards it into its
    /// [`Scenario`]); the exclusive wrapper and `run_scenario` ignore it.
    pub read_pct: u32,
    /// Wall-clock safety net: the run is cut off after this much real time
    /// regardless of virtual progress.
    pub max_wall: Duration,
    /// Virtual or wall time.
    pub mode: TimeMode,
    /// Topology backend: virtual clusters (the default) or the measured
    /// cluster map with physical worker pinning (`LBENCH_TOPOLOGY`, see
    /// [`crate::phys`]). With `Measured`, the probe's cluster count
    /// overrides `clusters` for the run; on single-CPU machines or when
    /// probing fails, the run falls back to virtual clusters with one
    /// logged warning.
    pub topology: crate::phys::TopologyMode,
}

impl Default for LBenchConfig {
    fn default() -> Self {
        LBenchConfig {
            threads: 4,
            clusters: 4,
            window_ns: 20_000_000, // 20 ms virtual
            cs_lines: 2,
            cs_extra_ns: 16,
            noncs_max_ns: 4_000,
            cs_yields: 0,
            pace_wall: true,
            pace_scale: None,
            cost: CostModel::t5440(),
            placement: Placement::RoundRobin,
            patience_ns: None,
            policy: None,
            read_pct: 0,
            max_wall: Duration::from_secs(20),
            mode: TimeMode::Virtual,
            topology: crate::phys::TopologyMode::Virtual,
        }
    }
}

/// Everything one LBench run measures.
#[derive(Clone, Debug)]
pub struct LBenchResult {
    /// Lock under test.
    pub kind: LockKind,
    /// Thread count of the run.
    pub threads: usize,
    /// Critical sections completed, per thread (fairness data, Figure 5).
    pub per_thread_ops: Vec<u64>,
    /// Total critical sections completed.
    pub total_ops: u64,
    /// Critical+non-critical pairs per second of modelled time (Figure 2).
    pub throughput: f64,
    /// Lock acquisitions observed by the handoff channel.
    pub acquisitions: u64,
    /// Cross-cluster lock migrations.
    pub migrations: u64,
    /// Coherence misses per critical section — data lines plus the lock
    /// handoff itself (Figure 3).
    pub misses_per_cs: f64,
    /// Mean same-cluster batch length (§4.1.2's dynamic batching).
    pub mean_batch: f64,
    /// Timed-out acquisitions (abortable mode).
    pub aborts: u64,
    /// aborts / attempts (the paper keeps this below 1%).
    pub abort_rate: f64,
    /// Standard deviation of per-thread throughput as % of mean (Figure 5).
    pub stddev_pct: f64,
    /// Handoff-policy label of the run (`None` for non-cohort locks).
    pub policy: Option<String>,
    /// Cohort tenures (global-lock acquisitions) — 0 for non-cohort locks.
    pub tenures: u64,
    /// Intra-cluster handoffs — 0 for non-cohort locks.
    pub local_handoffs: u64,
    /// Mean local-handoff streak per tenure (from the policy counters).
    pub mean_streak: f64,
    /// Longest local-handoff streak of any tenure.
    pub max_streak: u64,
    /// Cross-cluster migrations per cohort tenure (NaN-free: 0 when no
    /// tenures were observed).
    pub migrations_per_tenure: f64,
    /// Power-of-two histogram of same-cluster batch lengths (bucket i
    /// counts batches of length in [2^i, 2^(i+1)); §4.1.2's batching).
    pub batch_hist: Vec<u64>,
    /// Real time the run took (diagnostics only).
    pub wall: Duration,
}

/// Runs LBench for `kind` under `cfg` (honoring `cfg.policy` for cohort
/// locks). Compatibility wrapper: submits the steady exclusive
/// [`Scenario`] to [`run_scenario`].
pub fn run_lbench(kind: LockKind, cfg: &LBenchConfig) -> LBenchResult {
    run_scenario(
        AnyLockKind::Excl(kind),
        &Scenario::from_exclusive_config(cfg),
        cfg,
    )
    .into_lbench()
}

/// Runs LBench against an already-constructed lock (used by ablations
/// that build cohort locks with non-default policies). Compatibility
/// wrapper: erases the lock through [`MutexAsRw`] and submits the steady
/// exclusive [`Scenario`] to [`run_scenario_on`].
pub fn run_lbench_on(
    kind: LockKind,
    lock: Arc<dyn BenchLock>,
    topo: Arc<Topology>,
    cfg: &LBenchConfig,
) -> LBenchResult {
    run_scenario_on(
        AnyLockKind::Excl(kind),
        Arc::new(MutexAsRw::new(lock)),
        topo,
        &Scenario::from_exclusive_config(cfg),
        cfg,
    )
    .into_lbench()
}

// ---------------------------------------------------------------------------
// The reader-writer variant (the fig_rw exhibit)

/// Everything one reader-writer LBench run measures.
#[derive(Clone, Debug)]
pub struct RwBenchResult {
    /// Lock under test.
    pub kind: RwLockKind,
    /// Thread count of the run.
    pub threads: usize,
    /// Read percentage the mix was configured with.
    pub read_pct: u32,
    /// Read-side critical sections completed.
    pub read_ops: u64,
    /// Write-side critical sections completed.
    pub write_ops: u64,
    /// All critical sections completed.
    pub total_ops: u64,
    /// Critical sections completed, per thread (fairness data).
    pub per_thread_ops: Vec<u64>,
    /// Operations per second of modelled time.
    pub throughput: f64,
    /// Exclusive-lock acquisitions observed by the handoff channel
    /// (writes, plus reads when the lock's read side is exclusive).
    pub exclusive_acquisitions: u64,
    /// Cross-cluster migrations of the exclusive lock.
    pub migrations: u64,
    /// Standard deviation of per-thread throughput as % of mean.
    pub stddev_pct: f64,
    /// Handoff-policy label bounding writer tenures (`None` for
    /// non-cohort locks).
    pub policy: Option<String>,
    /// Writer tenures (0 for non-cohort locks).
    pub tenures: u64,
    /// Intra-cluster writer handoffs (0 for non-cohort locks).
    pub local_handoffs: u64,
    /// Mean writer-handoff streak per tenure.
    pub mean_streak: f64,
    /// Longest writer-handoff streak of any tenure.
    pub max_streak: u64,
    /// Real time the run took (diagnostics only).
    pub wall: Duration,
}

/// Runs the read/write-mix variant of LBench: each thread flips a
/// `cfg.read_pct`-weighted coin per iteration, takes the corresponding
/// side of `kind`, touches the shared lines (reads read them, writes
/// write them), and idles — the same virtual-time accounting as
/// [`run_lbench`], with one twist: **shared** read acquisitions skip the
/// handoff channel (concurrent readers serialize on nothing), while
/// writes — and reads on a lock whose read side is secretly exclusive
/// ([`read_is_exclusive`](crate::BenchRwLock::read_is_exclusive)) — are
/// charged through it. Compatibility wrapper over [`run_scenario`].
pub fn run_rw_lbench(kind: RwLockKind, cfg: &LBenchConfig) -> RwBenchResult {
    assert!(cfg.read_pct <= 100, "read_pct is a percentage");
    run_scenario(AnyLockKind::Rw(kind), &Scenario::from_rw_config(cfg), cfg).into_rw()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::cluster_for;

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
        let r = run_lbench(LockKind::Mcs, &quick_cfg(1));
        assert!(r.total_ops > 10, "got {} ops", r.total_ops);
        assert_eq!(r.migrations, 0, "one thread cannot migrate the lock");
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn multi_thread_run_counts_everything() {
        let r = run_lbench(LockKind::CBoMcs, &quick_cfg(4));
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
        let r = run_lbench(LockKind::Ticket, &quick_cfg(2));
        assert_eq!(r.policy, None);
        assert_eq!(r.tenures, 0);
        assert_eq!(r.local_handoffs, 0);
        assert_eq!(r.migrations_per_tenure, 0.0);
    }

    #[test]
    fn config_policy_is_honored_and_labelled() {
        let mut cfg = quick_cfg(4);
        cfg.policy = Some(cohort::PolicySpec::NeverPass);
        let r = run_lbench(LockKind::CTktMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("never-pass"));
        assert_eq!(r.local_handoffs, 0, "NeverPass forbids local handoffs");
        assert_eq!(r.tenures, r.total_ops);

        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        let r = run_lbench(LockKind::CBoMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn cohort_lock_migrates_less_than_mcs() {
        // The paper's central claim, in miniature: with 8 threads over 4
        // clusters (two cluster-mates each), plain MCS interleaves
        // clusters while a cohort lock batches them.
        let cfg = quick_cfg(8);
        let mcs = run_lbench(LockKind::Mcs, &cfg);
        let cohort = run_lbench(LockKind::CTktMcs, &cfg);
        let mcs_rate = mcs.migrations as f64 / mcs.acquisitions.max(1) as f64;
        let cohort_rate = cohort.migrations as f64 / cohort.acquisitions.max(1) as f64;
        assert!(
            cohort_rate < mcs_rate,
            "cohort migration rate {cohort_rate:.3} should undercut MCS {mcs_rate:.3}"
        );
    }

    #[test]
    fn abortable_mode_records_aborts_without_deadlock() {
        let mut cfg = quick_cfg(4);
        cfg.patience_ns = Some(50_000); // 50 µs: aggressive, forces aborts
        let r = run_lbench(LockKind::ACBoClh, &cfg);
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
        let r = run_lbench(LockKind::Ticket, &cfg);
        assert!(r.total_ops > 0);
        assert!(r.wall >= Duration::from_millis(25));
    }

    #[test]
    fn patience_zero_aborts_do_not_wedge_the_run() {
        let cfg = LBenchConfig {
            threads: 4,
            window_ns: 1_000_000,
            patience_ns: Some(1), // hopeless patience: mostly aborts
            ..Default::default()
        };
        let r = run_lbench(LockKind::ACBoBo, &cfg);
        // The run must terminate (stop flag via abort charges) and count
        // consistently.
        assert!(r.aborts > 0 || r.total_ops > 0);
    }

    #[test]
    fn rw_run_counts_both_sides() {
        let mut cfg = quick_cfg(4);
        cfg.read_pct = 50;
        let r = run_rw_lbench(RwLockKind::CRwWpBoMcs, &cfg);
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
        let mut cfg = quick_cfg(4);
        cfg.read_pct = 100;
        let r = run_rw_lbench(RwLockKind::CRwNeutralBoMcs, &cfg);
        assert!(r.read_ops > 0);
        assert_eq!(r.write_ops, 0);
        assert_eq!(r.tenures, 0, "no writer ever entered");
        assert_eq!(
            r.exclusive_acquisitions, 0,
            "shared reads skip the handoff channel"
        );
    }

    #[test]
    fn rw_exclusive_baseline_charges_reads_through_handoff() {
        let mut cfg = quick_cfg(2);
        cfg.read_pct = 100;
        let r = run_rw_lbench(RwLockKind::MutexCBoMcs, &cfg);
        assert!(r.read_ops > 0);
        assert_eq!(
            r.exclusive_acquisitions, r.read_ops,
            "exclusive 'reads' serialize like writes"
        );
    }

    #[test]
    fn rw_policy_is_honored_for_writer_tenures() {
        let mut cfg = quick_cfg(4);
        cfg.read_pct = 20; // write-heavy so streaks actually form
        cfg.policy = Some(cohort::PolicySpec::Count { bound: 2 });
        let r = run_rw_lbench(RwLockKind::CRwWpTktMcs, &cfg);
        assert_eq!(r.policy.as_deref(), Some("count(2)"));
        assert!(r.max_streak <= 2, "bound 2 violated: {}", r.max_streak);
    }

    #[test]
    fn crw_outruns_exclusive_baseline_when_read_heavy() {
        // The acceptance shape of the fig_rw exhibit, in miniature: at a
        // 90%+ read ratio the shared read path must at least match the
        // single-writer cohort baseline.
        let mut cfg = quick_cfg(4);
        cfg.read_pct = 90;
        let crw = run_rw_lbench(RwLockKind::CRwWpBoMcs, &cfg);
        let excl = run_rw_lbench(RwLockKind::MutexCBoMcs, &cfg);
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
