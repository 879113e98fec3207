//! memaslap-style load driver (Table 1 of the paper).
//!
//! The paper drives memcached with memaslap configured for three get/set
//! mixes — 90/10 (read-heavy), 50/50 (mixed), 10/90 (write-heavy) — and
//! reports, per lock and thread count, the speedup over the 1-thread
//! pthread run. This module reproduces the client side of that setup as a
//! **thin wrapper over the scenario engine**: [`KvWorkload`] translates
//! into a keyed [`Scenario`] (the get percentage is the read mix, the key
//! distribution the [`KeyDist`], the store a [`KvServiceFactory`]-built
//! [`ShardedKvStore`](crate::ShardedKvStore)), and [`KvWorkload::run`] is
//! one `run_scenario` call. The hand-rolled measurement loop this module
//! used to carry is gone; the `kv_scenario_parity` integration test pins
//! that the engine reproduces its historical numbers exactly.
//!
//! One deliberate edge: at `get_pct = 0` the engine skips the read/write
//! coin entirely (see [`Scenario`]'s coin rules) where the legacy loop
//! still drew it. Every mix the exhibits run (90/50/10) draws the coin on
//! both paths, so parity holds everywhere it is asserted.

use crate::sharded::KvServiceFactory;
use crate::store::KvConfig;
use coherence_sim::CostModel;
use lbench::{
    run_scenario, AnyLockKind, KeyDist, KeyedSpec, LBenchConfig, Scenario, ScenarioResult,
};
use std::sync::Arc;
use std::time::Duration;

/// The legacy drivers' per-thread RNG seed base (thread `i` seeds
/// `0x6B76 ^ i` — "kv").
const KV_SEED: u64 = 0x6B76;

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct KvWorkload {
    /// Percentage of `get` operations (the paper: 90, 50, 10).
    pub get_pct: u32,
    /// Worker threads (memcached caps at 128; so does the paper).
    pub threads: usize,
    /// NUMA clusters.
    pub clusters: usize,
    /// Store shards (1 = the paper's single cache lock).
    pub shards: usize,
    /// Distinct keys driven by the clients.
    pub keyspace: u64,
    /// Key distribution over the keyspace (the paper's memaslap drives
    /// uniform keys; `fig_shards` sweeps skew).
    pub dist: KeyDist,
    /// Virtual measurement window (ns).
    pub window_ns: u64,
    /// Modelled out-of-lock request handling (parsing, socket work) per
    /// operation — the parallel fraction that sets the Amdahl plateau the
    /// paper's Table 1 shows (~4.5–5× even with perfect locks).
    pub parse_ns: u64,
    /// Store geometry (per shard).
    pub store: KvConfig,
    /// Latency model.
    pub cost: CostModel,
    /// Wall-clock safety net.
    pub max_wall: Duration,
}

impl Default for KvWorkload {
    fn default() -> Self {
        KvWorkload {
            get_pct: 90,
            threads: 4,
            clusters: 4,
            shards: 1,
            keyspace: 8192,
            dist: KeyDist::Uniform,
            window_ns: 10_000_000,
            parse_ns: 6_000,
            store: KvConfig::default(),
            cost: CostModel::t5440(),
            max_wall: Duration::from_secs(60),
        }
    }
}

impl KvWorkload {
    /// The keyed [`Scenario`] this workload describes — shared between
    /// [`run`](Self::run) and the `table1`/`fig_shards` exhibits, so both
    /// drive the identical engine path.
    pub fn scenario(&self) -> Scenario {
        Scenario::steady()
            .with_read_pct(self.get_pct)
            .with_keyed(KeyedSpec {
                keyspace: self.keyspace,
                dist: self.dist.clone(),
                parse_ns: self.parse_ns,
                seed: KV_SEED,
                factory: Arc::new(KvServiceFactory {
                    shards: self.shards,
                    keyspace: self.keyspace,
                    store: self.store,
                    cost: self.cost,
                }),
            })
    }

    /// The engine config this workload describes (see
    /// [`scenario`](Self::scenario)).
    pub fn lbench_config(&self) -> LBenchConfig {
        LBenchConfig {
            threads: self.threads,
            clusters: self.clusters,
            window_ns: self.window_ns,
            max_wall: self.max_wall,
            cost: self.cost,
            ..Default::default()
        }
    }

    /// Runs the workload with `kind` as the cache lock, at each lock's
    /// default policy. Under a reader-writer kind `acquisitions` counts
    /// *exclusive* acquisitions only — shared-side gets serialize on
    /// nothing and bypass the handoff channel, so it undercounts
    /// `total_ops`.
    pub fn run(&self, kind: impl Into<AnyLockKind>) -> ScenarioResult {
        run_scenario(kind.into(), &self.scenario(), &self.lbench_config())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbench::{LockKind, PolicySpec, RwLockKind};

    fn quick(threads: usize, get_pct: u32) -> KvWorkload {
        KvWorkload {
            threads,
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
    fn single_thread_run_completes() {
        let r = quick(1, 90).run(LockKind::Pthread);
        assert!(r.total_ops > 50, "ops {}", r.total_ops);
        assert_eq!(r.migrations, 0);
    }

    #[test]
    fn multithreaded_write_heavy_run() {
        let r = quick(4, 10).run(LockKind::CTktMcs);
        assert!(r.total_ops > 100);
        assert!(r.acquisitions >= r.total_ops);
    }

    #[test]
    fn cache_lock_policy_is_selectable() {
        let w = quick(8, 50);
        let run = |kind: LockKind, policy| {
            let cfg = LBenchConfig {
                policy: Some(policy),
                ..w.lbench_config()
            };
            run_scenario(kind.into(), &w.scenario(), &cfg)
        };
        let r = run(LockKind::CBoMcs, PolicySpec::NeverPass);
        assert_eq!(r.policy.as_deref(), Some("never-pass"));
        assert!(r.total_ops > 0);
        assert_eq!(r.mean_streak, 0.0, "NeverPass forbids local handoffs");
        // Every acquisition is a tenure; the policy also sees the warm
        // phase's populate acquisition, which the handoff channel doesn't.
        assert_eq!(r.tenures, r.acquisitions + 1);

        let bound8 = PolicySpec::Count { bound: 8 };
        let r = run(LockKind::CBoMcs, bound8);
        assert_eq!(r.policy.as_deref(), Some("count(8)"));
        assert!(r.tenures > 0);

        // Non-cohort cache locks ignore the policy and report no tenures.
        let r = run(LockKind::Mcs, bound8);
        assert_eq!(r.policy, None);
        assert_eq!(r.tenures, 0);
    }

    #[test]
    fn rw_mode_runs_read_heavy_mix() {
        let r = quick(4, 90).run(RwLockKind::CRwWpBoMcs);
        assert!(r.total_ops > 100, "ops {}", r.total_ops);
        // The cache lock is now a cohort-RW lock: only the exclusive
        // side flows through the handoff channel, so acquisitions trail
        // total ops (most ops were shared-side gets).
        assert!(
            r.acquisitions < r.total_ops,
            "acquisitions {} should undercount ops {}",
            r.acquisitions,
            r.total_ops
        );
        assert_eq!(r.policy.as_deref(), Some("count(64)"));
        assert!(r.tenures > 0, "writer tenures observed");
    }

    #[test]
    fn rw_mode_beats_mutex_mode_on_read_heavy_mix() {
        // The whole point of the C-RW layer: at 90% gets, routing reads
        // through the shared side must not lose to fully-exclusive ops.
        let mutex = quick(8, 90).run(LockKind::CBoMcs);
        let rw = quick(8, 90).run(RwLockKind::CRwWpBoMcs);
        assert!(
            rw.throughput >= mutex.throughput,
            "rw {:.0} ops/s vs mutex {:.0} ops/s",
            rw.throughput,
            mutex.throughput
        );
    }

    #[test]
    fn rw_mode_falls_back_to_exclusive_for_non_rw_kinds() {
        let r = quick(2, 90).run(LockKind::Mcs);
        assert!(r.total_ops > 0);
        assert!(
            r.acquisitions >= r.total_ops,
            "an exclusive kind charges every op, gets included, through the channel"
        );
        assert_eq!(r.policy, None);
    }

    #[test]
    fn cohort_lock_batches_kv_critical_sections() {
        let mcs = quick(8, 50).run(LockKind::Mcs);
        let cohort = quick(8, 50).run(LockKind::CBoMcs);
        let mcs_rate = mcs.migrations as f64 / mcs.acquisitions.max(1) as f64;
        let cohort_rate = cohort.migrations as f64 / cohort.acquisitions.max(1) as f64;
        assert!(
            cohort_rate < mcs_rate,
            "cohort {cohort_rate:.3} vs mcs {mcs_rate:.3}"
        );
    }

    #[test]
    fn sharded_run_spreads_load_and_keeps_counters_coherent() {
        let mut w = quick(8, 50);
        w.shards = 4;
        let r = w.run(LockKind::CBoMcs);
        assert!(r.total_ops > 100, "ops {}", r.total_ops);
        assert!(
            r.acquisitions >= r.total_ops,
            "every op is exclusive in mutex mode"
        );
        assert!(r.tenures > 0, "shard cohort stats merged");
    }

    #[test]
    fn zipfian_drive_still_completes() {
        let mut w = quick(4, 90);
        w.shards = 2;
        w.dist = KeyDist::Zipfian { theta: 0.9 };
        let r = w.run(LockKind::CBoMcs);
        assert!(r.total_ops > 100, "ops {}", r.total_ops);
    }
}
