//! The sharded service layer: N [`SharedKvStore`] shards behind one
//! key-hashed front door.
//!
//! Production caches outgrow a single cache lock by partitioning the
//! table — memcached itself grew striped locks in 1.6, and the ROADMAP's
//! production-scale tentpole asks for the same move here. A
//! [`ShardedKvStore`] owns `N` independent [`SharedKvStore`]s, each with
//! its own cache lock (any kind the `LockKind`/`RwLockKind` registry can
//! build, cohort policies included), its own coherence directory, and
//! its own handoff channel; keys route by a Fibonacci hash of the key.
//! Cross-shard aggregation reuses the layers below: [`KvStats::merge`]
//! for cache counters, [`LockReport::merge`] for what the shard locks
//! and channels saw.
//!
//! [`KvServiceFactory`] adapts the store to the scenario engine's
//! [`KeyedService`] interface, which is how `table1` and `fig_shards`
//! drive it: one shard reproduces the retired hand-rolled kvstore driver
//! bit for bit (the per-op lock program below is that driver's,
//! verbatim), and the shard count is just another grid axis.

use crate::shared::SharedKvStore;
use crate::store::{KvConfig, KvStats, KvStore};
use coherence_sim::{CostModel, Directory, HandoffChannel};
use lbench::pace::spin_wall;
use lbench::{
    AnyLockKind, KeyedCtx, KeyedOp, KeyedService, KeyedServiceFactory, LBenchConfig, LockKind,
    LockReport, PolicySpec, RwLockKind, Scenario,
};
use numa_topology::{vclock, ClusterId, Topology};
use rand::rngs::StdRng;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// How each shard's cache lock is built from the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardLockSpec {
    /// A mutual-exclusion cache lock (the paper's setup).
    Excl(LockKind),
    /// An exclusive kind mapped through
    /// [`LockKind::make_rw_cache_lock`] — the legacy `KV_RW=1` path:
    /// `get`s take the shared side where the kind has one, and fall back
    /// to exclusive where it does not.
    ExclAsRw(LockKind),
    /// A genuine reader-writer kind.
    Rw(RwLockKind),
}

/// One shard: a lock-guarded store plus the handoff channel its
/// exclusive acquisitions are charged through.
struct Shard {
    store: SharedKvStore,
    handoff: HandoffChannel,
}

/// N [`SharedKvStore`] shards behind a key hash (see the module docs).
pub struct ShardedKvStore {
    shards: Vec<Shard>,
}

impl ShardedKvStore {
    /// Builds `shards` independent stores, each with its own directory
    /// (sized by [`KvStore::lines_needed`]), cache lock, and handoff
    /// channel. Panics on a zero shard count.
    pub fn build(
        shards: usize,
        lock: ShardLockSpec,
        topo: &Arc<Topology>,
        policy: Option<PolicySpec>,
        store_cfg: KvConfig,
        cost: CostModel,
    ) -> Self {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        ShardedKvStore {
            shards: (0..shards)
                .map(|_| {
                    let dir = Arc::new(Directory::new(KvStore::lines_needed(&store_cfg), cost));
                    let kv = KvStore::new(store_cfg, dir);
                    let store = match lock {
                        ShardLockSpec::Excl(k) => {
                            SharedKvStore::new(AnyLockKind::Excl(k).make(topo, policy), kv)
                        }
                        ShardLockSpec::ExclAsRw(k) => {
                            SharedKvStore::with_rw_lock(k.make_rw_cache_lock(topo, policy), kv)
                        }
                        ShardLockSpec::Rw(k) => {
                            SharedKvStore::with_rw_lock(k.make(topo, policy), kv)
                        }
                    };
                    Shard {
                        store,
                        handoff: HandoffChannel::new(cost),
                    }
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to: a Fibonacci hash, taking bits disjoint
    /// from the ones [`KvStore`] uses for its bucket index so shard and
    /// bucket placement stay decorrelated.
    pub fn shard_of(&self, key: u64) -> usize {
        ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize) % self.shards.len()
    }

    /// Warm phase: populates `0..keyspace` (memaslap's preload), one
    /// lock acquisition per shard, keys in ascending order within each —
    /// at one shard this is exactly the legacy driver's single
    /// `with_lock` populate, which the `NeverPass` tenure-count parity
    /// test depends on.
    pub fn warm(&self, keyspace: u64) {
        let c0 = ClusterId::new(0);
        for (idx, shard) in self.shards.iter().enumerate() {
            shard.store.with_lock(|s| {
                for k in (0..keyspace).filter(|&k| self.shard_of(k) == idx) {
                    s.set(k, k, c0);
                }
            });
        }
    }

    /// One client operation — the retired driver's per-op lock program,
    /// against the shard `key` hashes to: shared-read path when the
    /// shard's lock genuinely shares reads, otherwise the exclusive path
    /// charged through the shard's handoff channel; either path pacing
    /// the charged critical section into wall time and stop-checking the
    /// window *inside* the critical section, exactly where the legacy
    /// driver did.
    #[allow(clippy::too_many_arguments)]
    pub fn op(
        &self,
        key: u64,
        is_get: bool,
        stamp: u64,
        cluster: ClusterId,
        kappa: u64,
        window_ns: u64,
        stop: &std::sync::atomic::AtomicBool,
    ) {
        let shard = &self.shards[self.shard_of(key)];
        if is_get && shard.store.reads_are_shared() {
            // Read path: concurrent readers serialize on nothing, so no
            // handoff-channel charge — their clocks advance
            // independently, which is exactly the parallelism the RW
            // lock buys.
            let cs_start = vclock::now();
            shard.store.get(key, cluster);
            let charged = vclock::now().saturating_sub(cs_start);
            spin_wall((charged * kappa).min(100_000), true);
            if vclock::now() >= window_ns {
                stop.store(true, Ordering::Relaxed);
            }
        } else {
            shard.store.with_lock(|s| {
                shard.handoff.on_acquire(cluster);
                let cs_start = vclock::now();
                if is_get {
                    s.get(key, cluster);
                } else {
                    s.set(key, stamp, cluster);
                }
                let charged = vclock::now().saturating_sub(cs_start);
                // Hold in wall time what the model charged (see lbench
                // pacing docs).
                spin_wall((charged * kappa).min(100_000), true);
                if vclock::now() >= window_ns {
                    stop.store(true, Ordering::Relaxed);
                }
                shard.handoff.on_release(cluster);
            });
        }
    }

    /// Service-wide cache statistics: every shard's snapshot folded
    /// through [`KvStats::merge`].
    pub fn stats(&self) -> KvStats {
        let mut total = KvStats::default();
        for shard in &self.shards {
            total.merge(&shard.store.stats());
        }
        total
    }

    /// What the shard locks and their handoff channels saw, folded
    /// through [`LockReport::merge`]: counters and batch histograms add,
    /// tenure statistics merge (identity at one shard, so single-shard
    /// parity holds exactly), and the first shard's policy label speaks
    /// for all — every shard runs the same lock.
    pub fn report(&self) -> LockReport {
        self.shards
            .iter()
            .map(|s| LockReport::of(&s.handoff, s.store.lock()))
            .reduce(LockReport::merge)
            .expect("a sharded store has at least one shard")
    }
}

/// [`KeyedServiceFactory`] building a [`ShardedKvStore`] for the
/// scenario engine: the engine's lock kind picks each shard's cache
/// lock (`rw` maps exclusive kinds through the RW cache-lock adapter,
/// the legacy `KV_RW=1` path), and the warm phase preloads `keyspace`.
#[derive(Clone, Debug)]
pub struct KvServiceFactory {
    /// Number of shards.
    pub shards: usize,
    /// Keys preloaded by the warm phase (the drive keyspace).
    pub keyspace: u64,
    /// Per-shard store geometry.
    pub store: KvConfig,
    /// Latency model for each shard's directory and handoff channel.
    pub cost: CostModel,
    /// Handoff policy for cohort cache locks (`None` = kind default).
    pub policy: Option<PolicySpec>,
    /// Map exclusive kinds through [`LockKind::make_rw_cache_lock`].
    pub rw: bool,
}

impl KeyedServiceFactory for KvServiceFactory {
    fn build(
        &self,
        kind: AnyLockKind,
        topo: &Arc<Topology>,
        _scenario: &Scenario,
        _cfg: &LBenchConfig,
    ) -> Arc<dyn KeyedService> {
        let lock = match kind {
            AnyLockKind::Excl(k) if self.rw => ShardLockSpec::ExclAsRw(k),
            AnyLockKind::Excl(k) => ShardLockSpec::Excl(k),
            AnyLockKind::Rw(k) => ShardLockSpec::Rw(k),
        };
        let store =
            ShardedKvStore::build(self.shards, lock, topo, self.policy, self.store, self.cost);
        store.warm(self.keyspace);
        Arc::new(KvService { store })
    }
}

/// The [`KeyedService`] face of a [`ShardedKvStore`].
struct KvService {
    store: ShardedKvStore,
}

impl KeyedService for KvService {
    fn op(&self, op: &KeyedOp, ctx: &KeyedCtx<'_>, _rng: &mut StdRng) -> bool {
        self.store.op(
            op.key,
            op.is_read,
            op.stamp,
            ctx.cluster,
            ctx.kappa,
            ctx.window_ns,
            ctx.stop,
        );
        true
    }

    fn report(&self) -> LockReport {
        self.store.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(shards: usize, lock: ShardLockSpec) -> ShardedKvStore {
        let topo = Arc::new(Topology::new(4));
        let cfg = KvConfig {
            buckets: 256,
            capacity: 4096,
            ..Default::default()
        };
        ShardedKvStore::build(shards, lock, &topo, None, cfg, CostModel::t5440())
    }

    #[test]
    fn routing_is_stable_and_covers_every_shard() {
        let s = store(8, ShardLockSpec::Excl(LockKind::CBoMcs));
        let mut seen = [false; 8];
        for k in 0..4096u64 {
            let sh = s.shard_of(k);
            assert_eq!(sh, s.shard_of(k), "routing must be deterministic");
            seen[sh] = true;
        }
        assert!(seen.iter().all(|&b| b), "4096 keys should touch all 8");
    }

    #[test]
    fn warm_then_ops_merge_stats_across_shards() {
        let s = store(4, ShardLockSpec::Excl(LockKind::CBoMcs));
        s.warm(1000);
        assert_eq!(s.stats().inserts, 1000, "warm populates every shard");
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cl = ClusterId::new(0);
        for k in 0..1000u64 {
            s.op(k, true, 0, cl, 0, u64::MAX, &stop);
        }
        let st = s.stats();
        assert_eq!(st.hits, 1000, "every warmed key is a hit");
        assert_eq!(
            s.report().acquisitions,
            1000,
            "each get charged one handoff"
        );
        assert!(!stop.load(Ordering::Relaxed));
    }

    #[test]
    fn one_shard_matches_the_unsharded_interpose_layer() {
        // The shard layer at N=1 must be the plain SharedKvStore wiring:
        // same counters, same policy label, merge() degenerating to
        // identity.
        let s = store(1, ShardLockSpec::Excl(LockKind::CBoMcs));
        s.warm(100);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cl = ClusterId::new(0);
        for k in 0..100u64 {
            s.op(k, false, k, cl, 0, u64::MAX, &stop);
        }
        assert_eq!(s.stats().updates, 100);
        let report = s.report();
        assert_eq!(report.acquisitions, 100);
        let cs = report.cohort.expect("cohort lock has tenure stats");
        assert!(cs.tenures() > 0);
        assert_eq!(report.policy.as_deref(), Some("count(64)"));
    }

    #[test]
    fn rw_shards_share_the_read_path() {
        let s = store(2, ShardLockSpec::Rw(RwLockKind::CRwWpBoMcs));
        s.warm(200);
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cl = ClusterId::new(1);
        for k in 0..200u64 {
            s.op(k, true, 0, cl, 0, u64::MAX, &stop);
        }
        assert_eq!(s.stats().hits, 200, "rw_hits folded in via merge");
        assert_eq!(s.report().acquisitions, 0, "shared gets bypass the channel");
    }

    #[test]
    fn cohort_stats_merge_across_shards() {
        let s = store(4, ShardLockSpec::Excl(LockKind::CBoMcs));
        s.warm(400);
        // warm takes one exclusive tenure per shard.
        let cs = s.report().cohort.expect("merged stats");
        assert_eq!(cs.tenures() + cs.local_handoffs(), 4);
    }
}
