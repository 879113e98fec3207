//! The sharded service layer: N [`SharedKvStore`] shards behind one
//! key-hashed front door.
//!
//! Production caches outgrow a single cache lock by partitioning the
//! table — memcached itself grew striped locks in 1.6, and the ROADMAP's
//! production-scale tentpole asks for the same move here. A
//! [`ShardedKvStore`] owns `N` independent [`SharedKvStore`]s, each with
//! its own cache lock (any kind the `LockKind`/`RwLockKind` registry can
//! build, cohort policies included); keys route by a Fibonacci hash of
//! the key. Cross-shard aggregation reuses the layers below:
//! [`KvStats::merge`] for cache counters, [`LockReport::merge`] for what
//! the shard locks and channels saw.
//!
//! The store is priced by its type parameter (see [`Pricing`]). The
//! default, `ShardedKvStore<Free>`, is what a thread on the wall clock
//! runs: hash table, LRU and cache lock, and nothing else.
//! `ShardedKvStore<Arc<Directory>>` gives each shard its own coherence
//! directory and handoff channel and paces each charged critical section
//! into wall time; [`KvServiceFactory`] builds that one.
//!
//! [`KvServiceFactory`] adapts the store to the scenario engine's
//! [`KeyedService`] interface, which is how `table1` and `fig_shards`
//! drive it: one shard reproduces the retired hand-rolled kvstore driver
//! bit for bit (the per-op lock program below is that driver's,
//! verbatim), and the shard count is just another grid axis.

use crate::shared::SharedKvStore;
use crate::store::{lines_needed, KvConfig, KvStats, KvStore};
use coherence_sim::{CostModel, Directory, Free, Pricing};
use lbench::pace::spin_wall;
use lbench::{
    AnyLockKind, KeyedCtx, KeyedOp, KeyedService, KeyedServiceFactory, LBenchConfig, LockKind,
    LockReport, PolicySpec, RwLockKind, Scenario,
};
use numa_topology::{ClusterId, Topology};
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How each shard's cache lock is built from the registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardLockSpec {
    /// A mutual-exclusion cache lock (the paper's setup).
    Excl(LockKind),
    /// A reader-writer kind: `get`s take its shared side.
    Rw(RwLockKind),
}

/// One shard: a lock-guarded store plus the handoff state its exclusive
/// acquisitions are charged through (`()` on a free store).
struct Shard<P: Pricing> {
    store: SharedKvStore<P>,
    handoff: P::Handoff,
}

/// N [`SharedKvStore`] shards behind a key hash, priced by `P` (see the
/// module docs).
pub struct ShardedKvStore<P: Pricing = Free> {
    shards: Vec<Shard<P>>,
}

impl<P: Pricing> ShardedKvStore<P> {
    /// Builds `shards` independent stores, each with its own cache lock
    /// and, when priced, its own directory (sized by
    /// [`KvStore::lines_needed`]) and handoff channel under `cost`. A
    /// free store ignores `cost`. Panics on a zero shard count.
    pub fn build(
        shards: usize,
        lock: ShardLockSpec,
        topo: &Arc<Topology>,
        policy: Option<PolicySpec>,
        store_cfg: KvConfig,
        cost: CostModel,
    ) -> Self {
        assert!(shards >= 1, "a sharded store needs at least one shard");
        let kind = match lock {
            ShardLockSpec::Excl(k) => AnyLockKind::Excl(k),
            ShardLockSpec::Rw(k) => AnyLockKind::Rw(k),
        };
        ShardedKvStore {
            shards: (0..shards)
                .map(|_| {
                    let (price, handoff) = P::build(lines_needed(&store_cfg), cost);
                    let kv = KvStore::priced_by(store_cfg, price);
                    Shard {
                        store: SharedKvStore::new(kind.make(topo, policy), kv),
                        handoff,
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
    ///
    /// Each key's shard is computed once: one pass tags every key with
    /// its shard, and a scan of the tags hands each shard's keys to the
    /// store's bulk `set_all` (the same [`KvStore::set`]s, with bucket
    /// heads prefetched ahead). The tags are dropped before `warm` returns.
    pub fn warm(&self, keyspace: u64) {
        let c0 = ClusterId::new(0);
        assert!(
            u32::try_from(self.shards.len()).is_ok(),
            "a shard index must fit a u32 tag"
        );
        let tags: Vec<u32> = (0..keyspace).map(|k| self.shard_of(k) as u32).collect();
        for (idx, shard) in self.shards.iter().enumerate() {
            let keys = (0..keyspace)
                .zip(&tags)
                .filter(|&(_, &t)| t as usize == idx);
            let items = keys.map(|(k, _)| (k, k));
            shard.store.with_lock(|s| s.set_all(items, c0));
        }
    }

    /// One client operation against the shard `key` hashes to: the
    /// shared-read path when the shard's lock genuinely shares reads,
    /// otherwise the exclusive path.
    ///
    /// A priced store runs the retired driver's per-op lock program:
    /// the exclusive path is charged through the shard's handoff channel,
    /// and either path paces the charged critical section into wall time
    /// (`kappa` × the charge) and raises `stop` once the caller's virtual
    /// clock passes `window_ns`, *inside* the critical section, exactly
    /// where the legacy driver did. A free store charges nothing, so it
    /// ignores `kappa`, `window_ns` and `stop`: its op is the lock and the
    /// table alone.
    #[allow(clippy::too_many_arguments)]
    pub fn op(
        &self,
        key: u64,
        is_get: bool,
        stamp: u64,
        cluster: ClusterId,
        kappa: u64,
        window_ns: u64,
        stop: &AtomicBool,
    ) {
        let shard = &self.shards[self.shard_of(key)];
        if is_get && shard.store.reads_are_shared() {
            // Read path: concurrent readers serialize on nothing, so no
            // handoff-channel charge — their clocks advance
            // independently, which is exactly the parallelism the RW
            // lock buys.
            paced::<P>(kappa, window_ns, stop, || {
                shard.store.get(key, cluster);
            });
        } else {
            shard.store.with_lock(|s| {
                P::acquired(&shard.handoff, cluster);
                paced::<P>(kappa, window_ns, stop, || {
                    if is_get {
                        s.get(key, cluster);
                    } else {
                        s.set(key, stamp, cluster);
                    }
                });
                P::released(&shard.handoff, cluster);
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
}

impl ShardedKvStore<Arc<Directory>> {
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

/// Runs the critical section `cs`. On a priced sink it then holds in
/// wall time what `cs` charged (see lbench's pacing docs) and raises
/// `stop` once the caller's clock reaches `window_ns`; on a free sink it
/// is `cs` alone.
#[inline(always)]
fn paced<P: Pricing>(kappa: u64, window_ns: u64, stop: &AtomicBool, cs: impl FnOnce()) {
    if !P::PRICED {
        return cs();
    }
    let cs_start = P::clock();
    cs();
    let charged = P::clock().saturating_sub(cs_start);
    spin_wall((charged * kappa).min(100_000), true);
    if P::clock() >= window_ns {
        stop.store(true, Ordering::Relaxed);
    }
}

/// [`KeyedServiceFactory`] building a priced [`ShardedKvStore`] for the
/// scenario engine: the engine's lock kind and the config's policy pick
/// each shard's cache lock, `cost` prices it, and the warm phase
/// preloads `keyspace`.
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
}

impl KeyedServiceFactory for KvServiceFactory {
    fn build(
        &self,
        kind: AnyLockKind,
        topo: &Arc<Topology>,
        _scenario: &Scenario,
        cfg: &LBenchConfig,
    ) -> Arc<dyn KeyedService> {
        let lock = match kind {
            AnyLockKind::Excl(k) => ShardLockSpec::Excl(k),
            AnyLockKind::Rw(k) => ShardLockSpec::Rw(k),
        };
        let store = ShardedKvStore::<Arc<Directory>>::build(
            self.shards,
            lock,
            topo,
            cfg.policy,
            self.store,
            self.cost,
        );
        store.warm(self.keyspace);
        Arc::new(KvService { store })
    }
}

/// The [`KeyedService`] face of a priced [`ShardedKvStore`].
struct KvService {
    store: ShardedKvStore<Arc<Directory>>,
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

    fn shards(&self) -> usize {
        self.store.shard_count()
    }

    fn shard_of(&self, key: u64) -> usize {
        self.store.shard_of(key)
    }

    fn report(&self) -> LockReport {
        self.store.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Dump;

    fn store(shards: usize, lock: ShardLockSpec) -> ShardedKvStore<Arc<Directory>> {
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
        let stop = AtomicBool::new(false);
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
        let stop = AtomicBool::new(false);
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
        let stop = AtomicBool::new(false);
        let cl = ClusterId::new(1);
        for k in 0..200u64 {
            s.op(k, true, 0, cl, 0, u64::MAX, &stop);
        }
        assert_eq!(s.stats().hits, 200, "read-path hits folded in via merge");
        assert_eq!(s.report().acquisitions, 0, "shared gets bypass the channel");
    }

    /// The loop `warm` replaced: each shard's lock once, in shard order,
    /// every key re-hashed per shard and its own `set` in ascending order.
    fn warm_by_reference<P: Pricing>(s: &ShardedKvStore<P>, keyspace: u64) {
        let c0 = ClusterId::new(0);
        for (idx, shard) in s.shards.iter().enumerate() {
            shard.store.with_lock(|st| {
                for k in (0..keyspace).filter(|&k| s.shard_of(k) == idx) {
                    st.set(k, k, c0);
                }
            });
        }
    }

    /// Warms a fresh store with `warm` or with `reference`, and returns
    /// every shard's canonical dump with the thread's directory counters
    /// and virtual clock over the warm.
    fn warmed<P: Pricing>(
        shards: usize,
        keyspace: u64,
        reference: bool,
    ) -> (Vec<Dump>, coherence_sim::ThreadStats, u64) {
        // Few buckets and a small capacity: chains collide and the larger
        // keyspaces evict.
        let cfg = KvConfig {
            buckets: 8,
            capacity: 16,
            ..Default::default()
        };
        let topo = Arc::new(Topology::new(4));
        let lock = ShardLockSpec::Excl(LockKind::CBoMcs);
        let s = ShardedKvStore::<P>::build(shards, lock, &topo, None, cfg, CostModel::t5440());
        numa_topology::vclock::reset();
        coherence_sim::take_thread_stats();
        if reference {
            warm_by_reference(&s, keyspace);
        } else {
            s.warm(keyspace);
        }
        let charged = (
            coherence_sim::take_thread_stats(),
            numa_topology::vclock::now(),
        );
        numa_topology::vclock::reset();
        let dumps = s
            .shards
            .iter()
            .map(|sh| sh.store.with_lock(|st| st.canonical_dump()))
            .collect();
        (dumps, charged.0, charged.1)
    }

    /// `warm` leaves every shard field for field as the per-shard `set`
    /// loop does, and charges a priced store exactly what the loop does:
    /// around the prefetch distance (15, 16, 17 keys on one shard), with
    /// nothing to set, and past capacity, where inserts evict.
    #[test]
    fn warm_matches_the_per_shard_set_loop() {
        for shards in [1, 3, 4, 8] {
            for keyspace in [0, 1, 15, 16, 17, 40 * shards as u64] {
                let case = format!("{shards} shards, {keyspace} keys");
                let free = warmed::<Free>(shards, keyspace, false);
                assert_eq!(free, warmed::<Free>(shards, keyspace, true), "{case}");
                let priced = warmed::<Arc<Directory>>(shards, keyspace, false);
                let by_loop = warmed::<Arc<Directory>>(shards, keyspace, true);
                assert_eq!(priced, by_loop, "{case}, priced");
                assert_eq!(priced.0, free.0, "{case}: one body at both prices");
                let inserted: u64 = free.0.iter().map(|d| d.4.inserts).sum();
                assert_eq!(inserted, keyspace, "{case}");
                if keyspace == 40 * shards as u64 {
                    assert!(free.0.iter().any(|d| d.4.evictions > 0), "{case}");
                }
            }
        }
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
