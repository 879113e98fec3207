//! The store behind an injected lock — the paper's interpose library.

use crate::store::{KvStats, KvStore};
use lbench::BenchRwLock;
use numa_topology::ClusterId;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`KvStore`] guarded by any [`BenchRwLock`] — the paper swapped the
/// lock under memcached via `LD_PRELOAD`; here the lock is a constructor
/// argument and the store code is identical for all 11 lock columns of
/// Table 1.
///
/// The constructor picks how `get`s run. [`new`](Self::new) is the
/// paper's setup: every operation takes the exclusive side.
/// [`with_rw_lock`](Self::with_rw_lock) is the C-RW extension: `get`s
/// run under the read side (via the LRU-free [`KvStore::peek`], with
/// hit/miss counts kept in atomics) and everything else under the write
/// side.
pub struct SharedKvStore {
    lock: Arc<dyn BenchRwLock>,
    /// Whether `get`s take the read side (fixed at construction).
    gets_read: bool,
    store: UnsafeCell<KvStore>,
    /// Read-path hit/miss counts (`gets_read` only; `peek` cannot touch
    /// the store's own counters from under a shared lock).
    rw_hits: AtomicU64,
    rw_misses: AtomicU64,
}

// SAFETY: `store` is touched exclusively (&mut) only under the write side
// of the lock, and shared (&) only under the read side.
unsafe impl Send for SharedKvStore {}
unsafe impl Sync for SharedKvStore {}

impl SharedKvStore {
    /// Wraps `store` behind a cache lock every operation takes
    /// exclusively.
    pub fn new(lock: Arc<dyn BenchRwLock>, store: KvStore) -> Self {
        Self::build(lock, false, store)
    }

    /// Wraps `store` behind a reader-writer cache lock: `get`s take the
    /// read side, everything else the write side.
    pub fn with_rw_lock(lock: Arc<dyn BenchRwLock>, store: KvStore) -> Self {
        Self::build(lock, true, store)
    }

    fn build(lock: Arc<dyn BenchRwLock>, gets_read: bool, store: KvStore) -> Self {
        SharedKvStore {
            lock,
            gets_read,
            store: UnsafeCell::new(store),
            rw_hits: AtomicU64::new(0),
            rw_misses: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the store while holding the cache lock exclusively.
    pub fn with_lock<R>(&self, f: impl FnOnce(&mut KvStore) -> R) -> R {
        self.lock.acquire_write();
        // SAFETY: the write side excludes readers and writers.
        let r = f(unsafe { &mut *self.store.get() });
        self.lock.release_write();
        r
    }

    /// `get` under the cache lock: the full LRU-touching [`KvStore::get`]
    /// under the exclusive side, or the shared-lock [`KvStore::peek`]
    /// under the read side of a store built by
    /// [`with_rw_lock`](Self::with_rw_lock).
    pub fn get(&self, key: u64, cluster: ClusterId) -> Option<u64> {
        if !self.gets_read {
            return self.with_lock(|s| s.get(key, cluster));
        }
        self.lock.acquire_read();
        // SAFETY: the read side excludes writers; `peek` takes
        // `&KvStore`, so concurrent readers are fine.
        let r = unsafe { (*self.store.get()).peek(key, cluster) };
        self.lock.release_read();
        match r {
            Some(_) => self.rw_hits.fetch_add(1, Ordering::Relaxed),
            None => self.rw_misses.fetch_add(1, Ordering::Relaxed),
        };
        r
    }

    /// `set` under the cache lock (always exclusive).
    pub fn set(&self, key: u64, stamp: u64, cluster: ClusterId) {
        self.with_lock(|s| s.set(key, stamp, cluster))
    }

    /// Statistics snapshot: the store's own counters merged (via
    /// [`KvStats::merge`]) with the read-path hit/miss counts kept
    /// outside the store when `get`s run under the read side.
    pub fn stats(&self) -> KvStats {
        let mut stats = self.with_lock(|s| s.stats());
        stats.merge(&KvStats {
            hits: self.rw_hits.load(Ordering::Relaxed),
            misses: self.rw_misses.load(Ordering::Relaxed),
            ..KvStats::default()
        });
        stats
    }

    /// Whether `get`s genuinely share the cache lock (read side in use,
    /// and concurrent). Workload drivers use this to decide whether read
    /// operations must be charged through the handoff channel.
    pub fn reads_are_shared(&self) -> bool {
        self.gets_read && !self.lock.read_is_exclusive()
    }

    /// The cache lock, for its introspection (tenure statistics, policy
    /// label).
    pub fn lock(&self) -> &dyn BenchRwLock {
        &*self.lock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::KvConfig;
    use coherence_sim::{CostModel, Directory};
    use lbench::{LockKind, PthreadLock, RwLockKind};
    use numa_topology::Topology;

    fn kv_store() -> KvStore {
        let cfg = KvConfig {
            buckets: 256,
            // Must exceed the distinct keys any test below inserts (the
            // concurrent ones use up to 2000): a thread descheduled
            // between its set and get must not find its key LRU-evicted
            // by the other threads' inserts, or exact-count assertions
            // flake.
            capacity: 4096,
            ..Default::default()
        };
        let dir = Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        ));
        KvStore::new(cfg, dir)
    }

    fn shared(lock: Arc<dyn BenchRwLock>) -> Arc<SharedKvStore> {
        Arc::new(SharedKvStore::new(lock, kv_store()))
    }

    #[test]
    fn concurrent_sets_and_gets_are_serialized() {
        let topo = Arc::new(Topology::new(4));
        // Exercise a cohort lock under the store, like Table 1 does.
        let s = shared(LockKind::CBoMcs.make(&topo));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                let topo = Arc::clone(&topo);
                std::thread::spawn(move || {
                    let cl = numa_topology::current_cluster_in(&topo);
                    for i in 0..500u64 {
                        let key = t * 1000 + i;
                        s.set(key, key + 7, cl);
                        assert_eq!(s.get(key, cl), Some(key + 7));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = s.stats();
        assert_eq!(st.inserts, 2000);
        assert_eq!(st.hits, 2000);
    }

    #[test]
    fn rw_mode_routes_gets_through_the_read_path() {
        let topo = Arc::new(Topology::new(4));
        let s = Arc::new(SharedKvStore::with_rw_lock(
            RwLockKind::CRwWpBoMcs.make(&topo, None),
            kv_store(),
        ));
        assert!(s.reads_are_shared());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                let topo = Arc::clone(&topo);
                std::thread::spawn(move || {
                    let cl = numa_topology::current_cluster_in(&topo);
                    for i in 0..300u64 {
                        let key = t * 1000 + i;
                        s.set(key, key + 1, cl);
                        assert_eq!(s.get(key, cl), Some(key + 1));
                        assert_eq!(s.get(key + 500_000, cl), None);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let st = s.stats();
        assert_eq!(st.inserts, 1200);
        assert_eq!(st.hits, 1200, "read-path hits are counted");
        assert_eq!(st.misses, 1200, "read-path misses are counted");
        // The cache lock is a cohort-RW lock: writer tenures are visible.
        let cs = s.lock().cohort_stats().expect("cohort stats in RW mode");
        assert_eq!(cs.tenures() + cs.local_handoffs(), 1200 + 1);
        assert_eq!(s.lock().policy_label().as_deref(), Some("count(64)"));
    }

    #[test]
    fn rw_mode_with_exclusive_fallback_reports_itself() {
        // MCS has no shared read side, but the store was built in RW
        // mode: `get` still runs `peek` under the (exclusive) read side
        // and counts hits and misses outside the store, as before.
        let topo = Arc::new(Topology::new(4));
        let s =
            SharedKvStore::with_rw_lock(LockKind::Mcs.make_rw_cache_lock(&topo, None), kv_store());
        assert!(!s.reads_are_shared(), "MCS has no shared read path");
        let cl = ClusterId::new(0);
        s.set(1, 2, cl);
        assert_eq!(s.get(1, cl), Some(2));
        assert_eq!(s.get(7, cl), None);
        assert_eq!(s.rw_hits.load(Ordering::Relaxed), 1, "served by peek");
        assert_eq!(s.rw_misses.load(Ordering::Relaxed), 1);
        let stats = s.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn delete_under_lock() {
        let s = shared(Arc::new(PthreadLock::new()));
        let cl = ClusterId::new(1);
        s.set(9, 90, cl);
        assert!(s.with_lock(|st| st.delete(9, cl)));
        assert_eq!(s.get(9, cl), None);
    }

    #[test]
    fn works_with_pthread_lock_too() {
        let s = shared(Arc::new(PthreadLock::new()));
        s.set(1, 2, ClusterId::new(0));
        assert_eq!(s.get(1, ClusterId::new(0)), Some(2));
        assert!(!s.reads_are_shared());
        assert!(s.lock().cohort_stats().is_none());
    }
}
