//! The store behind an injected lock — the paper's interpose library.

use crate::store::{KvStats, KvStore};
use coherence_sim::{Free, Pricing};
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
/// The lock picks how `get`s run. Under an exclusive lock (the paper's
/// setup) every operation takes the exclusive side. Under a lock with a
/// shared read side (the C-RW extension) `get`s run under the read side
/// (via the LRU-free [`KvStore::peek`], with hit/miss counts kept in
/// atomics) and everything else under the write side.
///
/// `P` prices the store inside (see [`KvStore`]); the locking is the same
/// for both prices.
pub struct SharedKvStore<P = Free> {
    lock: Arc<dyn BenchRwLock>,
    /// Whether `get`s take the read side: `!lock.read_is_exclusive()`,
    /// read once at construction so `get` makes no virtual call to
    /// decide.
    gets_read: bool,
    store: UnsafeCell<KvStore<P>>,
    /// Read-path hit/miss counts (`gets_read` only; `peek` cannot touch
    /// the store's own counters from under a shared lock).
    rw_hits: AtomicU64,
    rw_misses: AtomicU64,
}

// SAFETY: `store` is touched exclusively (&mut) only under the write side
// of the lock, and shared (&) only under the read side — so the sink moves
// between threads with the store (`Send`) and is shared by concurrent
// readers (`Sync`).
unsafe impl<P: Send> Send for SharedKvStore<P> {}
unsafe impl<P: Send + Sync> Sync for SharedKvStore<P> {}

impl<P: Pricing> SharedKvStore<P> {
    /// Wraps `store` behind `lock`: `get`s take its read side when that
    /// side is shared, everything else takes the write side.
    pub fn new(lock: Arc<dyn BenchRwLock>, store: KvStore<P>) -> Self {
        SharedKvStore {
            gets_read: !lock.read_is_exclusive(),
            lock,
            store: UnsafeCell::new(store),
            rw_hits: AtomicU64::new(0),
            rw_misses: AtomicU64::new(0),
        }
    }

    /// Runs `f` on the store while holding the cache lock exclusively.
    pub fn with_lock<R>(&self, f: impl FnOnce(&mut KvStore<P>) -> R) -> R {
        self.lock.acquire_write();
        // SAFETY: the write side excludes readers and writers.
        let r = f(unsafe { &mut *self.store.get() });
        self.lock.release_write();
        r
    }

    /// `get` under the cache lock: the full LRU-touching [`KvStore::get`]
    /// under the exclusive side, or the shared-lock [`KvStore::peek`]
    /// under a shared read side.
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

    /// Whether `get`s share the cache lock. Workload drivers use this to
    /// decide whether read operations must be charged through the
    /// handoff channel.
    pub fn reads_are_shared(&self) -> bool {
        self.gets_read
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
    use crate::store::{lines_needed, KvConfig};
    use coherence_sim::{CostModel, Directory};
    use lbench::{LockKind, PthreadLock, RawAdapter, RwLockKind};
    use numa_topology::Topology;

    /// An empty store priced by `P`.
    fn kv_store<P: Pricing>() -> KvStore<P> {
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
        let (price, _) = P::build(lines_needed(&cfg), CostModel::t5440());
        KvStore::priced_by(cfg, price)
    }

    fn shared<P: Pricing>(lock: Arc<dyn BenchRwLock>) -> Arc<SharedKvStore<P>> {
        Arc::new(SharedKvStore::new(lock, kv_store()))
    }

    /// The locking is the same at both prices.
    #[test]
    fn concurrent_sets_and_gets_are_serialized() {
        sets_and_gets_serialize::<Arc<Directory>>();
        sets_and_gets_serialize::<Free>();
    }

    fn sets_and_gets_serialize<P: Pricing + Send + Sync + 'static>() {
        let topo = Arc::new(Topology::new(4));
        // Exercise a cohort lock under the store, like Table 1 does.
        let s = shared::<P>(LockKind::CBoMcs.make(&topo));
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
        gets_take_the_read_path::<Arc<Directory>>();
        gets_take_the_read_path::<Free>();
    }

    fn gets_take_the_read_path<P: Pricing + Send + Sync + 'static>() {
        let topo = Arc::new(Topology::new(4));
        let s = shared::<P>(RwLockKind::CRwWpBoMcs.make(&topo, None));
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
    fn delete_under_lock() {
        let s = shared::<Free>(Arc::new(RawAdapter::new(PthreadLock::new())));
        let cl = ClusterId::new(1);
        s.set(9, 90, cl);
        assert!(s.with_lock(|st| st.delete(9, cl)));
        assert_eq!(s.get(9, cl), None);
    }

    #[test]
    fn works_with_pthread_lock_too() {
        let s = shared::<Free>(Arc::new(RawAdapter::new(PthreadLock::new())));
        s.set(1, 2, ClusterId::new(0));
        assert_eq!(s.get(1, ClusterId::new(0)), Some(2));
        assert!(!s.reads_are_shared());
        assert!(s.lock().cohort_stats().is_none());
    }
}
