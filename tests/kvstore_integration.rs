//! Integration: the key-value store is correct under every cohort lock,
//! the wall-clock store prices nothing, and the priced store's charges
//! are pinned to exact constants.

use coherence_sim::{take_thread_stats, CostModel, Directory, ThreadStats};
use cohort_kvstore::{KvConfig, KvStats, KvStore, ShardLockSpec, ShardedKvStore, SharedKvStore};
use lbench::{KeyDist, LockKind, RwLockKind};
use numa_topology::{current_cluster_in, vclock, ClusterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn shared(kind: LockKind, topo: &Arc<Topology>) -> Arc<SharedKvStore<Arc<Directory>>> {
    let cfg = KvConfig {
        buckets: 512,
        capacity: 4096,
        ..Default::default()
    };
    let dir = Arc::new(Directory::new(
        KvStore::lines_needed(&cfg),
        CostModel::t5440(),
    ));
    Arc::new(SharedKvStore::new(kind.make(topo), KvStore::new(cfg, dir)))
}

/// Each thread owns a key and writes monotonically increasing stamps;
/// a read must never observe a stamp going backwards (single-key
/// linearizability under the cache lock).
fn monotonic_stamps(kind: LockKind) {
    let topo = Arc::new(Topology::new(4));
    let store = shared(kind, &topo);
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let store = Arc::clone(&store);
            let topo = Arc::clone(&topo);
            std::thread::spawn(move || {
                let cl = current_cluster_in(&topo);
                let mut last_seen = 0u64;
                for i in 1..=500u64 {
                    store.set(t, i, cl);
                    let v = store.get(t, cl).expect("own key present");
                    assert!(v >= last_seen, "stamp regressed: {v} < {last_seen}");
                    assert_eq!(v, i, "own writes are immediately visible");
                    last_seen = v;
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(store.stats().hits, 2000);
}

#[test]
fn monotonic_under_c_bo_bo() {
    monotonic_stamps(LockKind::CBoBo);
}

#[test]
fn monotonic_under_c_tkt_tkt() {
    monotonic_stamps(LockKind::CTktTkt);
}

#[test]
fn monotonic_under_c_bo_mcs() {
    monotonic_stamps(LockKind::CBoMcs);
}

#[test]
fn monotonic_under_c_mcs_mcs() {
    monotonic_stamps(LockKind::CMcsMcs);
}

#[test]
fn monotonic_under_abortable_cohort() {
    monotonic_stamps(LockKind::ACBoClh);
}

#[test]
fn eviction_pressure_under_cohort_lock() {
    let topo = Arc::new(Topology::new(4));
    let cfg = KvConfig {
        buckets: 64,
        capacity: 128, // tiny: constant eviction
        ..Default::default()
    };
    let dir = Arc::new(Directory::new(
        KvStore::lines_needed(&cfg),
        CostModel::t5440(),
    ));
    let store = Arc::new(SharedKvStore::new(
        LockKind::CTktMcs.make(&topo),
        KvStore::new(cfg, dir),
    ));
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let store = Arc::clone(&store);
            let topo = Arc::clone(&topo);
            std::thread::spawn(move || {
                let cl = current_cluster_in(&topo);
                for i in 0..2_000u64 {
                    store.set(t * 10_000 + i, i, cl);
                    store.get(t * 10_000 + i.saturating_sub(5), cl);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let st = store.stats();
    assert!(
        st.evictions > 0,
        "capacity 128 must evict under 8000 inserts"
    );
    store.with_lock(|s| assert!(s.len() <= 128));
}

/// A default `ShardedKvStore` is the wall-clock store: building it,
/// warming it and 1 000 mixed ops on both of its paths (exclusive, and
/// the shared read side of an RW cache lock) leave the caller's virtual
/// clock and coherence counters exactly where they were, and its
/// virtual window never closes.
#[test]
fn default_sharded_store_charges_nothing() {
    let topo = Arc::new(Topology::new(4));
    let cfg = KvConfig {
        buckets: 256,
        capacity: 1024,
        ..Default::default()
    };
    for lock in [
        ShardLockSpec::Excl(LockKind::CBoMcs),
        ShardLockSpec::Rw(RwLockKind::CRwWpBoMcs),
    ] {
        vclock::reset();
        vclock::advance(12_345);
        take_thread_stats();
        let s: ShardedKvStore =
            ShardedKvStore::build(4, lock, &topo, None, cfg, CostModel::t5440());
        s.warm(512);
        // A zero window would stop a priced op at once.
        let stop = AtomicBool::new(false);
        for i in 0..1_000u64 {
            let cluster = ClusterId::new((i % 4) as u32);
            s.op(i * 7 % 700, i % 3 != 0, i, cluster, 8, 0, &stop);
        }
        assert_eq!(vclock::now(), 12_345, "{lock:?}: the clock moved");
        assert_eq!(
            take_thread_stats(),
            ThreadStats::default(),
            "{lock:?}: the directory was charged"
        );
        assert!(!stop.into_inner(), "{lock:?}: the window closed");
        let st = s.stats();
        assert_eq!(st.hits + st.misses, 666, "{lock:?}: every get answered");
        assert_eq!(
            st.inserts + st.updates,
            512 + 334,
            "{lock:?}: warm and every set stored"
        );
    }
    vclock::reset();
}

/// The fixed tape the price pins replay: `(key, roll, cluster)` with
/// keys Zipf θ = 0.99 over 2 000, `roll < 90` a get, and clusters
/// cycling 0–3.
fn price_tape() -> Vec<(u64, u32, ClusterId)> {
    let mut rng = StdRng::seed_from_u64(7);
    let dist = KeyDist::Zipfian { theta: 0.99 };
    (0..20_000u32)
        .map(|i| {
            let key = dist.sample(&mut rng, 2_000);
            (key, rng.gen_range(0u32..100), ClusterId::new(i % 4))
        })
        .collect()
}

const PIN_CFG: KvConfig = KvConfig {
    buckets: 4096,
    capacity: 1024,
    value_lines: 2,
    op_compute_ns: 120,
};

/// The priced store's charges over a fixed run, pinned: a warm-up that
/// evicts (2 000 keys inserted high to low into 1 024 slots, so the hot
/// keys stay), then the tape with 2 % deletes. How the store touches its
/// own memory may change; its clock, its directory counters and its
/// `KvStats` may not.
#[test]
fn priced_store_charges_are_pinned() {
    vclock::reset();
    take_thread_stats();
    let dir = Arc::new(Directory::new(
        KvStore::lines_needed(&PIN_CFG),
        CostModel::t5440(),
    ));
    let mut s = KvStore::new(PIN_CFG, dir);
    for k in (0..2_000u64).rev() {
        s.set(k, k, ClusterId::new((k % 4) as u32));
    }
    for (i, (key, roll, cluster)) in price_tape().into_iter().enumerate() {
        match roll {
            0..=89 => {
                s.get(key, cluster);
            }
            90..=97 => s.set(key, i as u64, cluster),
            _ => {
                s.delete(key, cluster);
            }
        }
    }
    let (clock, stats, kv) = (vclock::now(), take_thread_stats(), s.stats());
    vclock::reset();
    assert_eq!(clock, 22_383_840);
    assert_eq!(
        stats,
        ThreadStats {
            accesses: 152_092,
            remote_misses: 85_679,
            cold_misses: 2_561,
            charged_ns: 19_626_720,
        }
    );
    assert_eq!(
        kv,
        KvStats {
            hits: 14_300,
            misses: 3_728,
            updates: 1_230,
            inserts: 2_321,
            evictions: 976,
        }
    );
    assert_eq!(s.lru_keys()[..8], [0, 3, 49, 4, 376, 84, 940, 27]);
}

/// The same tape through `op` on a 4-shard C-BO-MCS sharded store priced
/// by directories and handoff channels: lock rounds, pacing (κ = 0) and
/// the store's lines together are pinned.
#[test]
fn priced_sharded_op_charges_are_pinned() {
    let topo = Arc::new(Topology::new(4));
    vclock::reset();
    take_thread_stats();
    let s: ShardedKvStore<Arc<Directory>> = ShardedKvStore::build(
        4,
        ShardLockSpec::Excl(LockKind::CBoMcs),
        &topo,
        None,
        PIN_CFG,
        CostModel::t5440(),
    );
    s.warm(2_000);
    let stop = AtomicBool::new(false);
    for (i, (key, roll, cluster)) in price_tape().into_iter().enumerate() {
        s.op(key, roll < 90, i as u64, cluster, 0, u64::MAX, &stop);
    }
    let (clock, stats, kv) = (vclock::now(), take_thread_stats(), s.stats());
    vclock::reset();
    assert!(!stop.into_inner(), "the window closed");
    assert_eq!(clock, 34_478_360);
    assert_eq!(
        stats,
        ThreadStats {
            accesses: 176_258,
            remote_misses: 88_795,
            cold_misses: 5_062,
            charged_ns: 21_149_235,
        }
    );
    assert_eq!(
        kv,
        KvStats {
            hits: 18_028,
            misses: 0,
            updates: 1_972,
            inserts: 2_000,
            evictions: 0,
        }
    );
}
