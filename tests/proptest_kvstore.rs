//! Property test: the key-value store against a HashMap model, including
//! LRU-eviction semantics (evictions only remove least-recently-used keys
//! and only when at capacity), its LRU order against a recency list, and
//! the priced store against the free one.

use coherence_sim::{CostModel, Directory, Pricing};
use cohort_kvstore::{KvConfig, KvStore};
use numa_topology::ClusterId;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Clone, Debug)]
enum Op {
    Get { key: u64 },
    Set { key: u64, val: u64 },
    Delete { key: u64 },
}

impl Op {
    fn key(&self) -> u64 {
        match *self {
            Op::Get { key } | Op::Set { key, .. } | Op::Delete { key } => key,
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(|key| Op::Get { key }),
        (0u64..64, any::<u64>()).prop_map(|(key, val)| Op::Set { key, val }),
        (0u64..64).prop_map(|key| Op::Delete { key }),
    ]
}

/// A key on a skewed keyspace: half the draws are key 0, the rest keys
/// 1–7, so a hit on the LRU head is the common case.
fn skewed_key() -> impl Strategy<Value = u64> {
    (0u64..14).prop_map(|r| r.saturating_sub(6))
}

fn skewed_op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => skewed_key().prop_map(|key| Op::Get { key }),
        4 => (skewed_key(), any::<u64>()).prop_map(|(key, val)| Op::Set { key, val }),
        1 => skewed_key().prop_map(|key| Op::Delete { key }),
    ]
}

/// Runs `ops` on `store` (capacity 4) beside a recency list of
/// `(key, value)`, most recent first: after every op the store's LRU
/// order is the list, walked from either end, and an insert into a full
/// store evicts the list's tail.
fn lru_follows_recency<P: Pricing>(mut store: KvStore<P>, ops: &[(Op, u32)]) {
    let mut recency: Vec<(u64, u64)> = Vec::new();
    for (op, cluster) in ops {
        let c = ClusterId::new(*cluster);
        let found = recency
            .iter()
            .position(|&(k, _)| k == op.key())
            .map(|i| recency.remove(i));
        match *op {
            Op::Get { key } => {
                prop_assert_eq!(store.get(key, c), found.map(|(_, v)| v));
                if let Some(hit) = found {
                    recency.insert(0, hit);
                }
            }
            Op::Set { key, val } => {
                let evictions = store.stats().evictions;
                store.set(key, val, c);
                if found.is_none() && recency.len() == 4 {
                    let (victim, _) = recency.pop().expect("full");
                    prop_assert_eq!(store.stats().evictions, evictions + 1);
                    prop_assert_eq!(store.peek(victim, c), None, "evicted {}", victim);
                }
                recency.insert(0, (key, val));
            }
            Op::Delete { key } => {
                prop_assert_eq!(store.delete(key, c), found.is_some());
            }
        }
        let keys: Vec<u64> = recency.iter().map(|&(k, _)| k).collect();
        let mut from_tail = store.lru_keys_from_tail();
        from_tail.reverse();
        prop_assert_eq!(&from_tail, &keys, "back links after {:?}", op);
        prop_assert_eq!(store.lru_keys(), keys, "after {:?}", op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn store_matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        // Capacity 64 over a 64-key space: no evictions, exact model match.
        let cfg = KvConfig { buckets: 16, capacity: 64, ..Default::default() };
        let dir = Arc::new(Directory::new(KvStore::lines_needed(&cfg), CostModel::t5440()));
        let mut store = KvStore::new(cfg, dir);
        let mut model: HashMap<u64, u64> = HashMap::new();
        let c = ClusterId::new(0);
        for op in ops {
            match op {
                Op::Get { key } => {
                    prop_assert_eq!(store.get(key, c), model.get(&key).copied());
                }
                Op::Set { key, val } => {
                    store.set(key, val, c);
                    model.insert(key, val);
                }
                Op::Delete { key } => {
                    prop_assert_eq!(store.delete(key, c), model.remove(&key).is_some());
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
    }

    #[test]
    fn capacity_is_never_exceeded(keys in proptest::collection::vec(0u64..10_000, 1..300)) {
        let cfg = KvConfig { buckets: 16, capacity: 32, ..Default::default() };
        let dir = Arc::new(Directory::new(KvStore::lines_needed(&cfg), CostModel::t5440()));
        let mut store = KvStore::new(cfg, dir);
        let c = ClusterId::new(0);
        for (i, &k) in keys.iter().enumerate() {
            store.set(k, i as u64, c);
            prop_assert!(store.len() <= 32);
            // The key just written must be resident.
            prop_assert_eq!(store.get(k, c), Some(i as u64));
        }
    }

    /// One store, two prices: the same operations on a directory-priced
    /// and a free store, from clusters the directory prices differently,
    /// answer alike and leave the same counters and LRU order — evictions
    /// included, since capacity 16 is below the 64-key range.
    #[test]
    fn pricing_never_changes_an_answer(
        ops in proptest::collection::vec((op_strategy(), 0u32..4), 1..300),
    ) {
        let cfg = KvConfig { buckets: 8, capacity: 16, ..Default::default() };
        let dir = Arc::new(Directory::new(KvStore::lines_needed(&cfg), CostModel::t5440()));
        let mut priced = KvStore::new(cfg, dir);
        let mut free = KvStore::unpriced(cfg);
        for (op, cluster) in ops {
            let c = ClusterId::new(cluster);
            match op {
                Op::Get { key } => prop_assert_eq!(priced.get(key, c), free.get(key, c)),
                Op::Set { key, val } => {
                    priced.set(key, val, c);
                    free.set(key, val, c);
                }
                Op::Delete { key } => {
                    prop_assert_eq!(priced.delete(key, c), free.delete(key, c));
                }
            }
            prop_assert_eq!(priced.stats(), free.stats());
            prop_assert_eq!(priced.lru_keys(), free.lru_keys());
        }
    }

    /// LRU order against a recency list, on both prices: head hits
    /// dominate (half the ops on key 0) and capacity 4 under 8 keys evicts.
    #[test]
    fn lru_order_matches_a_recency_list(
        ops in proptest::collection::vec((skewed_op_strategy(), 0u32..4), 1..300),
    ) {
        let cfg = KvConfig { buckets: 8, capacity: 4, ..Default::default() };
        lru_follows_recency(KvStore::unpriced(cfg), &ops);
        let dir = Arc::new(Directory::new(KvStore::lines_needed(&cfg), CostModel::t5440()));
        lru_follows_recency(KvStore::new(cfg, dir), &ops);
    }
}
