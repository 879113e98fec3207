//! Property test: the key-value store against a HashMap model, including
//! LRU-eviction semantics (evictions only remove least-recently-used keys
//! and only when at capacity), and the priced store against the free one.

use coherence_sim::{CostModel, Directory};
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

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..64).prop_map(|key| Op::Get { key }),
        (0u64..64, any::<u64>()).prop_map(|(key, val)| Op::Set { key, val }),
        (0u64..64).prop_map(|key| Op::Delete { key }),
    ]
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
}
