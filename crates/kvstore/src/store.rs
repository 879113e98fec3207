//! The hash table + LRU core (memcached's `assoc` + `items`).

use coherence_sim::{Directory, Free, Pricing};
use numa_topology::ClusterId;
use std::sync::Arc;

/// Store geometry and per-operation compute costs.
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Hash-table buckets (power of two).
    pub buckets: usize,
    /// Maximum resident entries; inserting past this evicts the LRU tail.
    pub capacity: usize,
    /// Simulated cache lines occupied by one value (memcached items carry
    /// their value inline; 2 lines ≈ a 100-odd-byte item).
    pub value_lines: usize,
    /// Modelled hash + bookkeeping compute per operation (inside the
    /// lock), beyond the charged line transfers.
    pub op_compute_ns: u64,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            buckets: 4096,
            capacity: 16 * 1024,
            value_lines: 2,
            op_compute_ns: 120,
        }
    }
}

/// Running operation counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KvStats {
    /// get() calls that found the key.
    pub hits: u64,
    /// get() calls that missed.
    pub misses: u64,
    /// set() calls that overwrote an existing entry.
    pub updates: u64,
    /// set() calls that inserted a new entry.
    pub inserts: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl KvStats {
    /// Accumulates `other` into `self`, field by field. This is how the
    /// layered stores aggregate: `SharedKvStore` merges its read-path
    /// counters into the inner store's snapshot, and `ShardedKvStore`
    /// merges every shard's snapshot into one service-wide view.
    pub fn merge(&mut self, other: &KvStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.updates += other.updates;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
    }
}

/// One item: key, a value stamp (stands in for the bytes), hash chain and
/// LRU links. Links are slab indices (`usize::MAX` = none).
#[derive(Clone, Debug)]
struct Entry {
    key: u64,
    stamp: u64,
    hash_next: usize,
    lru_prev: usize,
    lru_next: usize,
}

const NIL: usize = usize::MAX;

/// Lines used for bucket heads (8 per line: 8-byte pointers).
fn bucket_lines(cfg: &KvConfig) -> usize {
    cfg.buckets.div_ceil(8)
}

/// See [`KvStore::lines_needed`]; every price sizes its sink by it.
pub(crate) fn lines_needed(cfg: &KvConfig) -> usize {
    bucket_lines(cfg) + 1 + cfg.capacity * cfg.value_lines
}

/// The single-lock key-value store, priced by `P` (see
/// [`Pricing`]).
///
/// Contract: every method that takes `&mut self` must be called while
/// holding the store's cache lock (see [`SharedKvStore`](crate::SharedKvStore)).
/// `cluster` identifies the NUMA cluster of the calling thread so a
/// priced store can charge local or remote latencies.
///
/// There is one body for both prices. `KvStore<Arc<Directory>>` (built
/// by [`new`](KvStore::new)) reports every metadata line it touches to
/// the directory and its per-op compute to the virtual clock;
/// `KvStore<Free>` (built by [`unpriced`](KvStore::unpriced)) reports to
/// nothing, and its operations are the hash table and LRU alone.
pub struct KvStore<P = Free> {
    cfg: KvConfig,
    buckets: Vec<usize>,
    slab: Vec<Entry>,
    free_slots: Vec<usize>,
    lru_head: usize,
    lru_tail: usize,
    stats: KvStats,
    price: P,
}

impl KvStore<Arc<Directory>> {
    /// Total simulated lines a store with `cfg` needs: bucket heads, one
    /// LRU head/tail line, and `value_lines` per capacity slot.
    pub fn lines_needed(cfg: &KvConfig) -> usize {
        lines_needed(cfg)
    }

    /// Creates an empty store charging through `dir` (which must have at
    /// least [`lines_needed`](Self::lines_needed) lines).
    pub fn new(cfg: KvConfig, dir: Arc<Directory>) -> Self {
        assert!(dir.len() >= lines_needed(&cfg), "directory too small");
        KvStore::priced_by(cfg, dir)
    }
}

impl KvStore<Free> {
    /// Creates an empty store that charges nothing.
    pub fn unpriced(cfg: KvConfig) -> Self {
        KvStore::priced_by(cfg, Free)
    }
}

impl<P: Pricing> KvStore<P> {
    /// Creates an empty store reporting to `price`, which covers at least
    /// [`lines_needed`] lines.
    pub(crate) fn priced_by(cfg: KvConfig, price: P) -> Self {
        assert!(cfg.buckets.is_power_of_two(), "buckets must be 2^k");
        KvStore {
            buckets: vec![NIL; cfg.buckets],
            slab: Vec::with_capacity(cfg.capacity),
            free_slots: Vec::new(),
            lru_head: NIL,
            lru_tail: NIL,
            stats: KvStats::default(),
            cfg,
            price,
        }
    }

    /// Operation statistics so far.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free_slots.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn hash(&self, key: u64) -> usize {
        // Fibonacci hashing; memcached uses Bob Jenkins', any mixer works.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & (self.cfg.buckets - 1)
    }

    /// Directory line of bucket `b`'s head pointer.
    #[inline]
    fn bucket_line(&self, b: usize) -> usize {
        b / 8
    }

    /// Directory line of the LRU head/tail pointers.
    #[inline]
    fn lru_line(&self) -> usize {
        bucket_lines(&self.cfg)
    }

    /// First directory line of slot `s`'s item.
    #[inline]
    fn entry_line(&self, s: usize) -> usize {
        bucket_lines(&self.cfg) + 1 + s * self.cfg.value_lines
    }

    /// Looks up `key`, refreshing its LRU position (memcached "touches"
    /// items on every hit — those LRU writes are why even read-heavy loads
    /// contend on shared lines). Returns the value stamp.
    pub fn get(&mut self, key: u64, cluster: ClusterId) -> Option<u64> {
        self.price.compute(self.cfg.op_compute_ns);
        let b = self.hash(key);
        self.price.read_line(self.bucket_line(b), cluster);
        let mut cur = self.buckets[b];
        while cur != NIL {
            // Chain walk: the entry header is on its first line.
            self.price.read_line(self.entry_line(cur), cluster);
            if self.slab[cur].key == key {
                // Value read: remaining value lines.
                for l in 1..self.cfg.value_lines {
                    self.price.read_line(self.entry_line(cur) + l, cluster);
                }
                self.lru_unlink(cur, cluster);
                self.lru_push_front(cur, cluster);
                self.stats.hits += 1;
                return Some(self.slab[cur].stamp);
            }
            cur = self.slab[cur].hash_next;
        }
        self.stats.misses += 1;
        None
    }

    /// Looks up `key` **without touching the LRU list or the stats** —
    /// the read-path lookup used when the store runs under a
    /// reader-writer cache lock, where concurrent `get`s hold only a
    /// shared lock and therefore must not mutate the structures.
    ///
    /// This mirrors what memcached itself did to get out from under the
    /// cache lock: its later releases bump an item's LRU position lazily
    /// (at most once per minute) instead of on every hit, accepting
    /// slightly stale recency for read concurrency. Callers that need
    /// hit/miss accounting count the returned `Option` themselves (see
    /// `SharedKvStore`).
    pub fn peek(&self, key: u64, cluster: ClusterId) -> Option<u64> {
        self.price.compute(self.cfg.op_compute_ns);
        let b = self.hash(key);
        self.price.read_line(self.bucket_line(b), cluster);
        let mut cur = self.buckets[b];
        while cur != NIL {
            self.price.read_line(self.entry_line(cur), cluster);
            if self.slab[cur].key == key {
                for l in 1..self.cfg.value_lines {
                    self.price.read_line(self.entry_line(cur) + l, cluster);
                }
                return Some(self.slab[cur].stamp);
            }
            cur = self.slab[cur].hash_next;
        }
        None
    }

    /// Inserts or overwrites `key` with `stamp`, evicting if full.
    pub fn set(&mut self, key: u64, stamp: u64, cluster: ClusterId) {
        self.price.compute(self.cfg.op_compute_ns);
        let b = self.hash(key);
        self.price.read_line(self.bucket_line(b), cluster);
        let mut cur = self.buckets[b];
        while cur != NIL {
            self.price.read_line(self.entry_line(cur), cluster);
            if self.slab[cur].key == key {
                // Overwrite in place: write every value line.
                for l in 0..self.cfg.value_lines {
                    self.price.write_line(self.entry_line(cur) + l, cluster);
                }
                self.slab[cur].stamp = stamp;
                self.lru_unlink(cur, cluster);
                self.lru_push_front(cur, cluster);
                self.stats.updates += 1;
                return;
            }
            cur = self.slab[cur].hash_next;
        }
        // Insert.
        if self.len() >= self.cfg.capacity {
            self.evict_lru(cluster);
        }
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s] = Entry {
                    key,
                    stamp,
                    hash_next: self.buckets[b],
                    lru_prev: NIL,
                    lru_next: NIL,
                };
                s
            }
            None => {
                self.slab.push(Entry {
                    key,
                    stamp,
                    hash_next: self.buckets[b],
                    lru_prev: NIL,
                    lru_next: NIL,
                });
                self.slab.len() - 1
            }
        };
        for l in 0..self.cfg.value_lines {
            self.price.write_line(self.entry_line(slot) + l, cluster);
        }
        self.price.write_line(self.bucket_line(b), cluster);
        self.buckets[b] = slot;
        self.lru_push_front(slot, cluster);
        self.stats.inserts += 1;
    }

    /// Removes `key`; true if it was present.
    pub fn delete(&mut self, key: u64, cluster: ClusterId) -> bool {
        self.price.compute(self.cfg.op_compute_ns);
        let b = self.hash(key);
        self.price.read_line(self.bucket_line(b), cluster);
        let mut cur = self.buckets[b];
        let mut prev = NIL;
        while cur != NIL {
            self.price.read_line(self.entry_line(cur), cluster);
            if self.slab[cur].key == key {
                let next = self.slab[cur].hash_next;
                if prev == NIL {
                    self.price.write_line(self.bucket_line(b), cluster);
                    self.buckets[b] = next;
                } else {
                    self.price.write_line(self.entry_line(prev), cluster);
                    self.slab[prev].hash_next = next;
                }
                self.lru_unlink(cur, cluster);
                self.free_slots.push(cur);
                return true;
            }
            prev = cur;
            cur = self.slab[cur].hash_next;
        }
        false
    }

    fn evict_lru(&mut self, cluster: ClusterId) {
        let victim = self.lru_tail;
        if victim == NIL {
            return;
        }
        let key = self.slab[victim].key;
        // delete() re-walks the chain, charging realistic traffic.
        self.delete(key, cluster);
        self.stats.evictions += 1;
    }

    fn lru_push_front(&mut self, slot: usize, cluster: ClusterId) {
        // The LRU head line is the hottest line in memcached; every hit
        // writes it.
        self.price.write_line(self.lru_line(), cluster);
        self.price.write_line(self.entry_line(slot), cluster);
        self.slab[slot].lru_prev = NIL;
        self.slab[slot].lru_next = self.lru_head;
        if self.lru_head != NIL {
            self.price
                .write_line(self.entry_line(self.lru_head), cluster);
            self.slab[self.lru_head].lru_prev = slot;
        }
        self.lru_head = slot;
        if self.lru_tail == NIL {
            self.lru_tail = slot;
        }
    }

    fn lru_unlink(&mut self, slot: usize, cluster: ClusterId) {
        let (p, n) = (self.slab[slot].lru_prev, self.slab[slot].lru_next);
        if p != NIL {
            self.price.write_line(self.entry_line(p), cluster);
            self.slab[p].lru_next = n;
        } else if self.lru_head == slot {
            self.price.write_line(self.lru_line(), cluster);
            self.lru_head = n;
        }
        if n != NIL {
            self.price.write_line(self.entry_line(n), cluster);
            self.slab[n].lru_prev = p;
        } else if self.lru_tail == slot {
            self.price.write_line(self.lru_line(), cluster);
            self.lru_tail = p;
        }
        self.slab[slot].lru_prev = NIL;
        self.slab[slot].lru_next = NIL;
    }

    /// Walks the LRU list front-to-back (test/debug helper).
    pub fn lru_keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cur = self.lru_head;
        while cur != NIL {
            out.push(self.slab[cur].key);
            cur = self.slab[cur].lru_next;
        }
        out
    }
}

impl<P: Pricing> std::fmt::Debug for KvStore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("len", &self.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coherence_sim::CostModel;

    const C0: ClusterId = ClusterId::new(0);
    const C1: ClusterId = ClusterId::new(1);

    fn store() -> KvStore<Arc<Directory>> {
        let cfg = KvConfig {
            buckets: 64,
            capacity: 8,
            ..Default::default()
        };
        let dir = Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        ));
        KvStore::new(cfg, dir)
    }

    #[test]
    fn stats_merge_sums_every_field() {
        let mut a = KvStats {
            hits: 1,
            misses: 2,
            updates: 3,
            inserts: 4,
            evictions: 5,
        };
        let b = KvStats {
            hits: 10,
            misses: 20,
            updates: 30,
            inserts: 40,
            evictions: 50,
        };
        a.merge(&b);
        assert_eq!(
            a,
            KvStats {
                hits: 11,
                misses: 22,
                updates: 33,
                inserts: 44,
                evictions: 55,
            }
        );
        // Merging the default is the identity — the shard layer folds
        // over an all-defaults accumulator.
        a.merge(&KvStats::default());
        assert_eq!(a.hits, 11);
        assert_eq!(a.evictions, 55);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut s = store();
        s.set(1, 100, C0);
        s.set(2, 200, C0);
        assert_eq!(s.get(1, C0), Some(100));
        assert_eq!(s.get(2, C0), Some(200));
        assert_eq!(s.get(3, C0), None);
        assert_eq!(s.stats().hits, 2);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn peek_reads_without_touching_lru_or_stats() {
        let mut s = store();
        s.set(1, 10, C0);
        s.set(2, 20, C0);
        assert_eq!(s.lru_keys(), vec![2, 1]);
        assert_eq!(s.peek(1, C0), Some(10));
        assert_eq!(s.peek(3, C0), None);
        assert_eq!(s.lru_keys(), vec![2, 1], "peek must not bump LRU");
        assert_eq!(s.stats().hits, 0, "peek must not count hits");
        assert_eq!(s.stats().misses, 0, "peek must not count misses");
        // get() still behaves normally afterwards.
        assert_eq!(s.get(1, C0), Some(10));
        assert_eq!(s.lru_keys(), vec![1, 2]);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut s = store();
        s.set(7, 1, C0);
        s.set(7, 2, C0);
        assert_eq!(s.get(7, C0), Some(2));
        assert_eq!(s.len(), 1);
        assert_eq!(s.stats().updates, 1);
        assert_eq!(s.stats().inserts, 1);
    }

    #[test]
    fn delete_removes() {
        let mut s = store();
        s.set(5, 50, C0);
        assert!(s.delete(5, C0));
        assert!(!s.delete(5, C0));
        assert_eq!(s.get(5, C0), None);
        assert!(s.is_empty());
    }

    #[test]
    fn eviction_removes_lru_victim() {
        let mut s = store();
        for k in 0..8 {
            s.set(k, k, C0);
        }
        // Touch key 0 so it is MRU; key 1 becomes the LRU tail.
        s.get(0, C0);
        s.set(100, 100, C0); // forces eviction
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.get(1, C0), None, "LRU tail should have been evicted");
        assert_eq!(s.get(0, C0), Some(0), "recently used key survives");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn lru_order_tracks_access() {
        let mut s = store();
        s.set(1, 1, C0);
        s.set(2, 2, C0);
        s.set(3, 3, C0);
        assert_eq!(s.lru_keys(), vec![3, 2, 1]);
        s.get(1, C0);
        assert_eq!(s.lru_keys(), vec![1, 3, 2]);
    }

    #[test]
    fn collisions_chain_correctly() {
        let cfg = KvConfig {
            buckets: 2, // force heavy chaining
            capacity: 64,
            ..Default::default()
        };
        let dir = Arc::new(Directory::new(
            KvStore::lines_needed(&cfg),
            CostModel::t5440(),
        ));
        let mut s = KvStore::new(cfg, dir);
        for k in 0..32 {
            s.set(k, k * 10, C0);
        }
        for k in 0..32 {
            assert_eq!(s.get(k, C0), Some(k * 10));
        }
        for k in (0..32).step_by(2) {
            assert!(s.delete(k, C0));
        }
        for k in 0..32 {
            assert_eq!(s.get(k, C0), (k % 2 == 1).then_some(k * 10));
        }
    }

    #[test]
    fn remote_access_costs_more_virtually() {
        let mut s = store();
        numa_topology::vclock::reset();
        s.set(42, 1, C0);
        let local_cost = {
            numa_topology::vclock::reset();
            s.get(42, C0);
            numa_topology::vclock::now()
        };
        let remote_cost = {
            numa_topology::vclock::reset();
            s.get(42, C1);
            numa_topology::vclock::now()
        };
        assert!(
            remote_cost > local_cost,
            "remote {remote_cost} should exceed local {local_cost}"
        );
        numa_topology::vclock::reset();
    }
}
