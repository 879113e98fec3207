//! The hash table + LRU core (memcached's `assoc` + `items`).

use coherence_sim::{Directory, Free, Pricing};
use numa_topology::ClusterId;
use std::sync::Arc;

/// Store geometry and per-operation compute costs.
///
/// A store refuses (panics on) a config it cannot honour: `buckets` must
/// be a power of two no larger than 2²⁴ (the bucket hash keeps 24 bits,
/// so a larger table would leave buckets unused), and `capacity` in
/// `1..u32::MAX` (a slot is a 32-bit index, and `u32::MAX` is none).
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Hash-table buckets (a power of two, at most 2²⁴).
    pub buckets: usize,
    /// Maximum resident entries (at least 1, below `u32::MAX`); inserting
    /// past this evicts the LRU tail.
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
/// LRU links. Links are 32-bit slab indices (`NIL` = none): an entry is 32
/// bytes, aligned so it never straddles a cache line. The priced line map
/// keeps memcached's 8-byte links and heads, whatever width the host uses.
#[derive(Clone, Debug)]
#[repr(align(32))]
struct Entry {
    key: u64,
    stamp: u64,
    hash_next: u32,
    lru_prev: u32,
    lru_next: u32,
}

const NIL: u32 = u32::MAX;

/// How many keys ahead of its insert [`KvStore::set_all`] prefetches a
/// bucket head. A preload insert takes ~30 ns, so 16 keys put ~500 ns
/// between a prefetch and its use, several DRAM misses' worth, while only
/// a few prefetches are in flight at once: fewer than the line-fill
/// buffers a core has.
const PREFETCH_AHEAD: usize = 16;

/// What a hit writes under the lock, on a 128-byte block of its own: no
/// field that every op or a waiter reads may share its line.
#[repr(align(128))]
struct Hot {
    lru_head: u32,
    lru_tail: u32,
    stats: KvStats,
}

/// Lines used for bucket heads (8 per line: memcached's 8-byte pointers).
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
/// nothing, and its operations are the hash table and LRU alone. The
/// priced line map is memcached's 8-byte layout, whatever the host keeps.
pub struct KvStore<P = Free> {
    cfg: KvConfig,
    buckets: Vec<u32>,
    slab: Vec<Entry>,
    free_slots: Vec<u32>,
    hot: Hot,
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
        assert!(
            cfg.buckets <= 1 << 24,
            "buckets above 2^24 are never hashed to"
        );
        assert!(cfg.capacity >= 1, "capacity must hold at least one entry");
        assert!(cfg.capacity < NIL as usize, "capacity must fit u32 slots");
        KvStore {
            buckets: vec![NIL; cfg.buckets],
            slab: Vec::with_capacity(cfg.capacity),
            free_slots: Vec::new(),
            hot: Hot {
                lru_head: NIL,
                lru_tail: NIL,
                stats: KvStats::default(),
            },
            cfg,
            price,
        }
    }

    /// Operation statistics so far.
    pub fn stats(&self) -> KvStats {
        self.hot.stats
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
        // It keeps the product's top 24 bits: at most 2^24 buckets.
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
    fn entry_line(&self, s: u32) -> usize {
        bucket_lines(&self.cfg) + 1 + s as usize * self.cfg.value_lines
    }

    /// Looks up `key`, refreshing its LRU position (memcached "touches"
    /// items on every hit — those LRU writes are why even read-heavy loads
    /// contend on shared lines, and a priced store charges them on every
    /// hit). A hit on the LRU head is already in place, so the host
    /// stores only the hit counter. Returns the value stamp.
    pub fn get(&mut self, key: u64, cluster: ClusterId) -> Option<u64> {
        self.price.compute(self.cfg.op_compute_ns);
        let b = self.hash(key);
        self.price.read_line(self.bucket_line(b), cluster);
        let mut cur = self.buckets[b];
        while cur != NIL {
            // Chain walk: the entry header is on its first line.
            self.price.read_line(self.entry_line(cur), cluster);
            if self.slab[cur as usize].key == key {
                // Value read: remaining value lines.
                for l in 1..self.cfg.value_lines {
                    self.price.read_line(self.entry_line(cur) + l, cluster);
                }
                self.lru_touch(cur, cluster);
                self.hot.stats.hits += 1;
                return Some(self.slab[cur as usize].stamp);
            }
            cur = self.slab[cur as usize].hash_next;
        }
        self.hot.stats.misses += 1;
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
            if self.slab[cur as usize].key == key {
                for l in 1..self.cfg.value_lines {
                    self.price.read_line(self.entry_line(cur) + l, cluster);
                }
                return Some(self.slab[cur as usize].stamp);
            }
            cur = self.slab[cur as usize].hash_next;
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
            if self.slab[cur as usize].key == key {
                // Overwrite in place: write every value line.
                for l in 0..self.cfg.value_lines {
                    self.price.write_line(self.entry_line(cur) + l, cluster);
                }
                self.slab[cur as usize].stamp = stamp;
                self.lru_touch(cur, cluster);
                self.hot.stats.updates += 1;
                return;
            }
            cur = self.slab[cur as usize].hash_next;
        }
        // Insert.
        if self.len() >= self.cfg.capacity {
            self.evict_lru(cluster);
        }
        let entry = Entry {
            key,
            stamp,
            hash_next: self.buckets[b],
            lru_prev: NIL,
            lru_next: NIL,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slab[s as usize] = entry;
                s
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        };
        for l in 0..self.cfg.value_lines {
            self.price.write_line(self.entry_line(slot) + l, cluster);
        }
        self.price.write_line(self.bucket_line(b), cluster);
        self.buckets[b] = slot;
        self.lru_push_front(slot, cluster);
        self.hot.stats.inserts += 1;
    }

    /// Sets every `(key, stamp)` of `items`, in order, through [`set`]:
    /// the store, its stats and every charge come out exactly as that many
    /// `set` calls leave them. Only the host's timing differs: the bucket
    /// head of the item [`PREFETCH_AHEAD`] places on is prefetched before
    /// an item is set, so a preload of many keys into a large table waits
    /// on few of its random head misses.
    ///
    /// [`set`]: KvStore::set
    pub(crate) fn set_all(
        &mut self,
        items: impl IntoIterator<Item = (u64, u64)>,
        cluster: ClusterId,
    ) {
        // The items prefetched and not yet set; item `i` waits in slot
        // `i % PREFETCH_AHEAD` until item `i + PREFETCH_AHEAD` arrives.
        let mut ring = [(0, 0); PREFETCH_AHEAD];
        let mut seen = 0;
        for item in items {
            self.prefetch_bucket(item.0);
            let slot = &mut ring[seen % PREFETCH_AHEAD];
            let due = std::mem::replace(slot, item);
            if seen >= PREFETCH_AHEAD {
                self.set(due.0, due.1, cluster);
            }
            seen += 1;
        }
        for i in seen.saturating_sub(PREFETCH_AHEAD)..seen {
            let (key, stamp) = ring[i % PREFETCH_AHEAD];
            self.set(key, stamp, cluster);
        }
    }

    /// Asks the host to start loading `key`'s bucket head; charges nothing
    /// and changes nothing.
    #[inline(always)]
    fn prefetch_bucket(&self, key: u64) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let head: *const u32 = &self.buckets[self.hash(key)];
            // SAFETY: `_mm_prefetch` is a hint: it reads no memory the
            // program can observe, writes none and never faults, and `head`
            // points at a live element of `buckets` besides. SSE, which the
            // instruction needs, is part of the x86_64 baseline.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(head.cast()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = key;
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
            if self.slab[cur as usize].key == key {
                let next = self.slab[cur as usize].hash_next;
                if prev == NIL {
                    self.price.write_line(self.bucket_line(b), cluster);
                    self.buckets[b] = next;
                } else {
                    self.price.write_line(self.entry_line(prev), cluster);
                    self.slab[prev as usize].hash_next = next;
                }
                self.lru_unlink(cur, cluster);
                self.free_slots.push(cur);
                return true;
            }
            prev = cur;
            cur = self.slab[cur as usize].hash_next;
        }
        false
    }

    fn evict_lru(&mut self, cluster: ClusterId) {
        let victim = self.hot.lru_tail;
        if victim == NIL {
            return;
        }
        let key = self.slab[victim as usize].key;
        // delete() re-walks the chain, charging realistic traffic.
        self.delete(key, cluster);
        self.hot.stats.evictions += 1;
    }

    /// Moves resident `slot` to the LRU front: the unlink + push of a hit
    /// or an update. An item already at the head would get every field
    /// stored back to the value it holds, so the host stores nothing; the
    /// price is still charged the relink's writes, in the relink's order
    /// (unlink: the LRU line, then the next entry's, or the LRU line again
    /// when the item is alone; push: the LRU line, the item's, the old
    /// head's), which is the traffic memcached's relink makes.
    fn lru_touch(&mut self, slot: u32, cluster: ClusterId) {
        if slot != self.hot.lru_head {
            self.lru_unlink(slot, cluster);
            self.lru_push_front(slot, cluster);
            return;
        }
        let lru = self.lru_line();
        let next = self.slab[slot as usize].lru_next;
        let next_line = (next != NIL).then(|| self.entry_line(next));
        self.price.write_line(lru, cluster);
        self.price.write_line(next_line.unwrap_or(lru), cluster);
        self.price.write_line(lru, cluster);
        self.price.write_line(self.entry_line(slot), cluster);
        if let Some(line) = next_line {
            self.price.write_line(line, cluster);
        }
    }

    fn lru_push_front(&mut self, slot: u32, cluster: ClusterId) {
        // The LRU head line is the hottest line in memcached: every insert
        // and every hit below the head writes it.
        self.price.write_line(self.lru_line(), cluster);
        self.price.write_line(self.entry_line(slot), cluster);
        self.slab[slot as usize].lru_prev = NIL;
        self.slab[slot as usize].lru_next = self.hot.lru_head;
        if self.hot.lru_head != NIL {
            self.price
                .write_line(self.entry_line(self.hot.lru_head), cluster);
            self.slab[self.hot.lru_head as usize].lru_prev = slot;
        }
        self.hot.lru_head = slot;
        if self.hot.lru_tail == NIL {
            self.hot.lru_tail = slot;
        }
    }

    fn lru_unlink(&mut self, slot: u32, cluster: ClusterId) {
        let e = &self.slab[slot as usize];
        let (p, n) = (e.lru_prev, e.lru_next);
        if p != NIL {
            self.price.write_line(self.entry_line(p), cluster);
            self.slab[p as usize].lru_next = n;
        } else if self.hot.lru_head == slot {
            self.price.write_line(self.lru_line(), cluster);
            self.hot.lru_head = n;
        }
        if n != NIL {
            self.price.write_line(self.entry_line(n), cluster);
            self.slab[n as usize].lru_prev = p;
        } else if self.hot.lru_tail == slot {
            self.price.write_line(self.lru_line(), cluster);
            self.hot.lru_tail = p;
        }
        self.slab[slot as usize].lru_prev = NIL;
        self.slab[slot as usize].lru_next = NIL;
    }

    /// Walks the LRU list front-to-back (test/debug helper).
    pub fn lru_keys(&self) -> Vec<u64> {
        self.lru_walk(self.hot.lru_head, |e| e.lru_next)
    }

    /// Walks the LRU list back-to-front (test/debug helper).
    pub fn lru_keys_from_tail(&self) -> Vec<u64> {
        self.lru_walk(self.hot.lru_tail, |e| e.lru_prev)
    }

    fn lru_walk(&self, mut cur: u32, step: impl Fn(&Entry) -> u32) -> Vec<u64> {
        let mut out = Vec::new();
        while cur != NIL {
            out.push(self.slab[cur as usize].key);
            cur = step(&self.slab[cur as usize]);
        }
        out
    }
}

impl<P: Pricing> std::fmt::Debug for KvStore<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("len", &self.len())
            .field("stats", &self.hot.stats)
            .finish_non_exhaustive()
    }
}

/// Where a `KvStore<Free>` keeps its hot block: `shared::tests` holds the
/// read-path counters off its line.
#[cfg(test)]
pub(crate) fn hot_offset() -> usize {
    std::mem::offset_of!(KvStore<Free>, hot)
}

/// A store's contents, field by field (see [`KvStore::canonical_dump`]).
#[cfg(test)]
pub(crate) type Dump = (Vec<u32>, Vec<[u64; 5]>, Vec<u32>, [u32; 2], KvStats);

#[cfg(test)]
impl<P: Pricing> KvStore<P> {
    /// Everything the store holds: bucket heads, each slot's key, stamp
    /// and links (free slots included), the free list, the LRU ends and
    /// the stats. Two stores with equal dumps are the same store.
    pub(crate) fn canonical_dump(&self) -> Dump {
        let slots = self.slab.iter().map(|e| {
            [
                e.key,
                e.stamp,
                e.hash_next.into(),
                e.lru_prev.into(),
                e.lru_next.into(),
            ]
        });
        (
            self.buckets.clone(),
            slots.collect(),
            self.free_slots.clone(),
            [self.hot.lru_head, self.hot.lru_tail],
            self.hot.stats,
        )
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
    #[should_panic(expected = "capacity must hold at least one entry")]
    fn zero_capacity_is_refused() {
        KvStore::unpriced(KvConfig {
            capacity: 0,
            ..Default::default()
        });
    }

    #[test]
    #[should_panic(expected = "capacity must fit u32 slots")]
    fn capacity_past_a_32_bit_slot_is_refused() {
        KvStore::unpriced(KvConfig {
            capacity: u32::MAX as usize,
            ..Default::default()
        });
    }

    /// A hit writes the hot block while holding the lock. Every op reads
    /// `cfg` and the `Vec` headers, and a waiter reads `SharedKvStore`'s
    /// `lock` and `gets_read` before it acquires: none of them may sit on
    /// the hot block's 128-byte line. No entry straddles a 64-byte line.
    #[test]
    fn hot_block_is_shared_with_no_other_field() {
        use std::mem::{align_of, offset_of, size_of};
        type S = KvStore<Free>;
        const LINE: usize = 128;
        assert_eq!((size_of::<Entry>(), align_of::<Entry>()), (32, 32));
        // A `SharedKvStore` holds an `S`, so both map offsets onto lines.
        assert!(align_of::<S>() >= LINE, "offsets map onto lines");
        let off_line = |hot: usize, others: &[(&str, usize, usize)]| {
            let start = hot / LINE * LINE;
            let line = start..start + LINE;
            for &(name, at, len) in others {
                assert!(
                    at + len <= line.start || line.end <= at,
                    "`{name}` at {at}..{} shares the hot line {line:?}",
                    at + len
                );
            }
        };
        let vec = size_of::<Vec<u32>>();
        off_line(
            offset_of!(S, hot),
            &[
                ("cfg", offset_of!(S, cfg), size_of::<KvConfig>()),
                ("buckets", offset_of!(S, buckets), vec),
                ("slab", offset_of!(S, slab), vec),
                ("free_slots", offset_of!(S, free_slots), vec),
            ],
        );
        let (store_at, waiter_reads) = crate::shared::waiter_layout();
        off_line(store_at + offset_of!(S, hot), &waiter_reads);
    }

    #[test]
    #[should_panic(expected = "buckets above 2^24 are never hashed to")]
    fn buckets_past_the_hash_range_are_refused() {
        KvStore::unpriced(KvConfig {
            buckets: 1 << 25,
            ..Default::default()
        });
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
